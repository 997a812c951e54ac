package gate

// proxy.go — the fleet front end. Tenant-scoped requests are forwarded to
// the member that owns the tenant on the ring; /metrics and /v1/stats fan
// out to every member and merge, so one scrape sees the whole fleet.
//
//	    /v1/t/{tenant}/*  → proxied to the owning member (failover optional)
//	GET /metrics          → every member's exposition, instance-labeled +
//	                        merged, plus the gate's own foss_gate_* counters
//	GET /v1/stats         → per-member stats bodies keyed by address
//	GET /v1/gate          → membership, ring parameters; ?tenant=x adds the
//	                        tenant's preference list
//
// The tenant is the {tenant} path segment as net/http decodes it — the same
// value a member's mux routes on — and the member receives the request path
// still escaped, so it parses the same tenant.
//
// Failover forwards only on transport errors (connect refused/reset, i.e.
// the member is gone) — an HTTP error status is a real answer from a live
// owner and is relayed as-is, never retried against a replica that would
// answer differently (a 403 from a follower is not an outage).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/foss-db/foss/internal/metrics"
)

// Options configures a Proxy.
type Options struct {
	// Members is the fleet: one address per serving process
	// ("host:port" or "http://host:port").
	Members []string
	// Failover walks the tenant's preference list on transport errors.
	Failover bool
}

// Proxy is the gate's http.Handler. Safe for concurrent use.
type Proxy struct {
	ring     *Ring
	bases    map[string]string // member -> normalized base URL
	client   *http.Client
	failover bool
	mux      *http.ServeMux

	proxied   map[string]*atomic.Uint64 // per-member forwarded requests
	failovers atomic.Uint64
	errors    atomic.Uint64
}

// NewProxy builds the gate over a fleet membership list.
func NewProxy(opts Options) (*Proxy, error) {
	if len(opts.Members) == 0 {
		return nil, fmt.Errorf("gate: no members")
	}
	p := &Proxy{
		ring:     NewRing(opts.Members),
		bases:    map[string]string{},
		client:   &http.Client{Timeout: 30 * time.Second},
		failover: opts.Failover,
		mux:      http.NewServeMux(),
		proxied:  map[string]*atomic.Uint64{},
	}
	for _, m := range p.ring.Members() {
		base := m
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		p.bases[m] = strings.TrimRight(base, "/")
		p.proxied[m] = &atomic.Uint64{}
	}
	p.mux.HandleFunc("/v1/t/{tenant}/", p.handleTenant)
	p.mux.HandleFunc("GET /metrics", p.handleMetrics)
	p.mux.HandleFunc("GET /v1/stats", p.handleStats)
	p.mux.HandleFunc("GET /v1/gate", p.handleGate)
	return p, nil
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.mux.ServeHTTP(w, r) }

// Ring exposes the routing ring (the fossd gate banner prints ownership).
func (p *Proxy) Ring() *Ring { return p.ring }

// maxProxyBody bounds a buffered request body. Backends cap bodies at
// 1 MiB; the gate allows one byte more so an oversized body still reaches
// the backend's own 413 instead of being mangled here.
const maxProxyBody = 1<<20 + 1

func (p *Proxy) handleTenant(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	n := 1
	if p.failover {
		n = len(p.ring.Members())
	}
	owners := p.ring.Owners(tenant, n)

	// Buffer the body once so failover can replay it against the next
	// member in the preference list.
	body, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBody))
	if err != nil {
		http.Error(w, `{"error":"read request body"}`, http.StatusBadRequest)
		return
	}

	var lastErr error
	for i, member := range owners {
		resp, respBody, err := p.forward(r, member, body)
		if err != nil {
			// Transport failure: the member is unreachable — including one
			// that died mid-response, which is why forward buffers the body
			// before anything is relayed. Anything the member actually said
			// in full — any status — is final.
			lastErr = err
			if i+1 < len(owners) {
				p.failovers.Add(1)
			}
			continue
		}
		p.proxied[member].Add(1)
		relay(w, resp, respBody)
		return
	}
	p.errors.Add(1)
	http.Error(w, fmt.Sprintf(`{"error":"no member reachable for tenant %q: %v"}`, tenant, lastErr),
		http.StatusBadGateway)
}

// forward replays the inbound request against one member and buffers the
// whole response before anything reaches the client. A member killed
// mid-body therefore surfaces as a transport error the caller can still
// fail over — once headers were streamed through, the only option left
// would be a torn response.
func (p *Proxy) forward(r *http.Request, member string, body []byte) (*http.Response, []byte, error) {
	url := p.bases[member] + r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, strings.NewReader(string(body)))
	if err != nil {
		return nil, nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, nil, fmt.Errorf("%s died mid-response: %w", member, err)
	}
	return resp, respBody, nil
}

// relay writes a fully buffered member response through to the client.
func relay(w http.ResponseWriter, resp *http.Response, body []byte) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// fanOut GETs path on every member concurrently; bodies come back keyed by
// member, errors separately.
func (p *Proxy) fanOut(r *http.Request, path string) (map[string][]byte, map[string]string) {
	members := p.ring.Members()
	bodies := make(map[string][]byte, len(members))
	errs := map[string]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, p.bases[m]+path, nil)
			if err == nil {
				var resp *http.Response
				if resp, err = p.client.Do(req); err == nil {
					defer resp.Body.Close()
					var b []byte
					if b, err = io.ReadAll(io.LimitReader(resp.Body, 8<<20)); err == nil {
						if resp.StatusCode != http.StatusOK {
							err = fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
						} else {
							mu.Lock()
							bodies[m] = b
							mu.Unlock()
							return
						}
					}
				}
			}
			mu.Lock()
			errs[m] = err.Error()
			mu.Unlock()
		}(m)
	}
	wg.Wait()
	return bodies, errs
}

// handleStats answers {"members": {addr: body}, "errors": {addr: msg}}. A
// member whose body is not JSON lands in errors, like one that failed.
func (p *Proxy) handleStats(w http.ResponseWriter, r *http.Request) {
	bodies, errs := p.fanOut(r, "/v1/stats")
	members := map[string]json.RawMessage{}
	for m, body := range bodies {
		if json.Valid(body) {
			members[m] = body
		} else {
			errs[m] = "invalid JSON stats body"
		}
	}
	writeJSON(w, map[string]any{"members": members, "errors": errs})
}

func (p *Proxy) handleGate(w http.ResponseWriter, r *http.Request) {
	info := map[string]any{"members": p.ring.Members(), "failover": p.failover}
	if tenant := r.URL.Query().Get("tenant"); tenant != "" {
		info["tenant"] = tenant
		info["owners"] = p.ring.Owners(tenant, len(p.ring.Members()))
	}
	writeJSON(w, info)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}

// handleMetrics merges every member's exposition under instance labels and
// appends the gate's own counters. Family headers (# HELP/# TYPE) are kept
// from the first member that emits them — the text format forbids repeats.
func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	bodies, errs := p.fanOut(r, "/metrics")
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)

	seenFamily := map[string]bool{}
	for _, m := range p.ring.Members() {
		body, ok := bodies[m]
		if !ok {
			continue
		}
		sc := bufio.NewScanner(strings.NewReader(string(body)))
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
			case strings.HasPrefix(line, "#"):
				// "# HELP name ..." / "# TYPE name ...": keep the first copy.
				fields := strings.Fields(line)
				if len(fields) >= 3 {
					key := fields[1] + " " + fields[2]
					if seenFamily[key] {
						continue
					}
					seenFamily[key] = true
				}
				fmt.Fprintln(w, line)
			default:
				fmt.Fprintln(w, injectLabel(line, "instance", m))
			}
		}
	}

	var e metrics.Expo
	e.Family("foss_gate_proxied_total", "Requests forwarded per member.", "counter")
	for _, m := range p.ring.Members() {
		e.Uint("foss_gate_proxied_total", []metrics.Label{{Key: "member", Value: m}}, p.proxied[m].Load())
	}
	e.Family("foss_gate_failovers_total", "Forwards retried against the next member after a transport error.", "counter")
	e.Uint("foss_gate_failovers_total", nil, p.failovers.Load())
	e.Family("foss_gate_errors_total", "Tenant requests no member answered.", "counter")
	e.Uint("foss_gate_errors_total", nil, p.errors.Load())
	e.Family("foss_gate_scrape_errors", "Members unreachable during this scrape.", "gauge")
	e.Sample("foss_gate_scrape_errors", nil, float64(len(errs)))
	_, _ = e.WriteTo(w)
}

// injectLabel rewrites one exposition sample line to carry an extra label.
func injectLabel(line, key, val string) string {
	if i := strings.IndexByte(line, '{'); i >= 0 {
		return line[:i+1] + fmt.Sprintf("%s=%q,", key, val) + line[i+1:]
	}
	if i := strings.IndexByte(line, ' '); i >= 0 {
		return line[:i] + fmt.Sprintf("{%s=%q}", key, val) + line[i:]
	}
	return line
}
