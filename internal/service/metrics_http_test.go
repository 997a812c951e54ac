package service

// GET /metrics golden-format tests: the scrape must be valid Prometheus text
// exposition — every family declared exactly once (# HELP then # TYPE before
// its first sample), histogram buckets cumulative and monotone with
// +Inf == _count, per-tenant labels on every series of a fleet scrape — and
// its counters must agree with the loop's stats.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/foss-db/foss/internal/tier"
)

// promPage is a parsed text-exposition page.
type promPage struct {
	help, typ map[string]string // family → help/type
	samples   []promSample      // in page order
	order     map[string]int    // family → index of first sample line
	declared  map[string]int    // family → line index of its # TYPE
}

type promSample struct {
	name   string // full sample name (foo, foo_bucket, foo_sum, ...)
	labels string // raw label block, "" when absent
	value  float64
	line   int
}

// parseProm parses the exposition text strictly enough to catch format bugs:
// duplicate family declarations, samples without a declared family,
// unparsable values.
func parseProm(t *testing.T, body string) *promPage {
	t.Helper()
	p := &promPage{
		help: map[string]string{}, typ: map[string]string{},
		order: map[string]int{}, declared: map[string]int{},
	}
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			if _, dup := p.help[name]; dup {
				t.Fatalf("line %d: duplicate # HELP for %s", i, name)
			}
			p.help[name] = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if _, dup := p.typ[name]; dup {
				t.Fatalf("line %d: duplicate # TYPE for %s", i, name)
			}
			p.typ[name] = typ
			p.declared[name] = i
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form %q", i, line)
		}
		nameAndLabels, valStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("line %d: no value in %q", i, line)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", i, valStr, err)
		}
		name, labels := nameAndLabels, ""
		if j := strings.IndexByte(nameAndLabels, '{'); j >= 0 {
			name = nameAndLabels[:j]
			labels = nameAndLabels[j:]
			if !strings.HasSuffix(labels, "}") {
				t.Fatalf("line %d: unterminated label block %q", i, line)
			}
		}
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && p.typ[base] == "histogram" {
				fam = base
			}
		}
		if _, ok := p.typ[fam]; !ok {
			t.Fatalf("line %d: sample %s has no declared family", i, name)
		}
		if p.declared[fam] > i {
			t.Fatalf("line %d: sample %s precedes its # TYPE declaration", i, name)
		}
		if _, seen := p.order[fam]; !seen {
			p.order[fam] = i
		}
		p.samples = append(p.samples, promSample{name: name, labels: labels, value: val, line: i})
	}
	return p
}

func scrapeMetrics(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestMetricsGoldenFormat drives traffic through a tiered loop, scrapes
// /metrics, and validates the page structurally plus against the stats.
func TestMetricsGoldenFormat(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	cfg.Tier = tier.Config{Memory: true, PromoteAfter: 1}
	base, _ := newWireFixture(t, cfg)

	const serves = 6
	for i := 1; i <= serves; i++ {
		_, row := postJSON(t, base+"/optimize", `{"query_id": "q`+strconv.Itoa(i%3)+`"}`)
		sid := row["serve_id"].(string)
		if code, _ := postJSON(t, base+"/feedback", `{"serve_id": "`+sid+`", "latency_ms": 5}`); code != http.StatusOK {
			t.Fatalf("feedback %d failed", i)
		}
	}

	body, ctype := scrapeMetrics(t, base+"/metrics")
	if ctype != promContentType {
		t.Fatalf("content type %q, want %q", ctype, promContentType)
	}
	p := parseProm(t, body)

	// Every family has both comments and at least one sample.
	for fam := range p.typ {
		if p.help[fam] == "" {
			t.Fatalf("family %s has no # HELP", fam)
		}
		if _, ok := p.order[fam]; !ok {
			t.Fatalf("family %s declared but has no samples", fam)
		}
	}
	for fam := range p.help {
		if p.typ[fam] == "" {
			t.Fatalf("family %s has # HELP but no # TYPE", fam)
		}
	}

	// A fleet of one scrapes like any fleet: every series carries the
	// tenant label.
	const tl = `tenant="default"`
	for _, s := range p.samples {
		if !strings.HasPrefix(s.labels, "{"+tl) {
			t.Fatalf("line %d: series without the tenant label: %s%s", s.line, s.name, s.labels)
		}
	}

	// The histogram: per-tier series with cumulative monotone buckets and
	// +Inf == _count; the summed counts equal the served total (quiescent).
	find := func(name, labels string) (float64, bool) {
		for _, s := range p.samples {
			if s.name == name && s.labels == labels {
				return s.value, true
			}
		}
		return 0, false
	}
	served, ok := find("foss_served_total", "{"+tl+"}")
	if !ok || served != serves {
		t.Fatalf("foss_served_total = %v (present %v), want %d", served, ok, serves)
	}
	var histTotal float64
	for _, s := range p.samples {
		if strings.Contains(s.labels, `tier="1"`) {
			t.Fatalf("line %d: there is no tier 1, yet %s%s is exposed", s.line, s.name, s.labels)
		}
	}
	for _, tierN := range []int{tier.Tier0, tier.Tier2} {
		tierLabels := fmt.Sprintf(`{%s,tier="%d"}`, tl, tierN)
		var buckets []promSample
		for _, s := range p.samples {
			if s.name == "foss_serve_latency_seconds_bucket" && strings.Contains(s.labels, fmt.Sprintf(`tier="%d"`, tierN)) {
				buckets = append(buckets, s)
			}
		}
		if len(buckets) == 0 {
			t.Fatalf("no buckets for tier %d", tierN)
		}
		sort.SliceStable(buckets, func(i, j int) bool { return buckets[i].line < buckets[j].line })
		for i := 1; i < len(buckets); i++ {
			if buckets[i].value < buckets[i-1].value {
				t.Fatalf("tier %d buckets not cumulative: %v then %v", tierN, buckets[i-1], buckets[i])
			}
		}
		last := buckets[len(buckets)-1]
		if !strings.Contains(last.labels, `le="+Inf"`) {
			t.Fatalf("tier %d: last bucket %s is not +Inf", tierN, last.labels)
		}
		count, ok := find("foss_serve_latency_seconds_count", tierLabels)
		if !ok || count != last.value {
			t.Fatalf("tier %d: _count %v != +Inf bucket %v", tierN, count, last.value)
		}
		histTotal += count
	}
	if histTotal != served {
		t.Fatalf("Σ histogram counts %v != served %v after quiescence", histTotal, served)
	}
	if rec, _ := find("foss_recorded_total", "{"+tl+"}"); rec != serves {
		t.Fatalf("foss_recorded_total = %v, want %d", rec, serves)
	}
	// PromoteAfter=1 with winning feedback: the tier counters moved.
	if promos, _ := find("foss_tier_promotions_total", "{"+tl+"}"); promos == 0 {
		t.Fatal("no promotions despite winning feedback on repeat fingerprints")
	}
	if t0, ok := find("foss_tier_serves_total", "{"+tl+`,tier="0"}`); !ok || t0 == 0 {
		t.Fatalf("tier-0 serve counter = %v (present %v), want > 0", t0, ok)
	}

	// Wrong method refused.
	resp, err := http.Post(base+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status %d", resp.StatusCode)
	}
}

// TestMetricsAggregateTenantLabels: the fleet scrape emits every family once
// with one tenant-labeled series per tenant, and the per-tenant endpoint
// carries the same label.
func TestMetricsAggregateTenantLabels(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	reg := &fakeRegistry{servers: map[string]*HTTPServer{}}
	for _, name := range []string{"acme", "globex"} {
		blue := newFake(name + "-blue")
		lp := New(cfg, blue, nil)
		h := NewHTTPServer(lp, HTTPOptions{Resolve: resolveQ})
		reg.names = append(reg.names, name)
		reg.servers[name] = h
	}
	ts := httptest.NewServer(NewMultiHTTPServer(reg))
	t.Cleanup(ts.Close)

	// Asymmetric traffic so the per-tenant series are distinguishable.
	postJSON(t, ts.URL+"/v1/t/acme/optimize", `{"query_id": "q1"}`)
	postJSON(t, ts.URL+"/v1/t/acme/optimize", `{"query_id": "q2"}`)
	postJSON(t, ts.URL+"/v1/t/globex/optimize", `{"query_id": "q1"}`)

	body, ctype := scrapeMetrics(t, ts.URL+"/metrics")
	if ctype != promContentType {
		t.Fatalf("content type %q", ctype)
	}
	p := parseProm(t, body)
	// Every sample on the aggregate page is tenant-labeled, and every family
	// covers both tenants.
	perFamily := map[string]map[string]bool{}
	for _, s := range p.samples {
		if !strings.Contains(s.labels, `tenant="acme"`) && !strings.Contains(s.labels, `tenant="globex"`) {
			t.Fatalf("line %d: unlabeled series on aggregate scrape: %s%s", s.line, s.name, s.labels)
		}
		for _, tn := range []string{"acme", "globex"} {
			if strings.Contains(s.labels, `tenant="`+tn+`"`) {
				if perFamily[s.name] == nil {
					perFamily[s.name] = map[string]bool{}
				}
				perFamily[s.name][tn] = true
			}
		}
	}
	for name, tenants := range perFamily {
		if len(tenants) != 2 {
			t.Fatalf("family sample %s covers %v, want both tenants", name, tenants)
		}
	}
	var acmeServed, globexServed float64
	for _, s := range p.samples {
		if s.name != "foss_served_total" {
			continue
		}
		switch s.labels {
		case `{tenant="acme"}`:
			acmeServed = s.value
		case `{tenant="globex"}`:
			globexServed = s.value
		}
	}
	if acmeServed != 2 || globexServed != 1 {
		t.Fatalf("per-tenant served = acme:%v globex:%v, want 2/1", acmeServed, globexServed)
	}

	// The tenant-scoped endpoint reports only that tenant, same label.
	body, _ = scrapeMetrics(t, ts.URL+"/v1/t/acme/metrics")
	tp := parseProm(t, body)
	for _, s := range tp.samples {
		if !strings.Contains(s.labels, `tenant="acme"`) {
			t.Fatalf("tenant-scoped scrape leaked unlabeled/foreign series: %s%s", s.name, s.labels)
		}
	}
}
