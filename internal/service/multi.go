package service

// The multi-tenant wire surface: one listener fronting a fleet of doctors.
// Every tenant-scoped endpoint is the single-tenant surface re-rooted under
// the tenant's prefix, served by that tenant's own HTTPServer (its loop,
// its serve-id ring, its counters):
//
//	POST /v1/t/{tenant}/optimize    — as /v1/optimize, on that tenant's shard
//	POST /v1/t/{tenant}/feedback    — as /v1/feedback
//	GET  /v1/t/{tenant}/stats       — as /v1/stats
//	POST /v1/t/{tenant}/checkpoint  — as /v1/checkpoint
//	POST /v1/t/{tenant}/catalog     — as /v1/catalog (DDL batch; GET reads)
//	GET  /v1/t/{tenant}/explain/{serve_id} — as /v1/explain/{serve_id}
//	GET  /v1/t/{tenant}/advisor     — as /v1/advisor
//	GET  /v1/t/{tenant}/metrics     — that tenant's scrape, tenant-labeled
//	GET  /v1/stats                  — aggregate roll-up over every tenant
//	GET  /metrics                   — aggregate scrape, one series per tenant
//	GET  /v1/tenants                — tenant list
//	POST /v1/tenants                — create a shard live (see WireTenantSpec)
//
// The registry behind the surface is an interface so this package stays
// below the shard router in the dependency order: internal/shard implements
// TenantRegistry over core systems; this file only routes.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/foss-db/foss/internal/fosserr"
)

// WireTenantSpec is the JSON body of POST /v1/tenants: the identity and
// generation parameters of a shard to create live. Zero fields inherit the
// registry's defaults.
type WireTenantSpec struct {
	Tenant   string  `json:"tenant"`
	Workload string  `json:"workload,omitempty"`
	Backend  string  `json:"backend,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
}

// TenantRegistry is the shard router as the wire surface sees it. Lookups
// fail with fosserr.ErrUnknownTenant (404) for absent tenants and
// fosserr.ErrLoopClosed (503) once the router is draining.
type TenantRegistry interface {
	// TenantServer returns the named tenant's HTTP surface.
	TenantServer(name string) (*HTTPServer, error)
	// TenantNames lists the live tenants in stable (sorted) order.
	TenantNames() []string
	// CreateTenant boots a new shard live — workload generation plus
	// training or a warm start, so expect seconds, not milliseconds — and
	// returns its HTTP surface. ctx cancels the boot (a disconnected client
	// or a draining server stops the training run instead of wasting it).
	// A duplicate name or an invalid spec is an error.
	CreateTenant(ctx context.Context, spec WireTenantSpec) (*HTTPServer, error)
}

// MultiHTTPServer is the http.Handler exposing a tenant registry. Safe for
// concurrent use.
type MultiHTTPServer struct {
	reg TenantRegistry
	mux *http.ServeMux
}

// NewMultiHTTPServer builds the fleet surface over a tenant registry.
func NewMultiHTTPServer(reg TenantRegistry) *MultiHTTPServer {
	s := &MultiHTTPServer{reg: reg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/t/", s.handleTenantScoped)
	s.mux.HandleFunc("/v1/stats", s.handleAggregateStats)
	s.mux.HandleFunc("/v1/tenants", s.handleTenants)
	s.mux.HandleFunc("/metrics", s.handleAggregateMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *MultiHTTPServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// tenantEndpoints is the allowlist of per-tenant paths; anything else under
// /v1/t/{tenant}/ is a 404 here rather than a confusing delegate miss.
var tenantEndpoints = map[string]bool{
	"optimize": true, "feedback": true, "stats": true, "checkpoint": true,
	"explain": true, "advisor": true, "metrics": true, "repl": true,
	"catalog": true,
}

// handleTenantScoped peels /v1/t/{tenant}/{endpoint}[/{rest}] and delegates
// to the tenant's own HTTPServer with the path re-rooted at
// /v1/{endpoint}[/{rest}] — the single-tenant handlers (body limits, strict
// parsing, serve-id ring) apply unchanged per tenant. Two special cases:
// explain keeps its serve_id suffix through the re-rooting, and metrics is
// rendered here so the tenant label lands on every series.
func (s *MultiHTTPServer) handleTenantScoped(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/t/")
	tenant, sub, ok := strings.Cut(rest, "/")
	endpoint := sub
	if i := strings.IndexByte(sub, '/'); i >= 0 {
		endpoint = sub[:i]
	}
	if !ok || tenant == "" || !tenantEndpoints[endpoint] {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown path %q (want /v1/t/{tenant}/{optimize|feedback|stats|checkpoint|catalog|explain|advisor|metrics})", r.URL.Path))
		return
	}
	ts, err := s.reg.TenantServer(tenant)
	if err != nil {
		writeRegistryErr(w, tenant, err)
		return
	}
	if endpoint == "metrics" {
		if r.Method != http.MethodGet {
			writeErr(w, http.StatusMethodNotAllowed, "GET required")
			return
		}
		writeMetricsText(w, []scrapeRow{ts.scrape(tenant)})
		return
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/v1/" + sub
	ts.ServeHTTP(w, r2)
}

// handleAggregateMetrics scrapes the whole fleet on one page: every family
// appears once, with one series per tenant (plus the tier dimension on the
// tiered families). The zero-or-fully guarantee of the aggregate stats
// roll-up applies here too — a tenant mid-creation is not listed, a tenant
// that finished creating scrapes with all its series.
func (s *MultiHTTPServer) handleAggregateMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	var rows []scrapeRow
	for _, name := range s.reg.TenantNames() {
		ts, err := s.reg.TenantServer(name)
		if errors.Is(err, fosserr.ErrLoopClosed) {
			// Draining: refuse the scrape rather than serve a page that
			// reads as every counter collapsing to zero.
			writeRegistryErr(w, name, err)
			return
		}
		if err != nil {
			continue // dropped between listing and lookup
		}
		rows = append(rows, ts.scrape(name))
	}
	writeMetricsText(w, rows)
}

// aggregateStatsResponse is the fleet-wide /v1/stats body: the per-tenant
// snapshots plus totals summed across them.
type aggregateStatsResponse struct {
	Tenants map[string]statsResponse `json:"tenants"`
	Totals  aggregateTotals          `json:"totals"`
}

type aggregateTotals struct {
	Tenants     int    `json:"tenants"`
	Served      uint64 `json:"served"`
	Recorded    uint64 `json:"recorded"`
	Swaps       uint64 `json:"swaps"`
	Retrains    uint64 `json:"retrains"`
	Checkpoints uint64 `json:"checkpoints"`
	WALEntries  uint64 `json:"wal_entries"`
	CacheHits   uint64 `json:"cache_hits"`
	Tier0Hits   uint64 `json:"tier0_hits"`
	Promotions  uint64 `json:"tier_promotions"`
	Pending     int    `json:"pending_feedback"`
	Expired     uint64 `json:"expired_serve_ids"`
}

func (s *MultiHTTPServer) handleAggregateStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	out := aggregateStatsResponse{Tenants: map[string]statsResponse{}}
	for _, name := range s.reg.TenantNames() {
		ts, err := s.reg.TenantServer(name)
		if errors.Is(err, fosserr.ErrLoopClosed) {
			// The router is draining: every lookup will fail. An empty 200
			// would read as the fleet's counters collapsing to zero —
			// refuse like every other endpoint does.
			writeRegistryErr(w, name, err)
			return
		}
		if err != nil {
			continue // dropped between listing and lookup: skip, don't fail the roll-up
		}
		row := ts.statsSnapshot()
		out.Tenants[name] = row
		out.Totals.Tenants++
		out.Totals.Served += row.Stats.Served
		out.Totals.Recorded += row.Stats.Recorded
		out.Totals.Swaps += row.Stats.Swaps
		out.Totals.Retrains += row.Stats.Retrains
		out.Totals.Checkpoints += row.Stats.Checkpoints
		out.Totals.WALEntries += row.Stats.WALEntries
		out.Totals.CacheHits += row.Stats.CacheHits
		out.Totals.Tier0Hits += row.Stats.Tier0Hits
		out.Totals.Promotions += row.Stats.Promotions
		out.Totals.Pending += row.Pending
		out.Totals.Expired += row.Expired
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *MultiHTTPServer) handleTenants(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]any{"tenants": s.reg.TenantNames()})
	case http.MethodPost:
		var spec WireTenantSpec
		if !decodeBody(w, r, &spec) {
			return
		}
		if spec.Tenant == "" {
			writeErr(w, http.StatusBadRequest, "tenant name required")
			return
		}
		ts, err := s.reg.CreateTenant(r.Context(), spec)
		if err != nil {
			writeRegistryErr(w, spec.Tenant, err)
			return
		}
		lp := ts.Loop()
		writeJSON(w, http.StatusCreated, map[string]any{
			"tenant":  spec.Tenant,
			"backend": lp.Active().BackendName(),
			"epoch":   lp.Epoch(),
		})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "GET or POST required")
	}
}

// writeRegistryErr maps registry failures onto wire statuses: an unknown
// tenant is the client's path (404), a draining router refuses new work
// (503), an invalid spec — a duplicate tenant name included, which the
// router reports as ErrBadConfig — is the client's body (400), a state dir
// another process holds is a conflict (409), the rest are server faults.
func writeRegistryErr(w http.ResponseWriter, tenant string, err error) {
	switch {
	case errors.Is(err, fosserr.ErrUnknownTenant):
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown tenant %q", tenant))
	case errors.Is(err, fosserr.ErrLoopClosed):
		writeErr(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, fosserr.ErrStoreLocked):
		writeErr(w, http.StatusConflict, err.Error())
	case errors.Is(err, fosserr.ErrBadConfig), errors.Is(err, fosserr.ErrUnknownBackend), errors.Is(err, fosserr.ErrUnknownWorkload):
		writeErr(w, http.StatusBadRequest, err.Error())
	default:
		writeErr(w, http.StatusInternalServerError, err.Error())
	}
}
