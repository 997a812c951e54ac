package service

// The wire surface: one listener fronting a fleet of doctors. routes is the
// whole of it — every endpoint registered once, by method and pattern, on
// one net/http mux. A tenant route looks up {tenant} in the registry and
// calls that tenant's HTTPServer handler (its loop, its serve-id ring, its
// counters); the fleet routes read every tenant. The mux answers a wrong
// method with 405 and an Allow header, an unrouted path with 404, and HEAD
// on every GET route.
//
// The registry behind the surface is an interface so this package stays
// below the shard router in the dependency order: internal/shard implements
// TenantRegistry over core systems; this file only routes.

import (
	"context"
	"errors"
	"fmt"
	"net/http"

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
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.pattern, rt.handler)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *MultiHTTPServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// route is one endpoint: a net/http pattern and the handler it runs.
type route struct {
	pattern string
	handler http.HandlerFunc
}

// routes is the route table — the README's "HTTP endpoints" table lists the
// same patterns, and a test keeps the two in step.
func (s *MultiHTTPServer) routes() []route {
	t := s.tenant
	return []route{
		{"POST /v1/t/{tenant}/optimize", t((*HTTPServer).handleOptimize)},
		{"POST /v1/t/{tenant}/feedback", t((*HTTPServer).handleFeedback)},
		{"GET /v1/t/{tenant}/stats", t((*HTTPServer).handleStats)},
		{"POST /v1/t/{tenant}/checkpoint", t((*HTTPServer).handleCheckpoint)},
		{"POST /v1/t/{tenant}/catalog", t((*HTTPServer).handleCatalogPost)},
		{"GET /v1/t/{tenant}/catalog", t((*HTTPServer).handleCatalogGet)},
		{"GET /v1/t/{tenant}/explain/{serve_id}", t((*HTTPServer).handleExplain)},
		{"GET /v1/t/{tenant}/advisor", t((*HTTPServer).handleAdvisor)},
		{"GET /v1/t/{tenant}/metrics", t((*HTTPServer).handleMetrics)},
		{"GET /v1/t/{tenant}/repl/manifest", t((*HTTPServer).handleReplManifest)},
		{"GET /v1/t/{tenant}/repl/checkpoint/{name}", t((*HTTPServer).handleReplCheckpoint)},
		{"POST /v1/t/{tenant}/repl/feedback", t((*HTTPServer).handleReplFeedback)},
		{"GET /v1/stats", s.handleAggregateStats},
		{"GET /metrics", s.handleAggregateMetrics},
		{"GET /v1/tenants", s.handleListTenants},
		{"POST /v1/tenants", s.handleCreateTenant},
	}
}

// tenant adapts a per-tenant handler to the mux: it resolves the {tenant}
// path segment in the registry (404 unknown, 503 draining) and calls h on
// that tenant's server.
func (s *MultiHTTPServer) tenant(h func(*HTTPServer, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		ts, err := s.reg.TenantServer(name)
		if err != nil {
			writeRegistryErr(w, name, err)
			return
		}
		h(ts, w, r)
	}
}

// handleAggregateMetrics scrapes the whole fleet on one page: every family
// appears once, with one series per tenant (plus the tier dimension on the
// tiered families). The zero-or-fully guarantee of the aggregate stats
// roll-up applies here too — a tenant mid-creation is not listed, a tenant
// that finished creating scrapes with all its series.
func (s *MultiHTTPServer) handleAggregateMetrics(w http.ResponseWriter, r *http.Request) {
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

func (s *MultiHTTPServer) handleListTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.reg.TenantNames()})
}

func (s *MultiHTTPServer) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
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
