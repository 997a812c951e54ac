package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/store"
)

// resolveQ is the fixtures' query_id resolver: fq(v) for any id "q<v>".
func resolveQ(id string) *query.Query {
	v, err := strconv.ParseInt(strings.TrimPrefix(id, "q"), 10, 64)
	if err != nil || !strings.HasPrefix(id, "q") {
		return nil
	}
	return fq(v)
}

// fakeRegistry is a TenantRegistry over in-process HTTPServers, for wire
// tests without booting real shards.
type fakeRegistry struct {
	names   []string
	servers map[string]*HTTPServer
}

func (f *fakeRegistry) TenantServer(name string) (*HTTPServer, error) {
	s, ok := f.servers[name]
	if !ok {
		return nil, fosserr.ErrUnknownTenant
	}
	return s, nil
}
func (f *fakeRegistry) TenantNames() []string { return f.names }
func (f *fakeRegistry) CreateTenant(context.Context, WireTenantSpec) (*HTTPServer, error) {
	return nil, fosserr.ErrBadConfig
}

// oneTenant is a registry holding h as "default", the one tenant of a fleet.
func oneTenant(h *HTTPServer) *fakeRegistry {
	return &fakeRegistry{names: []string{"default"}, servers: map[string]*HTTPServer{"default": h}}
}

// serveFleet serves h as the one tenant of a fleet and returns the server
// and the tenant's URL prefix.
func serveFleet(t *testing.T, h *HTTPServer) (*httptest.Server, string) {
	t.Helper()
	ts := httptest.NewServer(NewMultiHTTPServer(oneTenant(h)))
	t.Cleanup(ts.Close)
	return ts, ts.URL + "/v1/t/default"
}

// newWireFixture serves a fake-replica loop as a one-tenant fleet, resolving
// query ids with resolveQ, and returns the tenant's URL prefix.
func newWireFixture(t *testing.T, cfg Config) (string, *fakeReplica) {
	t.Helper()
	blue := newFake("blue")
	_, base := serveFleet(t, NewHTTPServer(New(cfg, blue, nil), HTTPOptions{Resolve: resolveQ}))
	return base, blue
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

// TestHTTPOptimizeFeedbackRoundTrip drives the wire protocol end to end:
// optimize by query_id → serve_id → feedback → stats reflect the recorded
// execution; a second feedback for the same serve_id is rejected.
func TestHTTPOptimizeFeedbackRoundTrip(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100 // never drift
	base, blue := newWireFixture(t, cfg)

	code, out := postJSON(t, base+"/optimize", `{"query_id": "q1"}`)
	if code != http.StatusOK {
		t.Fatalf("optimize status %d: %v", code, out)
	}
	serveID, _ := out["serve_id"].(string)
	if serveID == "" {
		t.Fatalf("no serve_id in %v", out)
	}
	if out["query_id"] != "q1" || out["epoch"] != float64(1) {
		t.Fatalf("unexpected row %v", out)
	}
	if _, ok := out["plan"].(map[string]any); !ok {
		t.Fatalf("no plan summary in %v", out)
	}
	if blue.serves.Load() != 1 {
		t.Fatalf("replica served %d times", blue.serves.Load())
	}

	code, out = postJSON(t, base+"/feedback", `{"serve_id": "`+serveID+`", "latency_ms": 42.5}`)
	if code != http.StatusOK || out["recorded"] != true {
		t.Fatalf("feedback status %d: %v", code, out)
	}
	// replay of the same serve_id must 404 (one feedback per serve)
	if code, _ = postJSON(t, base+"/feedback", `{"serve_id": "`+serveID+`", "latency_ms": 42.5}`); code != http.StatusNotFound {
		t.Fatalf("replayed feedback status %d", code)
	}

	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["backend"] != "fake" {
		t.Fatalf("stats backend %v", st["backend"])
	}
	stats, _ := st["stats"].(map[string]any)
	if stats["Served"] != float64(1) || stats["Recorded"] != float64(1) {
		t.Fatalf("stats counters %v", stats)
	}
	if st["pending_feedback"] != float64(0) {
		t.Fatalf("pending %v after feedback", st["pending_feedback"])
	}
}

// TestHTTPBatchOptimize: query_ids are served as one batch and return
// one row per query, order-aligned.
func TestHTTPBatchOptimize(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	base, blue := newWireFixture(t, cfg)

	code, out := postJSON(t, base+"/optimize", `{"query_ids": ["q1", "q2", "q3"]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	rows, _ := out["results"].([]any)
	if len(rows) != 3 {
		t.Fatalf("rows %v", out)
	}
	seen := map[string]bool{}
	for i, r := range rows {
		row := r.(map[string]any)
		if row["query_id"] != "q"+strconv.Itoa(i+1) {
			t.Fatalf("row %d misaligned: %v", i, row)
		}
		id := row["serve_id"].(string)
		if seen[id] {
			t.Fatalf("duplicate serve_id %s", id)
		}
		seen[id] = true
	}
	if blue.serves.Load() != 3 {
		t.Fatalf("replica served %d, want 3", blue.serves.Load())
	}
}

// TestHTTPServerSideExecute: "execute": true runs the doctor-loop turn in
// one call — the response carries the observed latency and the feedback is
// already recorded.
func TestHTTPServerSideExecute(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	base, _ := newWireFixture(t, cfg)

	code, out := postJSON(t, base+"/optimize", `{"query_id": "q7", "execute": true}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	if out["latency_ms"] != float64(10) { // the fake executes everything at 10ms
		t.Fatalf("latency %v", out["latency_ms"])
	}
	code, st := postJSON(t, base+"/optimize", `{"query_id": "q7"}`)
	_ = st
	if code != http.StatusOK {
		t.Fatalf("second optimize status %d", code)
	}
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if s := stats["stats"].(map[string]any); s["Recorded"] != float64(1) {
		t.Fatalf("server-side execute did not record: %v", s)
	}
}

// TestHTTPErrors covers the wire-level failure modes.
func TestHTTPErrors(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	base, _ := newWireFixture(t, cfg)

	cases := []struct {
		path, body string
		want       int
	}{
		{"/optimize", `{`, http.StatusBadRequest},                                                                     // malformed JSON
		{"/optimize", `{}`, http.StatusBadRequest},                                                                    // no queries
		{"/optimize", `{"query_id": "nope"}`, http.StatusNotFound},                                                    // unknown id
		{"/optimize", `{"query": {"tables": [], "joins": []}}`, http.StatusBadRequest},                                // invalid spec
		{"/optimize", `{"query": {"tables": [{"table": "t", "alias": ""}], "joins": []}}`, http.StatusBadRequest},     // empty alias
		{"/optimize", `{"queries": [{"tables": [{"table": "", "alias": "a"}], "joins": []}]}`, http.StatusBadRequest}, // empty table
		{"/feedback", `{"serve_id": "s999", "latency_ms": 5}`, http.StatusNotFound},                                   // unknown serve
		{"/feedback", `{"serve_id": "s1", "latency_ms": -1}`, http.StatusBadRequest},                                  // bad latency
		{"/catalog", `{"ddl": []}`, http.StatusBadRequest},                                                            // empty DDL batch
	}
	for _, c := range cases {
		if code, out := postJSON(t, base+c.path, c.body); code != c.want {
			t.Fatalf("POST %s %s → %d (want %d): %v", c.path, c.body, code, c.want, out)
		}
	}
	// wrong methods
	resp, err := http.Get(base + "/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET optimize → %d", resp.StatusCode)
	}
}

// TestHTTPFeedbackZeroLatency is the regression test for the dropped
// sub-millisecond executions: a latency_ms of 0 is a legitimate observation
// (fast executions round down to it) and must be recorded, while negative
// values stay rejected.
func TestHTTPFeedbackZeroLatency(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	base, _ := newWireFixture(t, cfg)

	_, out := postJSON(t, base+"/optimize", `{"query_id": "q1"}`)
	serveID := out["serve_id"].(string)
	code, out := postJSON(t, base+"/feedback", `{"serve_id": "`+serveID+`", "latency_ms": 0}`)
	if code != http.StatusOK || out["recorded"] != true {
		t.Fatalf("zero-latency feedback dropped: status %d %v", code, out)
	}
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if s := st["stats"].(map[string]any); s["Recorded"] != float64(1) {
		t.Fatalf("zero-latency execution not recorded: %v", s)
	}
}

// TestHTTPStrictBodies: handlers cap request bodies (413) and reject
// unknown fields (400) instead of half-parsing a misspelled spec.
func TestHTTPStrictBodies(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	base, _ := newWireFixture(t, cfg)

	for _, c := range []struct{ path, body string }{
		{"/optimize", `{"query_id": "q1", "exekute": true}`},
		{"/feedback", `{"serve_id": "s1", "latencyms": 5}`},
	} {
		if code, out := postJSON(t, base+c.path, c.body); code != http.StatusBadRequest {
			t.Fatalf("unknown field in %s accepted: %d %v", c.path, code, out)
		}
	}

	huge := `{"query_id": "q1", "query": {"tables": [{"table": "` + strings.Repeat("x", maxBodyBytes) + `"}]}}`
	if code, out := postJSON(t, base+"/optimize", huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %v", code, out)
	}
}

// TestHTTPCheckpoint: the trigger endpoint writes a durable checkpoint when
// a store is attached and 412s when the loop runs in memory.
func TestHTTPCheckpoint(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	base, _ := newWireFixture(t, cfg)
	if code, out := postJSON(t, base+"/checkpoint", `{}`); code != http.StatusPreconditionFailed {
		t.Fatalf("checkpoint without store: %d %v", code, out)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg.Store = st
	base2, _ := newWireFixture(t, cfg)
	code, out := postJSON(t, base2+"/checkpoint", `{}`)
	if code != http.StatusOK {
		t.Fatalf("checkpoint: %d %v", code, out)
	}
	name, _ := out["checkpoint"].(string)
	if m, ok := st.Latest(); !ok || m.Checkpoint != name {
		t.Fatalf("manifest %+v does not point at %q", m, name)
	}
	// Stats surface the durability counters.
	resp, err := http.Get(base2 + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sj map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&sj); err != nil {
		t.Fatal(err)
	}
	if s := sj["stats"].(map[string]any); s["Checkpoints"] != float64(1) {
		t.Fatalf("stats missing checkpoint counter: %v", s)
	}
}

// fillRing remembers n unreported serves directly, as n optimize calls
// would: what fills the serve-id ring without n wire round trips.
func fillRing(h *HTTPServer, n int) (last string) {
	q := fq(0)
	pe := &planner.PlanEval{Q: q}
	for range n {
		last = h.remember(q, pe, Result{})
	}
	return last
}

// TestHTTPPendingEviction: the serve ring is bounded — old serve_ids are
// evicted FIFO once pendingRing is exceeded, and late feedback for one is
// answered 410 Gone (distinct from 404 for an id that never existed).
func TestHTTPPendingEviction(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	blue := newFake("blue")
	lp := New(cfg, blue, nil)
	h := NewHTTPServer(lp, HTTPOptions{Resolve: resolveQ})
	_, base := serveFleet(t, h)

	_, out := postJSON(t, base+"/optimize", `{"query_id": "q1"}`)
	first := out["serve_id"].(string)
	fillRing(h, pendingRing)
	if code, _ := postJSON(t, base+"/feedback", `{"serve_id": "`+first+`", "latency_ms": 5}`); code != http.StatusGone {
		t.Fatalf("evicted serve_id should get 410 Gone, got %d", code)
	}
	if code, _ := postJSON(t, base+"/feedback", `{"serve_id": "s99999", "latency_ms": 5}`); code != http.StatusNotFound {
		t.Fatalf("never-issued serve_id should get 404, got %d", code)
	}
	if _, out := getJSON(t, base+"/stats"); out["expired_serve_ids"].(float64) != 1 {
		t.Fatalf("stats should count 1 expiration: %v", out["expired_serve_ids"])
	}
}

// TestServeIDExpiry pins the ring's classification below the HTTP layer:
// pending ids resolve once, evicted ids fail errors.Is(ErrServeIDExpired),
// ids the server never issued (or malformed ones) fail as plain unknowns.
func TestServeIDExpiry(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	blue := newFake("blue")
	lp := New(cfg, blue, nil)
	h := NewHTTPServer(lp, HTTPOptions{})

	first := fillRing(h, 1)
	last := fillRing(h, pendingRing)
	// first was evicted by the arrival of the ring's pendingRing+1-th serve.
	if _, err := h.take(first); !errors.Is(err, fosserr.ErrServeIDExpired) {
		t.Fatalf("evicted id error = %v, want ErrServeIDExpired", err)
	}
	if h.expired.Load() != 1 {
		t.Fatalf("expirations = %d, want 1", h.expired.Load())
	}
	// live ids resolve exactly once; a second take is unknown, NOT expired
	// (the client already consumed it — 404 tells them so).
	if _, err := h.take(last); err != nil {
		t.Fatalf("live id: %v", err)
	}
	if _, err := h.take(last); err == nil || errors.Is(err, fosserr.ErrServeIDExpired) {
		t.Fatalf("double-take error = %v, want plain unknown", err)
	}
	// never-issued and malformed ids are unknowns, not expiries
	for _, id := range []string{"s99999", "bogus", "s1x", ""} {
		if _, err := h.take(id); err == nil || errors.Is(err, fosserr.ErrServeIDExpired) {
			t.Fatalf("id %q error = %v, want plain unknown", id, err)
		}
	}

	// An id consumed by feedback BEFORE the ring pushes it out is not an
	// expiry: when later serves pop it off the ring, the counter must not
	// move, the 410 horizon must not advance over it, and its duplicate
	// report stays a plain 404, not a 410.
	h2 := NewHTTPServer(lp, HTTPOptions{})
	early := fillRing(h2, 1)
	if _, err := h2.take(early); err != nil {
		t.Fatalf("fresh id: %v", err)
	}
	fillRing(h2, pendingRing) // the last pops the consumed id off the ring
	if got := h2.expired.Load(); got != 0 {
		t.Fatalf("expirations = %d, want 0 (the consumed id must not count)", got)
	}
	if _, err := h2.take(early); err == nil || errors.Is(err, fosserr.ErrServeIDExpired) {
		t.Fatalf("duplicate report of a consumed id = %v, want plain unknown", err)
	}
}

// TestHTTPMalformedServeID: only the form the server issues names a serve.
// Each malformed id is a 404 from both feedback and explain, even one that
// would read back as the live s1, and none of them consumes s1.
func TestHTTPMalformedServeID(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	base, _ := newWireFixture(t, cfg)
	if _, row := postJSON(t, base+"/optimize", `{"query_id": "q1"}`); row["serve_id"] != "s1" {
		t.Fatalf("first serve_id = %v, want s1", row["serve_id"])
	}
	for _, id := range []string{"s", "s01", "s-1", "x1", "s1x", "s18446744073709551616"} {
		t.Run(id, func(t *testing.T) {
			if code, out := postJSON(t, base+"/feedback", `{"serve_id": "`+id+`", "latency_ms": 1}`); code != http.StatusNotFound {
				t.Fatalf("feedback status %d, want 404: %v", code, out)
			}
			if code, out := getJSON(t, base+"/explain/"+id); code != http.StatusNotFound {
				t.Fatalf("explain status %d, want 404: %v", code, out)
			}
		})
	}
	if code, out := postJSON(t, base+"/feedback", `{"serve_id": "s1", "latency_ms": 1}`); code != http.StatusOK {
		t.Fatalf("feedback for s1 after the malformed ids: %d %v", code, out)
	}
}

// TestHTTPExecuteStaleCatalog: a DDL landing between serve and execute makes
// the replica refuse the plan (NaN). The one-call turn must answer 409 with
// an error body and record nothing — not encode NaN into a 200.
func TestHTTPExecuteStaleCatalog(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	base, blue := newWireFixture(t, cfg)
	blue.execNaN.Store(true)

	code, out := postJSON(t, base+"/optimize", `{"query_id": "q1", "execute": true}`)
	if code != http.StatusConflict || out["error"] == nil {
		t.Fatalf("stale execute: status %d body %v, want 409 with an error", code, out)
	}
	_, st := getJSON(t, base+"/stats")
	stats, _ := st["stats"].(map[string]any)
	if stats["Recorded"] != float64(0) || stats["StaleInvalidations"] != float64(1) {
		t.Fatalf("stale execute counters %v", stats)
	}
}

// TestHTTPFeedbackStaleCatalog: feedback naming a table a DDL dropped after
// the serve is refused 409 ErrCatalogStale on both feedback routes, the way
// the execute:true path refuses it, and neither the recorded count nor the
// WAL moves. A closed loop still answers 503.
func TestHTTPFeedbackStaleCatalog(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	cfg.Store = st
	lp := New(cfg, newFake("blue"), nil)
	_, base := serveFleet(t, NewHTTPServer(lp, HTTPOptions{Resolve: resolveQ}))

	_, out := postJSON(t, base+"/optimize", `{"query_id": "q1"}`)
	sid := out["serve_id"].(string)
	if code, out := postJSON(t, base+"/catalog", `{"ddl": [{"kind": "drop-table", "table": "a"}]}`); code != http.StatusOK {
		t.Fatalf("drop table: %d %v", code, out)
	}
	walBefore := st.WAL().LastSeq()

	if code, out := postJSON(t, base+"/feedback", `{"serve_id": "`+sid+`", "latency_ms": 5}`); code != http.StatusConflict ||
		!strings.Contains(out["error"].(string), fosserr.ErrCatalogStale.Error()) {
		t.Fatalf("feedback on a dropped table: %d %v, want 409 %v", code, out, fosserr.ErrCatalogStale)
	}
	repl := `{"query": {"tables": [{"table": "a", "alias": "a"}]}, "order": ["a"], "latency_ms": 5}`
	if code, out := postJSON(t, base+"/repl/feedback", repl); code != http.StatusConflict {
		t.Fatalf("repl feedback on a dropped table: %d %v, want 409", code, out)
	}
	if s := lp.Stats(); s.Recorded != 0 || s.StaleInvalidations != 2 || st.WAL().LastSeq() != walBefore {
		t.Fatalf("refused feedback moved state: recorded %d, stale %d, wal %d → %d",
			s.Recorded, s.StaleInvalidations, walBefore, st.WAL().LastSeq())
	}

	// A closed loop still answers 503.
	lp2 := New(syncConfig(), newFake("green"), nil)
	h2 := NewHTTPServer(lp2, HTTPOptions{Resolve: resolveQ})
	_, base2 := serveFleet(t, h2)
	_, out = postJSON(t, base2+"/optimize", `{"query_id": "q1"}`)
	sid2 := out["serve_id"].(string)
	if err := lp2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, out := postJSON(t, base2+"/feedback", `{"serve_id": "`+sid2+`", "latency_ms": 5}`); code != http.StatusServiceUnavailable {
		t.Fatalf("feedback after close: %d %v, want 503", code, out)
	}
}
