package service

// Explain tests: the wire round trip (optimize → explain must reproduce the
// served plan bit-for-bit, then track the feedback lifecycle), the serve-id
// classification (404 vs 410), the served-vs-expert hint diff, and the
// execute:true ring-accounting regression — the one-call path must run its
// slot through the ring exactly like the two-call path.

import (
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planner"
)

// TestHTTPExplainRoundTrip: the explain body's served block must match the
// optimize row's plan bit-for-bit, carry the tier decision, and flip to
// recorded (with the observed latency) once feedback lands — without
// consuming the pending slot itself.
func TestHTTPExplainRoundTrip(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	base, _ := newWireFixture(t, cfg)

	_, row := postJSON(t, base+"/optimize", `{"query_id": "q1"}`)
	sid := row["serve_id"].(string)
	servedPlan := row["plan"].(map[string]any)

	code, ex := getJSON(t, base+"/explain/"+sid)
	if code != http.StatusOK {
		t.Fatalf("explain status %d: %v", code, ex)
	}
	if ex["serve_id"] != sid || ex["query_id"] != "q1" || ex["epoch"] != float64(1) {
		t.Fatalf("explain identity wrong: %v", ex)
	}
	if fp, _ := ex["fingerprint"].(string); len(fp) != 16 {
		t.Fatalf("fingerprint %q not 16 hex digits", fp)
	}
	td, _ := ex["tier_decision"].(string)
	if td == "" || !strings.Contains(td, "tier-2") {
		t.Fatalf("tier decision %q does not describe the serving tier", td)
	}
	served, _ := ex["served"].(map[string]any)
	if served == nil {
		t.Fatalf("no served block in %v", ex)
	}
	// Bit-for-bit: every field of the optimize row's plan summary must
	// reappear identically inside the explain served block.
	for _, key := range []string{"order", "methods", "step", "icp_key", "est_cost", "est_rows"} {
		if !reflect.DeepEqual(served[key], servedPlan[key]) {
			t.Fatalf("served.%s = %v, optimize row had %v", key, served[key], servedPlan[key])
		}
	}
	if ex["recorded"] != false {
		t.Fatalf("recorded before feedback: %v", ex["recorded"])
	}
	if _, hasLat := ex["latency_ms"]; hasLat {
		t.Fatalf("latency reported before feedback: %v", ex)
	}
	// The fake replica's expert plan has no extractable join tree, so the
	// hint diff is unavailable — but the failure must be explicit, not a
	// silent omission.
	if msg, _ := ex["expert_error"].(string); !strings.Contains(msg, "hint diff unavailable") {
		t.Fatalf("expert_error = %q, want an explicit hint-diff failure", msg)
	}

	// Explaining must NOT have consumed the slot: feedback still lands.
	code, fb := postJSON(t, base+"/feedback", `{"serve_id": "`+sid+`", "latency_ms": 42.5}`)
	if code != http.StatusOK {
		t.Fatalf("feedback after explain: %d %v", code, fb)
	}
	_, ex = getJSON(t, base+"/explain/"+sid)
	if ex["recorded"] != true || ex["latency_ms"] != float64(42.5) {
		t.Fatalf("explain after feedback: recorded=%v latency=%v", ex["recorded"], ex["latency_ms"])
	}

	// Unknown and malformed ids are 404s; wrong method is 405.
	for _, id := range []string{"s999", "bogus", "s1x", "s"} {
		if code, _ := getJSON(t, base+"/explain/"+id); code != http.StatusNotFound {
			t.Fatalf("explain %q status %d, want 404", id, code)
		}
	}
	resp, err := http.Post(base+"/explain/"+sid, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST explain status %d", resp.StatusCode)
	}
}

// TestHTTPExplainEvicted: a serve id pushed out of the ring live answers 410
// to explain, matching the feedback classification.
func TestHTTPExplainEvicted(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	blue := newFake("blue")
	lp := New(cfg, blue, nil)
	h := NewHTTPServer(lp, HTTPOptions{Resolve: resolveQ})
	_, base := serveFleet(t, h)

	_, out := postJSON(t, base+"/optimize", `{"query_id": "q1"}`)
	first := out["serve_id"].(string)
	fillRing(h, pendingRing)
	if code, _ := getJSON(t, base+"/explain/"+first); code != http.StatusGone {
		t.Fatalf("evicted serve_id explain status %d, want 410", code)
	}
}

// TestDiffICP pins the served-vs-expert hint diff: identity, order changes,
// and per-join method changes (enumerated only when the orders line up).
func TestDiffICP(t *testing.T) {
	base := plan.ICP{Order: []string{"a", "b", "c"}, Methods: []plan.JoinMethod{plan.HashJoin, plan.NestLoop}}

	d := diffICP(base, base.Clone())
	if !d.MatchesExpert || d.OrderChanged || len(d.MethodChanges) != 0 {
		t.Fatalf("identical plans diffed: %+v", d)
	}
	if d.ServedKey != base.Key() || d.ExpertKey != base.Key() {
		t.Fatalf("keys wrong on identity diff: %+v", d)
	}

	reordered := plan.ICP{Order: []string{"b", "a", "c"}, Methods: base.Methods}
	d = diffICP(base, reordered)
	if d.MatchesExpert || !d.OrderChanged || len(d.MethodChanges) != 0 {
		t.Fatalf("order change diff wrong: %+v", d)
	}

	remethod := plan.ICP{Order: base.Order, Methods: []plan.JoinMethod{plan.MergeJoin, plan.NestLoop}}
	d = diffICP(base, remethod)
	if d.MatchesExpert || d.OrderChanged || len(d.MethodChanges) != 1 {
		t.Fatalf("method change diff wrong: %+v", d)
	}
	want := "join 1 (b): expert MergeJoin -> served HashJoin"
	if d.MethodChanges[0] != want {
		t.Fatalf("method change = %q, want %q", d.MethodChanges[0], want)
	}
}

// TestHTTPExecuteInterleaveRing is the regression test for the execute:true
// ring accounting: one-call and two-call serves interleaved through a full
// ring must agree on capacity — consumed slots popping off is bookkeeping
// (no 410, no expired count), execute rows stay explainable, and their
// serve_ids answer 404 (already reported) to feedback, never 410.
func TestHTTPExecuteInterleaveRing(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	blue := newFake("blue")
	lp := New(cfg, blue, nil)
	h := NewHTTPServer(lp, HTTPOptions{Resolve: resolveQ})
	_, base := serveFleet(t, h)

	// Fill the ring the way the two paths' handlers do, one-call slots
	// consumed on entry and two-call slots taken by feedback, so the wire
	// turns below push consumed slots of both kinds off it.
	pe := &planner.PlanEval{Q: fq(0)}
	for range pendingRing / 2 {
		h.rememberExecuted(fq(0), pe, Result{}, 10)
		if _, err := h.take(h.remember(fq(0), pe, Result{})); err != nil {
			t.Fatal(err)
		}
	}

	var execIDs []string
	for i := 1; i <= 6; i++ {
		// One-call turn: recorded server-side, slot pre-consumed.
		_, ex := postJSON(t, base+"/optimize", `{"query_id": "q`+strconv.Itoa(i)+`", "execute": true}`)
		sid, _ := ex["serve_id"].(string)
		if sid == "" || ex["latency_ms"] != float64(10) {
			t.Fatalf("execute row %d missing serve_id/latency: %v", i, ex)
		}
		execIDs = append(execIDs, sid)
		// Two-call turn: feedback promptly, before any eviction pressure.
		_, row := postJSON(t, base+"/optimize", `{"query_id": "q`+strconv.Itoa(100+i)+`"}`)
		if code, fb := postJSON(t, base+"/feedback",
			`{"serve_id": "`+row["serve_id"].(string)+`", "latency_ms": 5}`); code != http.StatusOK {
			t.Fatalf("interleaved feedback %d: %d %v", i, code, fb)
		}
	}
	// Every slot was consumed when it left the ring: nothing expired, the
	// 410 horizon never moved.
	if _, st := getJSON(t, base+"/stats"); st["expired_serve_ids"] != float64(0) {
		t.Fatalf("consumed slots counted as expired: %v", st["expired_serve_ids"])
	}
	if _, st := getJSON(t, base+"/stats"); st["pending_feedback"] != float64(0) {
		t.Fatalf("pending after all feedback: %v", st["pending_feedback"])
	}
	// Recent execute serves stay explainable with their recorded latency
	// (older ones may have aged out of the consumed ring — silently).
	last := execIDs[len(execIDs)-1]
	code, ex := getJSON(t, base+"/explain/"+last)
	if code != http.StatusOK || ex["recorded"] != true || ex["latency_ms"] != float64(10) {
		t.Fatalf("execute serve not explainable: %d %v", code, ex)
	}
	// Feedback on an execute row is a duplicate report: 404, not 410.
	if code, _ := postJSON(t, base+"/feedback", `{"serve_id": "`+last+`", "latency_ms": 5}`); code != http.StatusNotFound {
		t.Fatalf("feedback on execute row status %d, want 404", code)
	}

	// Genuine expiry still works after the interleave: overflow the ring
	// with unreported serves and the oldest flips to 410.
	_, row := postJSON(t, base+"/optimize", `{"query_id": "q201"}`)
	firstLive := row["serve_id"].(string)
	fillRing(h, pendingRing)
	if code, _ := postJSON(t, base+"/feedback", `{"serve_id": "`+firstLive+`", "latency_ms": 5}`); code != http.StatusGone {
		t.Fatalf("evicted live serve status %d, want 410", code)
	}
	if _, st := getJSON(t, base+"/stats"); st["expired_serve_ids"] != float64(1) {
		t.Fatalf("expired = %v, want exactly the one live eviction", st["expired_serve_ids"])
	}
}
