package tier

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/runtime"
	"github.com/foss-db/foss/internal/store"
)

// chainQuery builds a connected chain query a—b—c—d with an equality filter
// on the given alias.
func chainQuery(filtered string) *query.Query {
	return &query.Query{
		ID:       "chain",
		Template: "t",
		Tables: []query.TableRef{
			{Table: "ta", Alias: "a"}, {Table: "tb", Alias: "b"},
			{Table: "tc", Alias: "c"}, {Table: "td", Alias: "d"},
		},
		Joins: []query.JoinPred{
			{LA: "a", LC: "id", RA: "b", RC: "aid"},
			{LA: "b", LC: "id", RA: "c", RC: "bid"},
			{LA: "c", LC: "id", RA: "d", RC: "cid"},
		},
		Filters: []query.Filter{{Alias: filtered, Col: "x", Op: query.Eq, Val: 1}},
	}
}

// chainICP is the fixture plan for chainQuery: the chain in order, hash
// joins throughout.
func chainICP() plan.ICP {
	return plan.ICP{
		Order:   []string{"a", "b", "c", "d"},
		Methods: []plan.JoinMethod{plan.HashJoin, plan.HashJoin, plan.HashJoin},
	}
}

func eval(q *query.Query, icp plan.ICP) *planner.PlanEval {
	return &planner.PlanEval{Q: q, ICP: icp, Latency: math.NaN()}
}

// TestMemoryPromoteRouteEscalate drives one fingerprint through the full
// lifecycle: tier 2 → win streak → pinned tier 0 → regression → escalated
// back with the latch held.
func TestMemoryPromoteRouteEscalate(t *testing.T) {
	m := NewMemory(Config{Memory: true, PromoteAfter: 2})
	id := runtime.Identity{Backend: "b", Epoch: 1}
	q := chainQuery("a")
	fp := q.Fingerprint()
	icp := chainICP()
	pe := eval(q, icp)

	if d := m.Route(id, fp); d.Tier != Tier2 {
		t.Fatalf("novel fingerprint routed to tier %d", d.Tier)
	}
	if out := m.Observe(id, fp, q, pe, 5, 10); out.Promoted {
		t.Fatal("promoted after one win")
	}
	out := m.Observe(id, fp, q, pe, 5, 10)
	if !out.Promoted {
		t.Fatalf("second win must promote: %+v", out)
	}
	if d := m.Route(id, fp); d.Tier != Tier0 || d.Pin != pe {
		t.Fatalf("pinned fingerprint routed to tier %d", d.Tier)
	}
	// A different identity (post-swap epoch) must miss.
	if d := m.Route(runtime.Identity{Backend: "b", Epoch: 2}, fp); d.Tier != Tier2 {
		t.Fatalf("stale-epoch pin answered: tier %d", d.Tier)
	}
	// Regression past 1.5× the expert escalates and latches.
	if out := m.Observe(id, fp, q, pe, 100, 10); !out.Demoted {
		t.Fatalf("regressed pin not demoted: %+v", out)
	}
	if d := m.Route(id, fp); d.Tier != Tier2 {
		t.Fatalf("escalated fingerprint routed to tier %d", d.Tier)
	}
	for i := 0; i < 5; i++ {
		if out := m.Observe(id, fp, q, pe, 5, 10); out.Promoted {
			t.Fatal("regression latch did not hold")
		}
	}
	// Invalidate (the hot-swap hook) clears the latch: trust can be re-earned
	// under the new identity.
	m.Invalidate()
	id2 := runtime.Identity{Backend: "b", Epoch: 2}
	m.Observe(id2, fp, q, pe, 5, 10)
	if out := m.Observe(id2, fp, q, pe, 5, 10); !out.Promoted {
		t.Fatalf("post-invalidate epoch could not re-promote: %+v", out)
	}
}

// TestMemoryExportImportRoundtrip: a recovered Memory serves the same pins
// and histories as the one that exported them, re-keyed under the current
// identity through the caller's rebuild hook.
func TestMemoryExportImportRoundtrip(t *testing.T) {
	m := NewMemory(Config{Memory: true, PromoteAfter: 1})
	id := runtime.Identity{Backend: "b", Epoch: 3}
	q := chainQuery("b")
	fp := q.Fingerprint()
	icp := chainICP()
	if out := m.Observe(id, fp, q, eval(q, icp), 4, 10); !out.Promoted {
		t.Fatal("fixture did not promote")
	}
	ts := m.Export()
	if len(ts.Pins) != 1 || len(ts.History) != 1 {
		t.Fatalf("export: %d pins %d histories", len(ts.Pins), len(ts.History))
	}
	if ts.Pins[0].Fingerprint != fp || !ts.Pins[0].ICP.Equal(icp) || ts.Pins[0].Epoch != 3 {
		t.Fatalf("exported pin %+v", ts.Pins[0])
	}

	m2 := NewMemory(Config{Memory: true, PromoteAfter: 1})
	rebuilt := 0
	rebuild := func(q *query.Query, icp plan.ICP, step int) (*planner.PlanEval, error) {
		rebuilt++
		return &planner.PlanEval{Q: q, ICP: icp, Step: step, Latency: math.NaN()}, nil
	}
	err := m2.Import(ts, id, rebuild)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt != 1 {
		t.Fatalf("rebuild hook called %d times, want 1", rebuilt)
	}
	d := m2.Route(id, fp)
	if d.Tier != Tier0 || !d.Pin.ICP.Equal(icp) {
		t.Fatalf("imported pin does not serve: tier=%d", d.Tier)
	}
	if m2.Pinned() != 1 {
		t.Fatalf("pinned count %d", m2.Pinned())
	}
	// nil state is a clean no-op (old checkpoints without a tier section).
	if err := m2.Import(nil, id, nil); err != nil {
		t.Fatal(err)
	}

	// A tier image written before History lost its Seen count (the tier-1
	// router's repeat-traffic marker) still decodes and serves: gob drops the
	// field this build no longer declares.
	type oldHistory struct {
		Fingerprint uint64
		Seen        uint64
		Wins        int
		Regressed   bool
	}
	old := struct {
		Pins    []store.PinnedPlan
		History []oldHistory
	}{ts.Pins, []oldHistory{{Fingerprint: fp, Seen: 7, Wins: 1}}}
	var img bytes.Buffer
	if err := gob.NewEncoder(&img).Encode(old); err != nil {
		t.Fatal(err)
	}
	var decoded store.TierState
	if err := gob.NewDecoder(&img).Decode(&decoded); err != nil {
		t.Fatalf("tier image with a Seen field: %v", err)
	}
	if !reflect.DeepEqual(decoded.History, ts.History) {
		t.Fatalf("old image's history decoded to %+v, want %+v", decoded.History, ts.History)
	}
	m3 := NewMemory(Config{Memory: true, PromoteAfter: 1})
	if err := m3.Import(&decoded, id, rebuild); err != nil {
		t.Fatal(err)
	}
	if d := m3.Route(id, fp); d.Tier != Tier0 || !d.Pin.ICP.Equal(icp) {
		t.Fatalf("pin from the old image does not serve: tier=%d", d.Tier)
	}
}
