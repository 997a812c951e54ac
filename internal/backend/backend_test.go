package backend

import (
	"errors"
	"testing"

	"github.com/foss-db/foss/internal/engine/cost"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/optimizer"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/workload"
)

func loadW(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mustNew(t *testing.T, name string, w *workload.Workload) Backend {
	t.Helper()
	b, err := New(name, w.DB, w.Stats)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRegistry(t *testing.T) {
	w := loadW(t)
	for _, name := range Names() {
		b, err := New(name, w.DB, w.Stats)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Fatalf("Name() = %q, want %q", b.Name(), name)
		}
		if b.Schema() != w.DB.Schema || b.Stats() != w.Stats {
			t.Fatalf("%s: schema/stats not wired through", name)
		}
	}
	if _, err := New("oracle23ai", w.DB, w.Stats); !errors.Is(err, fosserr.ErrUnknownBackend) {
		t.Fatalf("unknown backend error = %v, want ErrUnknownBackend", err)
	}
	// "" selects the default backend.
	b, err := New("", w.DB, w.Stats)
	if err != nil || b.Name() != "selinger" {
		t.Fatalf("default backend = %v, %v", b, err)
	}
}

// TestSelingerDelegates pins the refactor contract: the selinger backend is a
// pure pass-through over the optimizer + executor with the default constants.
func TestSelingerDelegates(t *testing.T) {
	w := loadW(t)
	be := mustNew(t, "selinger", w)
	opt := optimizer.New(w.DB, w.Stats, cost.OptimizerParams())
	for _, q := range w.Train[:8] {
		want, err := opt.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := be.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		wi, _ := plan.Extract(want)
		gi, _ := plan.Extract(got)
		if !wi.Equal(gi) {
			t.Fatalf("%s: selinger plan %q != optimizer plan %q", q.ID, gi.Key(), wi.Key())
		}
		if gl, wl := be.Execute(got, 0).LatencyMs, be.Execute(want, 0).LatencyMs; gl != wl {
			t.Fatalf("%s: latency %v != %v", q.ID, gl, wl)
		}
	}
}

// TestBackendsDiverge proves gaussim is a genuinely different engine: over a
// query sample its expert choices or latency surface must differ from
// Selinger's, while both stay executable and hint-steerable.
func TestBackendsDiverge(t *testing.T) {
	w := loadW(t)
	sel := mustNew(t, "selinger", w)
	gau := mustNew(t, "gaussim", w)

	planDiffers, latDiffers := false, false
	for _, q := range w.Train {
		scp, err := sel.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		gcp, err := gau.Plan(q)
		if err != nil {
			t.Fatalf("gaussim plan %s: %v", q.ID, err)
		}
		si, _ := plan.Extract(scp)
		gi, _ := plan.Extract(gcp)
		if !si.Equal(gi) {
			planDiffers = true
		}
		if sel.Execute(scp, 0).LatencyMs != gau.Execute(scp, 0).LatencyMs {
			latDiffers = true
		}

		// The hint contract must hold on both: steering gaussim with
		// Selinger's expert ICP reproduces that order and those methods.
		hcp, err := gau.HintedPlan(q, si)
		if err != nil {
			t.Fatalf("gaussim hinted %s: %v", q.ID, err)
		}
		hi, _ := plan.Extract(hcp)
		if !hi.Equal(si) {
			t.Fatalf("%s: gaussim hint not honored: %q != %q", q.ID, hi.Key(), si.Key())
		}
	}
	if !planDiffers {
		t.Fatal("gaussim chose identical expert plans to selinger on every query — cost model not differentiating")
	}
	if !latDiffers {
		t.Fatal("gaussim charged identical latencies to selinger on every plan — truth params not differentiating")
	}
}
