// Package baselines_test exercises all four baseline reimplementations on a
// shared small workload: training runs, plans are valid left-deep trees over
// the right tables, optimization times are measured, and the methods'
// defining search-space properties hold.
package baselines_test

import (
	"testing"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/baselines"
	"github.com/foss-db/foss/internal/engine/exec"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/workload"
)

var smallNet = aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}

func smallWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// trim the training split so baseline tests stay fast
	w.Train = w.Train[:25]
	return w
}

func checkPlan(t *testing.T, w *workload.Workload, q *query.Query, cp *plan.CP) {
	t.Helper()
	if cp == nil || cp.Root == nil {
		t.Fatalf("%s: nil plan", q.ID)
	}
	icp, err := plan.Extract(cp)
	if err != nil {
		t.Fatalf("%s: not left-deep: %v", q.ID, err)
	}
	if len(icp.Order) != q.NumTables() {
		t.Fatalf("%s: plan covers %d tables, query has %d", q.ID, len(icp.Order), q.NumTables())
	}
	seen := map[string]bool{}
	for _, a := range icp.Order {
		if q.TableOf(a) == "" || seen[a] {
			t.Fatalf("%s: bad alias %q in plan order", q.ID, a)
		}
		seen[a] = true
	}
	// plan must execute without error
	res := exec.New(w.DB).Execute(cp, 0)
	if res.LatencyMs <= 0 {
		t.Fatalf("%s: non-positive latency", q.ID)
	}
}

func TestBaoTrainsAndPlans(t *testing.T) {
	w := smallWorkload(t)
	cfg := baselines.DefaultBaoConfig()
	cfg.PassCount = 1
	cfg.StateNet = smallNet
	b := baselines.NewBao(w, cfg)
	if err := b.Train(nil); err != nil {
		t.Fatal(err)
	}
	if len(b.KnownBest()) == 0 {
		t.Fatal("Bao executed nothing during training")
	}
	for _, q := range w.Train[:5] {
		cp, ot, err := b.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if ot <= 0 {
			t.Fatal("optimization time not measured")
		}
		checkPlan(t, w, q, cp)
	}
	if b.TrainingTime() <= 0 {
		t.Fatal("training time not recorded")
	}
}

func TestBaoHintSetsAreFive(t *testing.T) {
	hs := baselines.DefaultHintSets()
	if len(hs) != 5 {
		t.Fatalf("Bao default arms = %d, want 5 (paper default)", len(hs))
	}
}

func TestBalsaTrainsAndPlans(t *testing.T) {
	w := smallWorkload(t)
	cfg := baselines.DefaultBalsaConfig()
	cfg.PassCount = 1
	cfg.StateNet = smallNet
	b := baselines.NewBalsa(w, cfg)
	if err := b.Train(nil); err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Train[:5] {
		cp, _, err := b.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		checkPlan(t, w, q, cp)
	}
}

func TestLogerTrainsAndPlans(t *testing.T) {
	w := smallWorkload(t)
	cfg := baselines.DefaultLogerConfig()
	cfg.PassCount = 1
	cfg.StateNet = smallNet
	l := baselines.NewLoger(w, cfg)
	if err := l.Train(nil); err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Train[:5] {
		cp, _, err := l.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		checkPlan(t, w, q, cp)
	}
}

func TestLogerRestrictions(t *testing.T) {
	rs := baselines.Restrictions()
	if len(rs) != 4 {
		t.Fatalf("restriction count = %d", len(rs))
	}
	if len(rs[0].Allowed) != 3 {
		t.Fatal("free restriction must allow all methods")
	}
	for _, r := range rs[1:] {
		if len(r.Allowed) != 2 {
			t.Fatalf("restriction %s allows %d methods, want 2", r.Name, len(r.Allowed))
		}
	}
}

func TestHybridQOTrainsAndPlans(t *testing.T) {
	w := smallWorkload(t)
	cfg := baselines.DefaultHybridQOConfig()
	cfg.PassCount = 1
	cfg.Simulations = 10
	cfg.StateNet = smallNet
	h := baselines.NewHybridQO(w, cfg)
	if err := h.Train(nil); err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Train[:5] {
		cp, _, err := h.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		checkPlan(t, w, q, cp)
	}
}

func TestTrainingCurvesFire(t *testing.T) {
	w := smallWorkload(t)
	cfg := baselines.DefaultBaoConfig()
	cfg.PassCount = 2
	cfg.StateNet = smallNet
	b := baselines.NewBao(w, cfg)
	var passes []int
	if err := b.Train(func(p int) { passes = append(passes, p) }); err != nil {
		t.Fatal(err)
	}
	if len(passes) != 2 || passes[0] != 0 || passes[1] != 1 {
		t.Fatalf("onPass sequence = %v", passes)
	}
}
