package main

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/core"
)

// smokeSize shrinks every workload to about a second: a quarter of the
// data, one short training iteration on a small network, a few dozen
// fingerprints. The shapes the workloads rely on are kept: the pool exceeds
// the plan cache and the hot set fits it.
var smokeSize = sizing{
	scale: 0.2,
	shrink: func(cfg *core.Config) {
		cfg.StateNet = aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
		cfg.Learner.Iterations = 1
		cfg.Learner.RealPerIter = 6
		cfg.Learner.SimPerIter = 20
		cfg.Learner.ValidatePerIter = 6
		cfg.Learner.InferenceRollouts = 2
	},
	planCache: 96, pool: 128, hot: 16, wireIDs: 8, pre: 20, post: 28, restarts: 2,
}

// TestSmoke keeps the harness alive under `go test ./...`: every workload
// runs both passes at smoke size, emits exactly the metrics BENCHMARK.json
// names for the pass, all finite, with no correctness violation; and the
// contract metrics repeat exactly for a fixed seed and move with the seed.
func TestSmoke(t *testing.T) {
	size = smokeSize
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("spec names %d workloads, harness has %d", len(sp.Workloads), len(workloads))
	}
	out := t.TempDir()
	run := func(t *testing.T, name string, seed int64, traced bool) *result {
		t.Helper()
		res, err := runOne(context.Background(), sp, name, seed, 0.3, traced, out)
		if err != nil {
			t.Fatalf("%s traced=%v: %v", name, traced, err)
		}
		if !res.Correct {
			t.Errorf("%s traced=%v: %d failed, violations %v", name, traced, res.Failed, res.Violations)
		}
		want := sp.EndToEnd
		if traced {
			want = sp.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s traced=%v: %d metrics, spec names %d", name, traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := res.Metrics[m.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s traced=%v: metric %s missing or not finite", name, traced, m.Name)
			}
			if !traced && v.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
			}
		}
		return res
	}

	var cold *result
	for _, w := range sp.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := run(t, w.Name, 1, false)
			run(t, w.Name, 1, true)
			if w.Name == "cold_novel" {
				cold = res
			}
		})
	}
	if cold == nil {
		t.Fatal("spec has no cold_novel workload")
	}
	// cold_novel's pool is where --seed generates queries: the contract over
	// it must repeat exactly for the same seed and move for another.
	same, other := run(t, "cold_novel", 1, false), run(t, "cold_novel", 2, false)
	for _, m := range []string{"wrl", "gmrl"} {
		if same.Metrics[m].Value != cold.Metrics[m].Value {
			t.Errorf("%s did not repeat for seed 1: %v then %v", m, cold.Metrics[m].Value, same.Metrics[m].Value)
		}
		if other.Metrics[m].Value == cold.Metrics[m].Value {
			t.Errorf("%s is the same for seeds 1 and 2 (%v)", m, cold.Metrics[m].Value)
		}
	}
}

// TestVerdict pins the three outcomes -compare can reach.
func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "x", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "y", Better: "higher", Bound: 0.10}
	cases := []struct {
		m    specMetric
		a, b []float64
		want string
	}{
		{lower, []float64{100, 101, 102}, []float64{103, 104, 105}, "PASS"},
		{lower, []float64{100, 101, 102}, []float64{120, 121, 122}, "REGRESSED"},
		{lower, []float64{80, 100, 130}, []float64{90, 120, 150}, "UNRESOLVED"},
		{lower, []float64{80, 100, 130}, []float64{50, 60, 70}, "PASS"},
		{higher, []float64{100, 101, 102}, []float64{80, 81, 82}, "REGRESSED"},
		{higher, []float64{100, 101, 102}, []float64{120, 121, 122}, "PASS"},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Better, c.a, c.b, got, c.want)
		}
	}
}
