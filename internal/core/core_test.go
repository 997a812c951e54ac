package core

import (
	"context"
	"testing"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/learner"
	"github.com/foss-db/foss/internal/metrics"
	"github.com/foss-db/foss/internal/workload"
)

func smallSystem(t testing.TB, mutate func(*Config)) *System {
	t.Helper()
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.StateNet = aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	cfg.Learner.Iterations = 3
	cfg.Learner.RealPerIter = 10
	cfg.Learner.SimPerIter = 40
	cfg.Learner.ValidatePerIter = 10
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestTrainImprovesOverExpert(t *testing.T) {
	sys := smallSystem(t, nil)
	var iters []learner.IterStats
	if err := sys.TrainContext(context.Background(), func(st learner.IterStats) { iters = append(iters, st) }); err != nil {
		t.Fatal(err)
	}
	if len(iters) != 3 {
		t.Fatalf("expected 3 iterations, got %d", len(iters))
	}
	if iters[len(iters)-1].BufferSize == 0 {
		t.Fatal("execution buffer never filled")
	}

	var fossRes, pgRes []metrics.QueryResult
	for _, q := range sys.W.Train[:30] {
		fcp, _, err := sys.OptimizeContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		ecp, _, err := sys.ExpertPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		fossRes = append(fossRes, metrics.QueryResult{QueryID: q.ID, LatencyMs: sys.Execute(fcp)})
		pgRes = append(pgRes, metrics.QueryResult{QueryID: q.ID, LatencyMs: sys.Execute(ecp)})
	}
	wrl := metrics.WRL(fossRes, pgRes)
	gmrl := metrics.GMRL(fossRes, pgRes)
	t.Logf("after short training: WRL=%.3f GMRL=%.3f", wrl, gmrl)
	// Three iterations are far below convergence; the guarantee to hold is
	// "no disaster": the AAM selector keeps the original plan when no
	// candidate looks clearly better, so latency-only GMRL stays near 1.
	if gmrl > 1.3 {
		t.Fatalf("FOSS GMRL %.3f far worse than expert after training", gmrl)
	}
}

func TestOptimizeWithoutTrainingFallsBackSafely(t *testing.T) {
	sys := smallSystem(t, nil)
	q := sys.W.Train[0]
	cp, optTime, err := sys.OptimizeContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no plan returned")
	}
	if optTime <= 0 {
		t.Fatal("optimization time not measured")
	}
}

func TestConfigValidation(t *testing.T) {
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxSteps = 0
	if _, err := New(w, cfg); err == nil {
		t.Fatal("expected error for MaxSteps=0")
	}
}

func TestMultiAgentProducesPlan(t *testing.T) {
	sys := smallSystem(t, func(c *Config) {
		c.Agents = 2
		c.Learner.Iterations = 1
		c.Learner.SimPerIter = 15
		c.Learner.RealPerIter = 5
	})
	if len(sys.Planners) != 2 {
		t.Fatalf("expected 2 planners, got %d", len(sys.Planners))
	}
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	cp, _, err := sys.OptimizeContext(context.Background(), sys.W.Train[1])
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("multi-agent optimize returned no plan")
	}
}

func TestAblationSwitchesRun(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.Learner.DisableSim = true },
		func(c *Config) { c.Planner.PenaltyGamma = 0 },
		func(c *Config) { c.Learner.DisableValidation = true },
	} {
		sys := smallSystem(t, func(c *Config) {
			c.Learner.Iterations = 1
			c.Learner.SimPerIter = 10
			c.Learner.RealPerIter = 5
			mut(c)
		})
		if err := sys.TrainContext(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
}
