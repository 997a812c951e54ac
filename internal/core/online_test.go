package core

import (
	"context"
	"sync"
	"testing"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/workload"
)

// testConfig is smallSystem's configuration without the workload: the online
// tests build several systems over one shared workload.
func testConfig(mutate func(*Config)) Config {
	cfg := DefaultConfig()
	cfg.StateNet = aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// onlineConfig is a fast-reacting loop configuration for tests.
func onlineConfig(sync bool) service.Config {
	return service.Config{
		Detector: service.DetectorConfig{
			Window:      6,
			Threshold:   1.1,
			MinSamples:  6,
			NoveltyFrac: 0,
		},
		Cooldown:          6,
		RetrainIterations: 1,
		RetrainQueries:    8,
		Background:        !sync,
	}
}

// TestOnlineHotSwapUnderLoad is the zero-downtime proof, run under -race by
// CI: six goroutines serve continuously while recorded regressions force
// background retrains and hot-swaps. Every request must succeed, and within
// one epoch every (query, epoch) pair must resolve to exactly one plan — a
// cache hit that survived a swap would show up as a conflicting plan under
// the new epoch label.
func TestOnlineHotSwapUnderLoad(t *testing.T) {
	sys := smallSystem(t, func(c *Config) {
		c.PlanCache = 64
		c.Learner.Iterations = 1
		c.Learner.RealPerIter = 4
		c.Learner.SimPerIter = 12
		c.Learner.ValidatePerIter = 4
		c.Learner.InferenceRollouts = 2
	})
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableOnline(onlineConfig(false)); err != nil {
		t.Fatal(err)
	}
	queries := sys.W.Train[:8]
	expert := map[string]float64{}
	for _, q := range queries {
		ecp, _, err := sys.ExpertPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		expert[q.ID] = sys.Execute(ecp)
	}

	var mu sync.Mutex
	planAt := map[[2]uint64]string{} // (epoch, fingerprint) -> ICP key
	var failures []string
	fail := func(msg string) {
		mu.Lock()
		failures = append(failures, msg)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := queries[(g*7+i)%len(queries)]
				res, err := sys.ServeContext(context.Background(), q)
				if err != nil {
					fail("serve " + q.ID + ": " + err.Error())
					return
				}
				if res.Eval == nil || res.Eval.CP == nil {
					fail("nil plan for " + q.ID)
					return
				}
				// Serve re-serves requests a swap overtook, so Result.Epoch
				// always names the generation that chose the plan: every
				// (epoch, query) pair must resolve to exactly one plan.
				key := [2]uint64{res.Epoch, q.Fingerprint()}
				icp := res.Eval.ICP.Key()
				mu.Lock()
				if prev, ok := planAt[key]; ok && prev != icp {
					failures = append(failures, "epoch-inconsistent plan for "+q.ID)
				} else {
					planAt[key] = icp
				}
				mu.Unlock()
				// Half the goroutines report 5x regressions, forcing the
				// detector past its threshold while serving continues.
				if g%2 == 0 {
					if err := sys.Record(q, res.Eval, expert[q.ID]*5); err != nil {
						fail("record: " + err.Error())
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	sys.Online().Wait()

	for _, f := range failures {
		t.Error(f)
	}
	st := sys.OnlineStats()
	if st.Swaps == 0 {
		t.Fatalf("no hot-swap happened under load: %+v", st)
	}
	if st.RetrainErrors != 0 {
		t.Fatalf("retrain errors under load: %+v", st)
	}
	if st.Epoch < 2 {
		t.Fatalf("epoch never advanced: %+v", st)
	}
	if st.Served != 6*30 {
		t.Fatalf("served %d, want %d (requests were lost)", st.Served, 6*30)
	}
}

// TestOnlineSwapInvalidatesPlanCache pins the epoch protocol down
// sequentially: hits before the swap, a mandatory miss at the new epoch
// right after it, hits again once the new model's cache warms.
func TestOnlineSwapInvalidatesPlanCache(t *testing.T) {
	sys := smallSystem(t, func(c *Config) {
		c.PlanCache = 64
		c.Learner.Iterations = 1
		c.Learner.RealPerIter = 4
		c.Learner.SimPerIter = 12
		c.Learner.ValidatePerIter = 4
		c.Learner.InferenceRollouts = 2
	})
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableOnline(onlineConfig(true)); err != nil {
		t.Fatal(err)
	}
	q := sys.W.Train[0]

	if res, err := sys.ServeContext(context.Background(), q); err != nil || res.CacheHit || res.Epoch != 1 {
		t.Fatalf("first serve: hit=%v epoch=%d err=%v", res.CacheHit, res.Epoch, err)
	}
	if res, err := sys.ServeContext(context.Background(), q); err != nil || !res.CacheHit || res.Epoch != 1 {
		t.Fatalf("second serve should hit at epoch 1: hit=%v epoch=%d err=%v", res.CacheHit, res.Epoch, err)
	}

	// Drive the detector over its threshold with synchronous retraining.
	for i := 1; i <= 6; i++ {
		other := sys.W.Train[i]
		res, err := sys.ServeContext(context.Background(), other)
		if err != nil {
			t.Fatal(err)
		}
		ecp, _, err := sys.ExpertPlan(other)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Record(other, res.Eval, sys.Execute(ecp)*5); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.OnlineStats()
	if st.Swaps != 1 || st.Epoch != 2 {
		t.Fatalf("expected one synchronous swap to epoch 2, got %+v", st)
	}

	// The promoted model's cache must start cold: no plan chosen by the old
	// weights survives the swap.
	if res, err := sys.ServeContext(context.Background(), q); err != nil || res.CacheHit || res.Epoch != 2 {
		t.Fatalf("post-swap serve must miss at epoch 2: hit=%v epoch=%d err=%v", res.CacheHit, res.Epoch, err)
	}
	if res, err := sys.ServeContext(context.Background(), q); err != nil || !res.CacheHit || res.Epoch != 2 {
		t.Fatalf("post-swap repeat should hit at epoch 2: hit=%v epoch=%d err=%v", res.CacheHit, res.Epoch, err)
	}
}

// onlineRun executes the full drifted-stream scenario once and returns the
// per-step online latencies, the indices served after the first swap, and
// the final stats. Everything inside is seeded, sequential, and synchronous,
// so two calls must agree bit-for-bit.
func onlineRun(t *testing.T) ([]float64, int, service.Stats, *workload.DriftScenario) {
	t.Helper()
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(func(c *Config) {
		c.PlanCache = 64
		c.Learner.Iterations = 2
		c.Learner.RealPerIter = 8
		c.Learner.SimPerIter = 30
		c.Learner.ValidatePerIter = 8
		c.Learner.InferenceRollouts = 2
	})
	sys, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}

	scen, err := workload.Drift(w, workload.DriftSelectivity, workload.DriftOptions{
		Seed: 7, PreLen: 12, PostLen: 36,
	})
	if err != nil {
		t.Fatal(err)
	}

	err = sys.EnableOnline(service.Config{
		Detector: service.DetectorConfig{
			Window:      10,
			Threshold:   1.05,
			MinSamples:  10,
			NoveltyFrac: 0.5,
		},
		Cooldown:          12,
		RetrainIterations: 2,
		RetrainQueries:    24,
		Background:        false, // synchronous: bit-deterministic
	})
	if err != nil {
		t.Fatal(err)
	}

	stream := scen.Stream()
	lats := make([]float64, len(stream))
	firstSwap := -1
	for i, q := range stream {
		_, lat, err := sys.ServeStepContext(context.Background(), q)
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, q.ID, err)
		}
		lats[i] = lat
		if firstSwap < 0 && sys.OnlineStats().Swaps > 0 {
			firstSwap = i
		}
	}
	return lats, firstSwap, sys.OnlineStats(), scen
}

// TestOnlineAdaptsToDrift is the end-to-end adaptation check: on a
// selectivity-shifted stream the online loop must detect drift, retrain, and
// from then on serve the shifted tail at least as well as the frozen
// offline model — deterministically per seed.
func TestOnlineAdaptsToDrift(t *testing.T) {
	lats, firstSwap, st, scen := onlineRun(t)
	if st.Drifts == 0 || st.Swaps == 0 {
		t.Fatalf("drift never detected on a shifted stream: %+v", st)
	}
	if firstSwap < 0 {
		t.Fatal("no swap index recorded")
	}
	if firstSwap >= len(lats)-5 {
		t.Fatalf("first swap at %d of %d leaves no tail to evaluate", firstSwap, len(lats))
	}

	// Frozen baseline: an identical system trained identically (same seeds)
	// but never retrained, evaluated on the exact post-swap tail.
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := New(w, testConfig(func(c *Config) {
		c.PlanCache = 64
		c.Learner.Iterations = 2
		c.Learner.RealPerIter = 8
		c.Learner.SimPerIter = 30
		c.Learner.ValidatePerIter = 8
		c.Learner.InferenceRollouts = 2
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := frozen.TrainContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}

	stream := scen.Stream()
	var onlineSum, frozenSum float64
	n := 0
	for i := firstSwap + 1; i < len(stream); i++ {
		cp, _, err := frozen.OptimizeContext(context.Background(), stream[i])
		if err != nil {
			t.Fatal(err)
		}
		frozenSum += frozen.Execute(cp)
		onlineSum += lats[i]
		n++
	}
	onlineMean, frozenMean := onlineSum/float64(n), frozenSum/float64(n)
	t.Logf("post-retrain tail (%d queries): online mean %.3fms, frozen mean %.3fms (swap at step %d, %+v)",
		n, onlineMean, frozenMean, firstSwap, st)
	if onlineMean > frozenMean*1.001 {
		t.Fatalf("online loop did not adapt: post-retrain mean %.3fms > frozen %.3fms", onlineMean, frozenMean)
	}
}

// TestOnlineRunDeterministic re-runs the full adaptation scenario and
// requires bit-identical latency sequences and counters.
func TestOnlineRunDeterministic(t *testing.T) {
	a, swapA, stA, _ := onlineRun(t)
	b, swapB, stB, _ := onlineRun(t)
	if swapA != swapB {
		t.Fatalf("first-swap index differs: %d vs %d", swapA, swapB)
	}
	if stA != stB {
		t.Fatalf("stats differ:\n%+v\n%+v", stA, stB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency[%d] differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestOnlineGuards: the façade must refuse to serve before EnableOnline and
// to enable twice.
func TestOnlineGuards(t *testing.T) {
	sys := smallSystem(t, func(c *Config) {
		c.Learner.Iterations = 1
		c.Learner.RealPerIter = 2
		c.Learner.SimPerIter = 4
		c.Learner.ValidatePerIter = 2
	})
	if _, err := sys.ServeContext(context.Background(), sys.W.Train[0]); err == nil {
		t.Fatal("Serve before EnableOnline must fail")
	}
	if err := sys.Record(sys.W.Train[0], nil, 1); err == nil {
		t.Fatal("Record before EnableOnline must fail")
	}
	if err := sys.EnableOnline(onlineConfig(true)); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableOnline(onlineConfig(true)); err == nil {
		t.Fatal("double EnableOnline must fail")
	}
	if st := sys.OnlineStats(); st.Epoch != 1 {
		t.Fatalf("fresh loop epoch %d, want 1", st.Epoch)
	}
}
