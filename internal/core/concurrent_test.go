package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/tier"
)

// trainedSystem trains a fresh small system with a plan cache.
func trainedSystem(t *testing.T) *System {
	t.Helper()
	sys := smallSystem(t, func(c *Config) {
		c.PlanCache = 64
		c.Learner.Iterations = 2
		c.Learner.RealPerIter = 6
		c.Learner.SimPerIter = 20
		c.Learner.ValidatePerIter = 6
	})
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestConcurrentOptimizeMatchesSerial serves queries from many goroutines
// after training and checks every concurrent answer equals the serial one
// (per-query seeded rollouts + read-only forwards), and that repeats hit the
// plan cache.
func TestConcurrentOptimizeMatchesSerial(t *testing.T) {
	sys := trainedSystem(t)
	queries := sys.W.Train[:6]

	serial := map[string]float64{}
	for _, q := range queries {
		cp, _, err := sys.OptimizeContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		serial[q.ID] = sys.Execute(cp)
	}
	sys.RT.InvalidateCache()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(queries); i++ {
				q := queries[(g+i)%len(queries)]
				cp, _, err := sys.OptimizeContext(context.Background(), q)
				if err != nil {
					errs <- err
					return
				}
				if lat := sys.Execute(cp); lat != serial[q.ID] {
					errs <- fmt.Errorf("%s: concurrent plan latency %v != serial %v", q.ID, lat, serial[q.ID])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := sys.RT.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("expected cache hits, got %+v", st)
	}
}

// TestTrainInvalidatesPlanCache: a cached plan must not survive retraining.
func TestTrainInvalidatesPlanCache(t *testing.T) {
	sys := trainedSystem(t)
	q := sys.W.Train[0]
	if _, hit, _, err := sys.OptimizeEvalContext(context.Background(), q); err != nil || hit {
		t.Fatalf("first optimize: hit=%v err=%v", hit, err)
	}
	if _, hit, _, err := sys.OptimizeEvalContext(context.Background(), q); err != nil || !hit {
		t.Fatalf("second optimize should hit the cache: hit=%v err=%v", hit, err)
	}
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if _, hit, _, err := sys.OptimizeEvalContext(context.Background(), q); err != nil || hit {
		t.Fatalf("post-train optimize served a stale cached plan: hit=%v err=%v", hit, err)
	}
}

// TestJudgedMissesBesideExplain: batches of misses — each walking in its own
// arena while its own judge scores the pool in another, on a second
// goroutine — run beside Explain over the same queries. CI runs it ten times
// under the race detector: no arena is shared between serves, and every
// answer is the lone serve's: each batch row is a miss serving the plan a
// sequential Optimize picks, and Explain chooses that plan too.
func TestJudgedMissesBesideExplain(t *testing.T) {
	sys := smallSystem(t, func(c *Config) { c.PlanCache = 1 })
	if err := sys.EnableOnline(service.Config{
		Detector: service.DetectorConfig{Window: 8, Threshold: 1e9, MinSamples: 8},
		Cooldown: 1 << 30,
		Tier:     tier.Config{Memory: true},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	qs := sys.W.Train[:8]
	want := map[string]string{}
	for _, q := range qs {
		pe, err := sys.Learner.Optimize(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[q.ID] = pe.ICP.Key()
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2 * len(qs) {
				q := qs[(g+i)%len(qs)]
				scores, err := sys.ExplainCandidates(ctx, q)
				if err != nil {
					errs <- err
					return
				}
				for _, sc := range scores {
					if sc.Chosen && sc.ICPKey != want[q.ID] {
						errs <- fmt.Errorf("%s: Explain chooses %s, Optimize %s", q.ID, sc.ICPKey, want[q.ID])
						return
					}
				}
			}
		}()
	}
	for round := range 4 {
		sys.RT.InvalidateCache()
		rows, err := sys.ServeBatch(ctx, qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rows {
			if r.CacheHit || r.Tier != tier.Tier2 || r.Eval.ICP.Key() != want[qs[i].ID] {
				t.Errorf("round %d, %s: tier %d cache hit %v plan %s; want a tier-2 miss serving %s",
					round, qs[i].ID, r.Tier, r.CacheHit, r.Eval.ICP.Key(), want[qs[i].ID])
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
