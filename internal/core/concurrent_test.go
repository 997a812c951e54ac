package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
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
	if _, hit, _, err := sys.OptimizeCachedContext(context.Background(), q); err != nil || hit {
		t.Fatalf("first optimize: hit=%v err=%v", hit, err)
	}
	if _, hit, _, err := sys.OptimizeCachedContext(context.Background(), q); err != nil || !hit {
		t.Fatalf("second optimize should hit the cache: hit=%v err=%v", hit, err)
	}
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if _, hit, _, err := sys.OptimizeCachedContext(context.Background(), q); err != nil || hit {
		t.Fatalf("post-train optimize served a stale cached plan: hit=%v err=%v", hit, err)
	}
}
