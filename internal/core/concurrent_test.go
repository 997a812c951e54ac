package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/foss-db/foss/internal/learner"
)

// trainStats trains a fresh small system and returns its per-iteration stats
// plus the final buffer size.
func trainStats(t *testing.T, workers int) ([]learner.IterStats, int, *System) {
	t.Helper()
	sys := smallSystem(t, func(c *Config) {
		c.Workers = workers
		c.PlanCache = 64
		c.Learner.Iterations = 2
		c.Learner.RealPerIter = 6
		c.Learner.SimPerIter = 20
		c.Learner.ValidatePerIter = 6
	})
	var iters []learner.IterStats
	if err := sys.TrainContext(context.Background(), func(st learner.IterStats) { iters = append(iters, st) }); err != nil {
		t.Fatal(err)
	}
	return iters, sys.Learner.Buf.Size(), sys
}

func statsEqual(a, b []learner.IterStats) error {
	if len(a) != len(b) {
		return fmt.Errorf("iteration counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("iter %d stats differ:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	return nil
}

// TestParallelTrainingDeterministic trains twice at Workers=3 and requires
// bit-identical iteration stats and buffer contents: parallel episode
// collection must not depend on goroutine scheduling.
func TestParallelTrainingDeterministic(t *testing.T) {
	s1, n1, _ := trainStats(t, 3)
	s2, n2, _ := trainStats(t, 3)
	if err := statsEqual(s1, s2); err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Fatalf("buffer sizes differ: %d vs %d", n1, n2)
	}
}

// TestWorkersZeroAndOneIdentical: both values select the sequential path and
// must match exactly.
func TestWorkersZeroAndOneIdentical(t *testing.T) {
	s0, n0, _ := trainStats(t, 0)
	s1, n1, _ := trainStats(t, 1)
	if err := statsEqual(s0, s1); err != nil {
		t.Fatal(err)
	}
	if n0 != n1 {
		t.Fatalf("buffer sizes differ: %d vs %d", n0, n1)
	}
}

// TestConcurrentOptimizeMatchesSerial serves queries from many goroutines
// after training and checks every concurrent answer equals the serial one
// (per-query seeded rollouts + read-only forwards), and that repeats hit the
// plan cache.
func TestConcurrentOptimizeMatchesSerial(t *testing.T) {
	_, _, sys := trainStats(t, 2)
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
	_, _, sys := trainStats(t, 1)
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
