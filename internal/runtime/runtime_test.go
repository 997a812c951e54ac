package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
)

// TestFanRunsEveryJobOnce: whatever the job count is relative to the width,
// every job runs exactly once.
func TestFanRunsEveryJobOnce(t *testing.T) {
	width := goruntime.GOMAXPROCS(0)
	for _, n := range []int{0, 1, width, width + 1, 1000} {
		ran := make([]atomic.Int64, n)
		if err := Fan(context.Background(), n, func(j int) { ran[j].Add(1) }); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for j := range ran {
			if got := ran[j].Load(); got != 1 {
				t.Fatalf("n=%d: job %d ran %d times", n, j, got)
			}
		}
	}
}

// TestPoolSingleWorkerRunsInline: at width one Fan runs the jobs on the
// calling goroutine, in order.
func TestPoolSingleWorkerRunsInline(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	order := []int{}
	err := Fan(context.Background(), 5, func(j int) { order = append(order, j) }) // no lock: must be inline
	if err != nil || len(order) != 5 {
		t.Fatalf("ran %d jobs, want 5 (err %v)", len(order), err)
	}
	for i, j := range order {
		if i != j {
			t.Fatalf("inline order broken: %v", order)
		}
	}
}

func TestLRUHitMissEvict(t *testing.T) {
	c := NewLRU[uint64, int](2)
	if _, ok := c.Get(1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, 10)
	c.Put(2, 20)
	if v, ok := c.Get(1); !ok || v != 10 {
		t.Fatalf("get 1 = %v %v", v, ok)
	}
	c.Put(3, 30) // evicts 2 (1 was just promoted)
	if _, ok := c.Get(2); ok {
		t.Fatal("evicted entry still present")
	}
	if _, ok := c.Get(3); !ok {
		t.Fatal("newest entry missing")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", st.HitRate())
	}
}

func TestLRUInvalidate(t *testing.T) {
	c := NewLRU[uint64, string](4)
	c.Put(7, "x")
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatal("invalidate left entries")
	}
	if _, ok := c.Get(7); ok {
		t.Fatal("invalidated entry still served")
	}
}

// TestLRUEpochAdvancesOnInvalidate: the epoch is the hot-swap staleness
// proof — it must count every invalidation and nothing else.
func TestLRUEpochAdvancesOnInvalidate(t *testing.T) {
	c := NewLRU[uint64, string](4)
	if e := c.Stats().Epoch; e != 0 {
		t.Fatalf("fresh cache epoch %d", e)
	}
	c.Put(1, "x")
	c.Get(1)
	if e := c.Stats().Epoch; e != 0 {
		t.Fatal("get/put must not advance the epoch")
	}
	c.Invalidate()
	c.Invalidate()
	if e := c.Stats().Epoch; e != 2 {
		t.Fatalf("epoch %d after two invalidations", e)
	}
}

// TestRuntimeCacheEpoch: Exclusive (train/load) must bump the runtime's
// cache epoch so serving layers can label plan generations.
func TestRuntimeCacheEpoch(t *testing.T) {
	rt := New(Config{CacheSize: 8}, &countingBackend{})
	if e := rt.CacheStats().Epoch; e != 0 {
		t.Fatalf("fresh runtime epoch %d", e)
	}
	if err := rt.Exclusive(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	rt.InvalidateCache()
	if e := rt.CacheStats().Epoch; e != 2 {
		t.Fatalf("epoch %d after Exclusive + InvalidateCache", e)
	}
}

func TestLRUZeroCapacityDisabled(t *testing.T) {
	c := NewLRU[uint64, int](0)
	c.Put(1, 1)
	if _, ok := c.Get(1); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

// TestLRUZeroCapacityStatsStayZero is the regression test for the phantom
// miss counter: a disabled cache must report zeroed stats, not a 0% hit
// rate over misses it "served" — there is no cache for those counters to
// describe.
func TestLRUZeroCapacityStatsStayZero(t *testing.T) {
	c := NewLRU[uint64, int](0)
	for i := uint64(0); i < 50; i++ {
		c.Get(i)
		c.Put(i, int(i))
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 || st.Size != 0 {
		t.Fatalf("disabled cache accumulated stats: %+v", st)
	}
	if st.HitRate() != 0 {
		t.Fatalf("disabled cache hit rate %v", st.HitRate())
	}
	// An enabled cache still counts (the fix must not disable counting
	// everywhere).
	e := NewLRU[uint64, int](2)
	e.Get(1)
	e.Put(1, 1)
	e.Get(1)
	if st := e.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("enabled cache stats: %+v", st)
	}
}

type countingBackend struct {
	calls atomic.Int64
}

func (b *countingBackend) Optimize(ctx context.Context, q *query.Query) (*planner.PlanEval, error) {
	b.calls.Add(1)
	return &planner.PlanEval{Q: q}, nil
}

func testQuery(i int) *query.Query {
	return &query.Query{
		ID:     fmt.Sprintf("q%d", i),
		Tables: []query.TableRef{{Table: fmt.Sprintf("t%d", i), Alias: "a"}},
	}
}

func TestRuntimeCachesByFingerprint(t *testing.T) {
	b := &countingBackend{}
	rt := New(Config{CacheSize: 8}, b)

	q := testQuery(1)
	if _, hit, err := rt.Optimize(context.Background(), q); err != nil || hit {
		t.Fatalf("first call: hit=%v err=%v", hit, err)
	}
	if _, hit, err := rt.Optimize(context.Background(), q); err != nil || !hit {
		t.Fatalf("second call: hit=%v err=%v", hit, err)
	}
	// A structurally identical query with a different ID also hits.
	q2 := testQuery(1)
	q2.ID = "other"
	if _, hit, _ := rt.Optimize(context.Background(), q2); !hit {
		t.Fatal("structurally identical query missed the cache")
	}
	if b.calls.Load() != 1 {
		t.Fatalf("backend called %d times, want 1", b.calls.Load())
	}
}

func TestRuntimeExclusiveInvalidatesCache(t *testing.T) {
	b := &countingBackend{}
	rt := New(Config{CacheSize: 8}, b)
	q := testQuery(2)
	rt.Optimize(context.Background(), q)
	if err := rt.Exclusive(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := rt.Optimize(context.Background(), q); hit {
		t.Fatal("cache served a stale plan after Exclusive")
	}
	if b.calls.Load() != 2 {
		t.Fatalf("backend called %d times, want 2", b.calls.Load())
	}
}

func TestRuntimeConcurrentOptimize(t *testing.T) {
	b := &countingBackend{}
	rt := New(Config{CacheSize: 32}, b)
	queries := make([]*query.Query, 8)
	for i := range queries {
		queries[i] = testQuery(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, _, err := rt.Optimize(context.Background(), queries[(g+i)%len(queries)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := rt.CacheStats()
	if st.Hits+st.Misses != 400 {
		t.Fatalf("lookups %d, want 400", st.Hits+st.Misses)
	}
	if st.Hits < 300 {
		t.Fatalf("unexpectedly few hits: %+v", st)
	}
}

// TestRuntimeOptimizeCanceled: a canceled context short-circuits before any
// planning work.
func TestRuntimeOptimizeCanceled(t *testing.T) {
	b := &countingBackend{}
	rt := New(Config{CacheSize: 8}, b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := rt.Optimize(ctx, testQuery(5)); err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if b.calls.Load() != 0 {
		t.Fatal("source invoked despite canceled context")
	}
}

// TestPoolRunCtxStopsDispatching: cancellation mid-run prevents undispatched
// jobs from starting and surfaces the context error.
func TestPoolRunCtxStopsDispatching(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := Fan(ctx, 1000, func(int) {
		if ran.Add(1) == 3 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("all %d jobs ran despite cancellation", n)
	}
}
