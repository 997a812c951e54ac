package runtime

import (
	"context"
	"sync"

	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
)

// Source produces optimized plans for queries. The learner implements it;
// the indirection keeps this package free of training-loop dependencies.
// Optimize honors context cancellation.
type Source interface {
	Optimize(ctx context.Context, q *query.Query) (*planner.PlanEval, error)
}

// Config sizes the runtime.
type Config struct {
	// CacheSize is the plan-cache capacity in entries; 0 disables caching.
	CacheSize int
}

// Runtime owns the plan cache and arbitrates between the exclusive training
// path and the shared serving path: any number of Optimize calls may run
// concurrently (model forwards are read-only), while Exclusive (training,
// weight loading, catalog repoints) waits for in-flight requests and blocks
// new ones. Cached plans are keyed by query fingerprint alone: everything
// that changes what a plan would be (weights, backend, schema) changes
// inside Exclusive, which empties the cache, and Optimize holds the shared
// lock from its lookup to its insert, so no plan chosen before an exclusive
// section can be cached after it.
type Runtime struct {
	cache  *LRU[uint64, *planner.PlanEval]
	source Source

	// mu is the train/serve arbiter: Optimize holds it shared, Exclusive
	// holds it exclusively.
	mu sync.RWMutex
}

// New assembles a runtime over a plan-producing source.
func New(cfg Config, source Source) *Runtime {
	return &Runtime{
		cache:  NewLRU[uint64, *planner.PlanEval](cfg.CacheSize),
		source: source,
	}
}

// Optimize returns the chosen plan for the query, serving from the plan
// cache when possible. The boolean reports a cache hit. Safe for concurrent
// use. Cancellation is honored before planning starts and inside the source;
// a request already blocked behind an exclusive section completes its wait.
func (r *Runtime) Optimize(ctx context.Context, q *query.Query) (*planner.PlanEval, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	key := q.Fingerprint()
	if pe, ok := r.cache.Get(key); ok {
		return pe, true, nil
	}
	pe, err := r.source.Optimize(ctx, q)
	if err != nil {
		return nil, false, err
	}
	r.cache.Put(key, pe)
	return pe, false, nil
}

// Shared runs fn holding the serving-side shared lock: concurrent with
// Optimize and other Shared calls (all read-only on the models), mutually
// exclusive with Exclusive sections. Weight snapshots (Save) run under it
// so they can never observe a half-applied Load/Train.
func (r *Runtime) Shared(fn func() error) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return fn()
}

// Exclusive runs fn with the serving path quiesced (no Optimize in flight)
// and invalidates the plan cache afterwards, since fn is assumed to have
// changed the models the cached plans were chosen by.
func (r *Runtime) Exclusive(fn func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := fn()
	r.cache.Invalidate()
	return err
}

// CacheStats snapshots the plan-cache counters.
func (r *Runtime) CacheStats() CacheStats { return r.cache.Stats() }

// InvalidateCache drops all cached plans without quiescing the serving path;
// a change to the models still belongs inside Exclusive.
func (r *Runtime) InvalidateCache() { r.cache.Invalidate() }
