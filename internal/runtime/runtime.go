package runtime

import (
	"context"
	"fmt"
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
// weight loading, catalog rekeys) waits for in-flight requests and blocks new
// ones. A runtime serves one backend for its whole life, so cached plans are
// keyed by the shared composite PlanKey (cache epoch × catalog epoch × query
// fingerprint) and invalidated whenever the models change.
type Runtime struct {
	cache  *LRU[PlanKey, *planner.PlanEval]
	source Source

	// mu is the train/serve arbiter: Optimize holds it shared, Exclusive
	// holds it exclusively. It also guards catalogEpoch.
	mu           sync.RWMutex
	catalogEpoch uint64
}

// New assembles a runtime over a plan-producing source.
func New(cfg Config, source Source) *Runtime {
	return &Runtime{
		cache:  NewLRU[PlanKey, *planner.PlanEval](cfg.CacheSize),
		source: source,
	}
}

// identityLocked builds the cache's current composite identity. Caller holds
// mu (shared or exclusive). Mixing the LRU's own invalidation epoch into the
// key means the plan cache and any sibling structure keyed through the same
// Identity (the tier router's plan memory) agree on when an entry became
// stale — one invalidation source, two caches, no desynchronization.
func (r *Runtime) identityLocked() Identity {
	return Identity{Epoch: r.cache.Epoch(), Catalog: r.catalogEpoch}
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
	key := r.identityLocked().Key(q.Fingerprint())
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

// CatalogEpoch returns the catalog (schema) epoch the cache is currently
// scoped to.
func (r *Runtime) CatalogEpoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.catalogEpoch
}

// RekeyCatalog atomically advances the cache's catalog epoch (quiescing the
// serving path), runs fn — the caller's schema/backend repoint — inside the
// same exclusive section, and invalidates every cached plan. Entries planned
// against the old schema are dropped by the invalidation and, even if
// resurrected, unreachable under the new composite key. If fn errors the epoch and cache are untouched.
// fn may be nil. The epoch only moves forward; a stale epoch is rejected
// without running fn.
func (r *Runtime) RekeyCatalog(epoch uint64, fn func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch < r.catalogEpoch {
		return fmt.Errorf("runtime: catalog epoch moved backwards (%d < %d)", epoch, r.catalogEpoch)
	}
	if fn != nil {
		if err := fn(); err != nil {
			return err
		}
	}
	r.catalogEpoch = epoch
	r.cache.Invalidate()
	return nil
}

// CacheStats snapshots the plan-cache counters.
func (r *Runtime) CacheStats() CacheStats { return r.cache.Stats() }

// CacheEpoch returns the plan cache's invalidation count: every currently
// cached plan was chosen by the models live at this epoch.
func (r *Runtime) CacheEpoch() uint64 { return r.cache.Epoch() }

// InvalidateCache drops all cached plans (e.g. after loading a snapshot
// outside Exclusive).
func (r *Runtime) InvalidateCache() { r.cache.Invalidate() }
