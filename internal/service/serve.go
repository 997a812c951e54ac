package service

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/metrics"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/runtime"
	"github.com/foss-db/foss/internal/tier"
)

// Result is one served request.
type Result struct {
	// Eval is the chosen candidate (plan, encoding, step) — hand it back to
	// Record together with the observed latency.
	Eval *planner.PlanEval
	// Epoch identifies the model generation that chose the plan; it bumps on
	// every hot-swap.
	Epoch uint64
	// CacheHit reports whether the plan came from the active replica's cache
	// (or, for a tier-0 result, from the loop's own plan memory).
	CacheHit bool
	// OptTime is the optimization time (model inference + hint completion).
	OptTime time.Duration
	// Tier reports which serving tier produced the plan: 0 = plan-memory
	// hit, 2 = full AAM steering (always 2 when tiered serving is disabled).
	Tier int
}

// slot pairs a replica with the model epoch and the catalog epoch it was
// published at. The catalog epoch is the loop's only copy: a follower's fork
// syncs the shared catalog world before it is published, so the world can
// run ahead of the generation that serves.
type slot struct {
	r     Replica
	epoch uint64
	cat   uint64
}

// serving is the state every request reads lock-free; only the transitions
// (under Loop.mu) replace the active slot or invalidate tiers.
type serving struct {
	active atomic.Pointer[slot]

	// tiers is the tier router's state (nil = tiering disabled, every serve
	// takes the full path). backendName is cached at construction so the
	// tier-0 hit path builds its identity key without touching the replica.
	tiers       *tier.Memory
	backendName string

	served, cacheHits atomic.Uint64

	// hist holds the per-tier serve-latency histograms behind /metrics —
	// histPin for tier-0 hits, histFull for tier-2 passes; their bucket
	// counts and sums are also the only per-tier serve counters. Embedded by
	// value: observing is two atomic adds on a fixed array, nothing the
	// tier-0 zero-allocation budget can feel. Every serve observes exactly
	// one histogram AFTER bumping served, and readers snapshot the histograms
	// BEFORE loading served, so Σ histogram counts ≤ Served in any concurrent
	// snapshot (equal once traffic quiesces).
	hist [2]metrics.Histogram
}

// Indexes into serving.hist and ServeHistograms.
const (
	histPin  = 0 // tier-0 plan-memory hit
	histFull = 1 // tier-2 full pass
)

// identity is the scope plan memory is valid under: backend × the slot's
// epoch. A DDL batch re-publishes the slot at a new epoch, so the catalog
// generation needs no place of its own in the key.
func (lp *Loop) identity(s *slot) runtime.Identity {
	return runtime.Identity{Backend: lp.srv.backendName, Epoch: s.epoch}
}

// Serve optimizes one query on the active replica, from the cheapest tier
// that can answer it. It never blocks on retraining or swaps: the only
// synchronization on this path is the active replica's shared serving lock
// and atomic pointer loads. A request that a re-publish overtakes mid-flight
// is re-served on the new slot, so Result.Epoch always identifies the
// generation — and the pin — that actually chose the plan. A swap alone
// would not need it (a published replica's weights never change), but a DDL
// re-publishes the same replica at a new epoch after repointing its catalog,
// so a request in flight across it may have planned against either schema.
func (lp *Loop) Serve(ctx context.Context, q *query.Query) (Result, error) {
	if lp.closed.Load() {
		return Result{}, fmt.Errorf("service: serve: %w", fosserr.ErrLoopClosed)
	}
	if err := lp.checkCatalog(lp.Active(), q); err != nil {
		return Result{}, fmt.Errorf("service: serve: %w", err)
	}
	start := time.Now()
	for {
		s := lp.srv.active.Load()
		res, fast := lp.serveFast(s, q)
		h := histPin
		if fast {
			res.OptTime = time.Since(start)
		} else {
			h = histFull
			pe, hit, d, err := s.r.OptimizeEvalContext(ctx, q)
			if err != nil {
				return Result{}, err
			}
			res = Result{Eval: pe, CacheHit: hit, OptTime: d, Tier: tier.Tier2}
		}
		if lp.srv.active.Load() != s {
			// a swap or DDL re-published the slot while this request was in
			// flight; both are rare, so the retry loop terminates in
			// practice after one extra pass
			continue
		}
		lp.srv.served.Add(1)
		if !fast && res.CacheHit {
			lp.srv.cacheHits.Add(1)
		}
		res.Epoch = s.epoch
		lp.srv.hist[h].Observe(res.OptTime)
		return res, nil
	}
}

// serveFast attempts the tier-0 fast path on slot s; ok=false means the
// full tier-2 path must answer. A hit is allocation-free: a memoized
// fingerprint and one read-locked map lookup.
func (lp *Loop) serveFast(s *slot, q *query.Query) (Result, bool) {
	if lp.srv.tiers == nil {
		return Result{}, false
	}
	d := lp.srv.tiers.Route(lp.identity(s), q.Fingerprint())
	if d.Tier != tier.Tier0 {
		return Result{}, false
	}
	return Result{Eval: d.Pin, CacheHit: true, Tier: tier.Tier0}, true
}

// ServeBatch is Serve over each query — out[i] is Serve(ctx, qs[i]) in plan,
// tier, and latency accounting — under two batch contracts: the whole batch
// is answered by a single model generation (a swap that lands mid-batch
// re-serves the batch on the new active), and a stale-catalog row, an error
// or a cancellation returns promptly with no partial results. Rows are the
// same independent serves concurrent callers would issue, so they run as
// such, GOMAXPROCS at a time; a batch of one runs inline. The counters track
// serves done, not rows returned: a re-served or failed batch has counted
// the rows it served.
func (lp *Loop) ServeBatch(ctx context.Context, qs []*query.Query) ([]Result, error) {
	if lp.closed.Load() {
		return nil, fmt.Errorf("service: serve batch: %w", fosserr.ErrLoopClosed)
	}
	r := lp.Active()
	for _, q := range qs {
		// Refused before any row is served, so a stale batch costs nothing.
		if err := lp.checkCatalog(r, q); err != nil {
			return nil, fmt.Errorf("service: serve batch: %w", err)
		}
	}
	out := make([]Result, len(qs))
	errs := make([]error, len(qs))
serve:
	for {
		if err := runtime.Fan(ctx, len(qs), func(i int) {
			out[i], errs[i] = lp.Serve(ctx, qs[i])
		}); err != nil {
			return nil, err
		}
		for i, err := range errs {
			if err != nil {
				return nil, err
			}
			if out[i].Epoch != out[0].Epoch {
				// Swaps are cooldown-gated, so one restart is the practical bound.
				continue serve
			}
		}
		return out, nil
	}
}

// Step runs one full doctor-loop turn: Serve, Execute on the active replica,
// Record. It returns the serve result and the observed latency.
func (lp *Loop) Step(ctx context.Context, q *query.Query) (Result, float64, error) {
	res, err := lp.Serve(ctx, q)
	if err != nil {
		return Result{}, 0, err
	}
	lat, err := lp.executeAndRecord(q, res)
	return res, lat, err
}

// executeAndRecord is the tail of a server-side doctor-loop turn: run the
// served plan on the active replica and record the observed latency. A DDL
// that landed between Serve and Execute and dropped schema the plan depends
// on makes the replica refuse to run it (NaN); that counts as a stale
// invalidation and surfaces fosserr.ErrCatalogStale instead of recording a
// NaN latency.
func (lp *Loop) executeAndRecord(q *query.Query, res Result) (float64, error) {
	lat := lp.Active().Execute(res.Eval.CP)
	if math.IsNaN(lat) {
		lp.cat.stale.Add(1)
		return 0, fmt.Errorf("service: step %s: %w", q.ID, fosserr.ErrCatalogStale)
	}
	lp.Record(q, res.Eval, lat)
	return lat, nil
}

// ServeHistograms snapshots the serve-latency histograms: [0] tier-0 pin
// hits, [1] tier-2 full passes. Callers composing a scrape must snapshot
// these BEFORE calling Stats so Σ counts ≤ Stats().Served holds under
// concurrent traffic.
func (lp *Loop) ServeHistograms() [2]metrics.HistSnapshot {
	return [2]metrics.HistSnapshot{lp.srv.hist[histPin].Snapshot(), lp.srv.hist[histFull].Snapshot()}
}

// tierServes reads one tier's serve count and mean serve time (µs) off its
// histogram snapshot — Snapshot loads the sum before the bucket counts, so a
// torn read is off by at most the observations in flight.
func tierServes(h metrics.HistSnapshot) (n uint64, avgUs float64) {
	if n = h.Count(); n > 0 {
		avgUs = h.SumSeconds * 1e6 / float64(n)
	}
	return n, avgUs
}
