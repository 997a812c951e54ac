// Package service runs FOSS as an online, self-improving doctor: the full
// Optimize → Execute → Record loop of the paper's framing, kept learning
// after deployment. Executed-plan feedback flows back into the learner's
// execution buffer; a rolling regression-vs-expert drift detector decides
// when the serving model has fallen behind the workload; and retraining
// happens in the background on a standby replica that is then published by
// an atomic pointer swap — serving never blocks on training and never sees a
// half-updated model.
//
// # Hot-swap protocol
//
// The loop owns two replicas in blue/green rotation:
//
//  1. Serve reads the active replica through an atomic pointer. Requests
//     take the replica's shared (RLock) serving path; no Loop-level lock is
//     on the request path.
//  2. Drift triggers retraining on the standby replica, which has no
//     traffic: its exclusive train lock is uncontended, so the retrain
//     blocks nobody. Recorded feedback keeps flowing into both replicas'
//     buffers meanwhile.
//  3. When retraining finishes, the standby is published by a single atomic
//     store with a bumped epoch. Its plan cache was invalidated when its
//     training lock released, so every post-swap plan is chosen (and cached)
//     by the new model: a cache hit at epoch e always matches a miss at
//     epoch e.
//  4. In-flight requests on the demoted replica drain under its RLock and
//     finish on the old-but-consistent model. The demoted replica then has
//     the new weights copied in (its exclusive lock waits for exactly those
//     stragglers) and becomes the next standby.
//
// The package talks to replicas through the small Replica interface; core
// wires two *core.System instances in and re-exports the loop as
// System.ServeContext / System.Record.
package service

import (
	"context"
	"fmt"
	"math"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/learner"
	"github.com/foss-db/foss/internal/metrics"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/runtime"
	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/tier"
)

// Replica is the surface the loop needs from one doctor instance. Two
// instances over the same workload form the blue/green pair; *core.System
// implements it.
type Replica interface {
	// OptimizeEvalContext serves one query through the replica's cached,
	// shared-locked path, returning the full evaluated candidate and a
	// cache-hit flag. Cancellation is honored between rollouts.
	OptimizeEvalContext(ctx context.Context, q *query.Query) (*planner.PlanEval, bool, time.Duration, error)
	// TrainOnContext runs incremental training over the query set under the
	// replica's exclusive lock; its plan cache is invalidated afterwards.
	TrainOnContext(ctx context.Context, queries []*query.Query, iterations int, progress func(learner.IterStats)) error
	// BackendName identifies the optimizer backend under the replica.
	BackendName() string
	// Save / Load snapshot and restore the learned weights (Load quiesces
	// the replica's serving path while weights are copied).
	Save() ([]byte, error)
	Load(data []byte) error
	// ExpertPlan returns the traditional optimizer's plan, the drift
	// detector's latency baseline.
	ExpertPlan(q *query.Query) (*plan.CP, time.Duration, error)
	// Execute runs a plan and returns its latency in milliseconds.
	Execute(cp *plan.CP) float64
	// Buffer exposes the replica's execution buffer for feedback ingestion.
	Buffer() *learner.Buffer
	// CacheStats snapshots the replica's plan-cache counters.
	CacheStats() runtime.CacheStats
	// RebuildEval re-derives an executed candidate from its durable identity
	// (query × incomplete plan × step) — WAL replay and checkpoint import go
	// through it. Latency is unset on return.
	RebuildEval(q *query.Query, icp plan.ICP, step int) (*planner.PlanEval, error)

	// ApplyDDL applies a schema-evolution batch to the replica's live
	// catalog and repoints it at the rebuilt backend under its own
	// train/serve arbiter. Returns the new catalog epoch. For a blue/green
	// pair over one shared catalog world, applying through either replica
	// produces the single new generation the other picks up via
	// ResyncCatalog.
	ApplyDDL(ddls []catalog.DDL) (uint64, error)
	// ResyncCatalog repoints the replica at its catalog world's current
	// generation; a no-op when already current.
	ResyncCatalog() error
	// SyncCatalog brings the replica's catalog to exactly the given epoch by
	// replaying the missing suffix of the full DDL log — the checkpoint
	// restore path. A replica already past the epoch (or hashing differently
	// after replay) refuses with fosserr.ErrCatalogMismatch.
	SyncCatalog(epoch, hash uint64, log []catalog.DDL) error
	// CheckCatalog fails with fosserr.ErrCatalogStale when the query
	// references schema objects the live catalog no longer has.
	CheckCatalog(q *query.Query) error
	// CatalogEpoch, CatalogHash, and CatalogLog expose the live catalog's
	// durable identity — the checkpoint ingredients.
	CatalogEpoch() uint64
	CatalogHash() uint64
	CatalogLog() []catalog.DDL
}

// Config tunes the online loop.
type Config struct {
	Detector DetectorConfig

	// Cooldown is the minimum number of recorded executions between retrain
	// triggers, preventing swap thrash while a fresh model warms its window.
	Cooldown int
	// RetrainIterations is the learner schedule per background retrain
	// (incremental: much shorter than the offline run).
	RetrainIterations int
	// RetrainQueries caps how many distinct recent queries a retrain uses
	// (the most recently served ones win).
	RetrainQueries int
	// Background runs retraining on its own goroutine. Synchronous mode
	// (false) retrains inside the Record call that tripped the detector —
	// deterministic, used by tests and reproducibility runs.
	Background bool

	// Store attaches a durability store: every Record journals the executed
	// plan to the store's WAL before ingestion, every hot-swap writes a
	// checkpoint of the freshly published replica, and CheckpointEvery adds
	// a periodic cadence. nil runs the loop purely in memory (the pre-PR-4
	// behavior).
	Store *store.Store
	// CheckpointEvery is the number of recorded executions between periodic
	// checkpoints; 0 checkpoints only on hot-swaps and explicit Checkpoint
	// calls.
	CheckpointEvery int
	// InitialEpoch sets the epoch the loop starts serving at — recovery
	// resumes the pre-crash generation count instead of restarting at 1.
	// 0 means 1 (a fresh loop).
	InitialEpoch uint64

	// Tier configures the tiered fast path in front of the doctor: tier-0
	// plan memory (feedback-promoted pins) and the tier-1 greedy
	// micro-planner. The zero value disables both — every request takes the
	// full tier-2 path, the pre-PR-6 behavior.
	Tier tier.Config

	// Follower marks this loop as a read-only serving replica in a
	// replicated fleet: it serves traffic and hot-swaps models published by
	// its leader (ApplyCheckpoint), but never triggers retraining of its
	// own — drift observations still feed the detector's window (visible in
	// stats), they just cannot start a training run. Followers run without
	// a Store; feedback reaching one is the wire layer's problem (it
	// forwards to the leader).
	Follower bool

	// Advisor configures the async self-diagnosis advisor: a background
	// goroutine (owned by the loop, drained by Close) that watches the
	// feedback stream and emits structured findings — sustained regression
	// vs the expert baseline, plan-memory thrash, cooldown-starved drift.
	// The zero value disables it; serving pays nothing either way (the
	// Record-side hand-off is one non-blocking channel send).
	Advisor AdvisorConfig
}

// DefaultConfig returns a serving-oriented configuration.
func DefaultConfig() Config {
	return Config{
		Detector: DetectorConfig{
			Window:      32,
			Threshold:   1.15,
			MinSamples:  16,
			NoveltyFrac: 0.6,
		},
		Cooldown:          32,
		RetrainIterations: 2,
		RetrainQueries:    48,
		Background:        true,
	}
}

// Result is one served request.
type Result struct {
	// Eval is the chosen candidate (plan, encoding, step) — hand it back to
	// Record together with the observed latency.
	Eval *planner.PlanEval
	// Epoch identifies the model generation that chose the plan; it bumps on
	// every hot-swap.
	Epoch uint64
	// CacheHit reports whether the plan came from the active replica's cache
	// (or, for tier-0/1 results, from the loop's own plan memory).
	CacheHit bool
	// OptTime is the optimization time (model inference + hint completion).
	OptTime time.Duration
	// Tier reports which serving tier produced the plan: 0 = plan-memory
	// hit, 1 = greedy micro-planner, 2 = full AAM steering (always 2 when
	// tiered serving is disabled).
	Tier int
}

// Stats snapshots the loop's counters.
type Stats struct {
	Epoch         uint64 // current model generation (starts at 1)
	Served        uint64
	CacheHits     uint64
	Recorded      uint64
	Drifts        uint64 // detector firings that triggered a retrain
	Retrains      uint64 // retrains started
	Swaps         uint64 // hot-swaps completed
	RetrainErrors uint64
	ExpertErrors  uint64 // expert-baseline failures (those records feed a neutral ratio)
	Retraining    bool
	Closed        bool    // Close has begun: intake is stopped
	WindowMean    float64 // rolling mean regression ratio
	WindowNovel   float64 // rolling novel-fingerprint fraction

	// Durability counters (zero when no store is attached).
	WALEntries       uint64 // intact records in the journal, replayed + live
	Replayed         uint64 // WAL records replayed into this loop at recovery
	Checkpoints      uint64 // checkpoints written by this loop
	RecoveredEpoch   uint64 // epoch restored from disk at startup (0 = cold start)
	WALErrors        uint64 // journal append failures (feedback kept in memory only)
	CheckpointErrors uint64 // checkpoint write failures (the previous recovery point stands)

	// Schema-evolution counters.
	CatalogEpoch       uint64 // live catalog generation (count of applied DDL statements)
	CatalogApplies     uint64 // DDL batches applied through this loop
	StaleInvalidations uint64 // requests/feedback refused because a DDL outdated their schema

	// Tiered-serving counters (zero when tiering is disabled).
	Tier0Hits   uint64  // serves answered from plan memory
	Tier1Hits   uint64  // serves answered by the greedy micro-planner
	Tier2Serves uint64  // serves that took the full AAM path
	Promotions  uint64  // plans pinned into tier-0 memory
	Demotions   uint64  // pins escalated back to tier 2 on regression
	PinnedPlans int     // live tier-0 pins right now
	Tier0AvgUs  float64 // mean serve time per tier, microseconds
	Tier1AvgUs  float64
	Tier2AvgUs  float64
}

// Loop is the online doctor service over a blue/green replica pair.
type Loop struct {
	cfg Config
	det *Detector

	active atomic.Pointer[slot]

	// mu guards the standby replica, the recent-query ring, the expert
	// latency cache, and the cooldown counter. Never taken by Serve.
	mu           sync.Mutex
	standby      Replica
	recent       []*query.Query
	recentSet    map[uint64]bool
	expertLat    map[uint64]float64
	sinceRetrain int

	retraining atomic.Bool
	wg         sync.WaitGroup
	advWG      sync.WaitGroup // advisor goroutine: loop-lifetime, so outside wg (Wait must not block on it)

	// Lifecycle: closed flips once, under lifeMu, which spawn also holds —
	// so after Close observes closed and drains wg, no new background
	// goroutine can ever start (the flag check and the wg.Add are one
	// critical section). baseCtx is the parent of every background retrain;
	// Close cancels it when the drain deadline passes.
	lifeMu   sync.Mutex
	closed   atomic.Bool
	closeErr error
	closing  sync.Once
	baseCtx  context.Context
	stopBase context.CancelFunc

	// store is the durability subsystem (nil = in-memory loop). WAL appends
	// happen under mu (Record's ordering lock doubles as the journal lock);
	// checkpoint writes serialize on ckMu so a periodic trigger and a
	// post-swap checkpoint never interleave their temp/rename dance.
	st             *store.Store
	ckMu           sync.Mutex
	checkpointing  atomic.Bool
	recoveredEpoch uint64 // set during Replay, before traffic

	// tiers is the tier router's state (nil = tiering disabled, every serve
	// takes the full path). backendName is cached at construction so the
	// tier-0 hit path builds its identity key without touching the replica.
	tiers       *tier.Memory
	backendName string

	served, cacheHits, recorded atomic.Uint64
	drifts, retrains, swaps     atomic.Uint64
	retrainErrors, expertErrors atomic.Uint64
	checkpoints, replayed       atomic.Uint64
	walErrors, ckErrors         atomic.Uint64

	// catalogEpoch mirrors the active replica's live-catalog epoch so the
	// serving fast paths key plan memory by it without touching the replica
	// (the replicas share one catalog world, so one value describes both).
	// It moves only under mu (ApplyDDL, checkpoint/DDL replay), strictly
	// upward.
	catalogEpoch       atomic.Uint64
	catalogApplies     atomic.Uint64
	staleInvalidations atomic.Uint64

	t0Hits, t1Hits, t2Serves  atomic.Uint64
	promotions, demotions     atomic.Uint64
	t0Nanos, t1Nanos, t2Nanos atomic.Int64

	// hist holds the per-tier serve-latency histograms behind /metrics,
	// indexed by tier. Embedded by value: observing is two atomic adds on a
	// fixed array, nothing the tier-0 zero-allocation budget can feel. Every
	// serve observes exactly one histogram AFTER bumping served, and readers
	// snapshot the histograms BEFORE loading served, so Σ histogram counts ≤
	// Served in any concurrent snapshot (equal once traffic quiesces).
	hist [3]metrics.Histogram

	// adv is the async advisor (nil = disabled). Its goroutine is spawned
	// through lp.spawn, so Close's WaitGroup drain covers it; advStop is
	// closed at the start of shutdown to release it from its channel wait.
	adv     *advisor
	advStop chan struct{}
}

// slot pairs a replica with the epoch it was published at.
type slot struct {
	r     Replica
	epoch uint64
}

// New assembles a loop over an active/standby replica pair. known seeds the
// detector's fingerprint set (typically the training split). The active
// replica should carry the trained models; the standby must mirror them
// (core.EnableOnline handles the initial sync).
func New(cfg Config, active, standby Replica, known []*query.Query) *Loop {
	if cfg.Cooldown < 1 {
		cfg.Cooldown = 1
	}
	if cfg.RetrainIterations < 1 {
		cfg.RetrainIterations = 1
	}
	if cfg.RetrainQueries < 1 {
		cfg.RetrainQueries = 48
	}
	fps := make([]uint64, 0, len(known))
	for _, q := range known {
		fps = append(fps, q.Fingerprint())
	}
	lp := &Loop{
		cfg:         cfg,
		det:         NewDetector(cfg.Detector, fps),
		standby:     standby,
		recentSet:   map[uint64]bool{},
		expertLat:   map[uint64]float64{},
		st:          cfg.Store,
		backendName: active.BackendName(),
	}
	if cfg.Tier.Enabled() {
		lp.tiers = tier.NewMemory(cfg.Tier)
	}
	lp.baseCtx, lp.stopBase = context.WithCancel(context.Background())
	lp.catalogEpoch.Store(active.CatalogEpoch())
	epoch := cfg.InitialEpoch
	if epoch == 0 {
		epoch = 1
	}
	lp.active.Store(&slot{r: active, epoch: epoch})
	if cfg.Advisor.Enabled {
		lp.adv = newAdvisor(cfg.Advisor)
		lp.advStop = make(chan struct{})
		// Tracked on its own WaitGroup, not lp.wg: the advisor runs for the
		// loop's whole life, so counting it in lp.wg would make Wait — which
		// drains transient retrain/checkpoint work — block until Close.
		lp.advWG.Add(1)
		go func() {
			defer lp.advWG.Done()
			lp.adv.run(lp.advStop)
		}()
	}
	return lp
}

// Serve optimizes one query on the active replica. It never blocks on
// retraining or swaps: the only synchronization on this path is the active
// replica's shared serving lock and atomic pointer loads. A request that a
// hot-swap overtakes mid-flight (the demoted replica may already carry the
// freshly mirrored weights by the time the request acquires its read lock)
// is re-served on the new active, so Result.Epoch always identifies the
// model generation that actually chose the plan.
func (lp *Loop) Serve(ctx context.Context, q *query.Query) (Result, error) {
	if lp.closed.Load() {
		return Result{}, fmt.Errorf("service: serve: %w", fosserr.ErrLoopClosed)
	}
	if err := lp.active.Load().r.CheckCatalog(q); err != nil {
		// The query references schema a DDL has since dropped; refusing here
		// (rather than letting the planner trip over missing storage) is the
		// serving half of the catalog contract.
		lp.staleInvalidations.Add(1)
		return Result{}, fmt.Errorf("service: serve: %w", err)
	}
	if lp.tiers != nil {
		if res, ok := lp.serveTiered(q); ok {
			return res, nil
		}
	}
	for {
		s := lp.active.Load()
		pe, hit, d, err := s.r.OptimizeEvalContext(ctx, q)
		if err != nil {
			return Result{}, err
		}
		if lp.active.Load() != s {
			// a swap landed while this request was in flight; swaps are rare
			// (cooldown-gated), so the retry loop terminates in practice
			// after one extra pass
			continue
		}
		lp.served.Add(1)
		if hit {
			lp.cacheHits.Add(1)
		}
		if lp.tiers != nil {
			lp.t2Serves.Add(1)
			lp.t2Nanos.Add(int64(d))
		}
		lp.hist[tier.Tier2].Observe(d)
		return Result{Eval: pe, Epoch: s.epoch, CacheHit: hit, OptTime: d, Tier: tier.Tier2}, nil
	}
}

// serveTiered attempts the tier-0/1 fast paths; ok=false falls through to
// the full tier-2 path. The tier-0 hit path is allocation-free: a memoized
// fingerprint, an atomic slot load, and one read-locked map lookup. The
// swap-recheck mirrors Serve's: a routing decision made against a demoted
// slot is retried so Result.Epoch always names the generation whose pin (or
// greedy cache) answered.
func (lp *Loop) serveTiered(q *query.Query) (Result, bool) {
	start := time.Now()
	fp := q.Fingerprint()
	for {
		s := lp.active.Load()
		id := runtime.Identity{Backend: lp.backendName, Epoch: s.epoch, Catalog: lp.catalogEpoch.Load()}
		d := lp.tiers.Route(id, fp)
		switch d.Tier {
		case tier.Tier0:
			if lp.active.Load() != s {
				continue
			}
			lp.served.Add(1)
			lp.t0Hits.Add(1)
			el := time.Since(start)
			lp.t0Nanos.Add(int64(el))
			lp.hist[tier.Tier0].Observe(el)
			return Result{Eval: d.Pin, Epoch: s.epoch, CacheHit: true, OptTime: el, Tier: tier.Tier0}, true
		case tier.Tier1:
			key := id.Key(fp)
			pe, cached := lp.tiers.GreedyCached(key)
			if !cached {
				gicp, ok := tier.Greedy(q)
				if !ok {
					return Result{}, false // disconnected join graph: tier 2
				}
				var err error
				pe, err = s.r.RebuildEval(q, gicp, 0)
				if err != nil {
					return Result{}, false
				}
				lp.tiers.StoreGreedy(key, pe)
			}
			if lp.active.Load() != s {
				continue
			}
			lp.served.Add(1)
			lp.t1Hits.Add(1)
			el := time.Since(start)
			lp.t1Nanos.Add(int64(el))
			lp.hist[tier.Tier1].Observe(el)
			return Result{Eval: pe, Epoch: s.epoch, CacheHit: cached, OptTime: el, Tier: tier.Tier1}, true
		default:
			return Result{}, false
		}
	}
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
	r := lp.active.Load().r
	for _, q := range qs {
		if err := r.CheckCatalog(q); err != nil {
			// Refused before any row is served, so a stale batch costs nothing.
			lp.staleInvalidations.Add(1)
			return nil, fmt.Errorf("service: serve batch: %w", err)
		}
	}
	out := make([]Result, len(qs))
	errs := make([]error, len(qs))
	pool := runtime.NewPool(min(len(qs), goruntime.GOMAXPROCS(0)))
serve:
	for {
		if err := pool.RunCtx(ctx, len(qs), func(_, i int) {
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

// Record ingests one executed plan: the query, the candidate Serve returned,
// and the latency observed when it ran. With a store attached, the
// execution is journaled to the WAL first — the durability point precedes
// ingestion, so a crash at any later point replays this record. The
// execution then lands in both replicas' buffers (so the next retrain
// learns from it), feeds the drift detector, and — when the window signals
// drift past the cooldown — triggers a retrain.
//
// A zero latency is legitimate (sub-millisecond executions round to 0);
// only negative values are rejected. The return reports whether the
// observation was ingested: false for invalid arguments and for feedback
// arriving after Close began (intake stopped; the final checkpoint must
// stay the last word) — wire callers answer 503, not a false ack.
func (lp *Loop) Record(q *query.Query, pe *planner.PlanEval, latencyMs float64) bool {
	if q == nil || pe == nil || latencyMs < 0 || lp.closed.Load() {
		return false
	}
	if lp.active.Load().r.CheckCatalog(q) != nil {
		// Feedback produced against a schema generation a DDL has since
		// retired cannot be re-derived deterministically; drop it (counted in
		// StaleInvalidations) rather than journal a record replay could never
		// rebuild.
		lp.staleInvalidations.Add(1)
		return false
	}
	fp := q.Fingerprint()

	// The expert baseline resolves before the ordering lock: the tier
	// router's Observe runs inside it and judges wins/regressions against
	// the same baseline the drift detector uses. (expertLatency takes mu
	// briefly for its cache; the plan+execute runs unlocked either way.)
	expert := lp.expertLatency(lp.active.Load().r, q, fp)

	// Resolve the replica pair under mu: the swap updates the active pointer
	// and the standby field inside the same critical section, so this
	// snapshot can never see the demoted replica on both sides (which would
	// leave the newly promoted model without the feedback). The WAL append
	// AND the buffer ingestion ride the same lock: Checkpoint captures its
	// WAL horizon under mu, so every journaled record at or below that
	// horizon is provably already in the exported buffer — an entry can
	// never fall between the checkpoint image and the replay tail. The tier
	// router's Observe rides the same lock for the same reason: a checkpoint's
	// exported tier state is exactly the state produced by the records at or
	// below its WAL horizon. The fsync inside Append makes this critical
	// section the feedback throughput ceiling; that is the price of the
	// durability point preceding ingestion (group commit is the known escape
	// hatch if a deployment ever needs more).
	lp.mu.Lock()
	if lp.st != nil {
		_, err := lp.st.WAL().Append(store.WALEntry{
			Kind:        store.KindFeedback,
			Fingerprint: fp,
			Query:       q,
			ICP:         pe.ICP.Clone(),
			Step:        pe.Step,
			LatencyMs:   latencyMs,
			TimedOut:    false,
		})
		if err != nil {
			// Feedback survives in memory either way; the journal gap is
			// counted and visible in /v1/stats.
			lp.walErrors.Add(1)
		}
	}
	s := lp.active.Load()
	bufs := []*learner.Buffer{s.r.Buffer()}
	if lp.standby != nil {
		bufs = append(bufs, lp.standby.Buffer())
	}
	// The cached PlanEval is shared by concurrent readers: feedback gets its
	// own copies, one per buffer, with the observed latency filled in.
	for _, buf := range bufs {
		fb := *pe
		fb.Latency = latencyMs
		fb.TimedOut = false
		buf.Add(&fb)
	}
	lp.noteRecent(q, fp)
	lp.sinceRetrain++
	ready := lp.sinceRetrain >= lp.cfg.Cooldown
	var tout tier.Outcome
	if lp.tiers != nil {
		id := runtime.Identity{Backend: lp.backendName, Epoch: s.epoch, Catalog: lp.catalogEpoch.Load()}
		tout = lp.tiers.Observe(id, fp, q, pe, latencyMs, expert)
		if lp.st != nil && tout.Promoted {
			// Journal the promotion for auditability; replay re-derives the
			// pin from the feedback records, so a lost append costs nothing.
			if _, err := lp.st.WAL().Append(store.WALEntry{
				Kind:        store.KindPromote,
				Fingerprint: fp,
				Query:       tout.Pin.Q,
				ICP:         tout.Pin.ICP.Clone(),
				Step:        tout.Pin.Step,
				LatencyMs:   tout.PinLatency,
				Epoch:       s.epoch,
			}); err != nil {
				lp.walErrors.Add(1)
			}
		}
		if lp.st != nil && tout.Demoted {
			if _, err := lp.st.WAL().Append(store.WALEntry{
				Kind:        store.KindDemote,
				Fingerprint: fp,
				Epoch:       s.epoch,
			}); err != nil {
				lp.walErrors.Add(1)
			}
		}
	}
	// The promotion/demotion/recorded bumps ride the same critical section
	// that produced them, so no concurrent snapshot can observe a demotion
	// without its causing promotion, or a WAL entry count behind the
	// recorded count it implies (Stats loads the subordinate counter first;
	// see the ordering note there).
	if tout.Promoted {
		lp.promotions.Add(1)
	}
	if tout.Demoted {
		lp.demotions.Add(1)
	}
	n := lp.recorded.Add(1)
	lp.mu.Unlock()

	ratio := 1.0
	if expert > 0 {
		ratio = latencyMs / expert
	}
	sig := lp.det.Observe(fp, ratio)
	if lp.adv != nil {
		// Non-blocking hand-off: a saturated advisor drops (and counts) the
		// observation rather than slowing feedback ingestion.
		lp.adv.offer(advisorObs{
			fp:           fp,
			qid:          q.ID,
			epoch:        s.epoch,
			ratio:        ratio,
			promoted:     tout.Promoted,
			demoted:      tout.Demoted,
			driftBlocked: sig.Drift && !ready,
			catEpoch:     lp.catalogEpoch.Load(),
			t0Hits:       lp.t0Hits.Load(),
			served:       lp.served.Load(),
		})
	}

	if sig.Drift && ready {
		lp.triggerRetrain()
	}
	if lp.st != nil && lp.cfg.CheckpointEvery > 0 && n%uint64(lp.cfg.CheckpointEvery) == 0 {
		lp.triggerCheckpoint()
	}
	return true
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
	lat := lp.active.Load().r.Execute(res.Eval.CP)
	if math.IsNaN(lat) {
		lp.staleInvalidations.Add(1)
		return 0, fmt.Errorf("service: step %s: %w", q.ID, fosserr.ErrCatalogStale)
	}
	lp.Record(q, res.Eval, lat)
	return lat, nil
}

// Wait blocks until every in-flight background retrain has finished
// (including its hot-swap and weight mirroring). The advisor goroutine is
// not waited on — it lives until Close — so Wait returns on a quiet loop
// even with the advisor enabled.
func (lp *Loop) Wait() { lp.wg.Wait() }

// Close drains the loop for a lossless shutdown: intake stops (Serve and
// ServeBatch fail with fosserr.ErrLoopClosed, Record drops), every in-flight
// background retrain and checkpoint goroutine is awaited — past ctx's
// deadline the retrain's context is canceled instead, bounding the wait by
// one training episode — and, with a store attached, a final checkpoint
// images the surviving state so a SIGTERM deploy recovers exactly like a
// kill-9 does, minus the WAL replay. Idempotent and safe for concurrent
// use: every caller blocks until the one shutdown finishes and sees its
// result. The store itself stays open — its owner closes it after Close
// returns (final checkpoint before WAL release, never the reverse).
func (lp *Loop) Close(ctx context.Context) error {
	lp.closing.Do(func() {
		lp.lifeMu.Lock()
		lp.closed.Store(true)
		lp.lifeMu.Unlock()

		// Release the advisor before draining: its goroutine blocks on the
		// intake channel, so the stop signal must precede the advWG wait. It
		// drains whatever Record already handed off, then exits.
		if lp.advStop != nil {
			close(lp.advStop)
		}

		done := make(chan struct{})
		go func() {
			lp.wg.Wait()
			lp.advWG.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			// Drain deadline passed: cancel the retrain mid-schedule and wait
			// for it to unwind (TrainOnContext checks between episodes).
			lp.stopBase()
			<-done
		}
		lp.stopBase()

		if lp.st != nil {
			if _, err := lp.Checkpoint(); err != nil {
				lp.ckErrors.Add(1)
				lp.closeErr = fmt.Errorf("service: close: final checkpoint: %w", err)
			}
		}
	})
	return lp.closeErr
}

// Closed reports whether Close has begun.
func (lp *Loop) Closed() bool { return lp.closed.Load() }

// Active returns the replica currently serving (for evaluation harnesses).
func (lp *Loop) Active() Replica { return lp.active.Load().r }

// Epoch returns the current model generation.
func (lp *Loop) Epoch() uint64 { return lp.active.Load().epoch }

// Stats snapshots the counters.
//
// Snapshot consistency: counters are lock-free on the write side, so a
// concurrent scrape can land between any two bumps — but never incoherently.
// Each subordinate counter is loaded BEFORE the counter that bounds it
// (cache hits and tier hits before served, demotions before promotions,
// recorded before the WAL length, per-tier nanos before per-tier hits), and
// the write side bumps them in the opposite order (or under one critical
// section). Every snapshot therefore satisfies the cross-counter invariants:
// CacheHits ≤ Served, Tier0+Tier1+Tier2 ≤ Served, Demotions ≤ Promotions,
// and (with a clean journal) Recorded ≤ WALEntries. The -race scrape test
// pins exactly these.
func (lp *Loop) Stats() Stats {
	win := lp.det.WindowState()
	st := Stats{
		CacheHits:        lp.cacheHits.Load(),
		Drifts:           lp.drifts.Load(),
		Retrains:         lp.retrains.Load(),
		Swaps:            lp.swaps.Load(),
		RetrainErrors:    lp.retrainErrors.Load(),
		ExpertErrors:     lp.expertErrors.Load(),
		Retraining:       lp.retraining.Load(),
		Closed:           lp.closed.Load(),
		WindowMean:       win.Mean,
		WindowNovel:      win.NovelFrac,
		Replayed:         lp.replayed.Load(),
		Checkpoints:      lp.checkpoints.Load(),
		RecoveredEpoch:   lp.recoveredEpoch,
		WALErrors:        lp.walErrors.Load(),
		CheckpointErrors: lp.ckErrors.Load(),
		// Applies before epoch (and ApplyDDL stores the epoch first), so
		// every snapshot satisfies CatalogApplies ≤ CatalogEpoch — each
		// apply carries at least one statement.
		CatalogApplies:     lp.catalogApplies.Load(),
		CatalogEpoch:       lp.catalogEpoch.Load(),
		StaleInvalidations: lp.staleInvalidations.Load(),
	}
	if lp.tiers != nil {
		// Nanos before hits: a torn average can only undercount, never
		// divide fresh nanos by stale hits.
		t0n, t1n, t2n := lp.t0Nanos.Load(), lp.t1Nanos.Load(), lp.t2Nanos.Load()
		st.Tier0Hits = lp.t0Hits.Load()
		st.Tier1Hits = lp.t1Hits.Load()
		st.Tier2Serves = lp.t2Serves.Load()
		st.Demotions = lp.demotions.Load()
		st.Promotions = lp.promotions.Load()
		st.PinnedPlans = lp.tiers.Pinned()
		if st.Tier0Hits > 0 {
			st.Tier0AvgUs = float64(t0n) / float64(st.Tier0Hits) / 1e3
		}
		if st.Tier1Hits > 0 {
			st.Tier1AvgUs = float64(t1n) / float64(st.Tier1Hits) / 1e3
		}
		if st.Tier2Serves > 0 {
			st.Tier2AvgUs = float64(t2n) / float64(st.Tier2Serves) / 1e3
		}
	}
	st.Recorded = lp.recorded.Load()
	st.Served = lp.served.Load()
	st.Epoch = lp.active.Load().epoch
	if lp.st != nil {
		lp.mu.Lock()
		st.WALEntries = lp.st.WAL().Len()
		lp.mu.Unlock()
	}
	return st
}

// ServeHistograms snapshots the per-tier serve-latency histograms (indexed
// by tier). Callers composing a scrape must snapshot these BEFORE calling
// Stats so Σ counts ≤ Stats().Served holds under concurrent traffic.
func (lp *Loop) ServeHistograms() [3]metrics.HistSnapshot {
	return [3]metrics.HistSnapshot{
		lp.hist[0].Snapshot(), lp.hist[1].Snapshot(), lp.hist[2].Snapshot(),
	}
}

// expertLatency returns (computing and caching on first use) the traditional
// optimizer's latency for the query — the drift detector's baseline. Failures
// are counted but not cached, so a transient error does not permanently pin
// the query's regression ratio at neutral.
func (lp *Loop) expertLatency(r Replica, q *query.Query, fp uint64) float64 {
	lp.mu.Lock()
	if lat, ok := lp.expertLat[fp]; ok {
		lp.mu.Unlock()
		return lat
	}
	lp.mu.Unlock()
	// Plan + execute outside the lock: both are read-only on shared state.
	cp, _, err := r.ExpertPlan(q)
	if err != nil {
		lp.expertErrors.Add(1)
		return 0
	}
	lat := r.Execute(cp)
	lp.mu.Lock()
	lp.expertLat[fp] = lat
	lp.mu.Unlock()
	return lat
}

// noteRecent tracks the distinct recently served queries, newest last,
// bounded by RetrainQueries. Caller holds mu.
func (lp *Loop) noteRecent(q *query.Query, fp uint64) {
	if lp.recentSet[fp] {
		return
	}
	lp.recentSet[fp] = true
	lp.recent = append(lp.recent, q)
	if len(lp.recent) > lp.cfg.RetrainQueries {
		drop := lp.recent[0]
		lp.recent = append(lp.recent[:0], lp.recent[1:]...)
		delete(lp.recentSet, drop.Fingerprint())
	}
}

// spawn starts a tracked background goroutine, refusing once Close has begun:
// the closed check and the wg.Add share lifeMu with Close's flag flip, so a
// goroutine can never slip in between Close marking the loop closed and
// Close draining the WaitGroup (that goroutine would outlive Close — the
// exact leak Close exists to prevent).
func (lp *Loop) spawn(f func()) bool {
	lp.lifeMu.Lock()
	defer lp.lifeMu.Unlock()
	if lp.closed.Load() {
		return false
	}
	lp.wg.Add(1)
	go func() {
		defer lp.wg.Done()
		f()
	}()
	return true
}

// triggerRetrain starts (at most) one retrain; concurrent triggers collapse.
// The drift/retrain counters bump inside the work itself, so a trigger that
// spawn refuses (Close won the race) leaves the stats truthful: no retrain
// ran, none is counted.
func (lp *Loop) triggerRetrain() {
	if lp.closed.Load() || lp.cfg.Follower {
		return
	}
	if !lp.retraining.CompareAndSwap(false, true) {
		return
	}
	run := func() {
		lp.drifts.Add(1)
		lp.retrains.Add(1)
		lp.retrain()
	}
	if lp.cfg.Background {
		if !lp.spawn(run) {
			lp.retraining.Store(false)
		}
	} else {
		run()
	}
}

// retrain runs the incremental schedule on the standby, hot-swaps it in, and
// mirrors the new weights onto the demoted replica.
func (lp *Loop) retrain() {
	defer lp.retraining.Store(false)

	lp.mu.Lock()
	standby := lp.standby
	queries := append([]*query.Query(nil), lp.recent...)
	lp.mu.Unlock()
	if standby == nil || len(queries) == 0 {
		return
	}

	// baseCtx, not Background: a Close whose drain deadline passes cancels
	// it, bounding shutdown by one training episode instead of the full
	// incremental schedule.
	if err := standby.TrainOnContext(lp.baseCtx, queries, lp.cfg.RetrainIterations, nil); err != nil {
		lp.retrainErrors.Add(1)
		return
	}

	// Publish: one atomic store; Serve never waits. The standby's cache was
	// invalidated when TrainOn's exclusive section ended, so the new epoch
	// starts cold — no plan chosen by the old weights can be served again.
	lp.mu.Lock()
	// A DDL that landed during training left the standby on the old catalog
	// generation (ApplyDDL never waits behind a training lock); repoint it
	// before it takes traffic. Idempotent and cheap when already current.
	if err := standby.ResyncCatalog(); err != nil {
		lp.mu.Unlock()
		lp.retrainErrors.Add(1)
		return
	}
	// The active pointer loads inside the same critical section that
	// publishes, so an ApplyDDL epoch bump between the read and the store
	// can never be overwritten.
	old := lp.active.Load()
	lp.active.Store(&slot{r: standby, epoch: old.epoch + 1})
	lp.standby = old.r
	lp.sinceRetrain = 0
	if lp.tiers != nil {
		// The new model must re-earn every pin: plan memory and the runtime
		// LRU invalidate in the same step (and share the epoch-scoped key, so
		// even a racing pre-invalidation lookup under the new epoch misses).
		lp.tiers.Invalidate()
	}
	if lp.st != nil {
		// Journal the epoch bump: replay resets the drift window at the same
		// points the live loop did.
		if _, err := lp.st.WAL().Append(store.WALEntry{Kind: store.KindSwap, Epoch: old.epoch + 1}); err != nil {
			lp.walErrors.Add(1)
		}
	}
	lp.mu.Unlock()
	lp.swaps.Add(1)
	lp.det.Reset()

	// Mirror the fresh weights onto the demoted replica so the next retrain
	// starts from the generation being served. Load's exclusive lock waits
	// only for that replica's draining in-flight requests.
	blob, err := standby.Save()
	if err != nil {
		lp.retrainErrors.Add(1)
		return
	}
	if err := old.r.Load(blob); err != nil {
		lp.retrainErrors.Add(1)
	}

	// Every epoch bump lands on disk: the published generation becomes the
	// recovery point, so a crash after a swap restarts on the adapted model,
	// not the offline one. A failure here is a durability problem, not a
	// training one — it gets its own counter.
	if lp.st != nil {
		if _, err := lp.Checkpoint(); err != nil {
			lp.ckErrors.Add(1)
		}
	}
}

// ApplyCheckpoint hot-swaps a leader-published checkpoint into this loop —
// the follower half of the blue/green machinery. The checkpoint's model
// loads into the standby replica (its exclusive load lock waits only for
// that replica's draining stragglers, never blocking serving), the standby
// publishes at the checkpoint's epoch — so leader and follower agree on the
// generation a plan came from — tier pins re-import under the new epoch,
// and the demoted replica mirrors the new weights to become the next
// standby. Stale or already-applied generations (epoch ≤ current) are
// skipped. Safe to call while traffic serves; callers serialize with each
// other (the repl tailer is a single goroutine).
func (lp *Loop) ApplyCheckpoint(ck store.Checkpoint) error {
	if lp.closed.Load() {
		return fmt.Errorf("service: apply checkpoint: %w", fosserr.ErrLoopClosed)
	}
	if ck.Epoch <= lp.active.Load().epoch {
		return nil
	}
	lp.mu.Lock()
	standby := lp.standby
	lp.mu.Unlock()
	if standby == nil {
		return fmt.Errorf("service: apply checkpoint: no standby replica")
	}
	// The leader's catalog restores before its weights: a checkpoint taken
	// after a DDL carries (epoch, hash, log), and the follower replays the
	// missing suffix through its shared catalog world — both replicas'
	// backends rebuild to the leader's schema generation — before the model
	// image (whose buffer/tier state was produced against that generation)
	// is touched. A follower somehow ahead of the leader's catalog refuses
	// (fosserr.ErrCatalogMismatch) rather than serve cross-epoch state.
	if err := standby.SyncCatalog(ck.CatalogEpoch, ck.CatalogHash, ck.CatalogDDL); err != nil {
		return fmt.Errorf("service: apply checkpoint: %w", err)
	}
	// Load validates the sealed model (backend identity, version, checksum)
	// — a checkpoint from a differently-configured leader is refused here,
	// before anything is published.
	if err := standby.Load(ck.Model); err != nil {
		return fmt.Errorf("service: apply checkpoint: %w", err)
	}
	lp.mu.Lock()
	old := lp.active.Load()
	if ck.Epoch <= old.epoch {
		// A competing apply (or local swap) got there first.
		lp.mu.Unlock()
		return nil
	}
	lp.active.Store(&slot{r: standby, epoch: ck.Epoch})
	lp.standby = old.r
	lp.catalogEpoch.Store(standby.CatalogEpoch())
	if lp.tiers != nil {
		// Same invalidation contract as a local hot-swap: the new model's
		// pins arrive below from the checkpoint's exported tier state.
		lp.tiers.Invalidate()
	}
	lp.mu.Unlock()
	lp.swaps.Add(1)
	lp.det.Reset()

	// Mirror onto the demoted replica so the next apply loads into a
	// replica already carrying the current generation. The catalog resync is
	// a shared-world no-op for core replicas but keeps the contract honest
	// for any Replica wiring distinct worlds.
	if err := old.r.ResyncCatalog(); err != nil {
		return fmt.Errorf("service: apply checkpoint: mirror catalog: %w", err)
	}
	if err := old.r.Load(ck.Model); err != nil {
		return fmt.Errorf("service: apply checkpoint: mirror: %w", err)
	}
	// The leader's feedback-proven plan memory rides the checkpoint:
	// followers serve tier-0 repeats without ever having recorded the
	// feedback that earned the pins.
	if err := lp.ImportTier(ck.Tier); err != nil {
		return fmt.Errorf("service: apply checkpoint: tier import: %w", err)
	}
	return nil
}

// ApplyDDL applies one schema-evolution batch to the serving pair — the
// loop-level entry point for live DDL. The batch applies through the active
// replica, building one new copy-on-write generation in the replicas' shared
// catalog world; the serving epoch bumps so every epoch-keyed consumer
// (tier-0 plan memory, the runtime plan cache, the replication tailer
// comparing manifest epochs) sees a new generation without a weight swap; the
// batch journals as a KindDDL WAL record and the post-DDL state checkpoints
// immediately, so a warm restart resumes at the evolved schema. Serving never
// blocks: requests in flight complete at the old (immutable) generation, and
// only Record's ordering lock is held while the world rebuilds. Returns the
// new catalog epoch. Followers refuse with fosserr.ErrNotLeader — their
// catalog advances through ApplyCheckpoint.
func (lp *Loop) ApplyDDL(ddls []catalog.DDL) (uint64, error) {
	if lp.closed.Load() {
		return 0, fmt.Errorf("service: apply ddl: %w", fosserr.ErrLoopClosed)
	}
	if lp.cfg.Follower {
		return 0, fmt.Errorf("service: apply ddl: %w", fosserr.ErrNotLeader)
	}
	if len(ddls) == 0 {
		return 0, fmt.Errorf("service: apply ddl: empty batch: %w", fosserr.ErrBadConfig)
	}
	lp.mu.Lock()
	old := lp.active.Load()
	epoch, err := old.r.ApplyDDL(ddls)
	if err != nil {
		lp.mu.Unlock()
		return 0, fmt.Errorf("service: apply ddl: %w", err)
	}
	// The standby deliberately does NOT resync here: it may be mid-retrain,
	// holding its exclusive training lock for a whole schedule, and a DDL
	// must never wait on training. It repoints at the shared world's new
	// generation before it can ever serve — the retrain publish path and
	// ApplyCheckpoint both resync under this same mu.
	lp.active.Store(&slot{r: old.r, epoch: old.epoch + 1})
	lp.catalogEpoch.Store(epoch)
	lp.catalogApplies.Add(1)
	// Expert baselines were measured against the old statistics; keeping
	// them would judge post-DDL plans against a retired cost surface.
	clear(lp.expertLat)
	// Prune retrain candidates the new schema outdated, so the next
	// background retrain never plans a dropped table.
	keep := lp.recent[:0]
	for _, q := range lp.recent {
		if old.r.CheckCatalog(q) == nil {
			keep = append(keep, q)
		} else {
			delete(lp.recentSet, q.Fingerprint())
		}
	}
	lp.recent = keep
	if lp.tiers != nil {
		// Same invalidation contract as a hot-swap: every pin re-earns its
		// place against the evolved schema (and the catalog-scoped identity
		// key makes even a racing stale lookup miss).
		lp.tiers.Invalidate()
	}
	var t0, served uint64
	if lp.adv != nil {
		t0, served = lp.t0Hits.Load(), lp.served.Load()
	}
	if lp.st != nil {
		if _, err := lp.st.WAL().Append(store.WALEntry{
			Kind:  store.KindDDL,
			Epoch: old.epoch + 1,
			DDL:   ddls,
		}); err != nil {
			lp.walErrors.Add(1)
		}
	}
	lp.mu.Unlock()
	// The drift window would mix pre- and post-DDL regression ratios
	// meaninglessly; start clean, exactly like a swap does.
	lp.det.Reset()
	if lp.adv != nil {
		// Schema-change marker: the advisor compares the tier-0 hit rate
		// before the apply with the window after it (FindingSchemaChurn).
		lp.adv.offer(advisorObs{ddl: true, epoch: old.epoch + 1, catEpoch: epoch, t0Hits: t0, served: served})
	}
	// The post-DDL generation becomes the recovery point immediately — a
	// crash after a DDL restarts on the evolved schema without re-planning
	// the migration.
	if lp.st != nil {
		if _, err := lp.Checkpoint(); err != nil {
			lp.ckErrors.Add(1)
		}
	}
	return epoch, nil
}

// CatalogEpoch returns the live catalog generation the loop is serving at.
func (lp *Loop) CatalogEpoch() uint64 { return lp.catalogEpoch.Load() }

// Follower reports whether this loop is a read-only serving replica.
func (lp *Loop) Follower() bool { return lp.cfg.Follower }

// ReplManifest returns the durable manifest this loop's store currently
// publishes — the leader half of checkpoint replication. ok=false when no
// checkpoint has landed yet; fosserr.ErrNoStore without a store.
func (lp *Loop) ReplManifest() (store.Manifest, bool, error) {
	if lp.st == nil {
		return store.Manifest{}, false, fmt.Errorf("service: repl manifest: %w", fosserr.ErrNoStore)
	}
	m, ok := lp.st.Latest()
	return m, ok, nil
}

// ReplCheckpointBlob returns the raw sealed blob of a named checkpoint from
// this loop's store (name validated against the checkpoint scheme).
func (lp *Loop) ReplCheckpointBlob(name string) ([]byte, error) {
	if lp.st == nil {
		return nil, fmt.Errorf("service: repl checkpoint: %w", fosserr.ErrNoStore)
	}
	return lp.st.ReadCheckpoint(name)
}

// Checkpoint writes a durable image of the active replica — sealed model
// snapshot, execution buffer, epoch — and repoints the manifest at it.
// Returns the checkpoint filename. Safe for concurrent use; concurrent
// writers serialize.
func (lp *Loop) Checkpoint() (string, error) {
	if lp.st == nil {
		return "", fmt.Errorf("service: checkpoint: %w", fosserr.ErrNoStore)
	}
	lp.ckMu.Lock()
	defer lp.ckMu.Unlock()

	for {
		// Capture the WAL horizon before imaging: entries journaled while
		// the image is being taken appear in the replay tail as well as
		// (possibly) the image; buffer ingestion deduplicates, so recovery
		// stays exact. The tier state exports under the same single mu
		// acquisition — Record's Observe rides mu too, so the exported pins
		// are exactly the state the records at or below seq produced.
		lp.mu.Lock()
		seq := lp.st.WAL().LastSeq()
		var tierState *store.TierState
		if lp.tiers != nil {
			tierState = lp.tiers.Export()
		}
		s := lp.active.Load()
		// The catalog triple captures under the same mu acquisition as the
		// WAL horizon: ApplyDDL journals and bumps under this lock, so the
		// image's schema generation matches the records at or below seq.
		catEpoch, catHash, catLog := s.r.CatalogEpoch(), s.r.CatalogHash(), s.r.CatalogLog()
		lp.mu.Unlock()
		// Save runs under the replica's shared lock: concurrent with its
		// serving reads, mutually exclusive with the weight mirroring a
		// hot-swap performs on a just-demoted replica — the image can never
		// capture half-copied weights.
		blob, err := s.r.Save()
		if err != nil {
			return "", fmt.Errorf("service: checkpoint save: %w", err)
		}
		buffer := s.r.Buffer().Export()
		if lp.active.Load() != s {
			// A swap landed while this replica was being imaged: the image
			// is of a demoted generation. Re-image the new active (swaps are
			// cooldown-gated, so this terminates after one extra pass).
			continue
		}
		name, err := lp.st.WriteCheckpoint(s.r.BackendName(), store.Checkpoint{
			Model:        blob,
			Buffer:       buffer,
			Epoch:        s.epoch,
			WALSeq:       seq,
			Tier:         tierState,
			CatalogEpoch: catEpoch,
			CatalogHash:  catHash,
			CatalogDDL:   catLog,
		})
		if err != nil {
			return "", err
		}
		lp.checkpoints.Add(1)
		return name, nil
	}
}

// triggerCheckpoint starts (at most) one background checkpoint; concurrent
// triggers collapse.
func (lp *Loop) triggerCheckpoint() {
	if !lp.checkpointing.CompareAndSwap(false, true) {
		return
	}
	ok := lp.spawn(func() {
		defer lp.checkpointing.Store(false)
		if _, err := lp.Checkpoint(); err != nil {
			lp.ckErrors.Add(1)
		}
	})
	if !ok {
		lp.checkpointing.Store(false)
	}
}

// Replay re-ingests a recovered WAL tail before the loop takes traffic:
// feedback records rebuild their executed candidate (deterministic hint
// completion + encoding) and flow through buffer ingestion and the drift
// detector exactly as the live Record did — the regression ratio is
// recomputed against the same deterministic expert baseline — and swap
// records reset the detector window at the same points the live loop did.
// No WAL appends and no retrain triggers happen during replay. Returns the
// number of feedback records restored.
func (lp *Loop) Replay(entries []store.WALEntry) (int, error) {
	s := lp.active.Load()
	n := 0
	for _, e := range entries {
		switch e.Kind {
		case store.KindSwap:
			lp.det.Reset()
			if lp.tiers != nil {
				lp.tiers.Invalidate()
			}
			continue
		case store.KindDDL:
			// Re-apply the schema evolution at the same stream position the
			// live loop did: feedback below this record rebuilt against the
			// old generation, feedback above rebuilds against the new one.
			// (A DDL already folded into the recovered checkpoint never
			// appears in the tail — the checkpoint's WAL horizon is past it.)
			if _, err := s.r.ApplyDDL(e.DDL); err != nil {
				return n, fmt.Errorf("service: replay ddl seq %d: %w", e.Seq, err)
			}
			lp.mu.Lock()
			standby := lp.standby
			clear(lp.expertLat)
			lp.mu.Unlock()
			if standby != nil {
				if err := standby.ResyncCatalog(); err != nil {
					return n, fmt.Errorf("service: replay ddl seq %d: standby: %w", e.Seq, err)
				}
			}
			lp.catalogEpoch.Store(s.r.CatalogEpoch())
			lp.det.Reset()
			if lp.tiers != nil {
				lp.tiers.Invalidate()
			}
			continue
		case store.KindFeedback:
		case store.KindPromote, store.KindDemote:
			// Informational: the tier state re-derives from the feedback
			// records themselves, exactly as the live Observe produced it.
			continue
		default:
			continue // unknown kind from a future writer: skip, don't fail
		}
		if err := s.r.CheckCatalog(e.Query); err != nil {
			// Feedback journaled before a later DDL dropped its tables cannot
			// rebuild against the evolved schema. The live loop would have
			// refused it post-DDL; replay skips it (counted), not fails.
			lp.staleInvalidations.Add(1)
			continue
		}
		pe, err := s.r.RebuildEval(e.Query, e.ICP, e.Step)
		if err != nil {
			return n, fmt.Errorf("service: replay seq %d (%s): %w", e.Seq, e.Query.ID, err)
		}
		pe.Latency = e.LatencyMs
		pe.TimedOut = e.TimedOut
		s.r.Buffer().Add(pe)
		lp.mu.Lock()
		standby := lp.standby
		lp.noteRecent(e.Query, e.Fingerprint)
		lp.sinceRetrain++
		lp.mu.Unlock()
		if standby != nil {
			fb := *pe
			standby.Buffer().Add(&fb)
		}
		expert := lp.expertLatency(s.r, e.Query, e.Fingerprint)
		ratio := 1.0
		if expert > 0 {
			ratio = e.LatencyMs / expert
		}
		lp.det.Observe(e.Fingerprint, ratio)
		if lp.tiers != nil {
			// Same classification the live Observe ran (plan identity, not
			// journaled labels), so replayed state equals pre-crash state.
			id := runtime.Identity{Backend: lp.backendName, Epoch: s.epoch, Catalog: lp.catalogEpoch.Load()}
			lp.tiers.Observe(id, e.Fingerprint, e.Query, pe, e.LatencyMs, expert)
		}
		n++
	}
	lp.replayed.Store(uint64(n))
	lp.recoveredEpoch = s.epoch
	return n, nil
}

// ImportTier restores the tier router's durable state from a recovered
// checkpoint, re-deriving every pinned plan through the active replica's
// deterministic RebuildEval and re-keying it under the current serving
// identity. Runs before Replay ingests the WAL tail. No-op when tiering is
// disabled or the checkpoint predates tiered serving (nil state).
func (lp *Loop) ImportTier(ts *store.TierState) error {
	if lp.tiers == nil || ts == nil {
		return nil
	}
	s := lp.active.Load()
	id := runtime.Identity{Backend: lp.backendName, Epoch: s.epoch, Catalog: lp.catalogEpoch.Load()}
	return lp.tiers.Import(ts, id, func(q *query.Query, icp plan.ICP, step int) (*planner.PlanEval, error) {
		return s.r.RebuildEval(q, icp, step)
	})
}

// String renders the counters compactly (fossd's -online output). The
// durability block appears only when a store is in play.
func (s Stats) String() string {
	out := fmt.Sprintf(
		"epoch=%d served=%d cacheHits=%d recorded=%d drifts=%d retrains=%d swaps=%d errs=%d expertErrs=%d windowMean=%.3f windowNovel=%.2f",
		s.Epoch, s.Served, s.CacheHits, s.Recorded, s.Drifts, s.Retrains, s.Swaps, s.RetrainErrors, s.ExpertErrors, s.WindowMean, s.WindowNovel)
	if s.WALEntries > 0 || s.Checkpoints > 0 || s.RecoveredEpoch > 0 {
		out += fmt.Sprintf(" wal=%d replayed=%d checkpoints=%d recoveredEpoch=%d", s.WALEntries, s.Replayed, s.Checkpoints, s.RecoveredEpoch)
	}
	if s.CatalogEpoch > 0 || s.StaleInvalidations > 0 {
		out += fmt.Sprintf(" catalogEpoch=%d ddlApplies=%d staleInvalidations=%d",
			s.CatalogEpoch, s.CatalogApplies, s.StaleInvalidations)
	}
	if s.Tier0Hits > 0 || s.Tier1Hits > 0 || s.Tier2Serves > 0 || s.PinnedPlans > 0 {
		out += fmt.Sprintf(" tier0=%d tier1=%d tier2=%d pins=%d promotions=%d demotions=%d",
			s.Tier0Hits, s.Tier1Hits, s.Tier2Serves, s.PinnedPlans, s.Promotions, s.Demotions)
	}
	return out
}
