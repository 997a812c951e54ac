// Package service runs FOSS as an online, self-improving doctor: the full
// Optimize → Execute → Record loop of the paper's framing, kept learning
// after deployment. Executed-plan feedback flows back into the learner's
// execution buffer; a rolling regression-vs-expert drift detector decides
// when the serving model has fallen behind the workload; and retraining
// happens in the background on a fork of the serving replica that is then
// published by an atomic pointer swap — serving never blocks on training and
// never sees a half-updated model. A published replica's weights never
// change; the demoted one is dropped.
//
// # One journaled state machine
//
// Learning state advances through exactly three transitions, each written
// once and run under Loop.mu. A live path is validate → journal → transition
// → side effects; Replay decodes a recovered journal and calls the same
// transitions with journaling and side effects off, which is what keeps a
// warm restart bit-identical to the loop that crashed.
//
//	event            WAL kind      state the transition touches               live-only side effects
//	Record           KindFeedback  the execution buffer, recent-query ring,    counters, advisor ingest,
//	(feedback)                     cooldown, tier Observe, detector Observe    retrain + checkpoint triggers
//	retrain swap /   KindSwap      serving slot + epoch, cooldown reset,       checkpoint
//	ApplyCheckpoint  (leader only) tier Invalidate, detector Reset             (follower: tier import)
//	(publish)
//	ApplyDDL         KindDDL       replica ApplyDDL, epoch + catalog epoch,    advisor marker,
//	(ddl)                          expert-latency flush, recent-ring prune,    checkpoint
//	                               tier Invalidate, detector Reset
//
// Epochs never move backwards, across a swap, a DDL or a crash: a replayed
// swap or DDL record advances the serving epoch to max(current, journaled).
//
// The package talks to replicas through the small Replica interface; core
// wires a *core.System in, forks it per retrain, and re-exports the loop as
// System.ServeContext / System.Record.
package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/learner"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/runtime"
	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/tier"
)

// Replica is the surface the loop needs from one doctor instance; the loop
// serves one published replica at a time, and each retrain or applied
// checkpoint publishes a fork of it. *core.System implements it.
type Replica interface {
	// Fork returns a new, unpublished replica carrying this one's current
	// weights over the same execution buffer and catalog world, with fresh
	// optimizer and RNG state and an empty plan cache.
	Fork() (Replica, error)
	// OptimizeEvalContext serves one query through the replica's cached,
	// shared-locked path, returning the full evaluated candidate and a
	// cache-hit flag. Cancellation is honored between rollouts.
	OptimizeEvalContext(ctx context.Context, q *query.Query) (*planner.PlanEval, bool, time.Duration, error)
	// TrainOnContext runs incremental training over the query set under the
	// replica's exclusive lock; its plan cache is invalidated afterwards.
	TrainOnContext(ctx context.Context, queries []*query.Query, iterations int, progress func(learner.IterStats)) error
	// BackendName identifies the optimizer backend under the replica.
	BackendName() string
	// Save / Load snapshot and restore the learned weights. The loop loads
	// only into a fork it has not published yet.
	Save() ([]byte, error)
	Load(data []byte) error
	// ExpertPlan returns the traditional optimizer's plan, the drift
	// detector's latency baseline.
	ExpertPlan(q *query.Query) (*plan.CP, time.Duration, error)
	// Execute runs a plan and returns its latency in milliseconds.
	Execute(cp *plan.CP) float64
	// Buffer exposes the execution buffer for feedback ingestion; a replica
	// and its forks return the same one.
	Buffer() *learner.Buffer
	// CacheStats snapshots the replica's plan-cache counters.
	CacheStats() runtime.CacheStats
	// RebuildEval re-derives an executed candidate from its durable identity
	// (query × incomplete plan × step) — WAL replay and checkpoint import go
	// through it. Latency is unset on return.
	RebuildEval(q *query.Query, icp plan.ICP, step int) (*planner.PlanEval, error)

	// ApplyDDL applies a schema-evolution batch to the replica's live
	// catalog and repoints it at the rebuilt backend under its own
	// train/serve arbiter. Returns the new catalog epoch. A replica and its
	// forks share one catalog world: applying through the active replica
	// produces the single new generation a fork picks up via ResyncCatalog.
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
	// a periodic cadence. nil runs the loop purely in memory.
	Store *store.Store
	// CheckpointEvery is the number of recorded executions between periodic
	// checkpoints; 0 checkpoints only on hot-swaps and explicit Checkpoint
	// calls.
	CheckpointEvery int
	// InitialEpoch sets the epoch the loop starts serving at — recovery
	// resumes the pre-crash generation count instead of restarting at 1.
	// 0 means 1 (a fresh loop).
	InitialEpoch uint64

	// Tier configures the fast path in front of the doctor: tier-0 plan
	// memory (feedback-promoted pins). The zero value disables it — every
	// request takes the full tier-2 path.
	Tier tier.Config

	// Follower marks this loop as a read-only serving replica in a
	// replicated fleet: it serves traffic and hot-swaps models published by
	// its leader (ApplyCheckpoint), but never triggers retraining of its
	// own — drift observations still feed the detector's window (visible in
	// stats), they just cannot start a training run. Followers run without
	// a Store; feedback reaching one is the wire layer's problem (it
	// forwards to the leader).
	Follower bool

	// Advisor configures the self-diagnosis advisor, which watches the
	// feedback stream and emits structured findings — sustained regression
	// vs the expert baseline, cooldown-starved drift, schema churn. It
	// analyzes each record inline, in O(1), inside Record's critical
	// section. The zero value disables it; Serve never touches it.
	Advisor AdvisorConfig
}

// DefaultConfig returns the configuration fossd serves with — the one place
// the serving loop's defaults are written. Store stays nil: durability is
// the caller's (fossd -state-dir opens one store per tenant).
func DefaultConfig() Config {
	return Config{
		Detector: DetectorConfig{
			Window:      16,
			Threshold:   1.1,
			MinSamples:  8,
			NoveltyFrac: 0.5,
		},
		Cooldown:          16,
		RetrainIterations: 2,
		RetrainQueries:    32,
		Background:        true,
		CheckpointEvery:   64,
		Tier:              tier.Config{Memory: true},
		Advisor:           AdvisorConfig{Enabled: true},
	}
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
	Tier2Serves uint64  // serves that took the full AAM path
	Promotions  uint64  // plans pinned into tier-0 memory
	Demotions   uint64  // pins escalated back to tier 2 on regression
	PinnedPlans int     // live tier-0 pins right now
	Tier0AvgUs  float64 // mean serve time per tier, microseconds
	Tier2AvgUs  float64
}

// Loop is the online doctor service over one published replica at a time.
// It coordinates four groups of state — srv, lrn, jr, cat, one file each — and
// owns the lifecycle.
type Loop struct {
	cfg Config

	// mu is the ordering lock: every transition runs under it, together with
	// its journal append, so the WAL, the buffer, plan memory, the
	// detector window and the catalog epoch all advance in one order — the
	// order Replay reproduces. It also guards the learning state outside the
	// transitions (the expert-latency cache, the retrain's snapshot of the
	// recent ring). Never taken by Serve.
	mu sync.Mutex

	srv serving      // serve.go: the active slot, plan memory, serve counters
	lrn learning     // learn.go: detector, recent ring, cooldown, counters
	jr  journal      // durability.go: the optional store and its counters
	cat catalogState // catalog.go: catalog counters

	wg sync.WaitGroup

	// Lifecycle: closed flips once, under lifeMu, which spawn also holds
	// (see there). baseCtx is the parent of every background retrain; Close
	// cancels it when the drain deadline passes.
	lifeMu   sync.Mutex
	closed   atomic.Bool
	closeErr error
	closing  sync.Once
	baseCtx  context.Context
	stopBase context.CancelFunc

	// adv is the advisor (nil = disabled); its analysis state moves under mu.
	adv *advisor
}

// New assembles a loop serving active, which should carry the trained
// models. known seeds the detector's fingerprint set (typically the training
// split).
func New(cfg Config, active Replica, known []*query.Query) *Loop {
	cfg.Cooldown = max(cfg.Cooldown, 1)
	cfg.RetrainIterations = max(cfg.RetrainIterations, 1)
	if cfg.RetrainQueries < 1 {
		cfg.RetrainQueries = DefaultConfig().RetrainQueries
	}
	fps := make([]uint64, 0, len(known))
	for _, q := range known {
		fps = append(fps, q.Fingerprint())
	}
	lp := &Loop{cfg: cfg}
	lp.lrn.det = NewDetector(cfg.Detector, fps)
	lp.lrn.recentSet = map[uint64]bool{}
	lp.lrn.expertLat = map[uint64]float64{}
	lp.jr.st = cfg.Store
	lp.srv.backendName = active.BackendName()
	if cfg.Tier.Enabled() {
		lp.srv.tiers = tier.NewMemory(cfg.Tier)
	}
	lp.baseCtx, lp.stopBase = context.WithCancel(context.Background())
	lp.srv.active.Store(&slot{r: active, epoch: max(cfg.InitialEpoch, 1), cat: active.CatalogEpoch()})
	if cfg.Advisor.Enabled {
		lp.adv = newAdvisor()
	}
	return lp
}

// Wait blocks until every in-flight background retrain has finished
// (including its hot-swap and checkpoint).
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

		done := make(chan struct{})
		go func() {
			lp.wg.Wait()
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

		if err := lp.saveRecoveryPoint(); err != nil {
			lp.closeErr = fmt.Errorf("service: close: final checkpoint: %w", err)
		}
	})
	return lp.closeErr
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

// Closed reports whether Close has begun.
func (lp *Loop) Closed() bool { return lp.closed.Load() }

// Follower reports whether this loop is a read-only replica
// (Config.Follower); the wire layer refuses writes to one.
func (lp *Loop) Follower() bool { return lp.cfg.Follower }

// Active returns the replica currently serving (for evaluation harnesses).
func (lp *Loop) Active() Replica { return lp.srv.active.Load().r }

// Epoch returns the current model generation.
func (lp *Loop) Epoch() uint64 { return lp.srv.active.Load().epoch }

// Stats snapshots the counters.
//
// Snapshot consistency: counters are lock-free on the write side, so a
// concurrent scrape can land between any two bumps — but never incoherently.
// Each subordinate counter is loaded BEFORE the counter that bounds it
// (cache hits and the per-tier histograms before served, demotions before
// promotions, recorded before the WAL length), and the write side bumps them
// in the opposite order (or under one critical section). Every snapshot
// therefore satisfies the cross-counter invariants: CacheHits ≤ Served,
// Tier0+Tier2 ≤ Served, Demotions ≤ Promotions, and (with a clean
// journal) Recorded ≤ WALEntries. The -race scrape test pins exactly these.
func (lp *Loop) Stats() Stats {
	win := lp.lrn.det.WindowState()
	st := Stats{
		CacheHits:        lp.srv.cacheHits.Load(),
		Drifts:           lp.lrn.drifts.Load(),
		Retrains:         lp.lrn.retrains.Load(),
		Swaps:            lp.lrn.swaps.Load(),
		RetrainErrors:    lp.lrn.retrainErrors.Load(),
		ExpertErrors:     lp.lrn.expertErrors.Load(),
		Retraining:       lp.lrn.retraining.Load(),
		Closed:           lp.closed.Load(),
		WindowMean:       win.Mean,
		WindowNovel:      win.NovelFrac,
		Replayed:         lp.jr.replayed.Load(),
		Checkpoints:      lp.jr.checkpoints.Load(),
		RecoveredEpoch:   lp.jr.recoveredEpoch,
		WALErrors:        lp.jr.walErrors.Load(),
		CheckpointErrors: lp.jr.ckErrors.Load(),
		// Applies before epoch (and ApplyDDL publishes the slot first), so
		// every snapshot satisfies CatalogApplies ≤ CatalogEpoch — each
		// apply carries at least one statement.
		CatalogApplies:     lp.cat.applies.Load(),
		CatalogEpoch:       lp.CatalogEpoch(),
		StaleInvalidations: lp.cat.stale.Load(),
	}
	if lp.srv.tiers != nil {
		// The per-tier counts and means come off the serve histograms — one
		// snapshot, taken before served is loaded below.
		hist := lp.ServeHistograms()
		st.Tier0Hits, st.Tier0AvgUs = tierServes(hist[histPin])
		st.Tier2Serves, st.Tier2AvgUs = tierServes(hist[histFull])
		st.Demotions = lp.lrn.demotions.Load()
		st.Promotions = lp.lrn.promotions.Load()
		st.PinnedPlans = lp.srv.tiers.Pinned()
	}
	st.Recorded = lp.lrn.recorded.Load()
	st.Served = lp.srv.served.Load()
	st.Epoch = lp.Epoch()
	if lp.jr.st != nil {
		lp.mu.Lock()
		st.WALEntries = lp.jr.st.WAL().Len()
		lp.mu.Unlock()
	}
	return st
}

// String renders the counters compactly. The durability block appears only
// when a store is in play.
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
	if s.Tier0Hits > 0 || s.Tier2Serves > 0 || s.PinnedPlans > 0 {
		out += fmt.Sprintf(" tier0=%d tier2=%d pins=%d promotions=%d demotions=%d",
			s.Tier0Hits, s.Tier2Serves, s.PinnedPlans, s.Promotions, s.Demotions)
	}
	return out
}
