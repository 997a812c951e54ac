package service

import (
	"math"
	"sync/atomic"

	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/store"
)

// learning is what the transitions advance besides the serving slot. All of
// it moves under Loop.mu; the detector and the counters also synchronize
// themselves, for Stats.
type learning struct {
	det          *Detector
	recent       []*query.Query
	recentSet    map[uint64]bool
	expertLat    map[uint64]float64
	sinceRetrain int

	retraining atomic.Bool

	recorded, drifts, retrains, swaps atomic.Uint64
	retrainErrors, expertErrors       atomic.Uint64
	promotions, demotions             atomic.Uint64
}

// Record ingests one executed plan: the query, the candidate Serve returned,
// and the latency observed when it ran. With a store attached, the
// execution is journaled to the WAL first — the durability point precedes
// ingestion, so a crash at any later point replays this record. The feedback
// transition then lands it in the execution buffer (so the next retrain
// learns from it), the tier router and the drift detector, and — when the
// window signals drift past the cooldown — Record triggers a retrain.
//
// A zero latency is legitimate (sub-millisecond executions round to 0);
// negative, NaN and infinite values are rejected — one of them would poison
// the drift window's mean. The return reports whether the observation was
// ingested: false for invalid arguments and for feedback arriving after
// Close began (intake stopped; the final checkpoint must stay the last
// word) — wire callers answer 503, not a false ack.
func (lp *Loop) Record(q *query.Query, pe *planner.PlanEval, latencyMs float64) bool {
	if q == nil || pe == nil || latencyMs < 0 || math.IsNaN(latencyMs) || math.IsInf(latencyMs, 1) || lp.closed.Load() {
		return false
	}
	// Feedback produced against a schema generation a DDL has since retired
	// cannot be re-derived deterministically; drop it (counted) rather than
	// journal a record replay could never rebuild.
	if lp.checkCatalog(lp.Active(), q) != nil {
		return false
	}
	fp := q.Fingerprint()

	// The expert baseline resolves before the ordering lock: the tier
	// router's Observe runs inside it and judges wins/regressions against
	// the same baseline the drift detector uses. (expertLatency takes mu
	// briefly for its cache; the plan+execute runs unlocked either way.)
	expert := lp.expertLatency(lp.Active(), q, fp)

	// The WAL append AND the transition ride one critical section, which is
	// what lets Checkpoint pair a WAL horizon with exactly the state the
	// records below it produced (see there). The fsync inside the append
	// makes this section the feedback throughput ceiling; that is the price
	// of the durability point preceding ingestion (group commit is the known
	// escape hatch if a deployment ever needs more). The advisor analyzes
	// the record here too, so it sees the stream in journal order.
	lp.mu.Lock()
	lp.jr.append(store.WALEntry{
		Kind:        store.KindFeedback,
		Fingerprint: fp,
		Query:       q,
		ICP:         pe.ICP,
		Step:        pe.Step,
		LatencyMs:   latencyMs,
	})
	obs, sig := lp.feedback(q, fp, pe, latencyMs, expert)
	ready := lp.lrn.sinceRetrain >= lp.cfg.Cooldown
	// The promotion/demotion/recorded bumps ride the same critical section
	// that produced them, so no concurrent snapshot can observe a demotion
	// without its causing promotion, or a WAL entry count behind the
	// recorded count it implies (Stats loads the subordinate counter first;
	// see the ordering note there).
	if obs.promoted {
		lp.lrn.promotions.Add(1)
	}
	if obs.demoted {
		lp.lrn.demotions.Add(1)
	}
	n := lp.lrn.recorded.Add(1)
	obs.driftBlocked = sig.Drift && !ready
	lp.advise(obs)
	lp.mu.Unlock()

	if sig.Drift && ready {
		lp.triggerRetrain()
	}
	if lp.jr.st != nil && lp.cfg.CheckpointEvery > 0 && n%uint64(lp.cfg.CheckpointEvery) == 0 {
		lp.triggerCheckpoint()
	}
	return true
}

// feedback is the transition for one executed plan, shared by Record and
// Replay: the execution lands in the execution buffer, the recent-query ring
// and the cooldown counter advance, and the tier router and the drift
// detector observe it against the expert baseline. Caller holds mu, which is
// what orders all of that with the journal. Returns what it observed, in the
// form the advisor takes it, and the detector's verdict.
func (lp *Loop) feedback(q *query.Query, fp uint64, pe *planner.PlanEval, latencyMs, expert float64) (advisorObs, Signal) {
	s := lp.srv.active.Load()
	// Every replica a tenant publishes is a fork sharing one buffer, so a
	// fork in training sees this execution too. The cached PlanEval is
	// shared by concurrent readers: a buffer that does not hold this
	// execution yet stores its own copy, with the observed latency filled in.
	s.r.Buffer().AddExecuted(pe, latencyMs)
	lp.noteRecent(q, fp)
	lp.lrn.sinceRetrain++
	obs := advisorObs{fp: fp, qid: q.ID, epoch: s.epoch, ratio: 1}
	if lp.srv.tiers != nil {
		// Classification is by plan identity, not journaled labels, so a
		// replayed stream rebuilds exactly the pins the live one earned.
		out := lp.srv.tiers.Observe(lp.identity(s), fp, q, pe, latencyMs, expert)
		obs.promoted, obs.demoted = out.Promoted, out.Demoted
	}
	if expert > 0 {
		obs.ratio = latencyMs / expert
	}
	return obs, lp.lrn.det.Observe(fp, obs.ratio)
}

// expertLatency returns (computing and caching on first use) the traditional
// optimizer's latency for the query — the drift detector's baseline. Failures
// are counted but not cached, so a transient error does not permanently pin
// the query's regression ratio at neutral.
func (lp *Loop) expertLatency(r Replica, q *query.Query, fp uint64) float64 {
	lp.mu.Lock()
	lat, ok := lp.lrn.expertLat[fp]
	lp.mu.Unlock()
	if ok {
		return lat
	}
	// Plan + execute outside the lock: both are read-only on shared state.
	cp, _, err := r.ExpertPlan(q)
	if err != nil {
		lp.lrn.expertErrors.Add(1)
		return 0
	}
	lat = r.Execute(cp)
	lp.mu.Lock()
	lp.lrn.expertLat[fp] = lat
	lp.mu.Unlock()
	return lat
}

// noteRecent tracks the distinct recently served queries, newest last,
// bounded by RetrainQueries. Caller holds mu.
func (lp *Loop) noteRecent(q *query.Query, fp uint64) {
	l := &lp.lrn
	if l.recentSet[fp] {
		return
	}
	l.recentSet[fp] = true
	l.recent = append(l.recent, q)
	if len(l.recent) > lp.cfg.RetrainQueries {
		drop := l.recent[0]
		l.recent = append(l.recent[:0], l.recent[1:]...)
		delete(l.recentSet, drop.Fingerprint())
	}
}

// triggerRetrain starts (at most) one retrain; concurrent triggers collapse.
// The drift/retrain counters bump inside the work itself, so a trigger that
// spawn refuses (Close won the race) leaves the stats truthful: no retrain
// ran, none is counted.
func (lp *Loop) triggerRetrain() {
	if lp.closed.Load() || lp.cfg.Follower || !lp.lrn.retraining.CompareAndSwap(false, true) {
		return
	}
	run := func() {
		defer lp.lrn.retraining.Store(false)
		lp.lrn.drifts.Add(1)
		lp.lrn.retrains.Add(1)
		lp.retrain()
	}
	if !lp.cfg.Background {
		run()
	} else if !lp.spawn(run) {
		lp.lrn.retraining.Store(false)
	}
}

// retrain forks the active replica, runs the incremental schedule on the
// fork, and publishes it. The fork has no traffic, so its exclusive train
// lock blocks nobody, and feedback keeps flowing into the buffer it shares
// with the active replica. A published replica's weights never change: a
// failed retrain drops its fork, and the next one forks the served
// generation again.
func (lp *Loop) retrain() {
	lp.mu.Lock()
	queries := append([]*query.Query(nil), lp.lrn.recent...)
	lp.mu.Unlock()
	if len(queries) == 0 {
		return
	}

	fork, err := lp.Active().Fork()
	if err != nil {
		lp.lrn.retrainErrors.Add(1)
		return
	}
	// baseCtx, not Background: a Close whose drain deadline passes cancels
	// it, bounding shutdown by one training episode instead of the full
	// incremental schedule.
	if err := fork.TrainOnContext(lp.baseCtx, queries, lp.cfg.RetrainIterations, nil); err != nil {
		lp.lrn.retrainErrors.Add(1)
		return
	}

	lp.mu.Lock()
	// A DDL that landed during training left the fork on the old catalog
	// generation (ApplyDDL never waits behind a training lock); repoint it
	// before it takes traffic. Idempotent and cheap when already current.
	if err := fork.ResyncCatalog(); err != nil {
		lp.mu.Unlock()
		lp.lrn.retrainErrors.Add(1)
		return
	}
	// Journaled so replay publishes at the same point in the stream.
	epoch := lp.Epoch() + 1
	lp.jr.append(store.WALEntry{Kind: store.KindSwap, Epoch: epoch})
	lp.publish(fork, epoch)
	lp.mu.Unlock()
	lp.lrn.swaps.Add(1)

	// Every epoch bump lands on disk: the published generation becomes the
	// recovery point, so a crash after a swap restarts on the adapted model,
	// not the offline one. A failure here is a durability problem, not a
	// training one — it gets its own counter.
	lp.saveRecoveryPoint()
}

// publish is the transition that makes next the serving replica at epoch,
// shared by retrain, ApplyCheckpoint and Replay: one atomic store (Serve
// never waits), and the cooldown, plan memory and the drift window restart.
// The demoted replica is dropped once its in-flight requests drain. next's
// own plan cache is empty or was invalidated when its exclusive train/load
// section ended, so no plan outlives the weights that chose it: a cache hit
// at epoch e always matches a miss at epoch e. Caller holds mu across its
// read of the epoch it bumps, so an ApplyDDL epoch bump can never land
// between the read and the store and be overwritten.
func (lp *Loop) publish(next Replica, epoch uint64) {
	lp.lrn.sinceRetrain = 0
	lp.startGeneration(next, epoch)
}

// startGeneration stores the serving slot at r's catalog epoch and gives it
// a clean slate — the step publish and ddl end on. Every pin must re-earn its
// place (plan memory is keyed by the slot's epoch, so even a racing
// pre-invalidation lookup under the new identity misses), and the drift
// window must not mix ratios measured against two generations. Caller holds
// mu.
func (lp *Loop) startGeneration(r Replica, epoch uint64) {
	lp.srv.active.Store(&slot{r: r, epoch: epoch, cat: r.CatalogEpoch()})
	if lp.srv.tiers != nil {
		lp.srv.tiers.Invalidate()
	}
	lp.lrn.det.Reset()
}
