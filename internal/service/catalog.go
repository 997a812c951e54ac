package service

import (
	"fmt"
	"sync/atomic"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/store"
)

// catalogState counts the loop's catalog events; the catalog epoch it serves
// at is the active slot's.
type catalogState struct {
	applies, stale atomic.Uint64 // Stats.CatalogApplies, Stats.StaleInvalidations
}

// checkCatalog gates one query against r's live schema. A query referencing
// schema a DDL has since dropped is refused here (and counted in
// StaleInvalidations) rather than letting the planner trip over missing
// storage — the serving half of the catalog contract.
func (lp *Loop) checkCatalog(r Replica, q *query.Query) error {
	err := r.CheckCatalog(q)
	if err != nil {
		lp.cat.stale.Add(1)
	}
	return err
}

// ApplyDDL applies one schema-evolution batch to the serving replica — the
// loop-level entry point for live DDL. The batch applies through the active
// replica, building one new copy-on-write generation in the catalog world it
// shares with its forks (the replica's plan cache empties as it repoints);
// the serving epoch bumps so every epoch-keyed consumer (tier-0 plan memory,
// the replication tailer comparing manifest epochs) sees a new generation
// without a weight swap; the batch journals as a KindDDL WAL record and the
// post-DDL state checkpoints immediately, so a warm restart resumes at the
// evolved schema. Serving never blocks: requests in flight complete at the
// old (immutable) generation, and only Record's ordering lock is held while
// the world rebuilds. Returns the new catalog epoch. Followers refuse with
// fosserr.ErrNotLeader — their catalog advances through ApplyCheckpoint.
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
	epoch := lp.Epoch() + 1
	catEpoch, err := lp.ddl(ddls, epoch, true)
	if err != nil {
		lp.mu.Unlock()
		return 0, fmt.Errorf("service: apply ddl: %w", err)
	}
	lp.cat.applies.Add(1)
	// Schema-change marker: the advisor compares the tier-0 hit rate before
	// the apply with the window after it (FindingSchemaChurn).
	lp.advise(advisorObs{ddl: true, epoch: epoch})
	lp.mu.Unlock()
	// The post-DDL generation becomes the recovery point immediately — a
	// crash after a DDL restarts on the evolved schema without re-planning
	// the migration.
	lp.saveRecoveryPoint()
	return catEpoch, nil
}

// ddl is the transition for one schema-evolution batch, shared by ApplyDDL
// and Replay: the batch applies through the active replica, the serving slot
// re-publishes at epoch on the same replica, and everything measured against
// the old schema is dropped. Applying is also the batch's validation, so the
// journal record (live path only) is written once it succeeds and before any
// loop state moves; an error leaves the loop untouched. Caller holds mu.
// Returns the new catalog epoch.
func (lp *Loop) ddl(ddls []catalog.DDL, epoch uint64, journal bool) (uint64, error) {
	r := lp.Active()
	catEpoch, err := r.ApplyDDL(ddls)
	if err != nil {
		return 0, err
	}
	if journal {
		lp.jr.append(store.WALEntry{Kind: store.KindDDL, Epoch: epoch, DDL: ddls})
	}
	// A fork in training is deliberately NOT resynced here: it holds its
	// exclusive training lock for a whole schedule, and a DDL must never
	// wait on training. retrain repoints it at the shared world's new
	// generation under this same mu before publishing it.

	// Expert baselines were measured against the old statistics; keeping
	// them would judge post-DDL plans against a retired cost surface.
	clear(lp.lrn.expertLat)
	// Prune retrain candidates the new schema outdated, so the next
	// background retrain never plans a dropped table.
	keep := lp.lrn.recent[:0]
	for _, q := range lp.lrn.recent {
		if r.CheckCatalog(q) == nil {
			keep = append(keep, q)
		} else {
			delete(lp.lrn.recentSet, q.Fingerprint())
		}
	}
	lp.lrn.recent = keep
	lp.startGeneration(r, epoch)
	return catEpoch, nil
}

// CatalogEpoch returns the catalog generation the loop is serving at: the
// active slot's.
func (lp *Loop) CatalogEpoch() uint64 { return lp.srv.active.Load().cat }
