package service

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/store"
)

// journal owns the optional durability store. Without one (st == nil, the
// in-memory loop and every follower) append is a no-op and nothing is ever
// counted, so the transitions' live paths journal unconditionally.
type journal struct {
	st *store.Store

	// Checkpoint writes serialize on ckMu so a periodic trigger and a
	// post-swap checkpoint never interleave their temp/rename dance.
	ckMu          sync.Mutex
	checkpointing atomic.Bool

	walErrors, ckErrors   atomic.Uint64
	checkpoints, replayed atomic.Uint64
	recoveredEpoch        uint64 // set during Replay, before traffic
}

// append journals one record and fsyncs it — the only place the loop writes
// its WAL. Callers hold Loop.mu (the ordering lock doubles as the journal
// lock), so the journal's order is the order the transitions ran in. A
// failed append is counted and otherwise ignored: the event still takes
// effect in memory, and the gap is visible as WALErrors in the stats.
func (j *journal) append(e store.WALEntry) {
	if j.st == nil {
		return
	}
	if _, err := j.st.WAL().Append(e); err != nil {
		j.walErrors.Add(1)
	}
}

// Checkpoint writes a durable image of the active replica — sealed model
// snapshot, execution buffer, epoch — and repoints the manifest at it.
// Returns the checkpoint filename. Safe for concurrent use; concurrent
// writers serialize.
func (lp *Loop) Checkpoint() (string, error) {
	st := lp.jr.st
	if st == nil {
		return "", fmt.Errorf("service: checkpoint: %w", fosserr.ErrNoStore)
	}
	lp.jr.ckMu.Lock()
	defer lp.jr.ckMu.Unlock()

	for {
		// Capture the WAL horizon before imaging: entries journaled while
		// the image is being taken appear in the replay tail as well as
		// (possibly) the image; buffer ingestion deduplicates, so recovery
		// stays exact. The tier state exports under the same single mu
		// acquisition — the feedback transition's Observe rides mu too, so
		// the exported pins are exactly the state the records at or below
		// seq produced.
		lp.mu.Lock()
		seq := st.WAL().LastSeq()
		var tierState *store.TierState
		if lp.srv.tiers != nil {
			tierState = lp.srv.tiers.Export()
		}
		s := lp.srv.active.Load()
		// The catalog triple captures under the same mu acquisition as the
		// WAL horizon: ApplyDDL journals and bumps under this lock, so the
		// image's schema generation matches the records at or below seq.
		catEpoch, catHash, catLog := s.r.CatalogEpoch(), s.r.CatalogHash(), s.r.CatalogLog()
		lp.mu.Unlock()
		// A published replica's weights never change, so Save reads a fixed
		// generation concurrently with its serving reads.
		blob, err := s.r.Save()
		if err != nil {
			return "", fmt.Errorf("service: checkpoint save: %w", err)
		}
		buffer := s.r.Buffer().Export()
		if lp.srv.active.Load() != s {
			// A swap landed while this replica was being imaged: the image
			// is of a demoted generation. Re-image the new active (swaps are
			// cooldown-gated, so this terminates after one extra pass).
			continue
		}
		name, err := st.WriteCheckpoint(s.r.BackendName(), store.Checkpoint{
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
		lp.jr.checkpoints.Add(1)
		return name, nil
	}
}

// saveRecoveryPoint checkpoints when a store is attached, counting a failure
// (the previous recovery point stands) — what every live path that publishes
// a new generation, and Close, ends on.
func (lp *Loop) saveRecoveryPoint() error {
	if lp.jr.st == nil {
		return nil
	}
	_, err := lp.Checkpoint()
	if err != nil {
		lp.jr.ckErrors.Add(1)
	}
	return err
}

// triggerCheckpoint starts (at most) one background checkpoint; concurrent
// triggers collapse.
func (lp *Loop) triggerCheckpoint() {
	if !lp.jr.checkpointing.CompareAndSwap(false, true) {
		return
	}
	if !lp.spawn(func() {
		defer lp.jr.checkpointing.Store(false)
		lp.saveRecoveryPoint()
	}) {
		lp.jr.checkpointing.Store(false)
	}
}

// Replay re-runs a recovered WAL tail through the loop's transitions before
// it takes traffic: each record is decoded and handed to the transition its
// live path ran, with journaling and the retrain/checkpoint triggers off.
// Feedback records rebuild their executed candidate (deterministic hint
// completion + encoding) and are judged against the same deterministic
// expert baseline, so the recovered state is exactly what the records
// produced. Returns the number of feedback records restored.
//
// Epochs never move backwards across a crash: a swap or DDL record advances
// the serving epoch to max(current, the epoch it journaled). Such a record
// sits in the tail only when the crash beat the checkpoint its live path
// ends on — the epoch was already served under, so it is not reused. A
// replayed swap cannot restore the lost weights and does not pretend to: the
// recovered replica keeps serving, at the journaled epoch.
func (lp *Loop) Replay(entries []store.WALEntry) (int, error) {
	n := 0
	for _, e := range entries {
		switch e.Kind {
		case store.KindFeedback:
			r := lp.Active()
			// Feedback journaled before a later DDL dropped its tables cannot
			// rebuild against the evolved schema. The live loop would have
			// refused it post-DDL; replay skips it (counted), not fails.
			if lp.checkCatalog(r, e.Query) != nil {
				continue
			}
			pe, err := r.RebuildEval(e.Query, e.ICP, e.Step)
			if err != nil {
				return n, fmt.Errorf("service: replay seq %d (%s): %w", e.Seq, e.Query.ID, err)
			}
			expert := lp.expertLatency(r, e.Query, e.Fingerprint)
			lp.mu.Lock()
			lp.feedback(e.Query, e.Fingerprint, pe, e.LatencyMs, expert)
			lp.mu.Unlock()
			n++
		case store.KindSwap:
			lp.mu.Lock()
			lp.publish(lp.Active(), max(lp.Epoch(), e.Epoch))
			lp.mu.Unlock()
		case store.KindDDL:
			// Re-applied at the same stream position the live loop applied
			// it: feedback below this record rebuilt against the old
			// generation, feedback above rebuilds against the new one. (A DDL
			// already folded into the recovered checkpoint never appears in
			// the tail — the checkpoint's WAL horizon is past it.)
			lp.mu.Lock()
			_, err := lp.ddl(e.DDL, max(lp.Epoch(), e.Epoch), false)
			lp.mu.Unlock()
			if err != nil {
				return n, fmt.Errorf("service: replay ddl seq %d: %w", e.Seq, err)
			}
		default:
			// KindPromote/KindDemote (earlier versions journaled them; plan
			// memory re-derives from the feedback records) and kinds from a
			// future writer: skip, don't fail.
		}
	}
	lp.jr.replayed.Store(uint64(n))
	lp.jr.recoveredEpoch = lp.Epoch()
	return n, nil
}

// ImportTier restores the tier router's durable state from a recovered
// checkpoint, re-deriving every pinned plan through the active replica's
// deterministic RebuildEval and re-keying it under the current serving
// identity. Runs before Replay ingests the WAL tail. No-op when tiering is
// disabled or the checkpoint predates tiered serving (nil state).
func (lp *Loop) ImportTier(ts *store.TierState) error {
	if lp.srv.tiers == nil || ts == nil {
		return nil
	}
	s := lp.srv.active.Load()
	return lp.srv.tiers.Import(ts, lp.identity(s), s.r.RebuildEval)
}

// ApplyCheckpoint hot-swaps a leader-published checkpoint into this loop —
// the follower half of the swap protocol. The checkpoint's model loads into a
// fork of the active replica (its exclusive load lock blocks nobody: the fork
// has no traffic yet), the fork publishes at the checkpoint's epoch — so
// leader and follower agree on the generation a plan came from — and tier
// pins re-import under the new epoch. A failure before the publish drops the
// fork and leaves serving untouched. Stale or already-applied generations
// (epoch ≤ current) are skipped. Safe to call while traffic serves; callers
// serialize with each other (the repl tailer is a single goroutine).
func (lp *Loop) ApplyCheckpoint(ck store.Checkpoint) error {
	if lp.closed.Load() {
		return fmt.Errorf("service: apply checkpoint: %w", fosserr.ErrLoopClosed)
	}
	if ck.Epoch <= lp.Epoch() {
		return nil
	}
	fork, err := lp.Active().Fork()
	if err != nil {
		return fmt.Errorf("service: apply checkpoint: %w", err)
	}
	// The leader's catalog restores before its weights: a checkpoint taken
	// after a DDL carries (epoch, hash, log), and the follower replays the
	// missing suffix through its shared catalog world before the model image
	// (whose buffer/tier state was produced against that generation) is
	// touched. A follower somehow ahead of the leader's catalog refuses
	// (fosserr.ErrCatalogMismatch) rather than serve cross-epoch state.
	if err := fork.SyncCatalog(ck.CatalogEpoch, ck.CatalogHash, ck.CatalogDDL); err != nil {
		return fmt.Errorf("service: apply checkpoint: %w", err)
	}
	// Load validates the sealed model (backend identity, version, checksum)
	// — a checkpoint from a differently-configured leader is refused here,
	// before anything is published.
	if err := fork.Load(ck.Model); err != nil {
		return fmt.Errorf("service: apply checkpoint: %w", err)
	}
	lp.mu.Lock()
	if ck.Epoch <= lp.Epoch() {
		// A competing apply (or local swap) got there first.
		lp.mu.Unlock()
		return nil
	}
	// Same transition as a local hot-swap: the new model's pins arrive below
	// from the checkpoint's exported tier state.
	lp.publish(fork, ck.Epoch)
	lp.mu.Unlock()
	lp.lrn.swaps.Add(1)

	// The leader's feedback-proven plan memory rides the checkpoint:
	// followers serve tier-0 repeats without ever having recorded the
	// feedback that earned the pins.
	if err := lp.ImportTier(ck.Tier); err != nil {
		return fmt.Errorf("service: apply checkpoint: tier import: %w", err)
	}
	return nil
}

// ReplManifest returns the durable manifest this loop's store currently
// publishes — the leader half of checkpoint replication. ok=false when no
// checkpoint has landed yet; fosserr.ErrNoStore without a store.
func (lp *Loop) ReplManifest() (store.Manifest, bool, error) {
	if lp.jr.st == nil {
		return store.Manifest{}, false, fmt.Errorf("service: repl manifest: %w", fosserr.ErrNoStore)
	}
	m, ok := lp.jr.st.Latest()
	return m, ok, nil
}

// ReplCheckpointBlob returns the raw sealed blob of a named checkpoint from
// this loop's store (name validated against the checkpoint scheme).
func (lp *Loop) ReplCheckpointBlob(name string) ([]byte, error) {
	if lp.jr.st == nil {
		return nil, fmt.Errorf("service: repl checkpoint: %w", fosserr.ErrNoStore)
	}
	return lp.jr.st.ReadCheckpoint(name)
}
