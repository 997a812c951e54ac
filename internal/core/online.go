package core

// Online doctor façade: EnableOnline wraps the system in the service loop;
// ServeContext/Record/ServeStepContext run the paper's
// Optimize → Execute → Record cycle with drift-aware background retraining
// and zero-downtime model hot-swap. See internal/service for the protocol.

import (
	"context"
	"fmt"

	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/store"
)

// EnableOnline makes this (typically already trained) system the first
// replica an online doctor loop serves, and seeds the drift detector with the
// training split's fingerprints. Each retrain trains a Fork of the serving
// replica and publishes it, so after the first swap this System keeps its own
// weights while the loop serves newer ones: serve through the loop
// (ServeContext), not Optimize*.
func (s *System) EnableOnline(cfg service.Config) error {
	if s.online != nil {
		return fmt.Errorf("core: online loop already enabled")
	}
	s.online = service.New(cfg, s, s.W.Train)
	return nil
}

// Online returns the service loop, or nil before EnableOnline.
func (s *System) Online() *service.Loop { return s.online }

// Close drains the system for a lossless shutdown. With an online loop
// enabled it stops intake, awaits (or past ctx's deadline, cancels) any
// in-flight background retrain, and takes a final checkpoint when a store
// is attached — see service.Loop.Close for the contract. Without one it is
// a no-op: an offline System holds no background goroutines. Idempotent.
// The caller still owns (and closes, afterwards) any store it opened.
func (s *System) Close(ctx context.Context) error {
	if s.online == nil {
		return nil
	}
	return s.online.Close(ctx)
}

// RecoveryInfo summarizes what RecoverOnline restored from disk.
type RecoveryInfo struct {
	// Recovered reports whether a durable checkpoint existed (false = cold
	// start: the loop was enabled with the store attached but nothing to
	// restore).
	Recovered      bool
	Checkpoint     string // checkpoint filename recovered from
	Epoch          uint64 // serving epoch resumed at
	CatalogEpoch   uint64 // catalog epoch restored (0 = load-time schema)
	BufferRestored int    // execution-buffer entries restored from the checkpoint
	WALReplayed    int    // feedback records replayed from the WAL tail
}

// RecoverOnline is EnableOnline backed by a durability store: if the store
// holds a checkpoint, the trained weights, execution buffer, and serving
// epoch are restored from it and the feedback WAL's tail is replayed —
// rebuilding the drift detector's state deterministically — before the loop
// takes traffic. Serving resumes bit-identical to the pre-crash replica (no
// retraining). A checkpoint trained under a different backend or written by
// a different format version is rejected (fosserr.ErrBackendMismatch /
// fosserr.ErrSnapshotVersion) rather than loaded silently.
//
// On a cold start (empty store) the loop simply starts journaling into the
// store. Must be called before any training or serving traffic this
// process intends to keep — recovery overwrites the system's weights.
func (s *System) RecoverOnline(cfg service.Config, st *store.Store) (RecoveryInfo, error) {
	if s.online != nil {
		return RecoveryInfo{}, fmt.Errorf("core: online loop already enabled")
	}
	if st == nil {
		return RecoveryInfo{}, fmt.Errorf("core: RecoverOnline without a store: %w", fosserr.ErrNoStore)
	}
	cfg.Store = st
	rec, err := st.Recover()
	if err != nil {
		return RecoveryInfo{}, fmt.Errorf("core: recover: %w", err)
	}
	if rec == nil {
		return RecoveryInfo{}, s.EnableOnline(cfg)
	}
	if err := s.installCheckpoint(cfg, rec.Checkpoint); err != nil {
		return RecoveryInfo{}, fmt.Errorf("core: recover %w", err)
	}
	n, err := s.online.Replay(rec.Tail)
	if err != nil {
		return RecoveryInfo{}, fmt.Errorf("core: replay wal: %w", err)
	}
	return RecoveryInfo{
		Recovered:      true,
		Checkpoint:     rec.Manifest.Checkpoint,
		Epoch:          s.online.Epoch(),
		CatalogEpoch:   s.CatalogEpoch(),
		BufferRestored: len(rec.Checkpoint.Buffer),
		WALReplayed:    n,
	}, nil
}

// EnableFollower turns this system into a read-only serving replica of the
// leader whose checkpoint ck came from: the checkpoint's weights, buffer,
// tier pins, and epoch are installed and the loop comes up with
// cfg.Follower forced on and no store attached — a follower never trains,
// never journals, and never checkpoints; it advances only by applying the
// leader's published checkpoints (service.Loop.ApplyCheckpoint, typically
// driven by a repl.Tailer).
func (s *System) EnableFollower(cfg service.Config, ck store.Checkpoint) error {
	if s.online != nil {
		return fmt.Errorf("core: online loop already enabled")
	}
	cfg.Follower = true
	cfg.Store = nil
	if err := s.installCheckpoint(cfg, ck); err != nil {
		return fmt.Errorf("core: follower boot %w", err)
	}
	return nil
}

// installCheckpoint restores a checkpoint image and brings the loop up at
// its epoch — the one restore order leader warm-start and follower boot
// share. The catalog restores BEFORE any weights or feedback load: buffer
// import (and the WAL replay that follows a warm start) re-derive plans
// through the backend, which must be the schema generation the records were
// produced against; a system whose live catalog already moved past the
// checkpoint's epoch refuses (fosserr.ErrCatalogMismatch) rather than serve
// cross-epoch state. Load validates the envelope — backend identity, format
// version, checksum — so a gaussim system refuses a selinger image here.
// Tier-0 plan memory imports last, after the loop exists and before any WAL
// tail replays: exactly the order the live loop produced the state in.
func (s *System) installCheckpoint(cfg service.Config, ck store.Checkpoint) error {
	if err := s.SyncCatalog(ck.CatalogEpoch, ck.CatalogHash, ck.CatalogDDL); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if err := s.Load(ck.Model); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if err := s.ImportBuffer(ck.Buffer); err != nil {
		return fmt.Errorf("buffer: %w", err)
	}
	cfg.InitialEpoch = ck.Epoch
	if err := s.EnableOnline(cfg); err != nil {
		return fmt.Errorf("enable: %w", err)
	}
	if err := s.online.ImportTier(ck.Tier); err != nil {
		return fmt.Errorf("tier memory: %w", err)
	}
	return nil
}

// ServeContext optimizes one query through the online loop's active replica
// — lock-free with respect to background retraining and hot-swaps.
// EnableOnline must have been called (errors.Is(err, foss.ErrNotOnline)
// otherwise).
func (s *System) ServeContext(ctx context.Context, q *query.Query) (service.Result, error) {
	if s.online == nil {
		return service.Result{}, fmt.Errorf("core: Serve before EnableOnline: %w", fosserr.ErrNotOnline)
	}
	return s.online.Serve(ctx, q)
}

// ServeBatch is ServeContext over each query: out[i] corresponds to qs[i],
// all results come from one model generation (a single epoch), and an error
// or cancellation returns no partial results.
func (s *System) ServeBatch(ctx context.Context, qs []*query.Query) ([]service.Result, error) {
	if s.online == nil {
		return nil, fmt.Errorf("core: ServeBatch before EnableOnline: %w", fosserr.ErrNotOnline)
	}
	return s.online.ServeBatch(ctx, qs)
}

// Record feeds one executed plan's observed latency back into the loop:
// buffer ingestion, drift detection, and (possibly) a background retrain.
// A refused observation is not ingested and returns why: feedback naming a
// table a DDL dropped fails with ErrCatalogStale, feedback arriving after
// Close began with ErrLoopClosed, and invalid arguments with a plain error.
func (s *System) Record(q *query.Query, pe *planner.PlanEval, latencyMs float64) error {
	if s.online == nil {
		return fmt.Errorf("core: Record before EnableOnline: %w", fosserr.ErrNotOnline)
	}
	return s.online.Ingest(q, pe, latencyMs)
}

// ServeStepContext runs one full doctor-loop turn (Serve, Execute, Record),
// returning the serve result and the observed latency.
func (s *System) ServeStepContext(ctx context.Context, q *query.Query) (service.Result, float64, error) {
	if s.online == nil {
		return service.Result{}, 0, fmt.Errorf("core: ServeStep before EnableOnline: %w", fosserr.ErrNotOnline)
	}
	return s.online.Step(ctx, q)
}

// OnlineStats snapshots the loop's counters (zero value before EnableOnline).
func (s *System) OnlineStats() service.Stats {
	if s.online == nil {
		return service.Stats{}
	}
	return s.online.Stats()
}
