package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/nn"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/store"
)

// snapshot is the serialized form of a trained system's learned state: the
// AAM and every agent's state network and policy heads. The workload and
// configuration are not persisted — callers re-create the System with the
// same Config over the same workload, then Load.
type snapshot struct {
	AAM      []byte
	Agents   [][]byte
	MaxSteps int
	// Workload fingerprints the data the models were trained over (see
	// workloadIdentity); a snapshot must not load into a system whose
	// workload was generated differently.
	Workload string
}

// Save serializes the trained models (AAM + per-agent networks) inside the
// versioned, checksummed, backend-tagged snapshot envelope (internal/store).
// The envelope is what makes snapshots safe to persist: Load rejects
// cross-backend blobs, version skew, and bit rot instead of silently
// restoring weights into a system they were never trained for. The weight
// read runs under the runtime's shared lock — concurrent with serving,
// mutually exclusive with training/Load — so a snapshot can never capture
// half-applied weights.
func (s *System) Save() (out []byte, err error) {
	err = s.RT.Shared(func() error {
		out, err = s.save()
		return err
	})
	return out, err
}

func (s *System) save() ([]byte, error) {
	snap := snapshot{MaxSteps: s.Cfg.MaxSteps, Workload: s.workloadIdentity()}
	blob, err := nn.SaveParams(s.AAM)
	if err != nil {
		return nil, fmt.Errorf("core: save AAM: %w", err)
	}
	snap.AAM = blob
	for i, pl := range s.Planners {
		ab, err := nn.SaveParams(agentModule{pl.Agent})
		if err != nil {
			return nil, fmt.Errorf("core: save agent %d: %w", i, err)
		}
		snap.Agents = append(snap.Agents, ab)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, err
	}
	return store.Seal(s.Backend.Name(), buf.Bytes())
}

// workloadIdentity fingerprints the workload a snapshot was trained over:
// name, schema width, data volume, and split sizes. Different -scale or
// -seed flags change the data (and therefore the statistics the model
// internalized), so a warm restart over a differently generated workload
// must refuse the snapshot rather than serve from mismatched beliefs.
func (s *System) workloadIdentity() string {
	return fmt.Sprintf("%s/tables=%d/rows=%d/queries=%d+%d",
		s.W.Name, len(s.W.DB.Tables), s.W.DB.TotalRows(), len(s.W.Train), len(s.W.Test))
}

// Load restores models previously produced by Save into this System. The
// System must have been built with the same Config (network sizes, agent
// count) over the same schema, AND the same optimizer backend: the envelope
// is validated first — version skew fails with fosserr.ErrSnapshotVersion,
// corruption with fosserr.ErrSnapshotCorrupt, and a snapshot trained under
// a different backend with fosserr.ErrBackendMismatch (a selinger-trained
// doctor must never serve gaussim plans). The serving path is quiesced
// while weights are swapped, and cached plans (chosen by the previous
// weights) are invalidated.
func (s *System) Load(data []byte) error {
	return s.RT.Exclusive(func() error { return s.load(data) })
}

func (s *System) load(data []byte) error {
	env, err := store.Unseal(data)
	if err != nil {
		return fmt.Errorf("core: load: %w", err)
	}
	if env.Backend != s.Backend.Name() {
		return fmt.Errorf("core: snapshot trained under backend %q, this system runs %q: %w",
			env.Backend, s.Backend.Name(), fosserr.ErrBackendMismatch)
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(&snap); err != nil {
		return fmt.Errorf("core: snapshot payload decode: %v: %w", err, fosserr.ErrSnapshotCorrupt)
	}
	if want := s.workloadIdentity(); snap.Workload != want {
		return fmt.Errorf("core: snapshot trained over workload %q, this system runs %q (same name but different -scale/-seed generates different data): %w",
			snap.Workload, want, fosserr.ErrBackendMismatch)
	}
	if snap.MaxSteps != s.Cfg.MaxSteps {
		return fmt.Errorf("core: snapshot maxsteps %d != config %d", snap.MaxSteps, s.Cfg.MaxSteps)
	}
	if len(snap.Agents) != len(s.Planners) {
		return fmt.Errorf("core: snapshot has %d agents, config %d", len(snap.Agents), len(s.Planners))
	}
	if err := nn.LoadParams(s.AAM, snap.AAM); err != nil {
		return fmt.Errorf("core: load AAM: %w", err)
	}
	for i, pl := range s.Planners {
		if err := nn.LoadParams(agentModule{pl.Agent}, snap.Agents[i]); err != nil {
			return fmt.Errorf("core: load agent %d: %w", i, err)
		}
	}
	return nil
}

// RebuildEval re-derives an executed candidate from its durable identity:
// the incomplete plan is hint-completed by the backend and re-encoded, both
// deterministic, so a candidate rebuilt from a checkpoint or WAL record is
// interchangeable with the one that was executed live. Latency is NaN on
// return; callers restore the journaled outcome. Runs under the runtime's
// shared lock (a catalog resync repoints the planner's backend), and refuses
// queries whose tables a DDL has since dropped with fosserr.ErrCatalogStale.
// A step outside [0, MaxSteps] names no candidate an episode can reach and
// is refused with fosserr.ErrNoPlan.
func (s *System) RebuildEval(q *query.Query, icp plan.ICP, step int) (*planner.PlanEval, error) {
	if step < 0 || step > s.Cfg.MaxSteps {
		return nil, fmt.Errorf("core: step %d outside [0, %d]: %w", step, s.Cfg.MaxSteps, fosserr.ErrNoPlan)
	}
	var pe *planner.PlanEval
	err := s.RT.Shared(func() error {
		if err := s.CheckCatalog(q); err != nil {
			return err
		}
		var err error
		pe, err = s.Planners[0].NewEval(q, icp, step)
		return err
	})
	if err != nil {
		return nil, err
	}
	return pe, nil
}

// ExportBuffer snapshots the execution buffer in durable form (checkpoint
// ingredient).
func (s *System) ExportBuffer() []store.ExecRecord { return s.Learner.Buf.Export() }

// ImportBuffer restores an exported execution buffer, rebuilding each
// record's complete plan and encoding through this system's backend. Records
// whose tables a later DDL dropped are skipped, not failed: a checkpoint
// imaged around a drop-table legitimately carries pre-DDL experience the
// evolved schema cannot re-derive.
func (s *System) ImportBuffer(recs []store.ExecRecord) error {
	keep := recs[:0:0]
	for _, r := range recs {
		if s.CheckCatalog(r.Query) == nil {
			keep = append(keep, r)
		}
	}
	return s.Learner.Buf.Import(keep, func(r store.ExecRecord) (*planner.PlanEval, error) {
		return s.RebuildEval(r.Query, r.ICP, r.Step)
	})
}

// Clone builds a fresh System over the same workload, configuration, and
// backend with the trained weights copied in. Execution buffer, plan cache,
// optimizer state, and RNG streams start fresh (Fork shares the buffer
// instead). The clone shares the source's live-catalog world: a DDL applied
// through either system rebuilds one generation that both repoint to.
func (s *System) Clone() (*System, error) {
	c, err := New(s.W, s.Cfg, withWorld(s.world))
	if err != nil {
		return nil, fmt.Errorf("core: clone: %w", err)
	}
	blob, err := s.Save()
	if err != nil {
		return nil, fmt.Errorf("core: clone snapshot: %w", err)
	}
	if err := c.Load(blob); err != nil {
		return nil, fmt.Errorf("core: clone load: %w", err)
	}
	return c, nil
}

// Fork is Clone over the same execution buffer — the replica the online loop
// trains on a retrain, or loads a leader's checkpoint into, before
// publishing it (service.Replica). Sharing the buffer keeps one per tenant,
// and makes a retrain's starting state a function of the served weights and
// that buffer alone.
func (s *System) Fork() (service.Replica, error) {
	c, err := s.Clone()
	if err != nil {
		return nil, err
	}
	c.Learner.Buf = s.Learner.Buf
	return c, nil
}

// agentModule adapts an agent (state network + policy heads) to nn.Module.
type agentModule struct {
	a interface {
		Params() []*nn.Tensor
	}
}

func (m agentModule) Params() []*nn.Tensor { return m.a.Params() }
