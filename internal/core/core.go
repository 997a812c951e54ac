// Package core assembles the FOSS system: the planner (DRL agent over plan
// edits), the asymmetric advantage model, the simulated learner, and a
// pluggable optimizer backend, behind a context-aware
// Train/Optimize/Serve API. The root package foss re-exports this for
// library users.
//
// The doctor is backend-generic: every interaction with the underlying
// engine — expert plan enumeration, hint-steered replanning, execution —
// goes through backend.Backend, so the same trained doctor machinery runs
// over the Selinger engine, the gaussim engine, or any future port (the
// paper validates against PostgreSQL and openGauss the same way).
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/backend"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/learner"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planenc"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/runtime"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/workload"
)

// Config collects every tunable of a FOSS instance.
type Config struct {
	Seed     int64
	MaxSteps int // plan-edit episode length (paper default 3)
	Agents   int // multi-agent switch (paper §VI-C5); 1 = single agent

	// Workers is read by nothing: training runs one way. The name stays
	// declared only because benchmark/ still assigns it.
	Workers int
	// PlanCache is the serving-path plan cache capacity in entries (keyed by
	// query fingerprint, invalidated on Train/Load/DDL). 0 —
	// the default — disables caching, keeping per-query optimization-time
	// measurements faithful (the experiments harness depends on that);
	// serving deployments like cmd/fossd opt in.
	PlanCache int

	// CatalogHeadroom reserves embedding-vocabulary capacity for online
	// schema evolution: up to CatalogHeadroom DDL-added tables (and
	// 8×CatalogHeadroom added columns) get real encoder ids instead of
	// folding into the none bucket. The reservation sizes the state network
	// and agent vocabularies at construction, so it must match across
	// replicas and restarts (snapshots refuse shape mismatches). 0 — the
	// default — sizes everything exactly to the load-time schema: encodings
	// stay bit-identical to a headroom-less build, and post-DDL additions
	// fold to the none bucket (still served correctly, just undistinguished
	// by the model).
	CatalogHeadroom int

	StateNet aam.StateNetConfig
	Planner  planner.Config
	Learner  learner.Config

	// Ablation switches (Table II)
	DisableSimulatedEnv bool
	DisablePenalty      bool
	DisableValidation   bool
}

// DefaultConfig mirrors the paper's settings at repository scale.
func DefaultConfig() Config {
	return Config{
		Seed:      1,
		MaxSteps:  3,
		Agents:    1,
		PlanCache: 0,
		StateNet:  aam.StateNetConfig{DModel: 32, Heads: 2, Layers: 1, FFDim: 64, StateDim: 32},
		Planner:   planner.DefaultConfig(),
		Learner:   learner.DefaultConfig(),
	}
}

// Option customizes System construction beyond Config — the functional
// options of the public API.
type Option func(*options)

type options struct {
	backend backend.Backend
	world   *catalogWorld
}

// WithBackend builds the system over an explicit optimizer backend instead
// of the default Selinger engine.
func WithBackend(b backend.Backend) Option {
	return func(o *options) { o.backend = b }
}

// withWorld shares an existing live-catalog world instead of minting a fresh
// one — Clone threads it through so a blue/green replica pair sees a single
// schema generation per DDL apply. Unexported: external callers always start
// from the backend they pass (or the default).
func withWorld(w *catalogWorld) Option {
	return func(o *options) { o.world = w }
}

// System is a trained (or trainable) FOSS instance bound to one workload
// and one optimizer backend.
type System struct {
	Cfg Config
	W   *workload.Workload

	// Backend is the optimizer substrate under the doctor, fixed at
	// construction; only a catalog resync repoints it, to a rebuilt engine of
	// the same name. Never mutate it directly while serving.
	Backend backend.Backend

	Enc      *planenc.Encoder
	AAM      *aam.Model
	Learner  *learner.Learner
	Planners []*planner.Planner

	// RT arbitrates the concurrent serving path (cached, shared-locked
	// Optimize) against the exclusive training path.
	RT *runtime.Runtime

	// online is the doctor loop façade, set by EnableOnline.
	online *service.Loop

	// world is the live-catalog substrate (versioned schema + rebuilt
	// DB/stats/backend). Shared with Clone-built systems, so one DDL apply
	// yields one new generation every one of them repoints to.
	world *catalogWorld

	// trainTime accumulates wall-clock spent training, in nanoseconds;
	// atomic because background retrains write it while serving code reads.
	trainTime atomic.Int64
}

// New builds a FOSS system over a loaded workload. By default it runs over
// the Selinger backend; pass WithBackend to target another engine.
func New(w *workload.Workload, cfg Config, opts ...Option) (*System, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if cfg.MaxSteps < 1 {
		return nil, fmt.Errorf("core: MaxSteps must be >= 1, got %d: %w", cfg.MaxSteps, fosserr.ErrBadConfig)
	}
	if cfg.Agents < 1 {
		cfg.Agents = 1
	}
	world := o.world
	b := o.backend
	if b == nil && world != nil {
		b, _, _ = world.snapshot()
	}
	if b == nil {
		b = backend.NewSelinger(w.DB, w.Stats)
	}
	if world == nil {
		world = newCatalogWorld(w.DB, b.Stats(), b)
	}

	// The encoder's vocabulary is anchored at the world's epoch-0 schema
	// plus the configured evolution headroom, then extended to the current
	// schema — so a replica built after a DDL apply assigns the same ids (and
	// sizes the same model shapes) as one that lived through it.
	enc := planenc.NewEncoder(world.baseSchema()).
		WithHeadroom(cfg.CatalogHeadroom, 8*cfg.CatalogHeadroom)
	enc.Extend(world.schema())

	// Every component gets an independent seeded source: the AAM's weight
	// init, each agent's weight init, and each agent's action-sampling
	// stream never share a *rand.Rand, so constructing components in any
	// order (or in parallel) cannot perturb another component's stream.
	// Vocabularies size from the encoder's capacity (base schema + headroom),
	// not its current occupancy, so weight shapes never change under DDL.
	model := aam.NewModel(rand.New(rand.NewSource(cfg.Seed)), cfg.StateNet, enc.CapTables, enc.CapCols)

	space := plan.NewSpace(w.MaxTables)
	plCfg := cfg.Planner
	plCfg.MaxSteps = cfg.MaxSteps
	if cfg.DisablePenalty {
		plCfg.PenaltyGamma = 0
	}

	var planners []*planner.Planner
	for a := 0; a < cfg.Agents; a++ {
		agentCfg := plCfg
		// multi-agent: diversify strategies via discount factor and LR, as
		// the paper suggests
		agentCfg.PPO.Seed = cfg.Seed + int64(a)
		agentCfg.PPO.Gamma = plCfg.PPO.Gamma - 0.02*float64(a)
		lr := agentCfg.PPO.LR * (1 + 0.5*float64(a))
		agent := planner.NewAgent(rand.New(rand.NewSource(cfg.Seed+int64(100+a))),
			cfg.StateNet, enc.CapTables, enc.CapCols, space.Size(), agentCfg.Hidden, lr)
		// Decouple action sampling from the construction stream: weight init
		// consumed the rng above; sampling draws from its own source.
		agent.Rng = rand.New(rand.NewSource(cfg.Seed + int64(500+a)))
		planners = append(planners, &planner.Planner{
			Cfg:   agentCfg,
			Space: space,
			Enc:   enc,
			Opt:   b,
			Agent: agent,
		})
	}

	lCfg := cfg.Learner
	lCfg.Seed = cfg.Seed
	lCfg.DisableSim = cfg.DisableSimulatedEnv
	lCfg.DisableValidation = cfg.DisableValidation
	lCfg.Agents = cfg.Agents

	sys := &System{
		Cfg:      cfg,
		W:        w,
		Backend:  b,
		Enc:      enc,
		AAM:      model,
		Planners: planners,
		world:    world,
	}
	sys.Learner = learner.New(w, planners, model, b, lCfg)
	sys.RT = runtime.New(runtime.Config{CacheSize: cfg.PlanCache}, checkedSource{sys})
	return sys, nil
}

// checkedSource is the runtime's miss path: the learner behind CheckCatalog,
// so a query naming a table the catalog does not have fails with
// fosserr.ErrCatalogStale, as in ExpertPlan and Execute, instead of reaching
// the planner. A hit never gets here: no such query is ever cached.
type checkedSource struct{ s *System }

func (c checkedSource) Optimize(ctx context.Context, q *query.Query) (*planner.PlanEval, error) {
	if err := c.s.CheckCatalog(q); err != nil {
		return nil, err
	}
	return c.s.Learner.Optimize(ctx, q)
}

// BackendName reports the identity of the backend under the doctor.
func (s *System) BackendName() string { return s.currentBackend().Name() }

// currentBackend reads s.Backend under the runtime's shared lock: a catalog
// resync repoints it (to a rebuilt engine of the same name) in an exclusive
// section.
func (s *System) currentBackend() (be backend.Backend) {
	_ = s.RT.Shared(func() error { be = s.Backend; return nil })
	return be
}

// TrainContext runs the simulated-learner loop with the serving path
// quiesced; any cached plans are invalidated afterwards since the models
// changed. progress may be nil; it runs inside the quiesced section, so an
// Optimize* call from it waits on the training lock forever — evaluate
// through s.Learner there. Cancellation is honored between episodes; a
// canceled training run leaves the models mid-schedule but structurally
// consistent (updates are applied between episodes, never during one).
func (s *System) TrainContext(ctx context.Context, progress func(learner.IterStats)) error {
	start := time.Now()
	err := s.RT.Exclusive(func() error { return s.Learner.Train(ctx, progress) })
	s.trainTime.Add(int64(time.Since(start)))
	return err
}

// TrainOnContext runs incremental training over an explicit query set (the
// online service retrains on recently served queries this way) with the
// serving path quiesced; iterations overrides the configured schedule when
// positive. Queries naming a table the backend's schema does not have are
// left out: a retrain picks its queries before a DDL may drop one of their
// tables, and the fork it trains is built over the newer generation.
func (s *System) TrainOnContext(ctx context.Context, queries []*query.Query, iterations int, progress func(learner.IterStats)) error {
	start := time.Now()
	err := s.RT.Exclusive(func() error {
		schema := s.Backend.Schema()
		live := slices.DeleteFunc(slices.Clone(queries), func(q *query.Query) bool { return checkSchema(schema, q) != nil })
		return s.Learner.TrainOn(ctx, live, iterations, progress)
	})
	s.trainTime.Add(int64(time.Since(start)))
	return err
}

// TrainingTime reports cumulative wall-clock this System spent in
// TrainContext/TrainOnContext. Online retrains train forks (Fork), so their
// time is not counted here.
func (s *System) TrainingTime() time.Duration { return time.Duration(s.trainTime.Load()) }

// Buffer exposes the learner's execution buffer (feedback ingestion point of
// the online loop).
func (s *System) Buffer() *learner.Buffer { return s.Learner.Buf }

// CacheStats snapshots the serving path's plan-cache counters.
func (s *System) CacheStats() runtime.CacheStats { return s.RT.CacheStats() }

// OptimizeContext returns FOSS's chosen plan for the query along with the
// optimization time (model inference + hint completions), mirroring the
// paper's "SQL in → execution plan out" measurement. It serves through the
// runtime: concurrent calls are safe, repeated queries hit the plan cache,
// and cancellation is honored between rollouts.
func (s *System) OptimizeContext(ctx context.Context, q *query.Query) (*plan.CP, time.Duration, error) {
	pe, _, d, err := s.OptimizeEvalContext(ctx, q)
	if err != nil {
		return nil, 0, err
	}
	return pe.CP, d, nil
}

// OptimizeEvalContext is OptimizeContext returning the full evaluated
// candidate (plan, encoding, edit step) instead of just the complete plan,
// and whether it came from the plan cache — the online service records
// executed-plan feedback against it. The returned PlanEval may be shared
// with the plan cache: treat it as read-only.
func (s *System) OptimizeEvalContext(ctx context.Context, q *query.Query) (*planner.PlanEval, bool, time.Duration, error) {
	start := time.Now()
	pe, hit, err := s.RT.Optimize(ctx, q)
	if err != nil {
		return nil, false, 0, err
	}
	return pe, hit, time.Since(start), nil
}

// ExplainCandidates re-derives the candidate pool the doctor would consider
// for q under the CURRENT model and scores every candidate against the
// selected plan — the substrate of the HTTP /v1/explain surface. It runs
// under the runtime's shared lock like any serve, so it can interleave with
// traffic but never observes a half-applied retrain. Note the scores reflect
// the model as of this call: explaining a serve from an earlier epoch after
// a hot-swap scores the same pool under the newer model.
func (s *System) ExplainCandidates(ctx context.Context, q *query.Query) ([]planner.CandidateScore, error) {
	var scores []planner.CandidateScore
	err := s.RT.Shared(func() error {
		if err := s.CheckCatalog(q); err != nil {
			return err
		}
		var err error
		_, scores, err = s.Learner.Explain(ctx, q)
		return err
	})
	if err != nil {
		return nil, err
	}
	return scores, nil
}

// ExpertPlan exposes the backend's native cost-based plan (the baseline).
// It runs under the runtime's shared lock: concurrent with serving, never
// interleaved with a catalog resync repointing s.Backend.
func (s *System) ExpertPlan(q *query.Query) (*plan.CP, time.Duration, error) {
	start := time.Now()
	var cp *plan.CP
	err := s.RT.Shared(func() error {
		if err := s.CheckCatalog(q); err != nil {
			return err
		}
		var err error
		cp, err = s.Backend.Plan(q)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return cp, time.Since(start), nil
}

// Execute runs a plan to completion (no timeout) and returns its simulated
// latency in milliseconds, as charged by the current backend. It runs under
// the runtime's shared lock, so the backend pointer read can never race a
// catalog resync. A plan whose query references a DDL-dropped table
// (served just before the drop landed) returns NaN instead of executing —
// the online loop counts it as a stale invalidation and drops the feedback.
func (s *System) Execute(cp *plan.CP) float64 {
	lat := math.NaN()
	_ = s.RT.Shared(func() error {
		if cp.Q != nil {
			if err := s.CheckCatalog(cp.Q); err != nil {
				return err
			}
		}
		lat = s.Backend.Execute(cp, 0).LatencyMs
		return nil
	})
	return lat
}
