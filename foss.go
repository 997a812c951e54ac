// Package foss is a from-scratch Go reproduction of "FOSS: A Self-Learned
// Doctor for Query Optimizer" (ICDE 2024). FOSS starts from the plan a
// traditional cost-based optimizer produced and repairs it with a short
// sequence of fine-grained edits — swapping two tables in the left-deep join
// order or overriding a join's physical method — selected by a PPO-trained
// agent. An asymmetric advantage model compares candidate plans pairwise,
// acting both as the plan selector at inference time and as the reward
// indicator of a simulated environment that lets the agent bootstrap on
// cheap experience.
//
// The doctor is backend-generic, mirroring the paper's PostgreSQL and
// openGauss validation targets: every interaction with the underlying engine
// goes through the Backend interface (expert plan enumeration, hint-steered
// replanning, execution), and two backends ship — "selinger" (the default
// synthetic engine) and "gaussim" (a hash-centric engine with a different
// cost model and operator preferences).
//
// The package bundles everything the paper depends on, implemented in pure
// Go: a column-store engine with a deterministic latency model, a
// Selinger-style optimizer with hint steering, histogram statistics with
// realistic estimation error, a tensor autograd library with
// masked-attention transformers, PPO, three synthetic benchmarks (JOB,
// TPC-DS, Stack), and the four learned-optimizer baselines the paper
// compares against (Bao, Balsa, Loger, HybridQO).
//
// Quick start (every call that can block takes a context):
//
//	ctx := context.Background()
//	w, _ := foss.LoadWorkload("job", foss.WorkloadOptions{Seed: 1, Scale: 0.5})
//	sys, _ := foss.New(w, foss.DefaultConfig())
//	_ = sys.TrainContext(ctx, nil)
//	plan, optTime, _ := sys.OptimizeContext(ctx, w.Test[0])
//	latency := sys.Execute(plan)
//
//	// the doctor steers per query: a workload is a loop
//	for _, q := range w.Test {
//		plan, _, _ := sys.OptimizeContext(ctx, q)
//		_ = sys.Execute(plan)
//	}
//
// Targeting a different optimizer backend:
//
//	be, _ := foss.NewBackend("gaussim", w)
//	sys, _ := foss.New(w, foss.DefaultConfig(), foss.WithBackend(be))
//
// Online doctor loop (the paper's self-learned doctor kept learning after
// deployment — drift-aware background retraining with zero-downtime model
// hot-swap):
//
//	_ = sys.EnableOnline(foss.DefaultOnlineConfig())
//	for _, q := range liveQueries {
//		res, _ := sys.ServeContext(ctx, q)    // lock-free w.r.t. retraining
//		lat := sys.Execute(res.Eval.CP)
//		_ = sys.Record(q, res.Eval, lat)      // feedback -> buffer -> drift -> retrain
//	}
//	fmt.Println(sys.OnlineStats())            // drift/retrain/swap counters
//
// ServeBatch is ServeContext over a list: N serves answered by one model
// generation, all-or-nothing on error or cancellation.
//
// The same loop is reachable over the wire, and the wire has one shape: a
// fleet of doctors (NewTenantHTTPServer; cmd/fossd -serve-http serves one
// tenant, "default", unless more are named). Every per-doctor endpoint lives
// under /v1/t/{tenant}/ — optimize, feedback, stats, checkpoint, catalog —
// as a JSON HTTP service (see internal/service and the README's endpoint
// reference).
//
// Observability rides on the same surface. The fleet-wide reads sit outside
// the tenant prefix: GET /metrics is a dependency-free Prometheus text scrape
// (per-tier serve-latency histograms plus every loop counter, tenant-labeled)
// and GET /v1/stats the roll-up. Per-doctor reads live under the prefix —
// /v1/t/default/… on a fleet of one: GET /v1/t/{tenant}/explain/{serve_id}
// reconstructs why a served plan won (served vs expert, hint diff, tier
// decision, per-candidate AAM scores), and GET /v1/t/{tenant}/advisor reports
// the advisor's structured findings — see AdvisorConfig and Finding.
//
// Durable serving: attach a state directory and the doctor's accumulated
// experience survives restarts — every Record journals to a feedback WAL
// before ingestion, checkpoints land atomically on every hot-swap, and a
// warm restart recovers model weights, execution buffer, and epoch from
// disk, serving bit-identical plans with no retraining:
//
//	st, _ := foss.OpenStateDir("state")
//	cfg := foss.DefaultOnlineConfig()
//	info, _ := sys.RecoverOnline(cfg, st) // warm start restores; cold start just attaches
//
// Snapshots travel in a versioned, checksummed, backend-tagged envelope:
// Load rejects cross-backend blobs (ErrBackendMismatch), version skew
// (ErrSnapshotVersion), and corruption (ErrSnapshotCorrupt) instead of
// restoring weights into a system they were never trained for.
//
// Tiered serving: repeat traffic can skip the model entirely. With
// OnlineConfig.Tier enabled the loop fronts tier 2 (the full AAM pass) with
// a learned router over one fast path — tier 0, a persistent plan memory
// that pins a fingerprint's best plan after it beats the expert baseline
// PromoteAfter times (a hit is one allocation-free map lookup). A regression
// past 1.5× the expert escalates the fingerprint back to tier 2, a hot-swap
// invalidates every pin in the same step that bumps the epoch, and pins
// survive restarts through the checkpoint. Decisions are a pure function of
// the feedback stream, so replays reproduce them exactly:
//
//	cfg := foss.DefaultOnlineConfig() // tier 0 is on
//	cfg.Tier.PromoteAfter = 2
//	_ = sys.EnableOnline(cfg)
//	res, _ := sys.ServeContext(ctx, q) // res.Tier: 0 or 2
//
// A tier-2 miss does only inference. Algorithm 1 is split (internal/planner)
// into the walk — mask, state-network forward, policy sample or greedy, edit,
// hinted replan, deduplicated into the episode's candidates — which is all a
// miss and Explain run, and the scoring pass, which turns a
// walked episode into advantage-tracked rewards, critic values and PPO
// transitions and which only training runs, right after the walk. Every
// forward that is never followed by Backward goes through a frozen view
// (internal/nn): the same weights with gradient tracking off, so no autograd
// graph is built. A view may be forwarded from any goroutine while no
// optimizer step, load or copy writes those weights; it must not be handed to
// an optimizer, and nothing trains through it. The cost of a miss is the
// cold_novel workload's turn_p50_us: go run ./benchmark --workload cold_novel.
//
// Multi-tenant serving: a ShardRouter turns one process into a fleet of
// doctors — one full shard (system, loop, plan cache, state directory) per
// tenant, routed by tenant key:
//
//	router, _ := foss.NewShardRouter(ctx, foss.ShardConfig{
//		System:   foss.DefaultConfig(),
//		Loop:     foss.DefaultOnlineConfig(),
//		StateDir: "state",
//	}, []foss.TenantSpec{{Name: "acme"}, {Name: "globex", Backend: "gaussim"}})
//	sh, _ := router.Get("acme")
//	res, _ := sh.Serve(ctx, q)
//	defer router.Close(ctx) // drain: final checkpoint per tenant, locks released
//
// Every doctor has a lossless shutdown path: System.Close (and
// ShardRouter.Close for fleets) stops intake, awaits — or past the context
// deadline, cancels — in-flight background retrains, and takes a final
// checkpoint per store, so a SIGTERM deploy warm-restarts bit-identically,
// not just a kill -9. State directories are single-writer: a second Open of
// a live one fails with ErrStoreLocked instead of corrupting the WAL.
//
// Failures are classified by sentinel errors (ErrNoPlan, ErrNotOnline, ...)
// that errors.Is recognizes through every wrapping layer.
package foss

import (
	"context"

	"github.com/foss-db/foss/internal/backend"
	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/shard"
	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/tier"
	"github.com/foss-db/foss/internal/workload"
)

// Config re-exports the FOSS system configuration.
type Config = core.Config

// System re-exports the assembled FOSS system.
type System = core.System

// Workload re-exports a loaded benchmark.
type Workload = workload.Workload

// WorkloadOptions re-exports workload generation options.
type WorkloadOptions = workload.Options

// Backend re-exports the pluggable optimizer-backend contract: a backend
// supplies schema and statistics, enumerates its native expert plan,
// completes hint-steered replans, and executes plans for observed latency.
// The doctor above it is backend-generic.
type Backend = backend.Backend

// Option re-exports the functional options accepted by New.
type Option = core.Option

// WithBackend builds the system over an explicit backend instead of the
// default Selinger engine.
func WithBackend(b Backend) Option { return core.WithBackend(b) }

// DefaultConfig returns the paper-mirroring configuration at repository
// scale.
func DefaultConfig() Config { return core.DefaultConfig() }

// New assembles a FOSS system over a loaded workload. WithBackend selects
// the optimizer backend; every tunable is a Config field.
func New(w *Workload, cfg Config, opts ...Option) (*System, error) { return core.New(w, cfg, opts...) }

// NewBackend constructs a registered backend ("selinger", "gaussim") over a
// loaded workload's data and statistics.
func NewBackend(name string, w *Workload) (Backend, error) {
	return backend.New(name, w.DB, w.Stats)
}

// BackendNames lists the registered backends.
func BackendNames() []string { return backend.Names() }

// LoadWorkload generates one of the three benchmarks: "job", "tpcds",
// "stack".
func LoadWorkload(name string, opts WorkloadOptions) (*Workload, error) {
	return workload.Load(name, opts)
}

// WorkloadNames lists the available benchmarks.
func WorkloadNames() []string { return workload.Names() }

// Sentinel errors of the public API; match with errors.Is.
var (
	ErrBadConfig       = fosserr.ErrBadConfig
	ErrUnknownWorkload = fosserr.ErrUnknownWorkload
	ErrUnknownBackend  = fosserr.ErrUnknownBackend
	ErrNoPlan          = fosserr.ErrNoPlan
	ErrNoCandidate     = fosserr.ErrNoCandidate
	ErrNotOnline       = fosserr.ErrNotOnline
	ErrBackendMismatch = fosserr.ErrBackendMismatch
	ErrSnapshotVersion = fosserr.ErrSnapshotVersion
	ErrSnapshotCorrupt = fosserr.ErrSnapshotCorrupt
	ErrNoStore         = fosserr.ErrNoStore
	ErrLoopClosed      = fosserr.ErrLoopClosed
	ErrServeIDExpired  = fosserr.ErrServeIDExpired
	ErrStoreLocked     = fosserr.ErrStoreLocked
	ErrUnknownTenant   = fosserr.ErrUnknownTenant
	ErrNotLeader       = fosserr.ErrNotLeader
	ErrCatalogStale    = fosserr.ErrCatalogStale
	ErrCatalogMismatch = fosserr.ErrCatalogMismatch
)

// StateStore re-exports the durability store: the state directory holding
// versioned model checkpoints, the recovery manifest, and the append-only
// feedback WAL. Attach one via OnlineConfig.Store (journal + checkpoint a
// live loop) or System.RecoverOnline (warm restart from disk).
type StateStore = store.Store

// RecoveryInfo re-exports what System.RecoverOnline restored from disk.
type RecoveryInfo = core.RecoveryInfo

// OpenStateDir opens (creating if needed) a durable state directory.
func OpenStateDir(dir string) (*StateStore, error) { return store.Open(dir) }

// OnlineConfig re-exports the online doctor loop configuration
// (System.EnableOnline).
type OnlineConfig = service.Config

// OnlineStats re-exports the loop's counters (System.OnlineStats).
type OnlineStats = service.Stats

// ServeResult re-exports one served request (System.ServeContext).
type ServeResult = service.Result

// DriftDetectorConfig re-exports the rolling drift-detector tuning.
type DriftDetectorConfig = service.DetectorConfig

// TierConfig re-exports the tiered-serving configuration
// (OnlineConfig.Tier): tier-0 plan memory and the promotion win streak; a
// pinned plan running past 1.5× the expert baseline escalates back to tier
// 2. The zero value disables tiering. Per-tier serve counters and latencies
// appear in OnlineStats (Tier0Hits, Tier2Serves, Tier0AvgUs, Tier2AvgUs,
// Promotions, Demotions, PinnedPlans), and every ServeResult carries the
// tier that answered it.
type TierConfig = tier.Config

// AdvisorConfig re-exports the self-diagnosis advisor's switch
// (OnlineConfig.Advisor). When enabled, Record analyzes every feedback
// record inline, in O(1), over a fixed 64-record window, emitting structured
// Findings surfaced by GET /v1/t/{tenant}/advisor and Loop.AdvisorFindings.
type AdvisorConfig = service.AdvisorConfig

// Finding re-exports one advisor emission: a kind (FindingRegression,
// FindingPlanThrash, FindingCooldownBlocked), the epoch and offending
// fingerprint where relevant, and a human-readable detail line.
type Finding = service.Finding

// Advisor finding kinds.
const (
	// FindingRegression: a sustained fraction of recent traffic ran slower
	// than the expert baseline.
	FindingRegression = service.FindingRegression
	// FindingPlanThrash: a fingerprint keeps cycling through tier-0
	// promotion and demotion.
	FindingPlanThrash = service.FindingPlanThrash
	// FindingCooldownBlocked: the drift detector keeps firing while the
	// retrain cooldown suppresses the trigger.
	FindingCooldownBlocked = service.FindingCooldownBlocked
)

// DefaultOnlineConfig returns the configuration fossd serves with: 16-record
// rolling window, 1.1 mean regression threshold, 50% novelty fraction,
// background retraining of 2 iterations over the 32 most recent queries, a
// checkpoint every 64 records once a Store is attached, tier-0 plan memory
// and the advisor on.
func DefaultOnlineConfig() OnlineConfig { return service.DefaultConfig() }

// ---- multi-tenant sharded serving ----

// TenantSpec re-exports one shard's identity: tenant name plus the
// workload/backend/scale/seed its doctor is generated over (zero fields
// inherit ShardConfig.Defaults; a zero seed derives a stable per-tenant
// seed from the name).
type TenantSpec = shard.TenantSpec

// ShardConfig re-exports the fleet configuration: per-shard system and loop
// templates and the state-dir root (each tenant gets <StateDir>/<tenant>/).
type ShardConfig = shard.Config

// ShardRouter re-exports the tenant router: N independent doctor shards
// behind one Get/Create/Close surface, also implementing the HTTP
// TenantRegistry.
type ShardRouter = shard.Router

// Shard re-exports one tenant's doctor (system, workload, wire surface,
// private store).
type Shard = shard.Shard

// NewShardRouter boots a fleet: one shard per spec — trained, or
// warm-started from its own checkpoint when the state dir holds one. Every
// spec is checked before anything boots, and the shards boot concurrently,
// GOMAXPROCS wide.
func NewShardRouter(ctx context.Context, cfg ShardConfig, specs []TenantSpec) (*ShardRouter, error) {
	return shard.NewRouter(ctx, cfg, specs)
}

// TenantRegistry re-exports the surface NewTenantHTTPServer serves —
// ShardRouter implements it.
type TenantRegistry = service.TenantRegistry

// WireTenantSpec re-exports the POST /v1/tenants request body.
type WireTenantSpec = service.WireTenantSpec

// NewTenantHTTPServer exposes a tenant registry (typically a ShardRouter)
// as the JSON HTTP service: every per-doctor endpoint under /v1/t/{tenant}/
// (optimize, feedback, stats, checkpoint, catalog, explain, advisor, metrics,
// repl), the fleet-wide GET /v1/stats and GET /metrics, and GET|POST
// /v1/tenants.
func NewTenantHTTPServer(reg TenantRegistry) *service.MultiHTTPServer {
	return service.NewMultiHTTPServer(reg)
}

// DriftKind re-exports the drift scenario kinds ("template-mix",
// "selectivity", "novel-template", "schema-evolution").
type DriftKind = workload.DriftKind

// DriftOptions re-exports drift scenario generation options.
type DriftOptions = workload.DriftOptions

// DriftScenario re-exports a generated two-phase drifted query stream.
type DriftScenario = workload.DriftScenario

// LoadDrift generates a deterministic drift scenario over a loaded workload.
func LoadDrift(w *Workload, kind DriftKind, opts DriftOptions) (*DriftScenario, error) {
	return workload.Drift(w, kind, opts)
}

// DriftKinds lists the available drift scenario kinds.
func DriftKinds() []DriftKind { return workload.DriftKinds() }
