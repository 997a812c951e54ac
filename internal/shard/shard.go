// Package shard turns one doctor into a fleet: a Router owns N independent
// doctor shards — each a full core.System + service.Loop with its own
// optimizer backend, workload identity, plan cache, serve-id ring, and
// durable state directory (<state-dir>/<tenant>/) — and routes every
// request by tenant key. Isolation is structural, not advisory: nothing is
// shared between shards except the process they live in.
//
// The router carries the fleet's lifecycle. Boot checks every spec first,
// then brings the shards up concurrently, one per core: each trains (or
// warm-starts from its own checkpoint, exactly like a single-tenant restart,
// or, on a follower, fetches its leader's checkpoint) on its own goroutine,
// because two tenants' boots share nothing. CreateTenant adds shards to a
// live fleet, and Close drains every shard in parallel — stop intake, await
// or cancel in-flight retrains, take a final checkpoint per tenant, release
// each WAL — so a SIGTERM deploy of the whole fleet is as lossless as a
// kill -9 of one doctor.
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/foss-db/foss/internal/backend"
	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/repl"
	"github.com/foss-db/foss/internal/runtime"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/workload"
)

// TenantSpec is one shard's identity: who it serves and how its doctor is
// generated. Zero-valued fields inherit Config.Defaults, so a homogeneous
// fleet is just a list of names. Seed 0 derives a per-tenant seed from the
// default seed and the tenant name — stable across restarts and spec
// reordering, so a warm start always regenerates the exact workload the
// checkpoint was trained over.
type TenantSpec struct {
	Name     string
	Workload string  // benchmark name: job | tpcds | stack
	Backend  string  // optimizer backend: selinger | gaussim
	Scale    float64 // data scale factor
	Seed     int64   // workload + model seed
	// Leader overrides Config.LeaderAddr for this tenant on a follower
	// process ("http://host:port"); ignored on leaders. This is the
	// per-tenant leader identity: on a fleet different tenants may be led
	// from different processes.
	Leader string
}

// Config assembles a router.
type Config struct {
	// System is the per-shard doctor template; Seed is overridden by each
	// tenant's resolved spec.
	System core.Config
	// Loop is the per-shard online-loop template; Store is set per tenant
	// when StateDir is configured.
	Loop service.Config
	// Defaults fills zero-valued TenantSpec fields (Name is ignored).
	Defaults TenantSpec
	// StateDir roots the fleet's durable state: shard s lives in
	// StateDir/<tenant>/ with its own checkpoints, manifest, WAL, and lock.
	// Empty runs every shard in memory; a follower holds no state, so it must
	// leave StateDir empty.
	StateDir string
	// Workers is read by nothing: training runs one way. The name stays
	// declared only because benchmark/ still assigns it.
	Workers int
	// MaxPending bounds each shard's serve-id ring (0 = service default).
	MaxPending int
	// CheckpointOnBoot writes an initial checkpoint after a cold-start
	// training run (ignored without StateDir), so a shard is durable before
	// its first request.
	CheckpointOnBoot bool
	// OnEvent, when set, receives one-line boot/drain progress strings
	// (fossd narrates them; tests leave it nil). Tenants boot and drain
	// concurrently, so it may be called from several goroutines at once.
	OnEvent func(tenant, event string)

	// Role selects what each shard does with its model: "" or "leader"
	// trains, journals, and checkpoints as always; "follower" boots from the
	// leader's newest checkpoint, serves read-only, and tails the leader's
	// manifest for hot-swaps — it never trains and opens no store. A
	// follower with a StateDir is refused with fosserr.ErrBadConfig.
	Role string
	// LeaderAddr is the default leader base URL for followers
	// ("http://host:port"); per-tenant TenantSpec.Leader overrides it.
	// Checkpoints replicate from the leader's /v1/t/{tenant}/repl/* endpoints
	// and feedback forwards to it.
	LeaderAddr string
	// ReplInterval is the follower's manifest poll cadence (0 = 500ms).
	ReplInterval time.Duration
	// ReplBootTimeout bounds how long a follower boot waits for the leader's
	// first checkpoint (0 = 2m).
	ReplBootTimeout time.Duration
}

// Shard is one tenant's doctor: the trained system, its workload, its wire
// surface, and (when durable) its private store.
type Shard struct {
	Spec TenantSpec
	Sys  *core.System
	W    *workload.Workload
	HTTP *service.HTTPServer
	// Store is the shard's private state directory, nil for in-memory
	// fleets. Owned by the shard: released in Close after the final
	// checkpoint.
	Store *store.Store
	// Recovery reports what the boot restored (zero value for cold starts
	// and in-memory shards).
	Recovery core.RecoveryInfo
	// Tailer is the follower's checkpoint tailer, nil on leaders.
	Tailer *repl.Tailer
}

// Serve optimizes one query on this shard's active replica.
func (sh *Shard) Serve(ctx context.Context, q *query.Query) (service.Result, error) {
	return sh.Sys.ServeContext(ctx, q)
}

// Step runs one full doctor-loop turn (Serve, Execute, Record) on the shard.
func (sh *Shard) Step(ctx context.Context, q *query.Query) (service.Result, float64, error) {
	return sh.Sys.ServeStepContext(ctx, q)
}

// Close drains the shard: intake stops, in-flight retrains finish (or are
// canceled past ctx's deadline), a final checkpoint lands, and only then is
// the store — and with it the WAL lock — released.
func (sh *Shard) Close(ctx context.Context) error {
	// A follower stops its tailer first: no hot-swap mid-drain.
	if sh.Tailer != nil {
		sh.Tailer.Close()
	}
	err := sh.Sys.Close(ctx)
	if sh.Store != nil {
		if cerr := sh.Store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Router owns the fleet and routes by tenant key.
type Router struct {
	cfg Config

	mu     sync.RWMutex
	shards map[string]*Shard
	// creating reserves names whose shard is still booting, so two
	// concurrent creates for one name fail fast (one boots, the other gets
	// the duplicate error immediately) instead of both paying a training run
	// and racing for the WAL lock. A reserved name is invisible to Get/Names
	// — a tenant appears exactly zero-or-fully to readers.
	creating  map[string]bool
	closed    bool
	closeOnce sync.Once
	closeErr  error

	// workloads caches generated benchmarks by (name, seed, scale):
	// tenants that share an identity share the immutable generated data
	// (queries and statistics are read-only after generation), so booting a
	// homogeneous 8-tenant fleet generates the benchmark once, not 8 times.
	// An entry is in place before its generation runs, outside wlMu: tenants
	// with different keys generate concurrently, and one key's waiters block
	// on the single generation under way.
	wlMu      sync.Mutex
	workloads map[string]func() (*workload.Workload, error)
}

// NewRouter boots a fleet: one shard per spec. Every spec is checked before
// anything boots (see Preflight), then the shards boot concurrently, at most
// GOMAXPROCS at a time; at GOMAXPROCS=1 they boot one after another in spec
// order. The first boot failure cancels the rest: tenants mid-training stop
// at their next episode and specs not yet started never boot. The shards
// already up are then drained, and the error names every tenant that failed,
// in spec order.
func NewRouter(ctx context.Context, cfg Config, specs []TenantSpec) (*Router, error) {
	r := &Router{
		cfg:       cfg,
		shards:    map[string]*Shard{},
		creating:  map[string]bool{},
		workloads: map[string]func() (*workload.Workload, error){},
	}
	specs, err := r.preflight(specs)
	if err != nil {
		return nil, err
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(specs))
	fanErr := runtime.Fan(bctx, len(specs), func(i int) {
		if _, err := r.create(bctx, specs[i]); err != nil {
			errs[i] = fmt.Errorf("shard: boot tenant %q: %w", specs[i].Name, err)
			cancel()
		}
	})
	if fanErr == nil { // every failure cancels bctx: a clean fan booted every spec
		return r, nil
	}
	// A tenant stopped because a sibling failed reports only the cancel;
	// the sibling's error is the one worth reading. When the caller's ctx
	// ended the boot, every tenant reports it.
	for i, err := range errs {
		if ctx.Err() == nil && errors.Is(err, context.Canceled) {
			errs[i] = nil
		}
	}
	err = errors.Join(errs...)
	if err == nil {
		err = fmt.Errorf("shard: boot: %w", fanErr)
	}
	cctx, cancelDrain := context.WithCancel(context.Background())
	cancelDrain() // already-booted shards have no traffic: drain instantly
	_ = r.Close(cctx)
	return nil, err
}

// Preflight checks a fleet without booting it: the role, and every spec as
// resolved against cfg.Defaults. A spec is refused for a bad tenant name, a
// name used twice, a workload or backend not in workload.Names() /
// backend.Names(), or — on a follower — no leader address. The error joins
// every refused spec, in order, and wraps fosserr.ErrBadConfig; nothing
// touches the filesystem.
func Preflight(cfg Config, specs []TenantSpec) error {
	_, err := (&Router{cfg: cfg}).preflight(specs)
	return err
}

// preflight is Preflight returning the resolved specs.
func (r *Router) preflight(specs []TenantSpec) ([]TenantSpec, error) {
	switch r.cfg.Role {
	case "", "leader":
	case "follower":
		if r.cfg.StateDir != "" {
			return nil, fmt.Errorf("shard: -role follower with -state-dir %s: a follower holds no state, it replicates from -leader-addr: %w",
				r.cfg.StateDir, fosserr.ErrBadConfig)
		}
	default:
		return nil, fmt.Errorf("shard: role %q (want leader or follower): %w", r.cfg.Role, fosserr.ErrBadConfig)
	}
	resolved := make([]TenantSpec, len(specs))
	seen := map[string]bool{}
	var errs []error
	for i, spec := range specs {
		spec = r.resolve(spec)
		resolved[i] = spec
		if err := r.checkSpec(spec); err != nil {
			errs = append(errs, err)
		} else if seen[spec.Name] {
			errs = append(errs, fmt.Errorf("shard: tenant %q named twice: %w", spec.Name, fosserr.ErrBadConfig))
		}
		seen[spec.Name] = true
	}
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("shard: fleet refused: %w", err)
	}
	return resolved, nil
}

// Get returns the named shard, fosserr.ErrUnknownTenant when absent, or
// fosserr.ErrLoopClosed once the router is draining.
func (r *Router) Get(name string) (*Shard, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, fmt.Errorf("shard: router draining: %w", fosserr.ErrLoopClosed)
	}
	sh, ok := r.shards[name]
	if !ok {
		return nil, fmt.Errorf("shard: tenant %q: %w", name, fosserr.ErrUnknownTenant)
	}
	return sh, nil
}

// Names lists the live tenants, sorted.
func (r *Router) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.shards))
	for n := range r.shards {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Create boots a new shard into the live fleet (the POST /v1/tenants path).
// The heavy lifting — workload generation, training or warm start — happens
// outside the router lock, so existing tenants keep serving while the new
// one trains; only the final registration is serialized.
func (r *Router) Create(ctx context.Context, spec TenantSpec) (*Shard, error) {
	return r.create(ctx, spec)
}

func (r *Router) create(ctx context.Context, spec TenantSpec) (*Shard, error) {
	spec = r.resolve(spec)
	if err := r.checkSpec(spec); err != nil {
		return nil, err
	}
	// Reserve the name before the (long) boot: a concurrent duplicate create
	// fails fast with the duplicate error instead of double-booting and
	// colliding on the per-tenant WAL lock downstream. The reservation is
	// private to creators — Get and Names never see it, so the tenant stays
	// invisible until the fully booted shard registers below.
	r.mu.Lock()
	switch {
	case r.closed:
		r.mu.Unlock()
		return nil, fmt.Errorf("shard: router draining: %w", fosserr.ErrLoopClosed)
	case r.shards[spec.Name] != nil, r.creating[spec.Name]:
		r.mu.Unlock()
		return nil, fmt.Errorf("shard: tenant %q already exists: %w", spec.Name, fosserr.ErrBadConfig)
	}
	r.creating[spec.Name] = true
	r.mu.Unlock()
	release := func() {
		r.mu.Lock()
		delete(r.creating, spec.Name)
		r.mu.Unlock()
	}

	sh, err := r.boot(ctx, spec)
	if err != nil {
		release()
		return nil, err
	}

	r.mu.Lock()
	if r.closed {
		delete(r.creating, spec.Name)
		r.mu.Unlock()
		// The router began draining while this shard booted: tear the
		// orphan down, it never served.
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = sh.Close(cctx)
		return nil, fmt.Errorf("shard: router draining: %w", fosserr.ErrLoopClosed)
	}
	r.shards[spec.Name] = sh
	delete(r.creating, spec.Name)
	r.mu.Unlock()
	return sh, nil
}

// checkSpec refuses a resolved spec that could never boot: a bad name, a
// workload or backend nobody registered, or a follower with no leader.
func (r *Router) checkSpec(spec TenantSpec) error {
	if err := validateName(spec.Name); err != nil {
		return err
	}
	if !slices.Contains(workload.Names(), spec.Workload) {
		return fmt.Errorf("shard: tenant %q: workload %q (want %s): %w: %w", spec.Name, spec.Workload,
			strings.Join(workload.Names(), "|"), fosserr.ErrUnknownWorkload, fosserr.ErrBadConfig)
	}
	if !slices.Contains(backend.Names(), spec.Backend) {
		return fmt.Errorf("shard: tenant %q: backend %q (want %s): %w: %w", spec.Name, spec.Backend,
			strings.Join(backend.Names(), "|"), fosserr.ErrUnknownBackend, fosserr.ErrBadConfig)
	}
	if r.cfg.Role == "follower" && spec.Leader == "" && r.cfg.LeaderAddr == "" {
		return fmt.Errorf("shard: follower %q needs a -leader-addr: %w", spec.Name, fosserr.ErrBadConfig)
	}
	return nil
}

// validateName rejects tenant names that cannot be routed or safely mapped
// to a state subdirectory. The name becomes both a URL path segment
// (/v1/t/{tenant}/...) and a directory under StateDir, so it is restricted
// to a conservative charset: letters, digits, dot, underscore, dash — no
// separators (a "../x" name from POST /v1/tenants would otherwise root a
// shard's WAL outside the configured state dir), and nothing the tenant
// mux would split.
func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("shard: tenant name required: %w", fosserr.ErrBadConfig)
	}
	if len(name) > 128 {
		return fmt.Errorf("shard: tenant name longer than 128 bytes: %w", fosserr.ErrBadConfig)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("shard: tenant name %q: only [A-Za-z0-9._-] allowed: %w", name, fosserr.ErrBadConfig)
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("shard: tenant name %q reserved: %w", name, fosserr.ErrBadConfig)
	}
	return nil
}

// resolve fills a spec's zero fields from the defaults, deriving a stable
// per-tenant seed from the tenant name so restarts regenerate identical
// workloads regardless of spec order.
func (r *Router) resolve(spec TenantSpec) TenantSpec {
	d := r.cfg.Defaults
	if spec.Workload == "" {
		spec.Workload = d.Workload
	}
	if spec.Workload == "" {
		spec.Workload = "job"
	}
	if spec.Backend == "" {
		spec.Backend = d.Backend
	}
	if spec.Backend == "" {
		spec.Backend = "selinger"
	}
	if spec.Scale == 0 {
		spec.Scale = d.Scale
	}
	if spec.Scale == 0 {
		spec.Scale = 0.5
	}
	if spec.Seed == 0 {
		h := fnv.New32a()
		h.Write([]byte(spec.Name))
		spec.Seed = d.Seed + int64(h.Sum32()%997) + 1
	}
	return spec
}

// workload returns (generating and caching on first use) the benchmark for
// a resolved spec. The cache key is the full generation identity, so two
// tenants differing in seed or scale never share data.
func (r *Router) workload(spec TenantSpec) (*workload.Workload, error) {
	key := fmt.Sprintf("%s/%d/%g", spec.Workload, spec.Seed, spec.Scale)
	r.wlMu.Lock()
	load, ok := r.workloads[key]
	if !ok {
		load = sync.OnceValues(func() (*workload.Workload, error) {
			return workload.Load(spec.Workload, workload.Options{Seed: spec.Seed, Scale: spec.Scale})
		})
		r.workloads[key] = load
	}
	r.wlMu.Unlock()
	return load()
}

// boot assembles and trains (or warm-starts) one shard. A durable shard
// takes its state directory's lock first, so a directory someone else holds
// fails the boot before anything is generated or trained. Each boot-complete
// event carries the tenant's own elapsed time: boots overlap, so the fleet's
// total is not their sum.
func (r *Router) boot(ctx context.Context, spec TenantSpec) (_ *Shard, err error) {
	start := time.Now()
	event := func(format string, args ...any) {
		if r.cfg.OnEvent != nil {
			r.cfg.OnEvent(spec.Name, fmt.Sprintf(format, args...))
		}
	}
	elapsed := func() time.Duration { return time.Since(start).Round(time.Millisecond) }
	var st *store.Store
	if r.cfg.StateDir != "" {
		if st, err = store.Open(filepath.Join(r.cfg.StateDir, spec.Name)); err != nil {
			return nil, err
		}
		defer func() {
			if err != nil {
				st.Close()
			}
		}()
	}
	w, err := r.workload(spec)
	if err != nil {
		return nil, err
	}
	be, err := backend.New(spec.Backend, w.DB, w.Stats)
	if err != nil {
		return nil, err
	}
	sysCfg := r.cfg.System
	sysCfg.Seed = spec.Seed
	sys, err := core.New(w, sysCfg, core.WithBackend(be))
	if err != nil {
		return nil, err
	}

	sh := &Shard{Spec: spec, Sys: sys, W: w, Store: st}
	loopCfg := r.cfg.Loop

	if r.cfg.Role == "follower" {
		return r.bootFollower(ctx, sh, loopCfg, event, elapsed)
	}

	warm := false
	if st != nil {
		_, warm = st.Latest()
	}
	switch {
	case warm:
		info, err := sys.RecoverOnline(loopCfg, st)
		if err != nil {
			return nil, err
		}
		sh.Recovery = info
		event("warm restart: checkpoint=%s epoch=%d buffer=%d walReplayed=%d in %s",
			info.Checkpoint, info.Epoch, info.BufferRestored, info.WALReplayed, elapsed())
	case st != nil:
		event("cold start: training (backend=%s workload=%s scale=%g seed=%d)",
			spec.Backend, spec.Workload, spec.Scale, spec.Seed)
		if err := sys.TrainContext(ctx, nil); err != nil {
			return nil, err
		}
		if _, err := sys.RecoverOnline(loopCfg, st); err != nil {
			return nil, err
		}
		if r.cfg.CheckpointOnBoot {
			if _, err := sys.Online().Checkpoint(); err != nil {
				return nil, err
			}
		}
		event("cold start: trained and durable: epoch=%d in %s", sys.Online().Epoch(), elapsed())
	default:
		event("cold start: training in memory (backend=%s workload=%s scale=%g seed=%d)",
			spec.Backend, spec.Workload, spec.Scale, spec.Seed)
		if err := sys.TrainContext(ctx, nil); err != nil {
			return nil, err
		}
		if err := sys.EnableOnline(loopCfg); err != nil {
			return nil, err
		}
		event("cold start: trained in memory: epoch=%d in %s", sys.Online().Epoch(), elapsed())
	}

	byID := map[string]*query.Query{}
	for _, q := range w.All() {
		byID[q.ID] = q
	}
	sh.HTTP = service.NewHTTPServer(sys.Online(), service.HTTPOptions{
		Resolve:    func(id string) *query.Query { return byID[id] },
		MaxPending: r.cfg.MaxPending,
	})
	return sh, nil
}

// bootFollower brings a shard up as a read-only replica: wait for the
// leader's first checkpoint on its /v1/t/{tenant}/repl endpoints, install
// it, and start the tailer that hot-swaps every later generation. A follower
// never trains — boot cost is one checkpoint fetch.
func (r *Router) bootFollower(ctx context.Context, sh *Shard, loopCfg service.Config, event func(string, ...any), elapsed func() time.Duration) (*Shard, error) {
	spec, sys := sh.Spec, sh.Sys
	leader := spec.Leader
	if leader == "" {
		leader = r.cfg.LeaderAddr // checkSpec refused a follower with neither
	}
	base := leader + "/v1/t/" + spec.Name
	bootTimeout := r.cfg.ReplBootTimeout
	if bootTimeout <= 0 {
		bootTimeout = 2 * time.Minute
	}
	wctx, cancel := context.WithTimeout(ctx, bootTimeout)
	defer cancel()

	src := repl.NewHTTPSource(base)
	event("follower boot: waiting for leader checkpoint (source=%s timeout=%s)", src, bootTimeout)
	m, ck, err := repl.WaitForCheckpoint(wctx, src, 0)
	if err != nil {
		return nil, fmt.Errorf("shard: follower %q: %w", spec.Name, err)
	}
	if m.Backend != "" && m.Backend != spec.Backend {
		return nil, fmt.Errorf("shard: follower %q: leader checkpoint is backend %q, shard configured %q: %w",
			spec.Name, m.Backend, spec.Backend, fosserr.ErrBackendMismatch)
	}
	if err := sys.EnableFollower(loopCfg, ck); err != nil {
		return nil, fmt.Errorf("shard: follower %q: %w", spec.Name, err)
	}
	event("follower serving: checkpoint=%s epoch=%d walseq=%d in %s", m.Checkpoint, ck.Epoch, ck.WALSeq, elapsed())

	tl := repl.New(repl.Config{
		Source:        src,
		Interval:      r.cfg.ReplInterval,
		InitialEpoch:  ck.Epoch,
		InitialWALSeq: ck.WALSeq,
		Apply: func(_ store.Manifest, ck store.Checkpoint) error {
			return sys.Online().ApplyCheckpoint(ck)
		},
		OnEvent: func(msg string) { event("%s", msg) },
	})
	tl.Start()
	sh.Tailer = tl

	byID := map[string]*query.Query{}
	for _, q := range sh.W.All() {
		byID[q.ID] = q
	}
	sh.HTTP = service.NewHTTPServer(sys.Online(), service.HTTPOptions{
		Resolve:         func(id string) *query.Query { return byID[id] },
		MaxPending:      r.cfg.MaxPending,
		LeaderAddr:      leader,
		ReplStats:       tl.Stats,
		ForwardFeedback: service.NewFeedbackForwarder(base),
	})
	return sh, nil
}

// Close drains the whole fleet: new routes are refused immediately, every
// shard drains in parallel under the shared ctx (stop intake → await or
// cancel in-flight retrain → final checkpoint → release WAL lock).
// Idempotent; concurrent callers all observe the one drain's result (the
// first error, if any).
func (r *Router) Close(ctx context.Context) error {
	r.closeOnce.Do(func() {
		r.mu.Lock()
		r.closed = true
		shards := make([]*Shard, 0, len(r.shards))
		for _, sh := range r.shards {
			shards = append(shards, sh)
		}
		r.mu.Unlock()

		var wg sync.WaitGroup
		errs := make([]error, len(shards))
		for i, sh := range shards {
			wg.Add(1)
			go func(i int, sh *Shard) {
				defer wg.Done()
				if err := sh.Close(ctx); err != nil {
					errs[i] = fmt.Errorf("tenant %q: %w", sh.Spec.Name, err)
				} else if r.cfg.OnEvent != nil {
					r.cfg.OnEvent(sh.Spec.Name, fmt.Sprintf("drained: %s", sh.Sys.OnlineStats()))
				}
			}(i, sh)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			// Every failed tenant is reported: an operator draining for a
			// deploy needs to know each shard whose final checkpoint is
			// stale, not just the first.
			r.closeErr = fmt.Errorf("shard: close: %w", err)
		}
	})
	return r.closeErr
}

// ---- service.TenantRegistry ----

// TenantServer implements service.TenantRegistry.
func (r *Router) TenantServer(name string) (*service.HTTPServer, error) {
	sh, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	return sh.HTTP, nil
}

// TenantNames implements service.TenantRegistry.
func (r *Router) TenantNames() []string { return r.Names() }

// CreateTenant implements service.TenantRegistry: live shard creation from
// a wire spec. The new shard trains (or warm-starts) before the call
// returns; canceling ctx aborts the boot.
func (r *Router) CreateTenant(ctx context.Context, spec service.WireTenantSpec) (*service.HTTPServer, error) {
	sh, err := r.Create(ctx, TenantSpec{
		Name:     spec.Tenant,
		Workload: spec.Workload,
		Backend:  spec.Backend,
		Scale:    spec.Scale,
		Seed:     spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	return sh.HTTP, nil
}
