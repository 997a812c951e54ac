// Command fossd trains FOSS on one workload and either evaluates it against
// the expert optimizer on the train/test splits or, with -serve-http, keeps
// the trained doctor up as a JSON HTTP service. Evaluation serves queries
// concurrently, as wide as the cores, through the runtime's cached optimize
// path. With -online it instead runs the online doctor loop over a drifting
// query stream, offline: feedback ingestion, drift-aware background
// retraining, and zero-downtime model hot-swap, reported against a frozen
// copy of the offline model.
//
// Usage:
//
//	fossd -workload job -scale 0.5 -iters 6 -sim 120 -real 30 -validate 30
//	fossd -workload job -scale 0.5 -iters 4 -online -drift selectivity -sync-retrain
//	fossd -workload job -backend gaussim -iters 4
//	fossd -workload job -iters 4 -serve-http :8475
//	fossd -workload job -iters 4 -serve-http :8475 -state-dir ./state
//	fossd -iters 4 -serve-http :8475 -state-dir ./state \
//	      -tenants acme,globex -tenant-spec 'globex=backend:gaussim'
//
// With -serve-http fossd serves a fleet of doctors behind
// /v1/t/{tenant}/... endpoints (optimize, feedback, stats, checkpoint,
// catalog for live DDL, explain, advisor, metrics) plus the aggregate
// /v1/stats, /v1/tenants and /metrics, until interrupted. Each tenant is a
// full doctor — own backend, workload, plan cache. Without -tenants /
// -tenant-spec the fleet has one tenant, "default", built from
// -workload/-backend/-scale/-seed: a single-tenant server is a fleet of one,
// reached at /v1/t/default/....
//
// With -state-dir every tenant is durable under <state-dir>/<tenant>/:
// trained weights checkpoint to disk (atomically, on every hot-swap and
// every -checkpoint-every records), executed-plan feedback journals to a WAL
// before ingestion, and a restart with the same -state-dir warm-starts —
// model, execution buffer, and epoch recover from disk, the WAL tail
// replays, and serving resumes bit-identical to the pre-crash replica with
// no retraining. SIGTERM drains the fleet losslessly — in-flight requests
// finish, retrains drain (or are canceled past -drain-timeout), a final
// checkpoint lands per tenant.
//
// The fleet's consistent-hash front end is its own binary: cmd/fossgate.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/foss-db/foss/internal/backend"
	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/learner"
	"github.com/foss-db/foss/internal/metrics"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/runtime"
	"github.com/foss-db/foss/internal/shard"
	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/workload"
)

func main() {
	var (
		wl          = flag.String("workload", "job", "workload: job | tpcds | stack")
		scale       = flag.Float64("scale", 0.5, "data scale factor")
		seed        = flag.Int64("seed", 1, "random seed")
		iters       = flag.Int("iters", 6, "training iterations")
		simEp       = flag.Int("sim", 120, "simulated episodes per iteration")
		realEp      = flag.Int("real", 30, "real episodes per iteration")
		validate    = flag.Int("validate", 30, "promising plans validated per iteration")
		agents      = flag.Int("agents", 1, "number of agents")
		maxSteps    = flag.Int("maxsteps", 3, "episode length")
		verbose     = flag.Bool("v", false, "per-query output")
		diag        = flag.Bool("diag", false, "print candidate sequences with true latencies")
		rollouts    = flag.Int("rollouts", 4, "inference rollouts per agent")
		cacheSize   = flag.Int("cache", 256, "plan cache capacity in entries (0 disables)")
		backendName = flag.String("backend", "selinger", "optimizer backend: selinger | gaussim")
		serveHTTP   = flag.String("serve-http", "", "after training, serve the doctor fleet as a JSON HTTP service on this address (e.g. :8475); endpoints live under /v1/t/{tenant}/")
		stateDir    = flag.String("state-dir", "", "durable state directory (checkpoints + feedback WAL): each tenant gets <state-dir>/<tenant>/, and a tenant whose directory holds a checkpoint warm-starts from disk, skipping training")
		ckEvery     = flag.Int("checkpoint-every", 64, "recorded executions between periodic checkpoints when -state-dir is set (0 = only on hot-swaps and POST /v1/checkpoint)")

		tenants      = flag.String("tenants", "", "comma-separated tenant names: serve a sharded multi-tenant fleet (requires -serve-http); each tenant gets a full doctor over the default workload/backend/scale with a name-derived seed. Without -tenants/-tenant-spec the fleet is one tenant, \"default\", at exactly -workload/-backend/-scale/-seed (-seed 0 is name-derived like any tenant's)")
		tenantSpec   = flag.String("tenant-spec", "", "heterogeneous tenants: 'name=key:val,...;name2=...' with keys workload|backend|scale|seed|leader (merges with -tenants)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "shutdown budget: in-flight retrains past it are canceled (final checkpoints are still taken)")

		role            = flag.String("role", "leader", "replica role for -serve-http: leader trains/journals/checkpoints; follower boots from the leader's newest checkpoint, serves read-only, and hot-swaps each published generation (needs -leader-addr or a shared -state-dir)")
		leaderAddr      = flag.String("leader-addr", "", "leader base URL for -role follower (e.g. http://host:8475); checkpoints replicate over /v1/t/{tenant}/repl/* and /v1/feedback forwards to the leader")
		replInterval    = flag.Duration("repl-interval", 500*time.Millisecond, "follower manifest poll cadence — the replication-lag SLO")
		replBootTimeout = flag.Duration("repl-boot-timeout", 2*time.Minute, "how long a follower boot waits for the leader's first checkpoint")

		online       = flag.Bool("online", false, "after training, run the online doctor loop over a drift scenario (feedback ingestion, drift-aware background retraining, zero-downtime hot-swap)")
		drift        = flag.String("drift", "selectivity", "drift scenario for -online: template-mix | selectivity | novel-template | schema-evolution (applies a live DDL batch at the shift)")
		driftSeed    = flag.Int64("drift-seed", 7, "drift scenario seed")
		preLen       = flag.Int("pre", 40, "queries served before the distribution shift")
		postLen      = flag.Int("post", 80, "queries served after the distribution shift")
		window       = flag.Int("window", 16, "drift detector rolling window (records)")
		threshold    = flag.Float64("threshold", 1.1, "mean regression-vs-expert ratio that signals drift")
		noveltyFrac  = flag.Float64("novelty", 0.5, "novel-fingerprint window fraction that signals drift (0 disables)")
		retrainIters = flag.Int("retrain-iters", 2, "learner iterations per background retrain")
		syncRetrain  = flag.Bool("sync-retrain", false, "retrain synchronously inside Record (deterministic) instead of in the background")

		tierMemory = flag.Bool("tier-memory", true, "tier-0 plan memory: pin feedback-proven plans per fingerprint and serve repeats in microseconds (invalidated on hot-swap, persisted with -state-dir)")
		tierGreedy = flag.Bool("tier-greedy", false, "tier-1 greedy micro-planner: statistics-free join ordering for seen-but-unpinned fingerprints (plans may differ from the doctor's until feedback escalates them)")

		advisor    = flag.Bool("advisor", true, "async self-diagnosis advisor: watch the feedback stream off the serve path and emit structured findings (regression-vs-expert, plan-memory thrash, cooldown-blocked drift, schema churn) on GET /v1/advisor")
		advisorWin = flag.Int("advisor-window", 64, "advisor regression window (records); a regression finding needs a full window")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.MaxSteps = *maxSteps
	cfg.Agents = *agents
	cfg.PlanCache = *cacheSize
	cfg.Learner.Iterations = *iters
	cfg.Learner.RealPerIter = *realEp
	cfg.Learner.SimPerIter = *simEp
	cfg.Learner.ValidatePerIter = *validate
	cfg.Learner.InferenceRollouts = *rollouts
	o := onlineOpts{
		kind: *drift, driftSeed: *driftSeed, pre: *preLen, post: *postLen,
		window: *window, threshold: *threshold, noveltyFrac: *noveltyFrac,
		retrainIters: *retrainIters, sync: *syncRetrain, ckEvery: *ckEvery,
		tierMemory: *tierMemory, tierGreedy: *tierGreedy,
		advisor: *advisor, advisorWin: *advisorWin,
	}

	// Serving mode: the fleet path owns workload loading, training or
	// warm-start, the wire surface, and the drain lifecycle per tenant — for
	// one tenant exactly as for many.
	if *serveHTTP != "" {
		if *online {
			fmt.Fprintln(os.Stderr, "-online is the offline drift demo; it does not combine with -serve-http")
			os.Exit(1)
		}
		defaults := shard.TenantSpec{Workload: *wl, Backend: *backendName, Scale: *scale, Seed: *seed}
		specs, err := parseTenantSpecs(*tenants, *tenantSpec, defaults)
		if err == nil && *stateDir != "" && specs[0].Name == "default" {
			err = rootStoreErr(*stateDir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tenants:", err)
			os.Exit(1)
		}
		err = runSharded(context.Background(), shard.Config{
			System:           cfg,
			Loop:             o.loopConfig(),
			Defaults:         defaults,
			StateDir:         *stateDir,
			CheckpointOnBoot: *stateDir != "" && *role != "follower",
			Role:             *role,
			LeaderAddr:       *leaderAddr,
			ReplInterval:     *replInterval,
			ReplBootTimeout:  *replBootTimeout,
		}, specs, *serveHTTP, *drainTimeout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleet:", err)
			os.Exit(1)
		}
		return
	}
	if *tenants != "" || *tenantSpec != "" || *role == "follower" {
		fmt.Fprintln(os.Stderr, "-tenants, -tenant-spec and -role follower require -serve-http")
		os.Exit(1)
	}

	start := time.Now()
	w, err := workload.Load(*wl, workload.Options{Seed: *seed, Scale: *scale})
	if err != nil {
		fmt.Fprintln(os.Stderr, "load:", err)
		os.Exit(1)
	}
	fmt.Printf("workload %s: %d tables, %d rows, %d train / %d test queries\n",
		w.Name, len(w.DB.Tables), w.DB.TotalRows(), len(w.Train), len(w.Test))

	be, err := backend.New(*backendName, w.DB, w.Stats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "backend:", err)
		os.Exit(1)
	}
	sys, err := core.New(w, cfg, core.WithBackend(be))
	if err != nil {
		fmt.Fprintln(os.Stderr, "new:", err)
		os.Exit(1)
	}
	fmt.Printf("runtime: backend=%s cache=%d\n", be.Name(), *cacheSize)

	// -online journals and checkpoints its loop when -state-dir is set.
	if *online && *stateDir != "" {
		st, err := store.Open(*stateDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "state-dir:", err)
			os.Exit(1)
		}
		defer st.Close()
		o.st = st
	}

	ctx := context.Background()
	err = sys.TrainContext(ctx, func(st learner.IterStats) {
		fmt.Printf("iter %d: buffer=%d aamLoss=%.3f aamAcc=%.2f ppoKL=%.4f validated=%d elapsed=%s\n",
			st.Iter, st.BufferSize, st.AAMLoss, st.AAMAccuracy, st.PPO.ApproxKL, st.Validated,
			time.Since(start).Truncate(time.Second))
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}

	// Evaluation serves queries concurrently through the runtime: requests
	// fan out over the cores, results land in per-query slots so output and
	// aggregate metrics stay deterministic.
	eval := func(name string, qs []*query.Query) {
		type row struct {
			foss, pg metrics.QueryResult
			ok       bool
		}
		rows := make([]row, len(qs))
		// ctx is never canceled, so Fan has no error to return.
		_ = runtime.Fan(ctx, len(qs), func(i int) {
			q := qs[i]
			fcp, _, ot, err := sys.OptimizeCachedContext(ctx, q)
			if err != nil {
				fmt.Fprintf(os.Stderr, "optimize %s: %v\n", q.ID, err)
				return
			}
			ecp, eot, err := sys.ExpertPlan(q)
			if err != nil {
				return
			}
			fl, el := sys.Execute(fcp), sys.Execute(ecp)
			rows[i] = row{
				foss: metrics.QueryResult{QueryID: q.ID, LatencyMs: fl, OptTimeMs: ot.Seconds() * 1000},
				pg:   metrics.QueryResult{QueryID: q.ID, LatencyMs: el, OptTimeMs: eot.Seconds() * 1000},
				ok:   true,
			}
		})
		var fossRes, pgRes []metrics.QueryResult
		wins, losses, changed := 0, 0, 0
		for i, r := range rows {
			if !r.ok {
				continue
			}
			fossRes = append(fossRes, r.foss)
			pgRes = append(pgRes, r.pg)
			fl, el := r.foss.LatencyMs, r.pg.LatencyMs
			if fl < el*0.99 {
				wins++
			} else if fl > el*1.01 {
				losses++
			}
			if fl != el {
				changed++
			}
			if *verbose {
				fmt.Printf("  %-10s expert=%9.3fms foss=%9.3fms speedup=%5.2fx\n", qs[i].ID, el, fl, el/fl)
			}
		}
		fmt.Printf("%s: WRL=%.3f GMRL=%.3f wins=%d losses=%d changed=%d/%d\n",
			name, metrics.WRL(fossRes, pgRes), metrics.GMRL(fossRes, pgRes), wins, losses, changed, len(qs))
	}
	eval("train", w.Train)
	eval("test ", w.Test)
	printCacheStats(sys)
	if *diag {
		fmt.Println("--- test candidate diagnosis ---")
		diagnose(sys, w.Test)
	}

	if *online {
		fmt.Println("--- online doctor loop ---")
		if err := runOnline(ctx, sys, buildFrozen(sys), w, o); err != nil {
			fmt.Fprintln(os.Stderr, "online:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("training time: %s\n", sys.TrainingTime().Truncate(time.Millisecond))
}
