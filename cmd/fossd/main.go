// Command fossd trains FOSS on one workload and either evaluates it against
// the expert optimizer on the train/test splits or, with -serve-http, keeps
// the trained doctor up as a JSON HTTP service. Evaluation serves queries
// concurrently, as wide as the cores, through the runtime's cached optimize
// path. The served fleet runs the online doctor loop — feedback ingestion,
// drift-aware background retraining, zero-downtime model hot-swap, tier-0
// plan memory, the advisor — at service.DefaultConfig(); the loop's tunables
// are library configuration (examples/doctor, benchmark's drift_learn), not
// flags.
//
// Usage:
//
//	fossd -workload job -scale 0.5 -iters 6 -sim 120 -real 30 -validate 30
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
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/shard"
	"github.com/foss-db/foss/internal/workload"
)

// planCacheEntries is the plan-cache capacity fossd runs with — the capacity
// benchmark/ measures.
const planCacheEntries = 256

func main() {
	cfg := core.DefaultConfig()
	cfg.PlanCache = planCacheEntries
	loop := service.DefaultConfig()
	var (
		wl          = flag.String("workload", "job", "workload: job | tpcds | stack")
		scale       = flag.Float64("scale", 0.5, "data scale factor")
		seed        = flag.Int64("seed", cfg.Seed, "random seed")
		iters       = flag.Int("iters", cfg.Learner.Iterations, "training iterations")
		simEp       = flag.Int("sim", cfg.Learner.SimPerIter, "simulated episodes per iteration")
		realEp      = flag.Int("real", cfg.Learner.RealPerIter, "real episodes per iteration")
		validate    = flag.Int("validate", cfg.Learner.ValidatePerIter, "promising plans validated per iteration")
		rollouts    = flag.Int("rollouts", cfg.Learner.InferenceRollouts, "inference rollouts per agent")
		backendName = flag.String("backend", "selinger", "optimizer backend: selinger | gaussim")
		serveHTTP   = flag.String("serve-http", "", "after training, serve the doctor fleet as a JSON HTTP service on this address (e.g. :8475); endpoints live under /v1/t/{tenant}/")
		stateDir    = flag.String("state-dir", "", "durable state directory (checkpoints + feedback WAL): each tenant gets <state-dir>/<tenant>/, and a tenant whose directory holds a checkpoint warm-starts from disk, skipping training (requires -serve-http)")
		ckEvery     = flag.Int("checkpoint-every", loop.CheckpointEvery, "recorded executions between periodic checkpoints when -state-dir is set (0 = only on hot-swaps and POST /v1/checkpoint)")

		tenants      = flag.String("tenants", "", "comma-separated tenant names: serve a sharded multi-tenant fleet (requires -serve-http); each tenant gets a full doctor over the default workload/backend/scale with a name-derived seed. Without -tenants/-tenant-spec the fleet is one tenant, \"default\", at exactly -workload/-backend/-scale/-seed (-seed 0 is name-derived like any tenant's)")
		tenantSpec   = flag.String("tenant-spec", "", "heterogeneous tenants: 'name=key:val,...;name2=...' with keys workload|backend|scale|seed|leader (merges with -tenants)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "shutdown budget: in-flight retrains past it are canceled (final checkpoints are still taken)")

		role            = flag.String("role", "leader", "replica role for -serve-http: leader trains/journals/checkpoints; follower boots from the leader's newest checkpoint over -leader-addr, serves read-only, and hot-swaps each published generation (holds no state: refused with -state-dir)")
		leaderAddr      = flag.String("leader-addr", "", "leader base URL for -role follower (e.g. http://host:8475); checkpoints replicate over /v1/t/{tenant}/repl/* and /v1/feedback forwards to the leader")
		replInterval    = flag.Duration("repl-interval", 500*time.Millisecond, "follower manifest poll cadence — the replication-lag SLO")
		replBootTimeout = flag.Duration("repl-boot-timeout", 2*time.Minute, "how long a follower boot waits for the leader's first checkpoint")
	)
	flag.Parse()

	cfg.Seed = *seed
	cfg.Learner.Iterations = *iters
	cfg.Learner.RealPerIter = *realEp
	cfg.Learner.SimPerIter = *simEp
	cfg.Learner.ValidatePerIter = *validate
	cfg.Learner.InferenceRollouts = *rollouts
	loop.CheckpointEvery = *ckEvery

	// Serving mode: the fleet path owns workload loading, training or
	// warm-start, the wire surface, and the drain lifecycle per tenant — for
	// one tenant exactly as for many.
	if *serveHTTP != "" {
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
			Loop:             loop,
			Defaults:         defaults,
			StateDir:         *stateDir,
			CheckpointOnBoot: *stateDir != "",
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
	if err := servingOnlyErr(*tenants, *tenantSpec, *role, *stateDir, *leaderAddr); err != nil {
		fmt.Fprintln(os.Stderr, err)
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
	fmt.Printf("runtime: backend=%s cache=%d\n", be.Name(), planCacheEntries)

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
			fcp, ot, err := sys.OptimizeContext(ctx, q)
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
		for _, r := range rows {
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
		}
		fmt.Printf("%s: WRL=%.3f GMRL=%.3f wins=%d losses=%d changed=%d/%d\n",
			name, metrics.WRL(fossRes, pgRes), metrics.GMRL(fossRes, pgRes), wins, losses, changed, len(qs))
	}
	eval("train", w.Train)
	eval("test ", w.Test)
	cs := sys.RT.CacheStats()
	fmt.Printf("plan cache: hits=%d misses=%d evictions=%d hitRate=%.1f%% size=%d/%d\n",
		cs.Hits, cs.Misses, cs.Evictions, 100*cs.HitRate(), cs.Size, cs.Capacity)
	fmt.Printf("training time: %s\n", sys.TrainingTime().Truncate(time.Millisecond))
}
