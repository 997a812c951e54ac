// Benchmarks regenerating every table and figure of the paper's evaluation
// section at reduced training budgets (-fast). Each bench runs its
// experiment once per iteration and reports wall-clock; use cmd/fossbench
// for full-budget runs and readable reports.
package foss_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/experiments"
	"github.com/foss-db/foss/internal/gate"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/runtime"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/shard"
	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/tier"
	"github.com/foss-db/foss/internal/workload"
)

// benchOpts keeps every experiment small enough for testing.B cycles.
func benchOpts() experiments.Opts {
	return experiments.Opts{Scale: 0.2, Seed: 1, Fast: true}
}

// BenchmarkTrainParallel measures the FOSS training loop on the JOB workload
// at different episode fan-outs. workers=1 is the sequential reference path;
// higher widths exercise the runtime pool's deterministic episode
// partitioning. Compare ns/op across sub-benchmarks for the speedup.
func BenchmarkTrainParallel(b *testing.B) {
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.35})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.StateNet = aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
				cfg.Workers = workers
				cfg.Learner.Iterations = 2
				cfg.Learner.RealPerIter = 12
				cfg.Learner.SimPerIter = 80
				cfg.Learner.ValidatePerIter = 12
				sys, err := core.New(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.TrainContext(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeOnline measures one full online doctor-loop turn
// (Serve → Execute → Record) on a trained system with the plan cache warm
// and drift triggers disabled: the steady-state serving cost of the online
// subsystem, reported per request.
func BenchmarkServeOnline(b *testing.B) {
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.35})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.StateNet = aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	cfg.PlanCache = 256
	cfg.Learner.Iterations = 1
	cfg.Learner.RealPerIter = 6
	cfg.Learner.SimPerIter = 20
	cfg.Learner.ValidatePerIter = 6
	cfg.Learner.InferenceRollouts = 2
	sys, err := core.New(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		b.Fatal(err)
	}
	err = sys.EnableOnline(service.Config{
		// thresholds no serving pattern can trip: the bench isolates the
		// request path from retraining
		Detector:          service.DetectorConfig{Window: 32, Threshold: 1e12, MinSamples: 32, NoveltyFrac: 0},
		Cooldown:          1 << 30,
		RetrainIterations: 1,
		Background:        true,
	})
	if err != nil {
		b.Fatal(err)
	}
	queries := w.Train
	// Warmup: one pass fills the plan cache and the expert-latency cache so
	// the timed loop (which may be a single iteration under -benchtime 1x)
	// measures steady state, not first-touch misses.
	for _, q := range queries {
		if _, _, err := sys.ServeStepContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.ServeStepContext(context.Background(), queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// tieredBenchSystem trains the BenchmarkServeOnline fixture and enables the
// online loop with the given tier configuration.
func tieredBenchSystem(b *testing.B, tc tier.Config) *core.System {
	b.Helper()
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.35})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.StateNet = aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	cfg.PlanCache = 256
	cfg.Learner.Iterations = 1
	cfg.Learner.RealPerIter = 6
	cfg.Learner.SimPerIter = 20
	cfg.Learner.ValidatePerIter = 6
	cfg.Learner.InferenceRollouts = 2
	sys, err := core.New(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		b.Fatal(err)
	}
	err = sys.EnableOnline(service.Config{
		Detector:          service.DetectorConfig{Window: 32, Threshold: 1e12, MinSamples: 32, NoveltyFrac: 0},
		Cooldown:          1 << 30,
		RetrainIterations: 1,
		Background:        true,
		Tier:              tc,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkServeTiered measures the tiered serving path. "repeat" is the
// tier-0 hit: a fingerprint promoted into plan memory served over and over —
// one atomic load plus one read-locked map lookup, the path the tiering
// exists to create (compare against BenchmarkServeOnline's full turn).
// "novel" is the router's overhead on never-promoted traffic: the same
// serving loop as BenchmarkServeOnline with tiering enabled but an
// unreachable promotion threshold, so every request routes to tier 2.
func BenchmarkServeTiered(b *testing.B) {
	b.Run("repeat", func(b *testing.B) {
		sys := tieredBenchSystem(b, tier.Config{Memory: true, PromoteAfter: 2})
		ctx := context.Background()
		q := sys.W.Train[0]
		promoted := false
		for i := 0; i < 10 && !promoted; i++ {
			res, err := sys.ServeContext(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			promoted = res.Tier == tier.Tier0
			// A latency below any expert baseline: every record is a win.
			sys.Online().Record(q, res.Eval, 0.001)
		}
		if !promoted {
			b.Fatal("fixture never promoted a pin")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sys.ServeContext(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			if res.Tier != tier.Tier0 {
				b.Fatalf("tier %d mid-bench, want 0", res.Tier)
			}
		}
	})
	b.Run("novel", func(b *testing.B) {
		sys := tieredBenchSystem(b, tier.Config{Memory: true, PromoteAfter: 1 << 30})
		queries := sys.W.Train
		for _, q := range queries { // warmup as in BenchmarkServeOnline
			if _, _, err := sys.ServeStepContext(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := sys.ServeStepContext(context.Background(), queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCatalogApply measures one live DDL apply on a trained, tiered
// online loop: the copy-on-write world rebuild (storage, statistics,
// backend), the bumped-epoch republish, and the tier invalidation — the
// whole schema-evolution critical section, with no store attached so the
// number is the in-memory apply cost. Iterations alternate drop-index /
// add-index on the same hot column so every statement is valid.
func BenchmarkCatalogApply(b *testing.B) {
	sys := tieredBenchSystem(b, tier.Config{Memory: true, PromoteAfter: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kind := catalog.DDLDropIndex
		if i%2 == 1 {
			kind = catalog.DDLAddIndex
		}
		if _, err := sys.Online().ApplyDDL([]catalog.DDL{{Kind: kind, Table: "title", Column: "id"}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTier0RewarmAfterDDL measures the serving cost of a migration:
// one DDL apply (which invalidates every tier-0 pin) plus the serves it
// takes the hot fingerprint to re-earn its pin and land back on tier 0 —
// the end-to-end latency tax a schema change levies on plan memory.
func BenchmarkTier0RewarmAfterDDL(b *testing.B) {
	sys := tieredBenchSystem(b, tier.Config{Memory: true, PromoteAfter: 2})
	ctx := context.Background()
	q := sys.W.Train[0]
	rewarm := func() {
		for i := 0; i < 10; i++ {
			res, err := sys.ServeContext(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			if res.Tier == tier.Tier0 {
				return
			}
			sys.Online().Record(q, res.Eval, 0.001)
		}
		b.Fatal("fingerprint never re-promoted after DDL")
	}
	rewarm() // initial promotion, outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kind := catalog.DDLDropIndex
		if i%2 == 1 {
			kind = catalog.DDLAddIndex
		}
		if _, err := sys.Online().ApplyDDL([]catalog.DDL{{Kind: kind, Table: "title", Column: "id"}}); err != nil {
			b.Fatal(err)
		}
		rewarm()
	}
}

// BenchmarkServeWithMetrics measures the steady-state serve turn with the
// observability surface active and under scrape pressure: every op is the
// same Serve → Execute → Record turn as BenchmarkServeOnline (each landing
// in the per-tier latency histogram), while a background scraper snapshots
// the histograms and counters at a Prometheus-like cadence. Compare ns/op
// against BenchmarkServeOnline directly — the recording path is two atomic
// adds plus a bit-length per serve, budgeted at <=2% overhead.
func BenchmarkServeWithMetrics(b *testing.B) {
	sys := tieredBenchSystem(b, tier.Config{})
	queries := sys.W.Train
	for _, q := range queries { // warmup as in BenchmarkServeOnline
		if _, _, err := sys.ServeStepContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	lp := sys.Online()
	stop := make(chan struct{})
	donescrape := make(chan struct{})
	go func() {
		defer close(donescrape)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				_ = lp.ServeHistograms()
				_ = lp.Stats()
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.ServeStepContext(context.Background(), queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-donescrape
	if lp.ServeHistograms()[tier.Tier2].Count() == 0 {
		b.Fatal("no serve landed in the histogram; the metrics path was not exercised")
	}
}

// BenchmarkTierRouter isolates the routing decision itself: one pinned
// lookup (tier-0 hit) and one unknown fingerprint (tier-2 fallthrough) per
// op, on a router holding a pin.
func BenchmarkTierRouter(b *testing.B) {
	m := tier.NewMemory(tier.Config{Memory: true, Greedy: true, PromoteAfter: 1})
	id := runtime.Identity{Backend: "selinger", Epoch: 1}
	q := &query.Query{
		ID: "r", Template: "t",
		Tables:  []query.TableRef{{Table: "ta", Alias: "a"}},
		Filters: []query.Filter{{Alias: "a", Col: "c", Op: query.Eq, Val: 1}},
	}
	fp := q.Fingerprint()
	icp, ok := tier.Greedy(q)
	if !ok {
		b.Fatal("greedy rejected the fixture query")
	}
	pe := &planner.PlanEval{Q: q, ICP: icp}
	if out := m.Observe(id, fp, q, pe, 1, 10); !out.Promoted {
		b.Fatalf("fixture did not promote: %+v", out)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := m.Route(id, fp); d.Tier != tier.Tier0 {
			b.Fatal("pinned fingerprint missed")
		}
		if d := m.Route(id, fp+1); d.Tier != tier.Tier2 {
			b.Fatal("unknown fingerprint hit")
		}
	}
}

// durableBenchSystem trains a tiny doctor with a durable online loop rooted
// at dir, the shared fixture of the durability benchmarks.
func durableBenchSystem(b *testing.B, dir string) (*core.System, *store.Store) {
	b.Helper()
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.35})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.StateNet = aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	cfg.Learner.Iterations = 1
	cfg.Learner.RealPerIter = 6
	cfg.Learner.SimPerIter = 20
	cfg.Learner.ValidatePerIter = 6
	cfg.Learner.InferenceRollouts = 2
	sys, err := core.New(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	_, err = sys.RecoverOnline(service.Config{
		Detector:   service.DetectorConfig{Window: 32, Threshold: 1e12, MinSamples: 32},
		Cooldown:   1 << 30,
		Background: false,
	}, st)
	if err != nil {
		b.Fatal(err)
	}
	return sys, st
}

// BenchmarkCheckpoint measures one durable checkpoint of a live doctor:
// quiesce + model save + buffer export + seal + atomic file write + manifest
// repoint — the cost the loop pays on every hot-swap and every
// CheckpointEvery-th record.
func BenchmarkCheckpoint(b *testing.B) {
	sys, _ := durableBenchSystem(b, b.TempDir())
	// A realistic buffer: some served feedback beyond the training fills.
	for _, q := range sys.W.Train[:8] {
		if _, _, err := sys.ServeStepContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Online().Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALReplay measures a warm restart: load the checkpoint from
// disk, rebuild the execution buffer, and replay a 32-record WAL tail
// (deterministic hint re-completion + re-encoding per record) into a fresh
// system — the recovery path a crashed fossd walks before serving again.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	sys, origStore := durableBenchSystem(b, dir)
	if _, err := sys.Online().Checkpoint(); err != nil {
		b.Fatal(err)
	}
	// Everything recorded after the checkpoint lives only in the WAL tail.
	for i := 0; i < 32; i++ {
		q := sys.W.Train[i%len(sys.W.Train)]
		if _, _, err := sys.ServeStepContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	cfg := sys.Cfg
	cfg.Seed = 99
	// Release the live doctor's directory lock: each timed recovery below
	// opens the state dir the way a restarted process would.
	if err := origStore.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		fresh, err := core.New(sys.W, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		info, err := fresh.RecoverOnline(service.Config{
			Detector:   service.DetectorConfig{Window: 32, Threshold: 1e12, MinSamples: 32},
			Cooldown:   1 << 30,
			Background: false,
		}, st)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if !info.Recovered || info.WALReplayed == 0 {
			b.Fatalf("recovery did not replay: %+v", info)
		}
		st.Close()
		b.StartTimer()
	}
}

// BenchmarkShardedServe measures multi-tenant serving through the shard
// router: one full doctor-loop turn per op, round-robined across the fleet,
// with every tenant sharing one bounded worker pool. Compare tenants=1
// against tenants=4 — per-request cost should stay flat as the fleet grows,
// because shards share nothing on the request path (the shared pool only
// carries training fan-out).
func BenchmarkShardedServe(b *testing.B) {
	for _, tenants := range []int{1, 4} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			sysCfg := core.DefaultConfig()
			sysCfg.StateNet = aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
			sysCfg.PlanCache = 256
			sysCfg.Learner.Iterations = 1
			sysCfg.Learner.RealPerIter = 6
			sysCfg.Learner.SimPerIter = 20
			sysCfg.Learner.ValidatePerIter = 6
			sysCfg.Learner.InferenceRollouts = 2
			specs := make([]shard.TenantSpec, tenants)
			for i := range specs {
				specs[i] = shard.TenantSpec{Name: fmt.Sprintf("t%d", i)}
			}
			router, err := shard.NewRouter(context.Background(), shard.Config{
				System: sysCfg,
				Loop: service.Config{
					Detector:   service.DetectorConfig{Window: 32, Threshold: 1e12, MinSamples: 32},
					Cooldown:   1 << 30,
					Background: true,
				},
				Defaults: shard.TenantSpec{Workload: "job", Scale: 0.35, Seed: 1},
				Workers:  2,
			}, specs)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { router.Close(context.Background()) })
			names := router.Names()
			shards := make([]*shard.Shard, len(names))
			for i, name := range names {
				sh, err := router.Get(name)
				if err != nil {
					b.Fatal(err)
				}
				shards[i] = sh
				// Warmup fills each tenant's plan cache and expert baseline.
				for _, q := range sh.W.Train {
					if _, _, err := sh.Step(context.Background(), q); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh := shards[i%len(shards)]
				q := sh.W.Train[i%len(sh.W.Train)]
				if _, _, err := sh.Step(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGateProxy measures one serving round-trip through the fleet
// gate: HTTP in at the gate, consistent-hash owner lookup, proxied optimize
// on the owning member, response relayed back. Compare against
// BenchmarkShardedServe for the wire + routing overhead on top of the
// in-process serve path.
func BenchmarkGateProxy(b *testing.B) {
	sysCfg := core.DefaultConfig()
	sysCfg.StateNet = aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	sysCfg.PlanCache = 256
	sysCfg.Learner.Iterations = 1
	sysCfg.Learner.RealPerIter = 6
	sysCfg.Learner.SimPerIter = 20
	sysCfg.Learner.ValidatePerIter = 6
	sysCfg.Learner.InferenceRollouts = 2
	router, err := shard.NewRouter(context.Background(), shard.Config{
		System: sysCfg,
		Loop: service.Config{
			Detector:   service.DetectorConfig{Window: 32, Threshold: 1e12, MinSamples: 32},
			Cooldown:   1 << 30,
			Background: true,
		},
		Defaults: shard.TenantSpec{Workload: "job", Scale: 0.35, Seed: 1},
		Workers:  2,
	}, []shard.TenantSpec{{Name: "t0"}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { router.Close(context.Background()) })
	member := httptest.NewServer(service.NewMultiHTTPServer(router))
	b.Cleanup(member.Close)
	p, err := gate.NewProxy(gate.Options{Members: []string{member.URL}})
	if err != nil {
		b.Fatal(err)
	}
	gw := httptest.NewServer(p)
	b.Cleanup(gw.Close)

	sh, err := router.Get("t0")
	if err != nil {
		b.Fatal(err)
	}
	post := func(qid string) {
		resp, err := http.Post(gw.URL+"/v1/t/t0/optimize", "application/json",
			strings.NewReader(`{"query_id": "`+qid+`"}`))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("gate optimize: %s", resp.Status)
		}
	}
	for _, q := range sh.W.Train {
		post(q.ID) // warm plan caches through the full proxied path
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(sh.W.Train[i%len(sh.W.Train)].ID)
	}
}

// BenchmarkTableI_JOB regenerates the JOB column of Table I (all six
// optimizers, WRL/GMRL train+test, workload runtime).
func BenchmarkTableI_JOB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableI(io.Discard, []string{"job"}, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI_TPCDS regenerates the TPC-DS column of Table I.
func BenchmarkTableI_TPCDS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableI(io.Discard, []string{"tpcds"}, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI_Stack regenerates the Stack column of Table I.
func BenchmarkTableI_Stack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableI(io.Discard, []string{"stack"}, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_Speedup derives Fig. 4's relative-speedup bars from a JOB
// Table I run.
func BenchmarkFig4_Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableI(io.Discard, []string{"job"}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		experiments.Fig4(io.Discard, rows)
	}
}

// BenchmarkFig5_TrainingCurves regenerates the JOB training curves of Fig 5.
func BenchmarkFig5_TrainingCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(io.Discard, "job", benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6_OptTime regenerates the optimization-time box plots of Fig 6.
func BenchmarkFig6_OptTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(io.Discard, "job", benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7_StepsDist regenerates the maxsteps step-distribution of Fig 7.
func BenchmarkFig7_StepsDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(io.Discard, "job", benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8_KnownBest regenerates the ranked-savings curves of Fig 8.
func BenchmarkFig8_KnownBest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(io.Discard, "job", benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_Ablations regenerates the design-choice Table II.
func BenchmarkTableII_Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(io.Discard, "job", benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9_AblationCurves regenerates the GMRL ablation curves of Fig 9
// (restricted to the two cheapest configs to keep bench cycles bounded).
func BenchmarkFig9_AblationCurves(b *testing.B) {
	cfgs := []experiments.AblationName{experiments.Maxsteps2, experiments.OffPenalty}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(io.Discard, "job", benchOpts(), cfgs); err != nil {
			b.Fatal(err)
		}
	}
}
