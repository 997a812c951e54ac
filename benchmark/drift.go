package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/workload"
)

const (
	crashTail = 32 // feedback records journaled past the last checkpoint when the crash hits
	probeSize = 16 // queries whose plans must survive a warm restart
)

// learningLoop is the serving configuration with the learning machinery in
// reach of the stream: fossd's -online thresholds, retraining synchronously
// inside the Record that trips the detector so the whole run is
// deterministic.
func learningLoop() service.Config {
	cfg := quietLoop()
	cfg.Detector = service.DetectorConfig{Window: 16, Threshold: 1.1, MinSamples: 16, NoveltyFrac: 0.5}
	cfg.Cooldown = 32
	cfg.RetrainIterations = 1
	cfg.RetrainQueries = 32
	cfg.Background = false
	return cfg
}

// runDriftLearn is the self-learning promise: one client, deterministic. A
// timed offline training run, then a durable loop serving a seeded
// selectivity-drift stream (serve, real execution, record) while the detector
// retrains and hot-swaps; then a crash with crashTail journaled records past
// the last checkpoint and warm restarts into fresh systems. learner, rl and
// aam training, the swap, the checkpoint and WAL replay do the work; the time
// of one serve is beside the point. The stream is a fixed number of turns,
// sized so the pass takes about as long as the duration-based ones; --seconds
// does not change it.
func runDriftLearn(ctx context.Context, env *runEnv) error {
	stateDir, err := os.MkdirTemp(env.outDir, "drift-state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)

	d, err := trainDoctor(ctx)
	if err != nil {
		return err
	}
	frozen, err := d.sys.Clone()
	if err != nil {
		return err
	}
	scenario, err := workload.Drift(d.w, workload.DriftSelectivity,
		workload.DriftOptions{Seed: env.seed, PreLen: size.pre, PostLen: size.post})
	if err != nil {
		return err
	}
	st, err := store.Open(stateDir)
	if err != nil {
		return err
	}
	if err := learnOnStream(ctx, env, d, frozen, st, scenario); err != nil {
		st.Close()
		return err
	}
	// Drain (final checkpoint) and hand the directory to the crash test.
	if err := d.sys.Close(ctx); err != nil {
		st.Close()
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	return crashAndRecover(ctx, env, d, stateDir, scenario.Pre[:probeSize])
}

// learnOnStream enables the durable learning loop on st and runs everything
// that needs it live: the contract of the offline model, the stream, and —
// traced — what the learning bought.
func learnOnStream(ctx context.Context, env *runEnv, d *doctor, frozen *core.System, st *store.Store, scenario *workload.DriftScenario) error {
	rec := env.rec
	if _, err := d.sys.RecoverOnline(learningLoop(), st); err != nil {
		return err
	}
	lp := d.sys.Online()
	env.setupDone(d.trainS, 1)
	rec.set("learner.iter_s", median(d.iterS), len(d.iterS))
	last := d.iters[len(d.iters)-1]
	rec.set("learner.buffer_size", float64(last.BufferSize), 1)
	rec.set("aam.val_accuracy", last.AAMAccuracy, 1)

	// The contract is stated for the doctor the stream starts from, over the
	// workload's own queries: deterministic, so its bound can be as tight as
	// on the other workloads. The second derivation rebuilds every plan from
	// its durable identity and executes it afresh.
	var offline, again []*planner.PlanEval
	for _, q := range baseQueries(d.w) {
		pe, _, _, err := frozen.OptimizeEvalContext(ctx, q)
		if err != nil {
			return fmt.Errorf("offline model, %s: %w", q.ID, err)
		}
		rec.attempted++
		if !coversAliases(q, pe.ICP.Order) {
			rec.violate("offline model, %s: join order %v does not cover the query's aliases", q.ID, pe.ICP.Order)
		}
		re, err := d.sys.RebuildEval(q, pe.ICP, pe.Step)
		if err != nil {
			return err
		}
		offline, again = append(offline, pe), append(again, re)
	}
	if err := recordContract(rec, servedSet{newSimDB(d.sys), offline, again}); err != nil {
		return err
	}

	// The stream. A turn whose Record started a retrain is timed apart: its
	// wall is the retrain, not the serve.
	stream := scenario.Stream()
	var turnUs, retrainS []float64
	var onlinePost, turnWall float64
	firstSwap := -1
	for i, q := range stream {
		before := lp.Stats().Retrains
		t0 := time.Now()
		res, err := d.sys.ServeContext(ctx, q)
		if err != nil {
			return fmt.Errorf("stream %d (%s): %w", i, q.ID, err)
		}
		lat := lp.Active().Execute(res.Eval.CP)
		t1 := time.Now()
		ok := lp.Record(q, res.Eval, lat)
		t2 := time.Now()
		rec.attempted++
		if !ok {
			rec.failed++
		}
		if !coversAliases(q, res.Eval.ICP.Order) {
			rec.violate("stream %d (%s): join order %v does not cover the query's aliases", i, q.ID, res.Eval.ICP.Order)
		}
		if i >= scenario.ShiftAt() {
			onlinePost += lat
		}
		if lp.Stats().Retrains > before {
			retrainS = append(retrainS, t2.Sub(t1).Seconds())
			if firstSwap < 0 {
				firstSwap = i
			}
			continue
		}
		turnUs = append(turnUs, micros(t2.Sub(t0)))
		turnWall += t2.Sub(t0).Seconds()
	}
	stats := lp.Stats()
	// The stream is a fixed number of turns, too few to window, so it is
	// summarised whole; a turn that retrained is reported as retrain_s.
	rec.set("turns_per_s", float64(len(turnUs))/turnWall, len(turnUs))
	rec.setTimes("turn_p50_us", "turn_p90_us", 0.9, turnUs)
	rec.set("retrain_s", median(retrainS), len(retrainS))
	rec.set("service.retrains", float64(stats.Retrains), 1)
	rec.set("service.swaps", float64(stats.Swaps), 1)
	rec.set("service.drift_first_at", float64(firstSwap), 1)
	rec.set("store.wal_entries", float64(stats.WALEntries), 1)
	if stats.RetrainErrors > 0 || stats.WALErrors > 0 || stats.CheckpointErrors > 0 {
		rec.violate("loop counted errors: retrain=%d wal=%d checkpoint=%d", stats.RetrainErrors, stats.WALErrors, stats.CheckpointErrors)
	}

	if env.traced {
		db := newSimDB(d.sys)
		// What learning bought: the trained-once model replayed frozen over
		// the post-shift stream, and the contract of the model the stream
		// left behind over the workload's own queries. Both move by a tenth
		// or more with the seed — which queries a stream draws decides what
		// a retrain learns — so they are reported per layer, not gated.
		var frozenPost float64
		for _, q := range scenario.Post {
			pe, _, _, err := frozen.OptimizeEvalContext(ctx, q)
			if err != nil {
				return fmt.Errorf("frozen replay %s: %w", q.ID, err)
			}
			frozenPost += db.latency(pe)
			rec.attempted++
		}
		rec.set("post_shift_gain", frozenPost/onlinePost, len(scenario.Post))

		var final contractSum
		for _, q := range baseQueries(d.w) {
			res, err := d.sys.ServeContext(ctx, q)
			if err != nil {
				return fmt.Errorf("final model, %s: %w", q.ID, err)
			}
			rec.attempted++
			if err := final.add(db, []*planner.PlanEval{res.Eval}); err != nil {
				return err
			}
		}
		rec.set("service.final_wrl", final.quality().wrl, final.n)
		rec.set("service.final_gmrl", final.quality().gmrl, final.n)
	}

	if env.traced {
		// The AAM's training throughput on the buffer's pairs, on the frozen
		// clone (its replay is done) so the served model is not touched.
		samples := d.sys.Buffer().Samples(d.sys.Cfg.MaxSteps)
		cfg := aam.DefaultTrainConfig()
		cfg.Epochs = 1
		t0 := time.Now()
		frozen.AAM.Train(samples, cfg)
		rec.set("aam.train_pairs_s", float64(len(samples))/time.Since(t0).Seconds(), len(samples))
	}

	return nil
}

// crashAndRecover boots the drained state into a loop that cannot retrain,
// journals exactly crashTail feedback records past its checkpoint, drops the
// system without closing it — so no final checkpoint is taken — and then
// warm-restarts fresh systems from the directory. Every restart must replay
// exactly crashTail records and serve the probe queries the plans the crashed
// system served them.
func crashAndRecover(ctx context.Context, env *runEnv, d *doctor, dir string, probe []*query.Query) error {
	rec := env.rec
	boot := func() (*core.System, *store.Store, core.RecoveryInfo, time.Duration, error) {
		st, err := store.Open(dir)
		if err != nil {
			return nil, nil, core.RecoveryInfo{}, 0, err
		}
		sys, err := core.New(d.w, doctorConfig())
		if err != nil {
			st.Close()
			return nil, nil, core.RecoveryInfo{}, 0, err
		}
		t0 := time.Now()
		info, err := sys.RecoverOnline(quietLoop(), st)
		el := time.Since(t0)
		if err != nil {
			st.Close()
			return nil, nil, info, el, err
		}
		return sys, st, info, el, nil
	}
	probeKeys := func(sys *core.System) ([]string, error) {
		keys := make([]string, len(probe))
		for i, q := range probe {
			res, err := sys.ServeContext(ctx, q)
			if err != nil {
				return nil, err
			}
			keys[i] = res.Eval.ICP.Key()
		}
		return keys, nil
	}

	victim, st, info, _, err := boot()
	if err != nil {
		return fmt.Errorf("boot crash victim: %w", err)
	}
	if !info.Recovered || info.WALReplayed != 0 {
		rec.violate("boot after a clean drain: recovered=%v replayed=%d, want true and 0", info.Recovered, info.WALReplayed)
	}
	for i := 0; i < crashTail; i++ {
		q := d.w.Train[i%len(d.w.Train)]
		if _, _, err := victim.ServeStepContext(ctx, q); err != nil {
			st.Close()
			return fmt.Errorf("crash tail %d: %w", i, err)
		}
		rec.attempted++
	}
	want, err := probeKeys(victim)
	if err != nil {
		st.Close()
		return err
	}
	// The crash: the loop is never closed, only the directory lock and the
	// journal's file handle are given up, as a killed process would.
	if err := st.Close(); err != nil {
		return err
	}

	var recoverMs []float64
	replayed := 0
	for n := 0; n < size.restarts; n++ {
		sys, st, info, el, err := boot()
		if err != nil {
			return fmt.Errorf("warm restart %d: %w", n, err)
		}
		rec.attempted++
		recoverMs = append(recoverMs, el.Seconds()*1e3)
		replayed = info.WALReplayed
		if info.WALReplayed != crashTail {
			rec.violate("warm restart %d replayed %d records, want %d", n, info.WALReplayed, crashTail)
		}
		got, err := probeKeys(sys)
		if err != nil {
			st.Close()
			return err
		}
		for i := range got {
			if got[i] != want[i] {
				rec.violate("warm restart %d serves %s plan %s, the crashed system served %s", n, probe[i].ID, got[i], want[i])
			}
		}
		if env.traced && n == size.restarts-1 {
			// One live drop-index/add-index pair, on the last restarted
			// system so no measured recovery has a DDL log to replay.
			t0 := time.Now()
			for _, kind := range []catalog.DDLKind{catalog.DDLDropIndex, catalog.DDLAddIndex} {
				if _, err := sys.Online().ApplyDDL([]catalog.DDL{{Kind: kind, Table: "title", Column: "id"}}); err != nil {
					st.Close()
					return fmt.Errorf("ddl %v: %w", kind, err)
				}
			}
			rec.set("service.ddl_apply_ms", time.Since(t0).Seconds()*1e3/2, 2)
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	rec.set("recover_ms", median(recoverMs), len(recoverMs))
	rec.set("store.recover_replayed", float64(replayed), len(recoverMs))
	return nil
}
