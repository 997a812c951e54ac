// Doctor reproduces the paper's §I anecdote (JOB query 1b): the traditional
// optimizer picks a hash join between a tiny filtered dimension and a fact
// table because of a cardinality overestimate; overriding the join method to
// a nested loop and swapping two tables recovers a large speedup. This
// example finds such a query in the generated workload and applies the two
// edits by hand through the same Swap/Override action space FOSS learns
// over.
//
// Part two then shows the doctor staying on call: the trained system serves
// an online stream whose parameter distribution shifts mid-way, the drift
// detector notices, a retrain runs against the live feedback, and the
// refreshed model is hot-swapped in — after which the shifted tail runs
// faster than a frozen copy of the same model ever would.
//
// Part three ports the doctor to a second hospital: the same machinery
// trains over the gaussim backend (a hash-centric engine with different
// cost-model error), whose expert leaves different latency on the table —
// and the doctor recovers it there too.
//
// Part four makes the doctor durable: the trained system checkpoints to a
// state directory, served feedback journals to a WAL, and a "crashed"
// process is rebuilt from disk alone — same epoch, same buffer, same plans,
// no retraining — while a snapshot from the wrong backend is refused.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/backend"
	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/workload"
)

func main() {
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	be := backend.NewSelinger(w.DB, w.Stats)

	// Scan the workload for the best single-override win: the 1b pattern.
	type win struct {
		qid           string
		orig, fixed   float64
		action        plan.Action
		origI, fixedI plan.ICP
	}
	var best win
	for _, q := range w.All() {
		cp, err := be.Plan(q)
		if err != nil {
			continue
		}
		origLat := be.Execute(cp, 0).LatencyMs
		icp, err := plan.Extract(cp)
		if err != nil {
			continue
		}
		space := plan.NewSpace(q.NumTables())
		for id := 1; id <= space.Size(); id++ {
			a := space.Decode(id)
			next, err := space.Apply(icp, a)
			if err != nil {
				continue
			}
			hcp, err := be.HintedPlan(q, next)
			if err != nil {
				continue
			}
			res := be.Execute(hcp, origLat*1.5)
			if res.TimedOut {
				continue
			}
			if best.orig == 0 || origLat/res.LatencyMs > best.orig/best.fixed {
				if origLat/res.LatencyMs > 1 {
					best = win{q.ID, origLat, res.LatencyMs, a, icp, next}
				}
			}
		}
	}
	if best.qid == "" {
		log.Fatal("no single-edit improvement found (unexpected)")
	}
	fmt.Printf("the paper's query-1b pattern, found in this workload:\n\n")
	fmt.Printf("query %s\n", best.qid)
	fmt.Printf("  original plan: %v\n", best.origI)
	fmt.Printf("  one doctor edit: %v\n", best.action)
	fmt.Printf("  doctored plan: %v\n", best.fixedI)
	fmt.Printf("  simulated latency: %.2f ms -> %.2f ms (%.1fx speedup)\n",
		best.orig, best.fixed, best.orig/best.fixed)
	fmt.Println("\nFOSS learns to make exactly this kind of edit automatically.")

	fmt.Println("\n--- part two: the doctor stays on call ---")
	onlineDemo(w)

	fmt.Println("\n--- part three: the doctor changes hospitals ---")
	portabilityDemo(w)

	fmt.Println("\n--- part four: the doctor survives a crash ---")
	durabilityDemo(w)
}

// durabilityDemo trains a small doctor, serves some feedback through a
// durable online loop, then rebuilds the whole thing from the state
// directory as a crashed process would — proving the recovered replica
// serves the same plans at the same epoch without retraining.
func durabilityDemo(w *workload.Workload) {
	ctx := context.Background()
	cfg := core.DefaultConfig()
	cfg.StateNet = aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	cfg.Learner.Iterations = 2
	cfg.Learner.RealPerIter = 8
	cfg.Learner.SimPerIter = 30
	cfg.Learner.ValidatePerIter = 8
	cfg.Learner.InferenceRollouts = 2

	dir, err := os.MkdirTemp("", "foss-state-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		log.Fatal(err)
	}

	loopCfg := service.Config{
		Detector:        service.DetectorConfig{Window: 8, Threshold: 1e9, MinSamples: 8},
		Cooldown:        1 << 30, // durability demo: keep the detector quiet
		Background:      false,
		CheckpointEvery: 8,
	}

	sys, err := core.New(w, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training offline...")
	if err := sys.TrainContext(ctx, nil); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.RecoverOnline(loopCfg, st); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Online().Checkpoint(); err != nil {
		log.Fatal(err)
	}
	for _, q := range w.Train[:12] { // feedback past the checkpoint lives in the WAL
		if _, _, err := sys.ServeStepContext(ctx, q); err != nil {
			log.Fatal(err)
		}
	}
	probe := w.Test[0]
	res, err := sys.ServeContext(ctx, probe)
	if err != nil {
		log.Fatal(err)
	}
	preKey, preEpoch := res.Eval.ICP.Key(), sys.OnlineStats().Epoch
	preBuf := len(sys.ExportBuffer())
	st.Close()
	fmt.Printf("served 12 queries, checkpointed, journaled; then the process \"crashes\"\n")

	// A fresh process: different seed, nothing in memory — disk is all it has.
	st2, err := store.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer st2.Close()
	cfg.Seed = 99
	fresh, err := core.New(w, cfg)
	if err != nil {
		log.Fatal(err)
	}
	info, err := fresh.RecoverOnline(loopCfg, st2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered from %s: checkpoint=%s epoch=%d buffer=%d walReplayed=%d\n",
		dir, info.Checkpoint, info.Epoch, info.BufferRestored, info.WALReplayed)
	res2, err := fresh.ServeContext(ctx, probe)
	if err != nil {
		log.Fatal(err)
	}
	same := res2.Eval.ICP.Key() == preKey && fresh.OnlineStats().Epoch == preEpoch &&
		len(fresh.ExportBuffer()) == preBuf
	fmt.Printf("pre-crash plan == recovered plan: %v (epoch %d, buffer %d entries)\n",
		same, fresh.OnlineStats().Epoch, len(fresh.ExportBuffer()))

	// And the guard rail: the selinger-trained checkpoint refuses to load
	// into a gaussim system.
	gau, err := core.New(w, cfg, core.WithBackend(backend.NewGaussim(w.DB, w.Stats)))
	if err != nil {
		log.Fatal(err)
	}
	blob, err := fresh.Save()
	if err != nil {
		log.Fatal(err)
	}
	if err := gau.Load(blob); errors.Is(err, fosserr.ErrBackendMismatch) {
		fmt.Println("cross-backend load refused: snapshot is selinger-tagged, system runs gaussim ✓")
	} else {
		log.Fatalf("cross-backend load was not refused: %v", err)
	}
	fmt.Println("\nthe doctor's experience now outlives the process that gathered it.")
}

// onlineDemo trains a small FOSS system, then runs the online loop over a
// selectivity-shifted stream: feedback ingestion, drift detection,
// synchronous retraining (deterministic output), and hot-swap.
func onlineDemo(w *workload.Workload) {
	cfg := core.DefaultConfig()
	cfg.StateNet = aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	cfg.PlanCache = 64
	cfg.Learner.Iterations = 2
	cfg.Learner.RealPerIter = 8
	cfg.Learner.SimPerIter = 30
	cfg.Learner.ValidatePerIter = 8
	cfg.Learner.InferenceRollouts = 2
	sys, err := core.New(w, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	fmt.Println("training offline...")
	if err := sys.TrainContext(ctx, nil); err != nil {
		log.Fatal(err)
	}

	// A frozen twin keeps serving the stale model for comparison.
	frozen, err := sys.Clone()
	if err != nil {
		log.Fatal(err)
	}

	scen, err := workload.Drift(w, workload.DriftSelectivity, workload.DriftOptions{
		Seed: 7, PreLen: 15, PostLen: 45,
	})
	if err != nil {
		log.Fatal(err)
	}
	err = sys.EnableOnline(service.Config{
		Detector: service.DetectorConfig{
			Window: 10, Threshold: 1.05, MinSamples: 10, NoveltyFrac: 0.5,
		},
		Cooldown:          12,
		RetrainIterations: 2,
		RetrainQueries:    24,
		Background:        false, // synchronous keeps the demo deterministic
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("serving %d queries; the parameter distribution shifts at query %d\n",
		len(scen.Stream()), scen.ShiftAt()+1)
	var onlineSum, frozenSum float64
	var lastSwaps uint64
	for i, q := range scen.Stream() {
		_, lat, err := sys.ServeStepContext(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		cp, _, err := frozen.OptimizeContext(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		flat := frozen.Execute(cp)
		if i >= scen.ShiftAt() {
			onlineSum += lat
			frozenSum += flat
		}
		if st := sys.OnlineStats(); st.Swaps > lastSwaps {
			lastSwaps = st.Swaps
			fmt.Printf("  query %3d: drift detected -> retrained -> hot-swapped to epoch %d\n", i+1, st.Epoch)
		}
	}
	st := sys.OnlineStats()
	n := float64(len(scen.Post))
	fmt.Printf("drift detected %d time(s); %d retrain(s); %d zero-downtime hot-swap(s); final epoch %d\n",
		st.Drifts, st.Retrains, st.Swaps, st.Epoch)
	fmt.Printf("shifted tail, frozen model: %8.2fms mean\n", frozenSum/n)
	fmt.Printf("shifted tail, online model: %8.2fms mean (%.2fx)\n",
		onlineSum/n, (frozenSum/n)/(onlineSum/n))
	fmt.Println("\nthe doctor that keeps learning beats the doctor that graduated.")
}

// portabilityDemo trains the identical doctor machinery over the gaussim
// backend — the openGauss-flavored engine whose cost model errs in different
// directions — and shows it repairing that engine's regret too.
func portabilityDemo(w *workload.Workload) {
	ctx := context.Background()
	cfg := core.DefaultConfig()
	cfg.StateNet = aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	cfg.Learner.Iterations = 2
	cfg.Learner.RealPerIter = 8
	cfg.Learner.SimPerIter = 30
	cfg.Learner.ValidatePerIter = 8
	cfg.Learner.InferenceRollouts = 2

	for _, name := range backend.Names() {
		be, err := backend.New(name, w.DB, w.Stats)
		if err != nil {
			log.Fatal(err)
		}
		sys, err := core.New(w, cfg, core.WithBackend(be))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("training the doctor over %q...\n", name)
		if err := sys.TrainContext(ctx, nil); err != nil {
			log.Fatal(err)
		}
		var expertMs, fossMs float64
		for _, q := range w.Test {
			cp, _, err := sys.OptimizeContext(ctx, q)
			if err != nil {
				log.Fatal(err)
			}
			ecp, _, err := sys.ExpertPlan(q)
			if err != nil {
				continue
			}
			expertMs += sys.Execute(ecp)
			fossMs += sys.Execute(cp)
		}
		fmt.Printf("  %-9s test split: expert %8.1f ms -> doctored %8.1f ms (%.2fx)\n",
			name, expertMs, fossMs, expertMs/fossMs)
	}
	fmt.Println("\nsame doctor, different hospitals: the steering layer is backend-portable.")
}
