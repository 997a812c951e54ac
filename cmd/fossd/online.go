package main

// The -online mode: after offline training, run the full doctor loop
// (Serve → Execute → Record) over a deterministic drift scenario, letting the
// drift detector trigger background retrains and hot-swaps, then compare the
// adaptive system against a frozen copy of the offline model on the shifted
// tail.

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/tier"
	"github.com/foss-db/foss/internal/workload"
)

// onlineOpts carries the -online flag group plus the durability wiring.
type onlineOpts struct {
	kind         string
	driftSeed    int64
	pre, post    int
	window       int
	threshold    float64
	noveltyFrac  float64
	retrainIters int
	sync         bool
	st           *store.Store // nil = in-memory loop
	ckEvery      int
	tierMemory   bool // tier-0 plan memory (-tier-memory)
	tierGreedy   bool // tier-1 greedy micro-planner (-tier-greedy)
	advisor      bool // async advisor (-advisor)
	advisorWin   int  // regression window (-advisor-window)
}

// loopConfig assembles the service configuration shared by -online and
// -serve-http. -online attaches its store here; the fleet leaves st nil and
// opens one store per tenant.
func (o onlineOpts) loopConfig() service.Config {
	return service.Config{
		Detector: service.DetectorConfig{
			Window:      o.window,
			Threshold:   o.threshold,
			MinSamples:  o.window / 2,
			NoveltyFrac: o.noveltyFrac,
		},
		Cooldown:          o.window,
		RetrainIterations: o.retrainIters,
		RetrainQueries:    2 * o.window,
		Background:        !o.sync,
		Store:             o.st,
		CheckpointEvery:   o.ckEvery,
		Tier:              tier.Config{Memory: o.tierMemory, Greedy: o.tierGreedy},
		Advisor:           service.AdvisorConfig{Enabled: o.advisor, Window: o.advisorWin},
	}
}

// runOnline drives the online doctor loop over a drift scenario and prints
// segment summaries plus the frozen-model comparison.
func runOnline(ctx context.Context, sys *core.System, frozen *core.System, w *workload.Workload, o onlineOpts) error {
	scen, err := workload.Drift(w, workload.DriftKind(o.kind), workload.DriftOptions{
		Seed: o.driftSeed, PreLen: o.pre, PostLen: o.post,
	})
	if err != nil {
		return err
	}
	err = sys.EnableOnline(o.loopConfig())
	if err != nil {
		return err
	}
	fmt.Printf("online: drift=%s pre=%d post=%d window=%d threshold=%.2f novelty=%.2f background=%v\n",
		o.kind, o.pre, o.post, o.window, o.threshold, o.noveltyFrac, !o.sync)

	stream := scen.Stream()
	lats := make([]float64, len(stream))
	firstSwap := -1
	start := time.Now()
	for i, q := range stream {
		if i == scen.ShiftAt() && len(scen.DDL) > 0 {
			// Schema-evolution scenarios land their DDL batch exactly at the
			// shift: the live catalog moves under the doctor mid-stream.
			epoch, err := sys.Online().ApplyDDL(scen.DDL)
			if err != nil {
				return fmt.Errorf("apply ddl at shift: %w", err)
			}
			if frozen != nil {
				// The frozen model's weights stay offline, but it must plan
				// and execute in the same evolved world — otherwise the
				// post-shift comparison measures two different schemas. The
				// clone shares the live system's catalog world, so the batch
				// is already applied; the clone only needs to repoint.
				if err := frozen.ResyncCatalog(); err != nil {
					return fmt.Errorf("resync frozen copy after ddl: %w", err)
				}
			}
			fmt.Printf("ddl applied at shift (%d statements) — catalog epoch %d\n", len(scen.DDL), epoch)
		}
		_, lat, err := sys.ServeStepContext(ctx, q)
		if err != nil {
			return fmt.Errorf("serve %s: %w", q.ID, err)
		}
		lats[i] = lat
		if firstSwap < 0 && sys.OnlineStats().Swaps > 0 {
			firstSwap = i
		}
	}
	sys.Online().Wait() // drain any in-flight background retrain
	elapsed := time.Since(start)

	segMean := func(lo, hi int) float64 {
		if hi <= lo {
			return 0
		}
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += lats[i]
		}
		return sum / float64(hi-lo)
	}
	shift := scen.ShiftAt()
	fmt.Printf("pre-shift  mean latency: %9.3fms over %d queries\n", segMean(0, shift), shift)
	fmt.Printf("post-shift mean latency: %9.3fms over %d queries\n", segMean(shift, len(stream)), len(stream)-shift)
	fmt.Printf("%s\n", sys.OnlineStats())

	// Frozen comparison on the post-shift segment: what the offline model
	// would have served with no feedback loop.
	if frozen != nil {
		frozenSum, onlineSum := 0.0, 0.0
		for i := shift; i < len(stream); i++ {
			cp, _, err := frozen.OptimizeContext(ctx, stream[i])
			if err != nil {
				return err
			}
			frozenSum += frozen.Execute(cp)
			onlineSum += lats[i]
		}
		n := float64(len(stream) - shift)
		fmt.Printf("post-shift frozen model: %9.3fms  online: %9.3fms  (%.2fx)\n",
			frozenSum/n, onlineSum/n, (frozenSum/n)/(onlineSum/n))
	}
	switch st := sys.OnlineStats(); {
	case firstSwap >= 0:
		fmt.Printf("first hot-swap after %d served queries\n", firstSwap+1)
	case st.Swaps > 0:
		fmt.Println("hot-swap completed after the stream drained (background retrain outlived serving; use -sync-retrain to adapt mid-stream)")
	default:
		fmt.Println("no hot-swap triggered (stream too calm for the thresholds)")
	}
	fmt.Printf("online loop wall-clock: %s\n", elapsed.Truncate(time.Millisecond))
	return nil
}

// buildFrozen clones the trained system into a frozen baseline replica.
func buildFrozen(sys *core.System) *core.System {
	frozen, err := sys.Clone()
	if err != nil {
		fmt.Fprintln(os.Stderr, "frozen replica:", err)
		return nil
	}
	return frozen
}
