// Fleet runs a hospital group instead of one doctor: a shard router boots
// two tenants over different optimizer backends (acme on selinger, globex
// on the hash-centric gaussim), each with its own trained doctor, plan
// cache, and private state directory. Both tenants serve concurrently; their
// epochs, buffers, and checkpoints never touch.
//
// The second act is the deploy story: the fleet is drained — intake stops,
// in-flight work finishes, a final checkpoint lands per tenant, WAL locks
// release — and a successor fleet over the same state directory warm-starts
// every tenant bit-identically, no retraining. That is the difference
// between surviving a crash (PR 4) and surviving a deploy.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/shard"
	"github.com/foss-db/foss/internal/store"
)

func fleetConfig(stateDir string) shard.Config {
	sys := core.DefaultConfig()
	sys.StateNet = aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	sys.PlanCache = 128
	sys.Learner.Iterations = 1
	sys.Learner.RealPerIter = 5
	sys.Learner.SimPerIter = 16
	sys.Learner.ValidatePerIter = 5
	sys.Learner.InferenceRollouts = 1
	return shard.Config{
		System: sys,
		Loop: service.Config{
			Detector:          service.DetectorConfig{Window: 8, Threshold: 1e12, MinSamples: 8},
			Cooldown:          1 << 30,
			RetrainIterations: 1,
			Background:        true,
		},
		Defaults:         shard.TenantSpec{Workload: "job", Scale: 0.3, Seed: 1},
		StateDir:         stateDir,
		CheckpointOnBoot: true,
		OnEvent: func(tenant, event string) {
			fmt.Printf("   [%s] %s\n", tenant, event)
		},
	}
}

func main() {
	ctx := context.Background()
	stateDir, err := os.MkdirTemp("", "foss-fleet-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)
	specs := []shard.TenantSpec{
		{Name: "acme", Backend: "selinger"},
		{Name: "globex", Backend: "gaussim"},
	}

	fmt.Println("== one process, two tenants, two engines ==")
	router, err := shard.NewRouter(ctx, fleetConfig(stateDir), specs)
	if err != nil {
		log.Fatal(err)
	}

	// Both tenants take traffic; each doctor serves its own workload data
	// through its own backend.
	probes := map[string]string{}
	for _, name := range router.Names() {
		sh, err := router.Get(name)
		if err != nil {
			log.Fatal(err)
		}
		for _, q := range sh.W.Train[:6] {
			if _, _, err := sh.Step(ctx, q); err != nil {
				log.Fatal(err)
			}
		}
		res, err := sh.Serve(ctx, sh.W.Test[0])
		if err != nil {
			log.Fatal(err)
		}
		probes[name] = res.Eval.ICP.Key()
		st := sh.Sys.OnlineStats()
		fmt.Printf("   [%s] backend=%s served=%d recorded=%d epoch=%d plan(test0)=%s\n",
			name, sh.Sys.BackendName(), st.Served, st.Recorded, st.Epoch, probes[name])
	}

	// A tenant's state dir is single-writer while its shard lives.
	if _, err := store.Open(stateDir + "/acme"); !errors.Is(err, fosserr.ErrStoreLocked) {
		log.Fatalf("double open should be refused, got %v", err)
	}
	fmt.Println("   second writer on acme's state dir refused: ErrStoreLocked")

	fmt.Println("== drain: the deploy-safe shutdown ==")
	if err := router.Close(ctx); err != nil {
		log.Fatal(err)
	}
	if _, err := router.Get("acme"); errors.Is(err, fosserr.ErrLoopClosed) {
		fmt.Println("   fleet drained; routes now refuse with ErrLoopClosed")
	}

	fmt.Println("== successor fleet warm-starts from the drain checkpoints ==")
	router2, err := shard.NewRouter(ctx, fleetConfig(stateDir), specs)
	if err != nil {
		log.Fatal(err)
	}
	defer router2.Close(ctx)
	for _, name := range router2.Names() {
		sh, err := router2.Get(name)
		if err != nil {
			log.Fatal(err)
		}
		if !sh.Recovery.Recovered {
			log.Fatalf("tenant %s cold-started; the drain checkpoint went missing", name)
		}
		res, err := sh.Serve(ctx, sh.W.Test[0])
		if err != nil {
			log.Fatal(err)
		}
		match := "BIT-IDENTICAL"
		if res.Eval.ICP.Key() != probes[name] {
			match = "DIVERGED (bug!)"
		}
		fmt.Printf("   [%s] recovered epoch=%d buffer=%d plan(test0)=%s  %s\n",
			name, sh.Recovery.Epoch, sh.Recovery.BufferRestored, res.Eval.ICP.Key(), match)
	}
}
