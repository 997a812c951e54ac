// Quickstart: load a benchmark, train FOSS briefly, and doctor one query —
// then the whole test split, one query at a time.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/foss-db/foss"
)

func main() {
	ctx := context.Background()

	// Generate the JOB-like benchmark at quarter scale (fast to build).
	w, err := foss.LoadWorkload("job", foss.WorkloadOptions{Seed: 1, Scale: 0.25})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s: %d rows, %d train / %d test queries\n",
		w.Name, w.DB.TotalRows(), len(w.Train), len(w.Test))
	fmt.Printf("available backends: %v (this run uses the default)\n", foss.BackendNames())

	cfg := foss.DefaultConfig()
	cfg.Learner.Iterations = 3
	cfg.Learner.SimPerIter = 60
	cfg.Learner.RealPerIter = 15
	cfg.Learner.ValidatePerIter = 15
	sys, err := foss.New(w, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training FOSS (3 short iterations)...")
	if err := sys.TrainContext(ctx, nil); err != nil {
		log.Fatal(err)
	}

	q := w.Train[0]
	fmt.Printf("\nquery %s:\n  %s\n", q.ID, q.SQL())

	expert, _, err := sys.ExpertPlan(q)
	if err != nil {
		log.Fatal(err)
	}
	doctored, optTime, err := sys.OptimizeContext(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexpert plan (simulated %.1f ms):\n%s", sys.Execute(expert), expert)
	fmt.Printf("\nFOSS plan (simulated %.1f ms, optimized in %v):\n%s",
		sys.Execute(doctored), optTime.Truncate(1e6), doctored)

	// The whole test split, one query at a time — the doctor steers per
	// query, so a workload is just a loop.
	var fossMs, expertMs float64
	var total time.Duration
	for _, tq := range w.Test {
		cp, d, err := sys.OptimizeContext(ctx, tq)
		if err != nil {
			log.Fatal(err)
		}
		total += d
		fossMs += sys.Execute(cp)
		if ecp, _, err := sys.ExpertPlan(tq); err == nil {
			expertMs += sys.Execute(ecp)
		}
	}
	fmt.Printf("\noptimized the %d test queries in %v: expert %.0f ms vs FOSS %.0f ms total\n",
		len(w.Test), total.Truncate(1e6), expertMs, fossMs)
}
