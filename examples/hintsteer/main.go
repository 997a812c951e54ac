// Hintsteer contrasts the two steering granularities the paper discusses:
// Bao-style coarse hint sets (disable an operator class for the whole query)
// versus FOSS-style fine-grained edits (override one join, swap two tables).
// For each mechanism it reports the best plan reachable on a sample of
// queries, illustrating the paper's S2 argument: coarse hints cap the
// achievable plan quality.
package main

import (
	"fmt"
	"log"

	"github.com/foss-db/foss/internal/backend"
	"github.com/foss-db/foss/internal/baselines"
	"github.com/foss-db/foss/internal/optimizer"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/workload"
)

func main() {
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.4})
	if err != nil {
		log.Fatal(err)
	}
	// The backend API: Plan/HintedPlan/Execute are the contract every engine
	// implements; coarse hinting is a Selinger-specific capability.
	be := backend.NewSelinger(w.DB, w.Stats)

	fmt.Printf("%-8s %10s %12s %12s %9s\n", "query", "expert", "bestCoarse", "bestFine(2)", "gap")
	totalCoarse, totalFine := 0.0, 0.0
	for _, q := range w.Train[:12] {
		cp, err := be.Plan(q)
		if err != nil {
			continue
		}
		origLat := be.Execute(cp, 0).LatencyMs

		// Coarse: best of Bao's five hint sets.
		bestCoarse := origLat
		for _, h := range baselines.DefaultHintSets() {
			hcp, err := be.PlanCoarse(q, optimizer.Config{DisabledJoins: h.Disabled})
			if err != nil {
				continue
			}
			if r := be.Execute(hcp, origLat*2); !r.TimedOut && r.LatencyMs < bestCoarse {
				bestCoarse = r.LatencyMs
			}
		}

		// Fine: best plan within two Swap/Override edits of the original.
		icp, err := plan.Extract(cp)
		if err != nil {
			continue
		}
		space := plan.NewSpace(q.NumTables())
		bestFine := origLat
		for id1 := 1; id1 <= space.Size(); id1++ {
			next1, err := space.Apply(icp, space.Decode(id1))
			if err != nil {
				continue
			}
			if hcp, err := be.HintedPlan(q, next1); err == nil {
				if r := be.Execute(hcp, origLat*1.5); !r.TimedOut && r.LatencyMs < bestFine {
					bestFine = r.LatencyMs
				}
			}
			for id2 := 1; id2 <= space.Size(); id2 += 7 { // stride: keep runtime bounded
				next2, err := space.Apply(next1, space.Decode(id2))
				if err != nil {
					continue
				}
				hcp, err := be.HintedPlan(q, next2)
				if err != nil {
					continue
				}
				if r := be.Execute(hcp, origLat*1.5); !r.TimedOut && r.LatencyMs < bestFine {
					bestFine = r.LatencyMs
				}
			}
		}
		totalCoarse += bestCoarse
		totalFine += bestFine
		fmt.Printf("%-8s %9.1fms %11.1fms %11.1fms %8.2fx\n",
			q.ID, origLat, bestCoarse, bestFine, bestCoarse/bestFine)
	}
	fmt.Printf("\ntotals: coarse=%.1fms fine=%.1fms — fine-grained edits reach %.2fx further\n",
		totalCoarse, totalFine, totalCoarse/totalFine)
}
