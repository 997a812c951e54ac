package main

import (
	"fmt"

	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
)

// printCacheStats surfaces the runtime plan-cache counters after an
// evaluation pass.
func printCacheStats(sys *core.System) {
	st := sys.RT.CacheStats()
	fmt.Printf("plan cache: hits=%d misses=%d evictions=%d hitRate=%.1f%% size=%d/%d\n",
		st.Hits, st.Misses, st.Evictions, 100*st.HitRate(), st.Size, st.Capacity)
}

// diagnose prints, for each query, the greedy candidate sequence with true
// latencies and what the AAM selector chose (enabled with -diag).
func diagnose(sys *core.System, qs []*query.Query) {
	for _, q := range qs {
		pl := sys.Planners[0]
		orig, err := pl.OriginalEval(q)
		if err != nil {
			fmt.Println(q.ID, "err:", err)
			continue
		}
		ep, err := pl.RunEpisodeWithRng(q, orig, nil, nil, false, nil)
		if err != nil {
			fmt.Println(q.ID, "err:", err)
			continue
		}
		chosen := planner.SelectBest(sys.AAM, ep.Candidates, pl.Cfg.MaxSteps)
		fmt.Printf("%-8s cands=%d |", q.ID, len(ep.Candidates))
		for _, c := range ep.Candidates {
			lat := sys.Execute(c.CP)
			mark := " "
			if c == chosen {
				mark = "*"
			}
			fmt.Printf(" s%d%s=%.0fms", c.Step, mark, lat)
		}
		fmt.Println()
	}
}
