// Command workloadgen generates and inspects the synthetic benchmarks:
// table sizes, query counts, sample SQL, and estimator q-error statistics.
//
// Usage:
//
//	workloadgen -workload job -scale 0.5 [-sql 5] [-qerr]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/foss-db/foss/internal/engine/cost"
	"github.com/foss-db/foss/internal/engine/exec"
	"github.com/foss-db/foss/internal/optimizer"
	"github.com/foss-db/foss/internal/workload"
)

func main() {
	var (
		wl    = flag.String("workload", "job", "workload: job | tpcds | stack")
		scale = flag.Float64("scale", 0.5, "data scale factor")
		seed  = flag.Int64("seed", 1, "random seed")
		nSQL  = flag.Int("sql", 3, "number of sample queries to print as SQL")
		qerr  = flag.Bool("qerr", false, "measure estimator q-error over the workload")
	)
	flag.Parse()

	w, err := workload.Load(*wl, workload.Options{Seed: *seed, Scale: *scale})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("workload %s (seed=%d scale=%.2f)\n", w.Name, *seed, *scale)
	fmt.Printf("  %d tables, %d rows total, %d train / %d test queries, max %d tables/query\n",
		len(w.DB.Tables), w.DB.TotalRows(), len(w.Train), len(w.Test), w.MaxTables)

	names := append([]string(nil), w.DB.Schema.Order...)
	sort.Slice(names, func(i, j int) bool {
		return w.DB.Table(names[i]).NumRows() > w.DB.Table(names[j]).NumRows()
	})
	fmt.Println("  tables by size:")
	for _, n := range names {
		fmt.Printf("    %-24s %8d rows\n", n, w.DB.Table(n).NumRows())
	}
	for i := 0; i < *nSQL && i < len(w.Train); i++ {
		fmt.Printf("  sample %s: %s\n", w.Train[i].ID, w.Train[i].SQL())
	}

	if *qerr {
		opt := optimizer.New(w.DB, w.Stats, cost.OptimizerParams())
		ex := exec.New(w.DB, cost.TruthParams())
		var qes []float64
		for _, q := range w.All() {
			cp, err := opt.Plan(q)
			if err != nil {
				continue
			}
			res := ex.Execute(cp, 0)
			est, truth := cp.Root.EstRows, float64(res.OutRows)
			if est < 1 {
				est = 1
			}
			if truth < 1 {
				truth = 1
			}
			qe := est / truth
			if qe < 1 {
				qe = 1 / qe
			}
			qes = append(qes, qe)
		}
		sort.Float64s(qes)
		pct := func(p float64) float64 { return qes[int(p*float64(len(qes)-1))] }
		fmt.Printf("  final-cardinality q-error: median=%.1f p90=%.1f max=%.1f\n",
			pct(0.5), pct(0.9), qes[len(qes)-1])
	}
}
