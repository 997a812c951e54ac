package experiments

import (
	"context"
	"io"
	"sort"
	"time"

	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/metrics"
	"github.com/foss-db/foss/internal/workload"
)

// TableIRow is one method's measurements on one workload.
type TableIRow struct {
	Method            string
	Workload          string
	WRLTrain, WRLTest float64
	GMRLTrain         float64
	GMRLTest          float64
	RuntimeSec        float64 // total test-workload runtime (ET+OT)
}

// TableI trains all six methods on each workload and reports the paper's
// Table I metrics. Workload names default to all three.
func TableI(out io.Writer, names []string, opts Opts) ([]TableIRow, error) {
	if len(names) == 0 {
		names = workload.Names()
	}
	var rows []TableIRow
	for _, name := range names {
		w, err := workload.Load(name, workload.Options{Seed: opts.Seed, Scale: opts.Scale})
		if err != nil {
			return nil, err
		}
		var expertTrain, expertTest []metrics.QueryResult
		for _, m := range BuildMethods(w, opts) {
			fprintf(out, "# training %s on %s...\n", m.Name(), name)
			if err := m.Train(nil); err != nil {
				fprintf(out, "# %s on %s failed: %v (recorded as TLE)\n", m.Name(), name, err)
				rows = append(rows, TableIRow{Method: m.Name(), Workload: name})
				continue
			}
			trainRes := Evaluate(m, w, w.Train)
			testRes := Evaluate(m, w, w.Test)
			if m.Name() == "PostgreSQL" {
				expertTrain, expertTest = trainRes, testRes
			}
			rows = append(rows, TableIRow{
				Method:     m.Name(),
				Workload:   name,
				WRLTrain:   metrics.WRL(trainRes, expertTrain),
				WRLTest:    metrics.WRL(testRes, expertTest),
				GMRLTrain:  metrics.GMRL(trainRes, expertTrain),
				GMRLTest:   metrics.GMRL(testRes, expertTest),
				RuntimeSec: metrics.TotalRuntime(testRes) / 1000,
			})
		}
	}
	PrintTableI(out, rows)
	return rows, nil
}

// PrintTableI renders rows in the paper's layout.
func PrintTableI(out io.Writer, rows []TableIRow) {
	fprintf(out, "\nTABLE I: WRL / GMRL (train, test) and test-workload runtime\n")
	fprintf(out, "%-11s %-7s %9s %9s %10s %10s %12s\n",
		"Method", "WL", "WRL/train", "WRL/test", "GMRL/train", "GMRL/test", "Runtime(s)")
	for _, r := range rows {
		fprintf(out, "%-11s %-7s %9.2f %9.2f %10.2f %10.2f %12.2f\n",
			r.Method, r.Workload, r.WRLTrain, r.WRLTest, r.GMRLTrain, r.GMRLTest, r.RuntimeSec)
	}
}

// Fig4Row is FOSS's relative speedup versus another method on one workload.
type Fig4Row struct {
	Versus   string
	Workload string
	Speedup  float64 // (other total runtime) / (FOSS total runtime), test split
}

// Fig4 derives the relative-speedup bars of Fig. 4 from Table I rows.
func Fig4(out io.Writer, rows []TableIRow) []Fig4Row {
	fossRT := map[string]float64{}
	for _, r := range rows {
		if r.Method == "FOSS" {
			fossRT[r.Workload] = r.RuntimeSec
		}
	}
	var out4 []Fig4Row
	for _, r := range rows {
		if r.Method == "FOSS" || fossRT[r.Workload] == 0 || r.RuntimeSec == 0 {
			continue
		}
		out4 = append(out4, Fig4Row{Versus: r.Method, Workload: r.Workload, Speedup: r.RuntimeSec / fossRT[r.Workload]})
	}
	fprintf(out, "\nFIG 4: relative speedup of FOSS vs other methods (test runtime ratio)\n")
	for _, r := range out4 {
		fprintf(out, "  %-7s vs %-11s %6.2fx\n", r.Workload, r.Versus, r.Speedup)
	}
	return out4
}

// Fig5Point is one point on a training curve.
type Fig5Point struct {
	Method     string
	Step       int
	ElapsedSec float64
	Speedup    float64 // expert test runtime / method test runtime
}

// Fig5 records test-split speedup-vs-expert after every training pass of
// every learned method on one workload.
func Fig5(out io.Writer, name string, opts Opts) ([]Fig5Point, error) {
	w, err := workload.Load(name, workload.Options{Seed: opts.Seed, Scale: opts.Scale})
	if err != nil {
		return nil, err
	}
	pg := NewPostgreSQL(w)
	expertRes := Evaluate(pg, w, w.Test)
	expertRT := metrics.TotalRuntime(expertRes)
	var points []Fig5Point
	for _, m := range BuildMethods(w, opts) {
		if m.Name() == "PostgreSQL" {
			continue
		}
		start := time.Now()
		mm := m
		err := mm.Train(func(step int) {
			res := Evaluate(mm, w, w.Test)
			sp := expertRT / metrics.TotalRuntime(res)
			points = append(points, Fig5Point{Method: mm.Name(), Step: step,
				ElapsedSec: time.Since(start).Seconds(), Speedup: sp})
		})
		if err != nil {
			fprintf(out, "# %s TLE: %v\n", mm.Name(), err)
		}
	}
	fprintf(out, "\nFIG 5: training curves on %s (speedup vs expert, test split)\n", name)
	for _, p := range points {
		fprintf(out, "  %-11s step=%d t=%6.1fs speedup=%5.2fx\n", p.Method, p.Step, p.ElapsedSec, p.Speedup)
	}
	return points, nil
}

// Fig6Row is one method's optimization-time distribution on the full JOB.
type Fig6Row struct {
	Method string
	Box    metrics.BoxStats // milliseconds
}

// Fig6 measures optimization time (SQL in → plan out) per method on the
// entire workload, after training.
func Fig6(out io.Writer, name string, opts Opts) ([]Fig6Row, error) {
	w, err := workload.Load(name, workload.Options{Seed: opts.Seed, Scale: opts.Scale})
	if err != nil {
		return nil, err
	}
	var rows []Fig6Row
	for _, m := range BuildMethods(w, opts) {
		if err := m.Train(nil); err != nil {
			continue
		}
		var times []float64
		for _, q := range w.All() {
			if _, ot, err := m.Plan(q); err == nil {
				times = append(times, ot.Seconds()*1000)
			}
		}
		rows = append(rows, Fig6Row{Method: m.Name(), Box: metrics.Box(times)})
	}
	fprintf(out, "\nFIG 6: optimization time on %s (ms)\n", name)
	fprintf(out, "%-11s %8s %8s %8s %8s %8s\n", "Method", "min", "p25", "median", "p75", "max")
	for _, r := range rows {
		fprintf(out, "%-11s %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			r.Method, r.Box.Min, r.Box.P25, r.Box.Median, r.Box.P75, r.Box.Max)
	}
	return rows, nil
}

// Fig7Row is the step distribution of known-best plans for one maxsteps.
type Fig7Row struct {
	MaxSteps int
	Counts   []int // Counts[s] = queries whose known best plan took s steps
}

// Fig7 trains FOSS with maxsteps ∈ {2,3,4,5} and reports where the known
// best plans sit in the edit-step distribution.
func Fig7(out io.Writer, name string, opts Opts) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, ms := range []int{2, 3, 4, 5} {
		w, err := workload.Load(name, workload.Options{Seed: opts.Seed, Scale: opts.Scale})
		if err != nil {
			return nil, err
		}
		cfg := fossConfig(opts)
		cfg.MaxSteps = ms
		sys, err := core.New(w, cfg)
		if err != nil {
			return nil, err
		}
		if err := sys.TrainContext(context.Background(), nil); err != nil {
			return nil, err
		}
		counts := make([]int, ms+1)
		for _, pe := range sys.Learner.KnownBest() {
			if pe.Step <= ms {
				counts[pe.Step]++
			}
		}
		rows = append(rows, Fig7Row{MaxSteps: ms, Counts: counts})
	}
	fprintf(out, "\nFIG 7: steps distribution of known best plans per maxsteps (%s)\n", name)
	for _, r := range rows {
		fprintf(out, "  maxsteps=%d:", r.MaxSteps)
		for s, c := range r.Counts {
			fprintf(out, " step%d=%d", s, c)
		}
		fprintf(out, "\n")
	}
	return rows, nil
}

// Fig8Row is one method's ranked time-savings curve.
type Fig8Row struct {
	Method  string
	Savings []float64 // sorted descending, one entry per query
}

// Fig8 trains each method on the full workload and ranks the time-savings
// ratio of its known best plan per query relative to the original plans.
func Fig8(out io.Writer, name string, opts Opts) ([]Fig8Row, error) {
	w, err := workload.Load(name, workload.Options{Seed: opts.Seed, Scale: opts.Scale})
	if err != nil {
		return nil, err
	}
	pg := NewPostgreSQL(w)
	origLat := map[string]float64{}
	for _, r := range Evaluate(pg, w, w.All()) {
		origLat[r.QueryID] = r.LatencyMs
	}
	var rows []Fig8Row
	for _, m := range BuildMethods(w, opts) {
		if m.Name() == "PostgreSQL" {
			continue
		}
		if err := m.Train(nil); err != nil {
			fprintf(out, "# %s TLE: %v\n", m.Name(), err)
			continue
		}
		kb := m.KnownBest()
		var savings []float64
		for qid, base := range origLat {
			lat, ok := kb[qid]
			if !ok {
				lat = base // never executed a better plan: savings 0
			}
			savings = append(savings, metrics.SavingsRatio(base, lat))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(savings)))
		rows = append(rows, Fig8Row{Method: m.Name(), Savings: savings})
	}
	fprintf(out, "\nFIG 8: ranked time-savings ratios of known best plans (%s)\n", name)
	for _, r := range rows {
		n25, n75 := 0, 0
		for _, s := range r.Savings {
			if s >= 0.25 {
				n25++
			}
			if s >= 0.75 {
				n75++
			}
		}
		fprintf(out, "  %-11s queries with >=25%% savings: %d, >=75%%: %d (of %d)\n",
			r.Method, n25, n75, len(r.Savings))
	}
	return rows, nil
}

func fossConfig(opts Opts) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = opts.Seed
	if opts.Fast {
		cfg.Learner.Iterations = 3
		cfg.Learner.SimPerIter = 60
		cfg.Learner.RealPerIter = 15
		cfg.Learner.ValidatePerIter = 15
	} else {
		cfg.Learner.Iterations = 8
		cfg.Learner.SimPerIter = 180
		cfg.Learner.RealPerIter = 30
		cfg.Learner.ValidatePerIter = 30
	}
	return cfg
}
