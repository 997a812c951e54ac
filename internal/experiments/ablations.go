package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/learner"
	"github.com/foss-db/foss/internal/metrics"
	"github.com/foss-db/foss/internal/workload"
)

// AblationName identifies a Table II configuration.
type AblationName string

// Table II configurations.
const (
	Maxsteps2     AblationName = "2-Maxsteps"
	Maxsteps3     AblationName = "3-Maxsteps (FOSS)"
	Maxsteps4     AblationName = "4-Maxsteps"
	Maxsteps5     AblationName = "5-Maxsteps"
	OffSimulated  AblationName = "Off-Simulated"
	OffPenalty    AblationName = "Off-Penalty"
	OffValidation AblationName = "Off-Validation"
	TwoAgents     AblationName = "2-Agents"
)

// AllAblations lists Table II's rows in order.
func AllAblations() []AblationName {
	return []AblationName{
		Maxsteps2, Maxsteps3, Maxsteps4, Maxsteps5,
		OffSimulated, OffPenalty, OffValidation, TwoAgents,
	}
}

// ablationConfig maps a name to a core.Config.
func ablationConfig(name AblationName, opts Opts) core.Config {
	cfg := fossConfig(opts)
	switch name {
	case Maxsteps2:
		cfg.MaxSteps = 2
	case Maxsteps3:
		cfg.MaxSteps = 3
	case Maxsteps4:
		cfg.MaxSteps = 4
	case Maxsteps5:
		cfg.MaxSteps = 5
	case OffSimulated:
		cfg.Learner.DisableSim = true
		// the paper reduces episodes when every interaction is real
		cfg.Learner.SimPerIter = 0
	case OffPenalty:
		cfg.Planner.PenaltyGamma = 0
	case OffValidation:
		cfg.Learner.DisableValidation = true
	case TwoAgents:
		cfg.Agents = 2
	}
	return cfg
}

// TableIIRow is one ablation's result.
type TableIIRow struct {
	Config       AblationName
	TrainTimeSec float64
	OptTimeMs    float64 // mean optimization time per query
	GMRL         float64 // on the entire workload (paper's Table II protocol)
}

// TableII runs all Table II ablations on one workload (the paper uses JOB).
func TableII(out io.Writer, name string, opts Opts) ([]TableIIRow, error) {
	var rows []TableIIRow
	for _, ab := range AllAblations() {
		row, _, err := RunAblation(out, name, ab, opts, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	PrintTableII(out, rows)
	return rows, nil
}

// RunAblation trains one configuration and measures it on the entire
// workload. If curve is true, per-iteration GMRL checkpoints are returned
// (Fig. 9).
func RunAblation(out io.Writer, name string, ab AblationName, opts Opts, curve bool) (TableIIRow, []Fig9Point, error) {
	w, err := workload.Load(name, workload.Options{Seed: opts.Seed, Scale: opts.Scale})
	if err != nil {
		return TableIIRow{}, nil, err
	}
	cfg := ablationConfig(ab, opts)
	be, err := opts.NewBackend(w)
	if err != nil {
		return TableIIRow{}, nil, err
	}
	sys, err := core.New(w, cfg, core.WithBackend(be))
	if err != nil {
		return TableIIRow{}, nil, err
	}
	m := NewFOSS(sys)
	pg := NewExpert(ExpertName(opts.Backend), be, w)
	expert := EvaluateOn(be, pg, w, w.All())

	var points []Fig9Point
	trainStart := time.Now()
	err = sys.TrainContext(context.Background(), func(st learner.IterStats) {
		if !curve {
			return
		}
		res := EvaluateOn(be, m, w, w.All())
		points = append(points, Fig9Point{
			Config:     ab,
			Iter:       st.Iter,
			ElapsedSec: time.Since(trainStart).Seconds(),
			GMRL:       metrics.GMRL(res, expert),
		})
	})
	if err != nil {
		return TableIIRow{}, nil, fmt.Errorf("ablation %s: %w", ab, err)
	}

	res := EvaluateOn(be, m, w, w.All())
	meanOpt := 0.0
	for _, r := range res {
		meanOpt += r.OptTimeMs
	}
	if len(res) > 0 {
		meanOpt /= float64(len(res))
	}
	row := TableIIRow{
		Config:       ab,
		TrainTimeSec: sys.TrainingTime().Seconds(),
		OptTimeMs:    meanOpt,
		GMRL:         metrics.GMRL(res, expert),
	}
	return row, points, nil
}

// PrintTableII renders Table II.
func PrintTableII(out io.Writer, rows []TableIIRow) {
	fprintf(out, "\nTABLE II: design-choice configurations\n")
	fprintf(out, "%-20s %14s %18s %8s\n", "Experiment", "TrainTime(s)", "OptTime(ms/query)", "GMRL")
	for _, r := range rows {
		fprintf(out, "%-20s %14.1f %18.2f %8.3f\n", r.Config, r.TrainTimeSec, r.OptTimeMs, r.GMRL)
	}
}

// Fig9Point is one checkpoint of a GMRL-vs-training curve.
type Fig9Point struct {
	Config     AblationName
	Iter       int
	ElapsedSec float64
	GMRL       float64
}

// Fig9 produces GMRL training curves for the ablation configurations.
func Fig9(out io.Writer, name string, opts Opts, configs []AblationName) ([]Fig9Point, error) {
	if len(configs) == 0 {
		configs = AllAblations()
	}
	var all []Fig9Point
	for _, ab := range configs {
		_, pts, err := RunAblation(out, name, ab, opts, true)
		if err != nil {
			return nil, err
		}
		all = append(all, pts...)
	}
	fprintf(out, "\nFIG 9: GMRL during training per configuration (%s)\n", name)
	for _, p := range all {
		fprintf(out, "  %-20s iter=%d t=%6.1fs GMRL=%.3f\n", p.Config, p.Iter, p.ElapsedSec, p.GMRL)
	}
	return all, nil
}
