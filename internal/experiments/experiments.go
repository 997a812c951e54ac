// Package experiments reproduces every table and figure of the paper's
// evaluation section on this repository's substrate: Table I (WRL/GMRL and
// workload runtime for six optimizers on three workloads), Fig. 4 (relative
// speedups), Fig. 5 (training curves), Fig. 6 (optimization-time box plots),
// Fig. 7 (step distribution of known-best plans under different maxsteps),
// Fig. 8 (ranked time savings of known-best plans), Table II and Fig. 9
// (design-choice ablations).
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/foss-db/foss/internal/backend"
	"github.com/foss-db/foss/internal/baselines"
	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/learner"
	"github.com/foss-db/foss/internal/metrics"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/workload"
)

// Method is the uniform view of an optimizer under evaluation.
type Method interface {
	Name() string
	// Train fits the method on its workload's training split. onStep fires
	// after each internal pass/iteration (training-curve hook).
	Train(onStep func(step int)) error
	// Plan produces the execution plan and the optimization time.
	Plan(q *query.Query) (*plan.CP, time.Duration, error)
	// KnownBest reports the best executed latency per query id observed
	// during training (nil if the method executes nothing).
	KnownBest() map[string]float64
	// TrainingTime is cumulative wall-clock spent in Train.
	TrainingTime() time.Duration
}

// Opts sizes an experiment run.
type Opts struct {
	Scale float64
	Seed  int64
	Fast  bool // reduced training budgets (tests, quick benches)
	// Backend selects the optimizer backend under evaluation ("" = the
	// default "selinger"; "gaussim" reruns an experiment on the openGauss-
	// flavored engine, mirroring the paper's cross-DBMS validation).
	Backend string
}

// NewBackend builds the backend an experiment targets.
func (o Opts) NewBackend(w *workload.Workload) (backend.Backend, error) {
	return backend.New(o.Backend, w.DB, w.Stats)
}

// ExpertName names the expert baseline after the engine it fronts, the way
// the paper does (PostgreSQL for the default engine, openGauss for the
// port).
func ExpertName(backendName string) string {
	if backendName == "gaussim" {
		return "openGauss"
	}
	return "PostgreSQL"
}

type pgMethod struct {
	name string
	be   backend.Backend
	w    *workload.Workload
	kb   map[string]float64
}

// NewPostgreSQL wraps the default backend's native optimizer as the expert
// baseline.
func NewPostgreSQL(w *workload.Workload) Method {
	return NewExpert(ExpertName(""), defaultBackend(w), w)
}

// defaultBackend is the default engine over w. Its name is a constant, so
// the registry lookup cannot fail.
func defaultBackend(w *workload.Workload) backend.Backend {
	be, err := backend.New("", w.DB, w.Stats)
	if err != nil {
		panic(err)
	}
	return be
}

// NewExpert wraps any backend's native optimizer as the expert baseline.
func NewExpert(name string, be backend.Backend, w *workload.Workload) Method {
	return &pgMethod{name: name, be: be, w: w, kb: map[string]float64{}}
}

func (p *pgMethod) Name() string                  { return p.name }
func (p *pgMethod) Train(func(int)) error         { return nil }
func (p *pgMethod) TrainingTime() time.Duration   { return 0 }
func (p *pgMethod) KnownBest() map[string]float64 { return p.kb }

func (p *pgMethod) Plan(q *query.Query) (*plan.CP, time.Duration, error) {
	start := time.Now()
	cp, err := p.be.Plan(q)
	return cp, time.Since(start), err
}

type fossMethod struct {
	sys *core.System
}

// NewFOSS wraps a core.System as a Method.
func NewFOSS(sys *core.System) Method { return &fossMethod{sys} }

func (f *fossMethod) Name() string { return "FOSS" }

func (f *fossMethod) Train(onStep func(int)) error {
	return f.sys.TrainContext(context.Background(), func(st learner.IterStats) {
		if onStep != nil {
			onStep(st.Iter)
		}
	})
}

// Plan asks the learner directly: Fig. 5 and Fig. 9 evaluate from inside the
// training callback, where System.OptimizeContext would wait on the training
// lock forever (see TrainContext). Experiments are single-threaded and
// uncached, so the runtime would add only that lock and a cache-key hash.
func (f *fossMethod) Plan(q *query.Query) (*plan.CP, time.Duration, error) {
	start := time.Now()
	pe, err := f.sys.Learner.Optimize(context.Background(), q)
	if err != nil {
		return nil, 0, err
	}
	return pe.CP, time.Since(start), nil
}

func (f *fossMethod) KnownBest() map[string]float64 {
	out := map[string]float64{}
	for qid, pe := range f.sys.Learner.KnownBest() {
		out[qid] = pe.Latency
	}
	return out
}

func (f *fossMethod) TrainingTime() time.Duration { return f.sys.TrainingTime() }

// BuildMethods constructs all six methods over one loaded workload.
func BuildMethods(w *workload.Workload, opts Opts) []Method {
	bao := baselines.DefaultBaoConfig()
	balsa := baselines.DefaultBalsaConfig()
	loger := baselines.DefaultLogerConfig()
	hqo := baselines.DefaultHybridQOConfig()
	for _, c := range []*baselines.Config{&bao, &balsa.Config, &loger.Config, &hqo.Config} {
		c.Seed = opts.Seed
		if opts.Fast {
			c.PassCount = 1
		}
	}
	if opts.Fast {
		hqo.Simulations = 15
	}
	sys, err := core.New(w, fossConfig(opts))
	if err != nil {
		panic(err)
	}
	return []Method{
		NewPostgreSQL(w),
		baselines.NewBao(w, bao),
		baselines.NewBalsa(w, balsa),
		baselines.NewLoger(w, loger),
		baselines.NewHybridQO(w, hqo),
		NewFOSS(sys),
	}
}

// Evaluate measures a trained method on a query set. Plans are executed with
// a guard timeout of 20× the expert latency (counted at the cap if hit),
// mirroring the paper's TLE handling for runaway learned plans.
func Evaluate(m Method, w *workload.Workload, qs []*query.Query) []metrics.QueryResult {
	return EvaluateOn(defaultBackend(w), m, w, qs)
}

// EvaluateOn is Evaluate against an explicit backend: plans execute on that
// backend's latency surface and the runaway guard comes from its own expert
// plan, so cross-backend comparisons stay apples-to-apples.
func EvaluateOn(be backend.Backend, m Method, w *workload.Workload, qs []*query.Query) []metrics.QueryResult {
	var out []metrics.QueryResult
	for _, q := range qs {
		cp, ot, err := m.Plan(q)
		if err != nil {
			continue
		}
		guard := 0.0
		if ecp, err := be.Plan(q); err == nil {
			guard = be.Execute(ecp, 0).LatencyMs * 20
		}
		res := be.Execute(cp, guard)
		lat := res.LatencyMs
		if res.TimedOut {
			lat = guard
		}
		out = append(out, metrics.QueryResult{QueryID: q.ID, LatencyMs: lat, OptTimeMs: ot.Seconds() * 1000})
	}
	return out
}

// fprintf writes to w, ignoring errors (report sinks are in-memory or stdout).
func fprintf(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}
