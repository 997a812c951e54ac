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
	"github.com/foss-db/foss/internal/baselines/balsa"
	"github.com/foss-db/foss/internal/baselines/bao"
	"github.com/foss-db/foss/internal/baselines/hybridqo"
	"github.com/foss-db/foss/internal/baselines/loger"
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

// ---- method adapters ----

type pgMethod struct {
	name string
	be   backend.Backend
	w    *workload.Workload
	kb   map[string]float64
}

// NewPostgreSQL wraps the default backend's native optimizer as the expert
// baseline.
func NewPostgreSQL(w *workload.Workload) Method {
	return NewExpert(ExpertName(""), backend.NewSelinger(w.DB, w.Stats), w)
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

type baoMethod struct{ b *bao.Bao }

// NewBao wraps Bao.
func NewBao(b *bao.Bao) Method { return &baoMethod{b} }

func (m *baoMethod) Name() string { return "Bao" }
func (m *baoMethod) Train(onStep func(int)) error {
	return m.b.Train(onStep)
}
func (m *baoMethod) Plan(q *query.Query) (*plan.CP, time.Duration, error) { return m.b.Plan(q) }
func (m *baoMethod) KnownBest() map[string]float64                        { return m.b.KnownBest() }
func (m *baoMethod) TrainingTime() time.Duration                          { return m.b.TrainingTime() }

type balsaMethod struct{ b *balsa.Balsa }

// NewBalsa wraps Balsa.
func NewBalsa(b *balsa.Balsa) Method { return &balsaMethod{b} }

func (m *balsaMethod) Name() string { return "Balsa" }
func (m *balsaMethod) Train(onStep func(int)) error {
	return m.b.Train(onStep)
}
func (m *balsaMethod) Plan(q *query.Query) (*plan.CP, time.Duration, error) { return m.b.Plan(q) }
func (m *balsaMethod) KnownBest() map[string]float64                        { return m.b.KnownBest() }
func (m *balsaMethod) TrainingTime() time.Duration                          { return m.b.TrainingTime() }

type logerMethod struct{ l *loger.Loger }

// NewLoger wraps Loger.
func NewLoger(l *loger.Loger) Method { return &logerMethod{l} }

func (m *logerMethod) Name() string { return "Loger" }
func (m *logerMethod) Train(onStep func(int)) error {
	return m.l.Train(onStep)
}
func (m *logerMethod) Plan(q *query.Query) (*plan.CP, time.Duration, error) { return m.l.Plan(q) }
func (m *logerMethod) KnownBest() map[string]float64                        { return m.l.KnownBest() }
func (m *logerMethod) TrainingTime() time.Duration                          { return m.l.TrainingTime() }

type hqoMethod struct{ h *hybridqo.HybridQO }

// NewHybridQO wraps HybridQO.
func NewHybridQO(h *hybridqo.HybridQO) Method { return &hqoMethod{h} }

func (m *hqoMethod) Name() string { return "HybridQO" }
func (m *hqoMethod) Train(onStep func(int)) error {
	return m.h.Train(onStep)
}
func (m *hqoMethod) Plan(q *query.Query) (*plan.CP, time.Duration, error) { return m.h.Plan(q) }
func (m *hqoMethod) KnownBest() map[string]float64                        { return m.h.KnownBest() }
func (m *hqoMethod) TrainingTime() time.Duration                          { return m.h.TrainingTime() }

// BuildMethods constructs all six methods over one loaded workload.
func BuildMethods(w *workload.Workload, opts Opts) []Method {
	fossCfg := core.DefaultConfig()
	fossCfg.Seed = opts.Seed
	baoCfg := bao.DefaultConfig()
	balsaCfg := balsa.DefaultConfig()
	logerCfg := loger.DefaultConfig()
	hqoCfg := hybridqo.DefaultConfig()
	baoCfg.Seed, balsaCfg.Seed, logerCfg.Seed, hqoCfg.Seed = opts.Seed, opts.Seed, opts.Seed, opts.Seed
	if opts.Fast {
		fossCfg.Learner.Iterations = 3
		fossCfg.Learner.SimPerIter = 60
		fossCfg.Learner.RealPerIter = 15
		fossCfg.Learner.ValidatePerIter = 15
		baoCfg.PassCount, balsaCfg.PassCount, logerCfg.PassCount, hqoCfg.PassCount = 1, 1, 1, 1
		hqoCfg.Simulations = 15
	} else {
		fossCfg.Learner.Iterations = 8
		fossCfg.Learner.SimPerIter = 180
		fossCfg.Learner.RealPerIter = 30
		fossCfg.Learner.ValidatePerIter = 30
	}
	sys, err := core.New(w, fossCfg)
	if err != nil {
		panic(err)
	}
	return []Method{
		NewPostgreSQL(w),
		NewBao(bao.New(w, baoCfg)),
		NewBalsa(balsa.New(w, balsaCfg)),
		NewLoger(loger.New(w, logerCfg)),
		NewHybridQO(hybridqo.New(w, hqoCfg)),
		NewFOSS(sys),
	}
}

// Evaluate measures a trained method on a query set. Plans are executed with
// a guard timeout of 20× the expert latency (counted at the cap if hit),
// mirroring the paper's TLE handling for runaway learned plans.
func Evaluate(m Method, w *workload.Workload, qs []*query.Query) []metrics.QueryResult {
	return EvaluateOn(backend.NewSelinger(w.DB, w.Stats), m, w, qs)
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
