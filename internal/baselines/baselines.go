// Package baselines reimplements the four learned optimizers Table I
// compares FOSS with, on this repository's substrate: Bao, Balsa, Loger and
// HybridQO. All four rank plans with the same component, the value network
// Neo and Bao introduced: a state network over the plan encoding plus an
// MLP head, regressed on observed log-latency (valueModel). Each baseline
// keeps only its search:
//
//   - Bao plans the query under a few coarse hint sets and executes the
//     predicted-best plan.
//   - Balsa constructs left-deep plans from scratch, choosing each next
//     table and physical join method by predicted value.
//   - Loger constructs like Balsa but only restricts the method set, and the
//     cost model picks the method inside the restriction.
//   - HybridQO searches leading join-order prefixes with MCTS and lets the
//     traditional optimizer complete each into a candidate.
//
// Every baseline implements experiments.Method.
package baselines

import (
	"math"
	"math/rand"
	"time"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/engine/cost"
	"github.com/foss-db/foss/internal/engine/exec"
	"github.com/foss-db/foss/internal/nn"
	"github.com/foss-db/foss/internal/optimizer"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planenc"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/workload"
)

// Config tunes a baseline's value model and its training passes.
type Config struct {
	Epsilon   float64 // exploration rate during training
	Epochs    int     // value-model epochs per refresh
	LR        float64
	Seed      int64
	PassCount int // passes over the training workload
	StateNet  aam.StateNetConfig
}

// defaultConfig returns the repository-scale settings the four baselines
// share, with a baseline's own exploration rate and epochs.
func defaultConfig(epsilon float64, epochs int) Config {
	return Config{Epsilon: epsilon, Epochs: epochs, LR: 1e-3, Seed: 1, PassCount: 3,
		StateNet: aam.StateNetConfig{DModel: 32, Heads: 2, Layers: 1, FFDim: 64, StateDim: 32}}
}

// valueModel is what the four baselines share: the value network (StateNet
// plus an MLP head to one predicted log-latency), its optimizer and seeded
// rng, the experience it is refit on, and the bookkeeping of executing plans
// (known-best latencies, expert latencies, the training clock). Predictions
// run on frozen views of the weights refresh trains.
type valueModel struct {
	w    *workload.Workload
	cfg  Config
	enc  *planenc.Encoder
	opt  *optimizer.Optimizer
	exec *exec.Executor
	rng  *rand.Rand

	state  *aam.StateNet
	head   *nn.MLP
	adam   *nn.Adam
	frozen struct {
		state *aam.StateNet
		head  *nn.MLP
	}

	experience []experience
	knownBest  map[string]float64
	expertLat  map[string]float64
	trainTime  time.Duration
}

type experience struct {
	enc    *planenc.Encoded
	logLat float64
}

// newValueModel builds an untrained value model over a workload. The rng
// initialises the state network, then the head; refresh and exploration
// draw from it afterwards.
func newValueModel(w *workload.Workload, cfg Config) *valueModel {
	v := &valueModel{
		w: w, cfg: cfg,
		enc: planenc.NewEncoder(w.DB.Schema), opt: optimizer.New(w.DB, w.Stats, cost.OptimizerParams()), exec: exec.New(w.DB, cost.TruthParams()),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		knownBest: map[string]float64{}, expertLat: map[string]float64{},
	}
	v.state = aam.NewStateNet(v.rng, cfg.StateNet, v.enc.NumTables, v.enc.NumCols)
	v.head = nn.NewMLP(v.rng, cfg.StateNet.StateDim, 64, 1)
	v.adam = nn.NewAdam(append(v.state.Params(), v.head.Params()...), cfg.LR)
	v.adam.ClipNorm = 5
	v.frozen.state, v.frozen.head = v.state.Frozen(), v.head.Frozen()
	return v
}

// predict is the value model's predicted log-latency of a (partial or
// complete) plan.
func (v *valueModel) predict(cp *plan.CP) float64 {
	return v.frozen.head.Forward(v.frozen.state.Forward(v.enc.Encode(cp), 0, nil)).Item()
}

// explores draws the exploration coin: true with probability Epsilon.
func (v *valueModel) explores() bool { return v.rng.Float64() < v.cfg.Epsilon }

// execute runs cp under timeoutMs (0: none) and records the outcome,
// labelling a timeout pessimistically as 2 × timeoutMs. A timed-out plan
// never becomes the query's known best.
func (v *valueModel) execute(q *query.Query, cp *plan.CP, timeoutMs float64) {
	res := v.exec.Execute(cp, timeoutMs)
	lat := res.LatencyMs
	if res.TimedOut {
		lat = timeoutMs * 2
	}
	v.experience = append(v.experience, experience{v.enc.Encode(cp), math.Log(math.Max(lat, 1e-3))})
	if cur, ok := v.knownBest[q.ID]; !res.TimedOut && (!ok || lat < cur) {
		v.knownBest[q.ID] = lat
	}
}

// refresh refits the value model on all experience: Epochs passes in one
// shuffled order, one Adam step per point on the squared log-latency error.
func (v *valueModel) refresh() {
	if len(v.experience) == 0 {
		return
	}
	idx := v.rng.Perm(len(v.experience))
	for ep := 0; ep < v.cfg.Epochs; ep++ {
		for _, i := range idx {
			pt := v.experience[i]
			v.adam.ZeroGrad()
			diff := nn.AddScalar(v.head.Forward(v.state.Forward(pt.enc, 0, nil)), -pt.logLat)
			nn.Mean(nn.Mul(diff, diff)).Backward()
			v.adam.Step()
		}
	}
}

// train runs PassCount passes over the training split: visit every query,
// refresh, then call onPass (if non-nil) with the pass index.
func (v *valueModel) train(onPass func(pass int), visit func(q *query.Query) error) error {
	start := time.Now()
	defer func() { v.trainTime += time.Since(start) }()
	for pass := 0; pass < v.cfg.PassCount; pass++ {
		for _, q := range v.w.Train {
			if err := visit(q); err != nil {
				return err
			}
		}
		v.refresh()
		if onPass != nil {
			onPass(pass)
		}
	}
	return nil
}

// expertLatency is the executed latency of the expert's plan (1000 ms when
// the expert cannot plan the query), cached per query. Balsa and Loger bound
// their plans' executions by a multiple of it, as the originals use query
// timeouts.
func (v *valueModel) expertLatency(q *query.Query) float64 {
	if lat, ok := v.expertLat[q.ID]; ok {
		return lat
	}
	lat := 1000.0
	if cp, err := v.opt.Plan(q); err == nil {
		lat = v.exec.Execute(cp, 0).LatencyMs
	}
	v.expertLat[q.ID] = lat
	return lat
}

// KnownBest returns the best executed latency per query seen in training.
func (v *valueModel) KnownBest() map[string]float64 { return v.knownBest }

// TrainingTime reports wall-clock spent training.
func (v *valueModel) TrainingTime() time.Duration { return v.trainTime }

// cheapest returns the element of xs (non-empty) that score ranks lowest,
// the first on ties.
func cheapest[T any](xs []T, score func(T) float64) T {
	best, bestV := xs[0], math.Inf(1)
	for _, x := range xs {
		if s := score(x); s < bestV {
			best, bestV = x, s
		}
	}
	return best
}

// addDistinct appends cp to cps unless seen already holds its ICP.
func addDistinct(cps []*plan.CP, seen map[string]bool, cp *plan.CP) []*plan.CP {
	icp, err := plan.Extract(cp)
	if err != nil || seen[icp.Key()] {
		return cps
	}
	seen[icp.Key()] = true
	return append(cps, cp)
}
