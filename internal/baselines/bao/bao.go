// Package bao reimplements Bao (Marcus et al., SIGMOD 2021) on this
// repository's substrate: a plan-steerer that plans each query under a small
// set of coarse hint sets (disabling whole operator classes for the entire
// query), predicts each candidate plan's latency with a learned tree-encoder
// value model, and executes the predicted-best plan. Training alternates
// epsilon-greedy hint selection with value-model regression on observed
// latencies — the contextual-bandit structure of the original system
// (Thompson sampling is replaced by epsilon-greedy; the candidate structure,
// coarse hints, and value-model role are preserved).
package bao

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/engine/exec"
	"github.com/foss-db/foss/internal/nn"
	"github.com/foss-db/foss/internal/optimizer"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planenc"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/workload"
)

// HintSet is one coarse steering configuration.
type HintSet struct {
	Name     string
	Disabled map[plan.JoinMethod]bool
	NoIndex  bool
}

// DefaultHintSets returns Bao's default five arms.
func DefaultHintSets() []HintSet {
	return []HintSet{
		{Name: "default"},
		{Name: "no_nestloop", Disabled: map[plan.JoinMethod]bool{plan.NestLoop: true}},
		{Name: "no_hashjoin", Disabled: map[plan.JoinMethod]bool{plan.HashJoin: true}},
		{Name: "no_mergejoin", Disabled: map[plan.JoinMethod]bool{plan.MergeJoin: true}},
		{Name: "hash_only", Disabled: map[plan.JoinMethod]bool{plan.NestLoop: true, plan.MergeJoin: true}},
	}
}

// Config tunes training.
type Config struct {
	Epsilon   float64 // exploration rate during training
	Epochs    int     // value-model epochs per refresh
	LR        float64
	Seed      int64
	PassCount int // passes over the training workload
	StateNet  aam.StateNetConfig
}

// DefaultConfig returns repository-scale settings.
func DefaultConfig() Config {
	return Config{Epsilon: 0.25, Epochs: 3, LR: 1e-3, Seed: 1, PassCount: 3,
		StateNet: aam.StateNetConfig{DModel: 32, Heads: 2, Layers: 1, FFDim: 64, StateDim: 32}}
}

// Bao is one trained instance.
type Bao struct {
	W     *workload.Workload
	Cfg   Config
	Hints []HintSet

	enc   *planenc.Encoder
	opt   *optimizer.Optimizer
	exec  *exec.Executor
	state *aam.StateNet
	head  *nn.MLP // statevec -> predicted log-latency
	adam  *nn.Adam
	rng   *rand.Rand

	experience []experiencePoint
	knownBest  map[string]float64
	trainTime  time.Duration
}

type experiencePoint struct {
	enc    *planenc.Encoded
	logLat float64
}

// New builds an untrained Bao over a workload.
func New(w *workload.Workload, cfg Config) *Bao {
	rng := rand.New(rand.NewSource(cfg.Seed))
	enc := planenc.NewEncoder(w.DB.Schema)
	state := aam.NewStateNet(rng, cfg.StateNet, enc.NumTables, enc.NumCols)
	head := nn.NewMLP(rng, cfg.StateNet.StateDim, 64, 1)
	params := append(state.Params(), head.Params()...)
	adam := nn.NewAdam(params, cfg.LR)
	adam.ClipNorm = 5
	return &Bao{
		W: w, Cfg: cfg, Hints: DefaultHintSets(),
		enc: enc, opt: optimizer.New(w.DB, w.Stats), exec: exec.New(w.DB),
		state: state, head: head, adam: adam, rng: rng,
		knownBest: map[string]float64{},
	}
}

// candidates plans the query under every hint set (deduplicated by ICP).
func (b *Bao) candidates(q *query.Query) []*plan.CP {
	var cps []*plan.CP
	seen := map[string]bool{}
	for _, h := range b.Hints {
		cp, err := b.opt.PlanWithConfig(q, optimizer.Config{DisabledJoins: h.Disabled, DisableIndexScan: h.NoIndex})
		if err != nil {
			continue
		}
		icp, err := plan.Extract(cp)
		if err != nil {
			continue
		}
		if seen[icp.Key()] {
			continue
		}
		seen[icp.Key()] = true
		cps = append(cps, cp)
	}
	return cps
}

// predict returns the value model's latency estimate (ms) for a plan.
func (b *Bao) predict(cp *plan.CP) float64 {
	sv := b.state.Forward(b.enc.Encode(cp), 0, nil)
	return math.Exp(b.head.Forward(sv).Detach().Item())
}

// Train runs PassCount epsilon-greedy passes over the training workload.
// onPass, if non-nil, is invoked after each pass (training-curve hooks).
func (b *Bao) Train(onPass func(pass int)) error {
	start := time.Now()
	defer func() { b.trainTime += time.Since(start) }()
	for pass := 0; pass < b.Cfg.PassCount; pass++ {
		for _, q := range b.W.Train {
			cands := b.candidates(q)
			if len(cands) == 0 {
				return fmt.Errorf("bao: no candidate plans for %s", q.ID)
			}
			var chosen *plan.CP
			if b.rng.Float64() < b.Cfg.Epsilon || len(b.experience) == 0 {
				chosen = cands[b.rng.Intn(len(cands))]
			} else {
				best := math.Inf(1)
				for _, cp := range cands {
					if p := b.predict(cp); p < best {
						best, chosen = p, cp
					}
				}
			}
			res := b.exec.Execute(chosen, 0)
			b.record(q, chosen, res.LatencyMs)
		}
		b.refreshModel()
		if onPass != nil {
			onPass(pass)
		}
	}
	return nil
}

func (b *Bao) record(q *query.Query, cp *plan.CP, latency float64) {
	b.experience = append(b.experience, experiencePoint{b.enc.Encode(cp), math.Log(math.Max(latency, 1e-3))})
	if cur, ok := b.knownBest[q.ID]; !ok || latency < cur {
		b.knownBest[q.ID] = latency
	}
}

// refreshModel retrains the value model on all experience.
func (b *Bao) refreshModel() {
	if len(b.experience) == 0 {
		return
	}
	idx := b.rng.Perm(len(b.experience))
	for ep := 0; ep < b.Cfg.Epochs; ep++ {
		for _, i := range idx {
			pt := b.experience[i]
			b.adam.ZeroGrad()
			sv := b.state.Forward(pt.enc, 0, nil)
			pred := b.head.Forward(sv)
			diff := nn.AddScalar(pred, -pt.logLat)
			loss := nn.Mean(nn.Mul(diff, diff))
			loss.Backward()
			b.adam.Step()
		}
	}
}

// Plan selects the predicted-best hint-set plan for a query.
func (b *Bao) Plan(q *query.Query) (*plan.CP, time.Duration, error) {
	startT := time.Now()
	cands := b.candidates(q)
	if len(cands) == 0 {
		return nil, 0, fmt.Errorf("bao: no candidates for %s", q.ID)
	}
	best, bestV := cands[0], math.Inf(1)
	for _, cp := range cands {
		if v := b.predict(cp); v < bestV {
			bestV, best = v, cp
		}
	}
	return best, time.Since(startT), nil
}

// KnownBest returns the best executed latency per query seen in training.
func (b *Bao) KnownBest() map[string]float64 { return b.knownBest }

// TrainingTime reports wall-clock spent training.
func (b *Bao) TrainingTime() time.Duration { return b.trainTime }
