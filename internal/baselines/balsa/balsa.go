// Package balsa reimplements Balsa (Yang et al., SIGMOD 2022) on this
// repository's substrate: an end-to-end learned optimizer that constructs
// left-deep plans from scratch — no expert optimizer in the loop — choosing
// at every step which table to join next and with which physical method,
// guided by a learned value network over partial-plan encodings and trained
// on executed latencies. Like the original, it has no original-plan safety
// net: early in training it emits catastrophic plans (the paper reports TLE
// on Stack for exactly this reason), which the harness bounds with timeouts.
package balsa

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

// Config tunes training.
type Config struct {
	Epsilon    float64 // exploration rate
	Epochs     int     // value-net epochs per refresh
	LR         float64
	Seed       int64
	PassCount  int     // passes over the training workload
	TimeoutMul float64 // execution timeout as a multiple of the expert latency
	StateNet   aam.StateNetConfig
}

// DefaultConfig returns repository-scale settings.
func DefaultConfig() Config {
	return Config{Epsilon: 0.3, Epochs: 2, LR: 1e-3, Seed: 1, PassCount: 3, TimeoutMul: 4,
		StateNet: aam.StateNetConfig{DModel: 32, Heads: 2, Layers: 1, FFDim: 64, StateDim: 32}}
}

// Balsa is one instance.
type Balsa struct {
	W   *workload.Workload
	Cfg Config

	enc   *planenc.Encoder
	opt   *optimizer.Optimizer // used only to annotate partial plans and execute baselines for timeouts
	exec  *exec.Executor
	state *aam.StateNet
	head  *nn.MLP
	adam  *nn.Adam
	rng   *rand.Rand

	experience []expPoint
	knownBest  map[string]float64
	trainTime  time.Duration
	expertLat  map[string]float64
}

type expPoint struct {
	enc    *planenc.Encoded
	logLat float64
}

// New builds an untrained Balsa.
func New(w *workload.Workload, cfg Config) *Balsa {
	rng := rand.New(rand.NewSource(cfg.Seed))
	enc := planenc.NewEncoder(w.DB.Schema)
	state := aam.NewStateNet(rng, cfg.StateNet, enc.NumTables, enc.NumCols)
	head := nn.NewMLP(rng, cfg.StateNet.StateDim, 64, 1)
	params := append(state.Params(), head.Params()...)
	adam := nn.NewAdam(params, cfg.LR)
	adam.ClipNorm = 5
	return &Balsa{
		W: w, Cfg: cfg,
		enc: enc, opt: optimizer.New(w.DB, w.Stats), exec: exec.New(w.DB),
		state: state, head: head, adam: adam, rng: rng,
		knownBest: map[string]float64{}, expertLat: map[string]float64{},
	}
}

// valueOf scores a (partial or complete) plan: predicted log-latency.
func (b *Balsa) valueOf(cp *plan.CP) float64 {
	sv := b.state.Forward(b.enc.Encode(cp), 0, nil)
	return b.head.Forward(sv).Detach().Item()
}

// construct builds a complete plan from scratch. explore enables
// epsilon-greedy choices.
func (b *Balsa) construct(q *query.Query, explore bool) (*plan.CP, plan.ICP, error) {
	aliases := q.Aliases()
	n := len(aliases)
	joined := map[string]bool{}
	var order []string
	var methods []plan.JoinMethod

	// first table: smallest predicted value among single-table plans (or
	// random under exploration)
	pickFirst := func() string {
		if explore && b.rng.Float64() < b.Cfg.Epsilon {
			return aliases[b.rng.Intn(n)]
		}
		best, bestV := aliases[0], math.Inf(1)
		for _, a := range aliases {
			cp, err := b.opt.PartialPlan(q, []string{a}, nil)
			if err != nil {
				continue
			}
			if v := b.valueOf(cp); v < bestV {
				bestV, best = v, a
			}
		}
		return best
	}
	first := pickFirst()
	order = append(order, first)
	joined[first] = true

	for len(order) < n {
		type choice struct {
			alias  string
			method plan.JoinMethod
			value  float64
		}
		var choices []choice
		for _, a := range aliases {
			if joined[a] {
				continue
			}
			if len(q.JoinsBetween(joined, a)) == 0 {
				continue // avoid cross products, as Balsa's action space does
			}
			for _, m := range []plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.NestLoop} {
				cp, err := b.opt.PartialPlan(q, append(append([]string(nil), order...), a), append(append([]plan.JoinMethod(nil), methods...), m))
				if err != nil {
					continue
				}
				choices = append(choices, choice{a, m, b.valueOf(cp)})
			}
		}
		if len(choices) == 0 {
			// disconnected remainder: join any remaining table by hash
			for _, a := range aliases {
				if !joined[a] {
					choices = append(choices, choice{a, plan.HashJoin, 0})
					break
				}
			}
		}
		var pick choice
		if explore && b.rng.Float64() < b.Cfg.Epsilon {
			pick = choices[b.rng.Intn(len(choices))]
		} else {
			pick = choices[0]
			for _, c := range choices[1:] {
				if c.value < pick.value {
					pick = c
				}
			}
		}
		order = append(order, pick.alias)
		methods = append(methods, pick.method)
		joined[pick.alias] = true
	}
	icp := plan.ICP{Order: order, Methods: methods}
	cp, err := b.opt.PartialPlan(q, order, methods)
	if err != nil {
		return nil, plan.ICP{}, err
	}
	return cp, icp, nil
}

// expertLatency caches the expert plan latency (used only to bound
// catastrophic plans with a timeout, as the original uses query timeouts).
func (b *Balsa) expertLatency(q *query.Query) float64 {
	if v, ok := b.expertLat[q.ID]; ok {
		return v
	}
	cp, err := b.opt.Plan(q)
	if err != nil {
		b.expertLat[q.ID] = 1000
		return 1000
	}
	v := b.exec.Execute(cp, 0).LatencyMs
	b.expertLat[q.ID] = v
	return v
}

// Train runs PassCount construction-execute-refit passes.
func (b *Balsa) Train(onPass func(pass int)) error {
	start := time.Now()
	defer func() { b.trainTime += time.Since(start) }()
	for pass := 0; pass < b.Cfg.PassCount; pass++ {
		for _, q := range b.W.Train {
			cp, _, err := b.construct(q, true)
			if err != nil {
				return fmt.Errorf("balsa: construct %s: %w", q.ID, err)
			}
			timeout := b.expertLatency(q) * b.Cfg.TimeoutMul
			res := b.exec.Execute(cp, timeout)
			lat := res.LatencyMs
			if res.TimedOut {
				lat = timeout * 2 // pessimistic label for timeouts
			}
			b.record(q, cp, lat, res.TimedOut)
		}
		b.refreshModel()
		if onPass != nil {
			onPass(pass)
		}
	}
	return nil
}

func (b *Balsa) record(q *query.Query, cp *plan.CP, latency float64, timedOut bool) {
	b.experience = append(b.experience, expPoint{b.enc.Encode(cp), math.Log(math.Max(latency, 1e-3))})
	if !timedOut {
		if cur, ok := b.knownBest[q.ID]; !ok || latency < cur {
			b.knownBest[q.ID] = latency
		}
	}
}

func (b *Balsa) refreshModel() {
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

// Plan constructs the greedy plan for a query.
func (b *Balsa) Plan(q *query.Query) (*plan.CP, time.Duration, error) {
	startT := time.Now()
	cp, _, err := b.construct(q, false)
	if err != nil {
		return nil, 0, err
	}
	return cp, time.Since(startT), nil
}

// KnownBest returns the best executed latency per query seen in training.
func (b *Balsa) KnownBest() map[string]float64 { return b.knownBest }

// TrainingTime reports wall-clock spent training.
func (b *Balsa) TrainingTime() time.Duration { return b.trainTime }
