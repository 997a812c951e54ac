// Package loger reimplements Loger (Chen et al., VLDB 2023) on this
// repository's substrate. Like Balsa it learns the join order bottom-up from
// scratch, but — its distinguishing idea — instead of committing to a
// physical join method per step, the learned policy only *restricts* the
// method set, and the traditional optimizer's cost model picks the cheapest
// method inside the restriction. This keeps expert knowledge in the loop for
// the part cost models do well, which is why Loger converges faster and
// plans more robustly than fully-from-scratch constructors.
package loger

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

// Restriction is one method-restriction action.
type Restriction struct {
	Name    string
	Allowed map[plan.JoinMethod]bool
}

// Restrictions returns Loger's restriction set.
func Restrictions() []Restriction {
	all := map[plan.JoinMethod]bool{plan.HashJoin: true, plan.MergeJoin: true, plan.NestLoop: true}
	no := func(m plan.JoinMethod) map[plan.JoinMethod]bool {
		out := map[plan.JoinMethod]bool{}
		for k, v := range all {
			if k != m {
				out[k] = v
			}
		}
		return out
	}
	return []Restriction{
		{"free", all},
		{"no_hash", no(plan.HashJoin)},
		{"no_merge", no(plan.MergeJoin)},
		{"no_nl", no(plan.NestLoop)},
	}
}

// Config tunes training.
type Config struct {
	Epsilon    float64
	Epochs     int
	LR         float64
	Seed       int64
	PassCount  int
	TimeoutMul float64
	StateNet   aam.StateNetConfig
}

// DefaultConfig returns repository-scale settings.
func DefaultConfig() Config {
	return Config{Epsilon: 0.25, Epochs: 2, LR: 1e-3, Seed: 1, PassCount: 3, TimeoutMul: 4,
		StateNet: aam.StateNetConfig{DModel: 32, Heads: 2, Layers: 1, FFDim: 64, StateDim: 32}}
}

// Loger is one instance.
type Loger struct {
	W   *workload.Workload
	Cfg Config

	enc   *planenc.Encoder
	opt   *optimizer.Optimizer
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

// New builds an untrained Loger.
func New(w *workload.Workload, cfg Config) *Loger {
	rng := rand.New(rand.NewSource(cfg.Seed))
	enc := planenc.NewEncoder(w.DB.Schema)
	state := aam.NewStateNet(rng, cfg.StateNet, enc.NumTables, enc.NumCols)
	head := nn.NewMLP(rng, cfg.StateNet.StateDim, 64, 1)
	params := append(state.Params(), head.Params()...)
	adam := nn.NewAdam(params, cfg.LR)
	adam.ClipNorm = 5
	return &Loger{
		W: w, Cfg: cfg,
		enc: enc, opt: optimizer.New(w.DB, w.Stats), exec: exec.New(w.DB),
		state: state, head: head, adam: adam, rng: rng,
		knownBest: map[string]float64{}, expertLat: map[string]float64{},
	}
}

func (l *Loger) valueOf(cp *plan.CP) float64 {
	sv := l.state.Forward(l.enc.Encode(cp), 0, nil)
	return l.head.Forward(sv).Detach().Item()
}

// construct builds a plan: learned (table, restriction) choices, expert
// method selection within the restriction.
func (l *Loger) construct(q *query.Query, explore bool) (*plan.CP, error) {
	aliases := q.Aliases()
	n := len(aliases)
	joined := map[string]bool{}
	var order []string
	var methods []plan.JoinMethod

	// start from the estimated-smallest filtered table (Loger uses the DB's
	// cardinalities for its starting heuristic)
	first := aliases[0]
	bestRows := math.Inf(1)
	for _, a := range aliases {
		if r := l.W.Stats.ScanRows(q, a); r < bestRows {
			bestRows, first = r, a
		}
	}
	if explore && l.rng.Float64() < l.Cfg.Epsilon {
		first = aliases[l.rng.Intn(n)]
	}
	order = append(order, first)
	joined[first] = true
	leftRows := l.W.Stats.ScanRows(q, first)

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
			preds := q.JoinsBetween(joined, a)
			if len(preds) == 0 {
				continue
			}
			for _, r := range Restrictions() {
				m := l.opt.CheapestMethod(q, leftRows, a, preds, r.Allowed)
				cp, err := l.opt.PartialPlan(q, append(append([]string(nil), order...), a), append(append([]plan.JoinMethod(nil), methods...), m))
				if err != nil {
					continue
				}
				choices = append(choices, choice{a, m, l.valueOf(cp)})
			}
		}
		if len(choices) == 0 {
			for _, a := range aliases {
				if !joined[a] {
					choices = append(choices, choice{a, plan.HashJoin, 0})
					break
				}
			}
		}
		var pick choice
		if explore && l.rng.Float64() < l.Cfg.Epsilon {
			pick = choices[l.rng.Intn(len(choices))]
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
		leftRows = l.W.Stats.ScanRows(q, pick.alias) * leftRows // coarse running estimate
	}
	return l.opt.PartialPlan(q, order, methods)
}

func (l *Loger) expertLatency(q *query.Query) float64 {
	if v, ok := l.expertLat[q.ID]; ok {
		return v
	}
	cp, err := l.opt.Plan(q)
	if err != nil {
		l.expertLat[q.ID] = 1000
		return 1000
	}
	v := l.exec.Execute(cp, 0).LatencyMs
	l.expertLat[q.ID] = v
	return v
}

// Train runs PassCount passes of construct-execute-refit.
func (l *Loger) Train(onPass func(pass int)) error {
	start := time.Now()
	defer func() { l.trainTime += time.Since(start) }()
	for pass := 0; pass < l.Cfg.PassCount; pass++ {
		for _, q := range l.W.Train {
			cp, err := l.construct(q, true)
			if err != nil {
				return fmt.Errorf("loger: construct %s: %w", q.ID, err)
			}
			timeout := l.expertLatency(q) * l.Cfg.TimeoutMul
			res := l.exec.Execute(cp, timeout)
			lat := res.LatencyMs
			if res.TimedOut {
				lat = timeout * 2
			}
			l.record(q, cp, lat, res.TimedOut)
		}
		l.refreshModel()
		if onPass != nil {
			onPass(pass)
		}
	}
	return nil
}

func (l *Loger) record(q *query.Query, cp *plan.CP, latency float64, timedOut bool) {
	l.experience = append(l.experience, expPoint{l.enc.Encode(cp), math.Log(math.Max(latency, 1e-3))})
	if !timedOut {
		if cur, ok := l.knownBest[q.ID]; !ok || latency < cur {
			l.knownBest[q.ID] = latency
		}
	}
}

func (l *Loger) refreshModel() {
	if len(l.experience) == 0 {
		return
	}
	idx := l.rng.Perm(len(l.experience))
	for ep := 0; ep < l.Cfg.Epochs; ep++ {
		for _, i := range idx {
			pt := l.experience[i]
			l.adam.ZeroGrad()
			sv := l.state.Forward(pt.enc, 0, nil)
			pred := l.head.Forward(sv)
			diff := nn.AddScalar(pred, -pt.logLat)
			loss := nn.Mean(nn.Mul(diff, diff))
			loss.Backward()
			l.adam.Step()
		}
	}
}

// Plan constructs the greedy plan for a query.
func (l *Loger) Plan(q *query.Query) (*plan.CP, time.Duration, error) {
	startT := time.Now()
	cp, err := l.construct(q, false)
	if err != nil {
		return nil, 0, err
	}
	return cp, time.Since(startT), nil
}

// KnownBest returns the best executed latency per query seen in training.
func (l *Loger) KnownBest() map[string]float64 { return l.knownBest }

// TrainingTime reports wall-clock spent training.
func (l *Loger) TrainingTime() time.Duration { return l.trainTime }
