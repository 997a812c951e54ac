// Package hybridqo reimplements HybridQO (Yu et al., VLDB 2022) on this
// repository's substrate: a hybrid cost-based/learning-based optimizer that
// uses Monte Carlo Tree Search over *leading join-order prefixes*, hands
// each promising prefix to the traditional optimizer as a hint, and selects
// among the completed candidate plans with a learned value model (plus the
// unhinted expert plan as a candidate). The search space sits between Bao's
// coarse hints and FOSS's fine-grained edits: the hint fixes only how the
// plan starts.
package hybridqo

import (
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

// Config tunes search and training.
type Config struct {
	MaxPrefixLen int     // depth of the prefix tree
	Simulations  int     // MCTS simulations per query
	UCTc         float64 // exploration constant
	TopK         int     // candidate prefixes handed to the optimizer
	Epsilon      float64 // training exploration
	Epochs       int
	LR           float64
	Seed         int64
	PassCount    int
	StateNet     aam.StateNetConfig
}

// DefaultConfig returns repository-scale settings.
func DefaultConfig() Config {
	return Config{
		MaxPrefixLen: 3, Simulations: 40, UCTc: 1.2, TopK: 4,
		Epsilon: 0.2, Epochs: 2, LR: 1e-3, Seed: 1, PassCount: 3,
		StateNet: aam.StateNetConfig{DModel: 32, Heads: 2, Layers: 1, FFDim: 64, StateDim: 32},
	}
}

// HybridQO is one instance.
type HybridQO struct {
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
}

type expPoint struct {
	enc    *planenc.Encoded
	logLat float64
}

// New builds an untrained HybridQO.
func New(w *workload.Workload, cfg Config) *HybridQO {
	rng := rand.New(rand.NewSource(cfg.Seed))
	enc := planenc.NewEncoder(w.DB.Schema)
	state := aam.NewStateNet(rng, cfg.StateNet, enc.NumTables, enc.NumCols)
	head := nn.NewMLP(rng, cfg.StateNet.StateDim, 64, 1)
	params := append(state.Params(), head.Params()...)
	adam := nn.NewAdam(params, cfg.LR)
	adam.ClipNorm = 5
	return &HybridQO{
		W: w, Cfg: cfg,
		enc: enc, opt: optimizer.New(w.DB, w.Stats), exec: exec.New(w.DB),
		state: state, head: head, adam: adam, rng: rng,
		knownBest: map[string]float64{},
	}
}

func (h *HybridQO) predict(cp *plan.CP) float64 {
	sv := h.state.Forward(h.enc.Encode(cp), 0, nil)
	return h.head.Forward(sv).Detach().Item()
}

// mctsNode is one prefix in the search tree.
type mctsNode struct {
	prefix   []string
	children []*mctsNode
	visits   int
	total    float64 // sum of rewards (negative predicted log-latency)
	expanded bool
}

// searchPrefixes runs MCTS and returns the TopK best-visited prefixes.
func (h *HybridQO) searchPrefixes(q *query.Query) [][]string {
	root := &mctsNode{}
	var leaves []*mctsNode

	rollout := func(n *mctsNode) float64 {
		cp, err := h.opt.PlanWithPrefix(q, n.prefix)
		if err != nil {
			return -10
		}
		// reward: negative predicted log-latency (higher is better)
		return -h.predict(cp)
	}

	expand := func(n *mctsNode) {
		n.expanded = true
		if len(n.prefix) >= h.Cfg.MaxPrefixLen {
			return
		}
		set := map[string]bool{}
		for _, a := range n.prefix {
			set[a] = true
		}
		for _, a := range q.Aliases() {
			if set[a] {
				continue
			}
			if len(n.prefix) > 0 && len(q.JoinsBetween(set, a)) == 0 {
				continue
			}
			child := &mctsNode{prefix: append(append([]string(nil), n.prefix...), a)}
			n.children = append(n.children, child)
			leaves = append(leaves, child)
		}
	}

	expand(root)
	for s := 0; s < h.Cfg.Simulations; s++ {
		// selection
		node := root
		for node.expanded && len(node.children) > 0 {
			best, bestU := node.children[0], math.Inf(-1)
			for _, c := range node.children {
				var u float64
				if c.visits == 0 {
					u = math.Inf(1)
				} else {
					u = c.total/float64(c.visits) +
						h.Cfg.UCTc*math.Sqrt(math.Log(float64(node.visits+1))/float64(c.visits))
				}
				if u > bestU {
					bestU, best = u, c
				}
			}
			node = best
		}
		if !node.expanded {
			expand(node)
		}
		r := rollout(node)
		// backprop along the prefix path
		for n := root; ; {
			n.visits++
			n.total += r
			if n == node || len(n.children) == 0 {
				break
			}
			var next *mctsNode
			for _, c := range n.children {
				if len(c.prefix) <= len(node.prefix) && samePrefix(c.prefix, node.prefix[:len(c.prefix)]) {
					next = c
					break
				}
			}
			if next == nil {
				break
			}
			n = next
		}
	}

	// rank visited prefixes by mean reward
	type scored struct {
		prefix []string
		mean   float64
	}
	var all []scored
	var collect func(n *mctsNode)
	collect = func(n *mctsNode) {
		if n.visits > 0 && len(n.prefix) > 0 {
			all = append(all, scored{n.prefix, n.total / float64(n.visits)})
		}
		for _, c := range n.children {
			collect(c)
		}
	}
	collect(root)
	// partial selection sort of TopK
	k := h.Cfg.TopK
	if k > len(all) {
		k = len(all)
	}
	for i := 0; i < k; i++ {
		bi := i
		for j := i + 1; j < len(all); j++ {
			if all[j].mean > all[bi].mean {
				bi = j
			}
		}
		all[i], all[bi] = all[bi], all[i]
	}
	out := make([][]string, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, all[i].prefix)
	}
	return out
}

func samePrefix(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// candidates completes the top prefixes into full plans, always including
// the unhinted expert plan.
func (h *HybridQO) candidates(q *query.Query) []*plan.CP {
	var cps []*plan.CP
	seen := map[string]bool{}
	add := func(cp *plan.CP) {
		icp, err := plan.Extract(cp)
		if err != nil || seen[icp.Key()] {
			return
		}
		seen[icp.Key()] = true
		cps = append(cps, cp)
	}
	if cp, err := h.opt.Plan(q); err == nil {
		add(cp)
	}
	for _, prefix := range h.searchPrefixes(q) {
		if cp, err := h.opt.PlanWithPrefix(q, prefix); err == nil {
			add(cp)
		}
	}
	return cps
}

// Train runs PassCount passes over the training workload.
func (h *HybridQO) Train(onPass func(pass int)) error {
	start := time.Now()
	defer func() { h.trainTime += time.Since(start) }()
	for pass := 0; pass < h.Cfg.PassCount; pass++ {
		for _, q := range h.W.Train {
			cands := h.candidates(q)
			if len(cands) == 0 {
				continue
			}
			var chosen *plan.CP
			if h.rng.Float64() < h.Cfg.Epsilon {
				chosen = cands[h.rng.Intn(len(cands))]
			} else {
				best := math.Inf(1)
				for _, cp := range cands {
					if v := h.predict(cp); v < best {
						best, chosen = v, cp
					}
				}
			}
			res := h.exec.Execute(chosen, 0)
			h.record(q, chosen, res.LatencyMs)
		}
		h.refreshModel()
		if onPass != nil {
			onPass(pass)
		}
	}
	return nil
}

func (h *HybridQO) record(q *query.Query, cp *plan.CP, latency float64) {
	h.experience = append(h.experience, expPoint{h.enc.Encode(cp), math.Log(math.Max(latency, 1e-3))})
	if cur, ok := h.knownBest[q.ID]; !ok || latency < cur {
		h.knownBest[q.ID] = latency
	}
}

func (h *HybridQO) refreshModel() {
	if len(h.experience) == 0 {
		return
	}
	idx := h.rng.Perm(len(h.experience))
	for ep := 0; ep < h.Cfg.Epochs; ep++ {
		for _, i := range idx {
			pt := h.experience[i]
			h.adam.ZeroGrad()
			sv := h.state.Forward(pt.enc, 0, nil)
			pred := h.head.Forward(sv)
			diff := nn.AddScalar(pred, -pt.logLat)
			loss := nn.Mean(nn.Mul(diff, diff))
			loss.Backward()
			h.adam.Step()
		}
	}
}

// Plan returns the predicted-best candidate for a query.
func (h *HybridQO) Plan(q *query.Query) (*plan.CP, time.Duration, error) {
	startT := time.Now()
	cands := h.candidates(q)
	if len(cands) == 0 {
		cp, err := h.opt.Plan(q)
		return cp, time.Since(startT), err
	}
	best, bestV := cands[0], math.Inf(1)
	for _, cp := range cands {
		if v := h.predict(cp); v < bestV {
			bestV, best = v, cp
		}
	}
	return best, time.Since(startT), nil
}

// KnownBest returns the best executed latency per query seen in training.
func (h *HybridQO) KnownBest() map[string]float64 { return h.knownBest }

// TrainingTime reports wall-clock spent training.
func (h *HybridQO) TrainingTime() time.Duration { return h.trainTime }
