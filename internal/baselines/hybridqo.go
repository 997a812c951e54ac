package baselines

import (
	"math"
	"time"

	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/workload"
)

// HybridQO reimplements HybridQO (Yu et al., VLDB 2022): a hybrid
// cost-based/learning-based optimizer that runs Monte Carlo Tree Search
// over *leading join-order prefixes*, hands each promising prefix to the
// traditional optimizer as a hint, and selects among the completed
// candidates (plus the unhinted expert plan) with the value model. The
// search space sits between Bao's coarse hints and FOSS's fine-grained
// edits: the hint fixes only how the plan starts.
type HybridQO struct {
	*valueModel
	mcts HybridQOConfig // read for the search settings; training reads valueModel.cfg
}

// HybridQOConfig tunes HybridQO's search and training.
type HybridQOConfig struct {
	Config
	MaxPrefixLen int     // depth of the prefix tree
	Simulations  int     // MCTS simulations per query
	UCTc         float64 // exploration constant
	TopK         int     // candidate prefixes handed to the optimizer
}

// DefaultHybridQOConfig returns HybridQO's repository-scale settings.
func DefaultHybridQOConfig() HybridQOConfig {
	return HybridQOConfig{Config: defaultConfig(0.2, 2), MaxPrefixLen: 3, Simulations: 40, UCTc: 1.2, TopK: 4}
}

// NewHybridQO builds an untrained HybridQO over a workload.
func NewHybridQO(w *workload.Workload, cfg HybridQOConfig) *HybridQO {
	return &HybridQO{valueModel: newValueModel(w, cfg.Config), mcts: cfg}
}

// Name implements experiments.Method.
func (h *HybridQO) Name() string { return "HybridQO" }

// mctsNode is one prefix in the search tree.
type mctsNode struct {
	prefix   []string
	children []*mctsNode
	visits   int
	total    float64 // sum of rewards (negative predicted log-latency)
	expanded bool
}

// expand adds a child per table that extends n's prefix without a cross
// product, up to MaxPrefixLen tables.
func (h *HybridQO) expand(q *query.Query, n *mctsNode) {
	n.expanded = true
	if len(n.prefix) >= h.mcts.MaxPrefixLen {
		return
	}
	set := map[string]bool{}
	for _, a := range n.prefix {
		set[a] = true
	}
	for _, a := range q.Aliases() {
		if set[a] || len(n.prefix) > 0 && len(q.JoinsBetween(set, a)) == 0 {
			continue
		}
		n.children = append(n.children, &mctsNode{prefix: append(n.prefix[:len(n.prefix):len(n.prefix)], a)})
	}
}

// searchPrefixes runs MCTS and returns the TopK prefixes of best mean
// reward.
func (h *HybridQO) searchPrefixes(q *query.Query) [][]string {
	root := &mctsNode{}
	h.expand(q, root)
	for s := 0; s < h.mcts.Simulations; s++ {
		// selection: descend to the child of highest UCT score (cheapest of
		// its negation), unvisited children first
		path := []*mctsNode{root}
		node := root
		for node.expanded && len(node.children) > 0 {
			node = cheapest(node.children, func(c *mctsNode) float64 {
				if c.visits == 0 {
					return math.Inf(-1)
				}
				return -(c.total/float64(c.visits) +
					h.mcts.UCTc*math.Sqrt(math.Log(float64(node.visits+1))/float64(c.visits)))
			})
			path = append(path, node)
		}
		if !node.expanded {
			h.expand(q, node)
		}
		// rollout: the reward is the negative predicted log-latency of the
		// prefix's completion (higher is better)
		r := -10.0
		if cp, err := h.opt.PlanWithPrefix(q, node.prefix); err == nil {
			r = -h.predict(cp)
		}
		for _, n := range path {
			n.visits++
			n.total += r
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
	k := min(h.mcts.TopK, len(all))
	out := make([][]string, 0, k)
	for i := 0; i < k; i++ {
		bi := i
		for j := i + 1; j < len(all); j++ {
			if all[j].mean > all[bi].mean {
				bi = j
			}
		}
		all[i], all[bi] = all[bi], all[i]
		out = append(out, all[i].prefix)
	}
	return out
}

// candidates completes the top prefixes into full plans, always including
// the unhinted expert plan (deduplicated by ICP).
func (h *HybridQO) candidates(q *query.Query) []*plan.CP {
	var cps []*plan.CP
	seen := map[string]bool{}
	if cp, err := h.opt.Plan(q); err == nil {
		cps = addDistinct(cps, seen, cp)
	}
	for _, prefix := range h.searchPrefixes(q) {
		if cp, err := h.opt.PlanWithPrefix(q, prefix); err == nil {
			cps = addDistinct(cps, seen, cp)
		}
	}
	return cps
}

// Train runs PassCount epsilon-greedy passes over the training workload,
// skipping a query with no candidate.
func (h *HybridQO) Train(onPass func(pass int)) error {
	return h.train(onPass, func(q *query.Query) error {
		cands := h.candidates(q)
		if len(cands) == 0 {
			return nil
		}
		var chosen *plan.CP
		if h.explores() {
			chosen = cands[h.rng.Intn(len(cands))]
		} else {
			chosen = cheapest(cands, h.predict)
		}
		h.execute(q, chosen, 0)
		return nil
	})
}

// Plan returns the predicted-best candidate for a query (the expert's plan
// when there is none).
func (h *HybridQO) Plan(q *query.Query) (*plan.CP, time.Duration, error) {
	start := time.Now()
	cands := h.candidates(q)
	if len(cands) == 0 {
		cp, err := h.opt.Plan(q)
		return cp, time.Since(start), err
	}
	return cheapest(cands, h.predict), time.Since(start), nil
}
