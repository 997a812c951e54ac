package baselines

import (
	"fmt"
	"math"
	"time"

	"github.com/foss-db/foss/internal/optimizer"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/workload"
)

// Bao reimplements Bao (Marcus et al., SIGMOD 2021): a plan-steerer that
// plans each query under a small set of coarse hint sets (disabling whole
// operator classes for the entire query), predicts each candidate's latency
// with the value model, and executes the predicted-best plan. Training
// alternates epsilon-greedy hint selection with value-model regression on
// observed latencies — the contextual-bandit structure of the original
// (Thompson sampling is replaced by epsilon-greedy; the candidate structure,
// coarse hints, and value-model role are preserved).
type Bao struct {
	*valueModel
	Hints []HintSet
}

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

// DefaultBaoConfig returns Bao's repository-scale settings.
func DefaultBaoConfig() Config { return defaultConfig(0.25, 3) }

// NewBao builds an untrained Bao over a workload.
func NewBao(w *workload.Workload, cfg Config) *Bao {
	return &Bao{valueModel: newValueModel(w, cfg), Hints: DefaultHintSets()}
}

// Name implements experiments.Method.
func (b *Bao) Name() string { return "Bao" }

// candidates plans the query under every hint set (deduplicated by ICP).
func (b *Bao) candidates(q *query.Query) []*plan.CP {
	var cps []*plan.CP
	seen := map[string]bool{}
	for _, h := range b.Hints {
		if cp, err := b.opt.PlanWithConfig(q, optimizer.Config{DisabledJoins: h.Disabled, DisableIndexScan: h.NoIndex}); err == nil {
			cps = addDistinct(cps, seen, cp)
		}
	}
	return cps
}

// latency is the value model's latency estimate (ms), Bao's ranking.
func (b *Bao) latency(cp *plan.CP) float64 { return math.Exp(b.predict(cp)) }

// Train runs PassCount epsilon-greedy passes over the training workload,
// exploring on every query until the value model has experience. onPass, if
// non-nil, is invoked after each pass (training-curve hooks).
func (b *Bao) Train(onPass func(pass int)) error {
	return b.train(onPass, func(q *query.Query) error {
		cands := b.candidates(q)
		if len(cands) == 0 {
			return fmt.Errorf("bao: no candidate plans for %s", q.ID)
		}
		var chosen *plan.CP
		if b.explores() || len(b.experience) == 0 {
			chosen = cands[b.rng.Intn(len(cands))]
		} else {
			chosen = cheapest(cands, b.latency)
		}
		b.execute(q, chosen, 0)
		return nil
	})
}

// Plan selects the predicted-best hint-set plan for a query.
func (b *Bao) Plan(q *query.Query) (*plan.CP, time.Duration, error) {
	start := time.Now()
	cands := b.candidates(q)
	if len(cands) == 0 {
		return nil, 0, fmt.Errorf("bao: no candidates for %s", q.ID)
	}
	return cheapest(cands, b.latency), time.Since(start), nil
}
