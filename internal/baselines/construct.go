package baselines

import (
	"fmt"
	"math"
	"time"

	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/workload"
)

// ConstructConfig tunes a plan constructor (Balsa, Loger).
type ConstructConfig struct {
	Config
	TimeoutMul float64 // execution timeout as a multiple of the expert latency
}

// constructor is the search Balsa and Loger share: build a left-deep plan
// bottom-up with no expert plan in the loop, at every step scoring each
// (next table, join method) extension of the partial plan with the value
// model, and train by construct–execute–refit passes. The two differ only
// in the first table and in the methods a step may try (moves).
type constructor struct {
	*valueModel
	name       string
	timeoutMul float64
	// first picks the starting table when the step does not explore.
	first func(q *query.Query, aliases []string) string
	// moves lists the join methods a step may join alias with, extending
	// the partial plan order over preds.
	moves func(q *query.Query, order []string, alias string, preds []query.JoinPred) []plan.JoinMethod
}

// Name implements experiments.Method.
func (c *constructor) Name() string { return c.name }

// construct builds a complete plan. explore enables epsilon-greedy choices.
func (c *constructor) construct(q *query.Query, explore bool) (*plan.CP, error) {
	aliases := q.Aliases()
	var first string
	if explore && c.explores() {
		first = aliases[c.rng.Intn(len(aliases))]
	} else {
		first = c.first(q, aliases)
	}
	order := []string{first}
	joined := map[string]bool{first: true}
	var methods []plan.JoinMethod
	type choice struct {
		alias  string
		method plan.JoinMethod
		value  float64
	}
	for len(order) < len(aliases) {
		var choices []choice
		for _, a := range aliases {
			if joined[a] {
				continue
			}
			preds := q.JoinsBetween(joined, a)
			if len(preds) == 0 {
				continue // no cross products, as in the originals' action spaces
			}
			// Moves may repeat a method (Loger's restrictions often pick the
			// same one): each distinct method is planned and scored once, and
			// every repeat still joins choices, weighting exploration as before.
			scored := map[plan.JoinMethod]*choice{}
			for _, m := range c.moves(q, order, a, preds) {
				ch, ok := scored[m]
				if !ok {
					if cp, err := c.opt.PartialPlan(q, append(order[:len(order):len(order)], a), append(methods[:len(methods):len(methods)], m)); err == nil {
						ch = &choice{a, m, c.predict(cp)}
					}
					scored[m] = ch // nil: the method has no plan here
				}
				if ch != nil {
					choices = append(choices, *ch)
				}
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
		if explore && c.explores() {
			pick = choices[c.rng.Intn(len(choices))]
		} else {
			pick = cheapest(choices, func(ch choice) float64 { return ch.value })
		}
		order = append(order, pick.alias)
		methods = append(methods, pick.method)
		joined[pick.alias] = true
	}
	return c.opt.PartialPlan(q, order, methods)
}

// Train runs PassCount construction–execution–refit passes. Each plan runs
// under a timeout of TimeoutMul × the expert's latency.
func (c *constructor) Train(onPass func(pass int)) error {
	return c.train(onPass, func(q *query.Query) error {
		cp, err := c.construct(q, true)
		if err != nil {
			return fmt.Errorf("%s: construct %s: %w", c.name, q.ID, err)
		}
		c.execute(q, cp, c.expertLatency(q)*c.timeoutMul)
		return nil
	})
}

// Plan constructs the greedy plan for a query.
func (c *constructor) Plan(q *query.Query) (*plan.CP, time.Duration, error) {
	start := time.Now()
	cp, err := c.construct(q, false)
	if err != nil {
		return nil, 0, err
	}
	return cp, time.Since(start), nil
}

// Balsa reimplements Balsa (Yang et al., SIGMOD 2022): an end-to-end learned
// optimizer that constructs left-deep plans from scratch, choosing at every
// step which table to join next and with which physical method. Like the
// original it has no expert-plan safety net: early in training it emits
// catastrophic plans (the paper reports TLE on Stack for exactly this
// reason), which training bounds with timeouts.
type Balsa struct{ constructor }

// DefaultBalsaConfig returns Balsa's repository-scale settings.
func DefaultBalsaConfig() ConstructConfig {
	return ConstructConfig{Config: defaultConfig(0.3, 2), TimeoutMul: 4}
}

var allMethods = []plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.NestLoop}

// NewBalsa builds an untrained Balsa over a workload.
func NewBalsa(w *workload.Workload, cfg ConstructConfig) *Balsa {
	b := &Balsa{constructor{valueModel: newValueModel(w, cfg.Config), name: "Balsa", timeoutMul: cfg.TimeoutMul}}
	// The first table is the single-table plan of lowest predicted value;
	// every step may try every method.
	b.first = func(q *query.Query, aliases []string) string {
		return cheapest(aliases, func(a string) float64 {
			cp, err := b.opt.PartialPlan(q, []string{a}, nil)
			if err != nil {
				return math.Inf(1)
			}
			return b.predict(cp)
		})
	}
	b.moves = func(*query.Query, []string, string, []query.JoinPred) []plan.JoinMethod { return allMethods }
	return b
}

// Loger reimplements Loger (Chen et al., VLDB 2023). Like Balsa it learns
// the join order bottom-up from scratch, but — its distinguishing idea —
// instead of committing to a physical join method per step, the learned
// policy only *restricts* the method set, and the traditional optimizer's
// cost model picks the cheapest method inside the restriction. This keeps
// expert knowledge in the loop for the part cost models do well, which is
// why Loger converges faster and plans more robustly than fully
// from-scratch constructors.
type Loger struct{ constructor }

// Restriction is one of Loger's method-restriction actions.
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

// DefaultLogerConfig returns Loger's repository-scale settings.
func DefaultLogerConfig() ConstructConfig {
	return ConstructConfig{Config: defaultConfig(0.25, 2), TimeoutMul: 4}
}

// NewLoger builds an untrained Loger over a workload.
func NewLoger(w *workload.Workload, cfg ConstructConfig) *Loger {
	l := &Loger{constructor{valueModel: newValueModel(w, cfg.Config), name: "Loger", timeoutMul: cfg.TimeoutMul}}
	// The first table is the one of fewest estimated rows (Loger's starting
	// heuristic reads the database's cardinalities).
	l.first = func(q *query.Query, aliases []string) string {
		return cheapest(aliases, func(a string) float64 { return l.w.Stats.ScanRows(q, a) })
	}
	// Each restriction contributes the method the cost model picks inside
	// it, for a left input estimated coarsely as the product of the joined
	// tables' scan rows.
	restrictions := Restrictions()
	l.moves = func(q *query.Query, order []string, alias string, preds []query.JoinPred) []plan.JoinMethod {
		rows := l.w.Stats.ScanRows(q, order[0])
		for _, a := range order[1:] {
			rows *= l.w.Stats.ScanRows(q, a)
		}
		ms := make([]plan.JoinMethod, len(restrictions))
		for i, r := range restrictions {
			ms[i] = l.opt.CheapestMethod(q, rows, alias, preds, r.Allowed)
		}
		return ms
	}
	return l
}
