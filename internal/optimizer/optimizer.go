// Package optimizer implements the traditional cost-based query optimizer
// that FOSS doctors: a Selinger-style dynamic program over left-deep join
// trees choosing join order, join methods, and access paths from estimated
// cardinalities — plus the two steering mechanisms the paper relies on:
//
//   - HintedPlan: the pg_hint_plan analog. Given an ICP (join order + join
//     methods) it completes a full plan honoring the ICP exactly, choosing
//     the remaining details (access paths) with its own expert knowledge.
//   - Config.Disabled: Bao-style coarse hints that forbid whole operator
//     classes for the entire query.
//
// All cost arithmetic uses estimated cardinalities from internal/engine/stats;
// the estimation error against the executor's true cardinalities is the
// optimizer regret FOSS learns to repair.
package optimizer

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/foss-db/foss/internal/engine/cost"
	"github.com/foss-db/foss/internal/engine/stats"
	"github.com/foss-db/foss/internal/engine/storage"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
)

// Config alters the optimizer's search space (coarse hints).
type Config struct {
	DisabledJoins      map[plan.JoinMethod]bool // Bao-style "set enable_hashjoin=off"
	DisableIndexScan   bool
	AllowCrossProducts bool
}

// Optimizer plans queries against one database + statistics catalog.
type Optimizer struct {
	DB     *storage.DB
	Stats  *stats.Catalog
	Params cost.Params
}

// New creates an optimizer that believes the cost constants p
// (cost.OptimizerParams for the default engine).
func New(db *storage.DB, st *stats.Catalog, p cost.Params) *Optimizer {
	return &Optimizer{DB: db, Stats: st, Params: p}
}

// scanChoice is the chosen access path for one alias.
type scanChoice struct {
	method  plan.ScanMethod
	idxCol  string
	idxFlt  int
	cost    float64
	outRows float64
}

// chooseScan selects the cheapest access path for an alias.
func (o *Optimizer) chooseScan(q *query.Query, alias string, cfg Config) scanChoice {
	table := q.TableOf(alias)
	ts := o.Stats.Table(table)
	meta := o.DB.Table(table).Meta
	baseRows := float64(o.DB.Table(table).NumRows())
	filters := q.FiltersOn(alias)
	outRows := o.Stats.ScanRows(q, alias)

	best := scanChoice{
		method:  plan.SeqScan,
		idxFlt:  -1,
		cost:    o.Params.SeqScanCost(baseRows, len(filters)),
		outRows: outRows,
	}
	if cfg.DisableIndexScan || ts == nil {
		return best
	}
	for fi, f := range filters {
		if f.Op != query.Eq {
			continue
		}
		ci := meta.ColIndex(f.Col)
		if ci < 0 || !meta.Columns[ci].Indexed {
			continue
		}
		cs := ts.Cols[f.Col]
		if cs == nil {
			continue
		}
		matches := baseRows * cs.EqSelectivity(f.Val)
		if matches < 1 {
			matches = 1
		}
		c := o.Params.IndexScanCost(baseRows, matches, len(filters)-1)
		if c < best.cost {
			best = scanChoice{method: plan.IndexScan, idxCol: f.Col, idxFlt: fi, cost: c, outRows: outRows}
		}
	}
	return best
}

// innerIndexInfo reports whether the inner (right, base-table) side of a join
// has an index usable for the join: indexed on the inner join column.
func (o *Optimizer) innerIndexInfo(q *query.Query, innerAlias string, preds []query.JoinPred) (indexed bool, sortedCol string) {
	meta := o.DB.Table(q.TableOf(innerAlias)).Meta
	for _, p := range preds {
		col := p.RC
		if p.RA != innerAlias {
			col = p.LC
		}
		ci := meta.ColIndex(col)
		if ci >= 0 && meta.Columns[ci].Indexed {
			return true, col
		}
	}
	return false, ""
}

// joinOutRows estimates the cardinality of joining a subset (leftRows) with
// the scan output of alias via preds, under the classic NDV formula with
// independence across multiple predicates.
func (o *Optimizer) joinOutRows(q *query.Query, leftRows, rightRows float64, preds []query.JoinPred) float64 {
	out := leftRows * rightRows
	for _, p := range preds {
		out *= o.Stats.JoinSelectivity(q.TableOf(p.LA), p.LC, q.TableOf(p.RA), p.RC)
	}
	if out < 1 {
		out = 1
	}
	return out
}

// joinCost returns the estimated cost of one join step with the given method.
func (o *Optimizer) joinCost(q *query.Query, m plan.JoinMethod, lRows, rRows, outRows float64,
	innerAlias string, preds []query.JoinPred) float64 {
	switch m {
	case plan.HashJoin:
		return o.Params.HashJoinCost(lRows, rRows, outRows)
	case plan.MergeJoin:
		_, sortedCol := o.innerIndexInfo(q, innerAlias, preds)
		return o.Params.MergeJoinCost(lRows, rRows, outRows, false, sortedCol != "")
	case plan.NestLoop:
		indexed, _ := o.innerIndexInfo(q, innerAlias, preds)
		innerBase := float64(o.DB.Table(q.TableOf(innerAlias)).NumRows())
		return o.Params.NestLoopCost(lRows, innerBase, outRows, indexed)
	}
	panic("optimizer: unknown join method")
}

// dpEntry is the best left-deep plan found for one table subset.
type dpEntry struct {
	cost    float64
	rows    float64
	order   []int
	methods []plan.JoinMethod
}

// Plan runs the Selinger DP with the default configuration.
func (o *Optimizer) Plan(q *query.Query) (*plan.CP, error) {
	return o.PlanWithConfig(q, Config{})
}

// PlanWithConfig runs the Selinger DP honoring coarse hints.
func (o *Optimizer) PlanWithConfig(q *query.Query, cfg Config) (*plan.CP, error) {
	n := q.NumTables()
	if n == 0 {
		return nil, fmt.Errorf("optimizer: empty query %s: %w", q.ID, fosserr.ErrNoPlan)
	}
	if n > 20 {
		return nil, fmt.Errorf("optimizer: %d tables exceeds DP limit: %w", n, fosserr.ErrNoPlan)
	}
	aliases := q.Aliases()
	scans := make([]scanChoice, n)
	for i, a := range aliases {
		scans[i] = o.chooseScan(q, a, cfg)
	}
	methods := enabledMethods(cfg)
	if len(methods) == 0 {
		return nil, fmt.Errorf("optimizer: all join methods disabled: %w", fosserr.ErrNoPlan)
	}

	dp := make(map[uint32]*dpEntry, 1<<uint(n))
	for i := 0; i < n; i++ {
		dp[1<<uint(i)] = &dpEntry{cost: scans[i].cost, rows: scans[i].outRows, order: []int{i}}
	}
	full := uint32(1<<uint(n)) - 1

	// Enumerate subsets in increasing popcount so every predecessor exists.
	for size := 2; size <= n; size++ {
		for s := uint32(1); s <= full; s++ {
			if bits.OnesCount32(s) != size {
				continue
			}
			var best *dpEntry
			for t := 0; t < n; t++ {
				bit := uint32(1) << uint(t)
				if s&bit == 0 {
					continue
				}
				prev := dp[s&^bit]
				if prev == nil {
					continue
				}
				set := map[string]bool{}
				for _, pi := range prev.order {
					set[aliases[pi]] = true
				}
				preds := q.JoinsBetween(set, aliases[t])
				if len(preds) == 0 && !cfg.AllowCrossProducts {
					continue
				}
				outRows := o.joinOutRows(q, prev.rows, scans[t].outRows, preds)
				for _, m := range methods {
					jc := o.joinCost(q, m, prev.rows, scans[t].outRows, outRows, aliases[t], preds)
					// NestLoop accesses the inner relation through its join
					// formula (index descents or repeated base scans); the
					// standalone inner scan is not additionally charged.
					scanC := scans[t].cost
					if m == plan.NestLoop {
						scanC = 0
					}
					total := prev.cost + scanC + jc
					if best == nil || total < best.cost {
						order := append(append([]int(nil), prev.order...), t)
						ms := append(append([]plan.JoinMethod(nil), prev.methods...), m)
						best = &dpEntry{cost: total, rows: outRows, order: order, methods: ms}
					}
				}
			}
			if best != nil {
				dp[s] = best
			}
		}
	}
	e := dp[full]
	if e == nil {
		// Disconnected join graph with cross products forbidden: retry
		// permitting them (PostgreSQL would also produce the cross join).
		if !cfg.AllowCrossProducts {
			cfg.AllowCrossProducts = true
			return o.PlanWithConfig(q, cfg)
		}
		return nil, fmt.Errorf("optimizer: no plan found for %s: %w", q.ID, fosserr.ErrNoPlan)
	}
	icp := plan.ICP{}
	for _, i := range e.order {
		icp.Order = append(icp.Order, aliases[i])
	}
	icp.Methods = e.methods
	return o.buildCP(q, icp, scans, aliases)
}

func enabledMethods(cfg Config) []plan.JoinMethod {
	var ms []plan.JoinMethod
	for _, m := range []plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.NestLoop} {
		if cfg.DisabledJoins == nil || !cfg.DisabledJoins[m] {
			ms = append(ms, m)
		}
	}
	return ms
}

// HintedPlan completes a full plan that honors the ICP exactly: the join
// order and join methods are taken verbatim; scans and annotations are
// filled in by the optimizer (the pg_hint_plan contract). The order must be
// a permutation of the query's aliases (as many as the query has, each
// known, none repeated) and every method a join method; anything else wraps
// fosserr.ErrNoPlan.
func (o *Optimizer) HintedPlan(q *query.Query, icp plan.ICP) (*plan.CP, error) {
	n := q.NumTables()
	if len(icp.Order) != n || len(icp.Methods) != n-1 {
		return nil, fmt.Errorf("optimizer: ICP arity mismatch for %s: %d tables vs %d/%d: %w", q.ID, n, len(icp.Order), len(icp.Methods), fosserr.ErrNoPlan)
	}
	aliases := q.Aliases()
	pos := map[string]int{}
	for i, a := range aliases {
		pos[a] = i
	}
	for _, a := range icp.Order {
		i, ok := pos[a]
		if !ok {
			return nil, fmt.Errorf("optimizer: ICP references unknown alias %q: %w", a, fosserr.ErrNoPlan)
		}
		if i < 0 {
			return nil, fmt.Errorf("optimizer: ICP repeats alias %q: %w", a, fosserr.ErrNoPlan)
		}
		pos[a] = -1 // seen
	}
	for _, m := range icp.Methods {
		if m < plan.HashJoin || m >= plan.NumJoinMethods {
			return nil, fmt.Errorf("optimizer: ICP names join method %d: %w", m, fosserr.ErrNoPlan)
		}
	}
	scans := make([]scanChoice, n)
	for i, a := range aliases {
		scans[i] = o.chooseScan(q, a, Config{})
	}
	return o.buildCP(q, icp, scans, aliases)
}

// buildCP materializes the plan tree for a concrete ICP with annotations.
func (o *Optimizer) buildCP(q *query.Query, icp plan.ICP, scans []scanChoice, aliases []string) (*plan.CP, error) {
	pos := map[string]int{}
	for i, a := range aliases {
		pos[a] = i
	}
	mkScan := func(alias string) *plan.Node {
		sc := scans[pos[alias]]
		return &plan.Node{
			Alias:    alias,
			Scan:     sc.method,
			IdxCol:   sc.idxCol,
			IdxFlt:   sc.idxFlt,
			ScanPred: q.FiltersOn(alias),
			EstRows:  sc.outRows,
			EstCost:  sc.cost,
		}
	}
	cur := mkScan(icp.Order[0])
	set := map[string]bool{icp.Order[0]: true}
	rows := cur.EstRows
	totalCost := cur.EstCost
	for i := 1; i < len(icp.Order); i++ {
		next := icp.Order[i]
		preds := q.JoinsBetween(set, next)
		right := mkScan(next)
		m := icp.Methods[i-1]
		outRows := o.joinOutRows(q, rows, right.EstRows, preds)
		jc := o.joinCost(q, m, rows, right.EstRows, outRows, next, preds)
		if m == plan.NestLoop {
			totalCost += jc // inner access is inside the NLJ formula
		} else {
			totalCost += right.EstCost + jc
		}
		cur = &plan.Node{
			Method:  m,
			Preds:   preds,
			Left:    cur,
			Right:   right,
			EstRows: outRows,
			EstCost: totalCost,
		}
		set[next] = true
		rows = outRows
	}
	return &plan.CP{Root: cur, Q: q}, nil
}

// PartialPlan builds an annotated left-deep plan over a *subset* of the
// query's tables (a construction prefix), used by the plan-constructor
// baselines (Balsa, Loger) to evaluate partial states. order lists the
// joined aliases bottom-up; methods has len(order)-1 entries.
func (o *Optimizer) PartialPlan(q *query.Query, order []string, methods []plan.JoinMethod) (*plan.CP, error) {
	if len(order) == 0 || len(methods) != len(order)-1 {
		return nil, fmt.Errorf("optimizer: partial plan arity mismatch (%d tables, %d methods)", len(order), len(methods))
	}
	aliases := q.Aliases()
	scans := make([]scanChoice, len(aliases))
	for i, a := range aliases {
		scans[i] = o.chooseScan(q, a, Config{})
	}
	icp := plan.ICP{Order: order, Methods: methods}
	return o.buildCP(q, icp, scans, aliases)
}

// CheapestMethod returns the estimated-cheapest join method for extending a
// left-deep prefix (leftRows estimated) with the given inner alias, among
// the allowed set (nil = all). Used by Loger's method-restriction actions.
func (o *Optimizer) CheapestMethod(q *query.Query, leftRows float64, innerAlias string, preds []query.JoinPred, allowed map[plan.JoinMethod]bool) plan.JoinMethod {
	rRows := o.Stats.ScanRows(q, innerAlias)
	outRows := o.joinOutRows(q, leftRows, rRows, preds)
	best, bestC := plan.HashJoin, math.Inf(1)
	for _, m := range []plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.NestLoop} {
		if allowed != nil && !allowed[m] {
			continue
		}
		c := o.joinCost(q, m, leftRows, rRows, outRows, innerAlias, preds)
		if c < bestC {
			bestC, best = c, m
		}
	}
	return best
}

// PlanWithPrefix runs the Selinger DP with the leading join order forced to
// the given prefix (HybridQO's leading-order hint). The prefix's internal
// methods are chosen by cost; the DP extends freely afterwards.
func (o *Optimizer) PlanWithPrefix(q *query.Query, prefix []string) (*plan.CP, error) {
	if len(prefix) == 0 {
		return o.Plan(q)
	}
	aliases := q.Aliases()
	pos := map[string]int{}
	for i, a := range aliases {
		pos[a] = i
	}
	for _, a := range prefix {
		if _, ok := pos[a]; !ok {
			return nil, fmt.Errorf("optimizer: prefix references unknown alias %q", a)
		}
	}
	scans := make([]scanChoice, len(aliases))
	for i, a := range aliases {
		scans[i] = o.chooseScan(q, a, Config{})
	}
	// Greedily choose methods within the prefix by cost.
	set := map[string]bool{prefix[0]: true}
	rows := scans[pos[prefix[0]]].outRows
	cost := scans[pos[prefix[0]]].cost
	var methods []plan.JoinMethod
	for i := 1; i < len(prefix); i++ {
		next := prefix[i]
		preds := q.JoinsBetween(set, next)
		m := o.CheapestMethod(q, rows, next, preds, nil)
		outRows := o.joinOutRows(q, rows, scans[pos[next]].outRows, preds)
		jc := o.joinCost(q, m, rows, scans[pos[next]].outRows, outRows, next, preds)
		if m == plan.NestLoop {
			cost += jc
		} else {
			cost += scans[pos[next]].cost + jc
		}
		methods = append(methods, m)
		set[next] = true
		rows = outRows
	}
	if len(prefix) == len(aliases) {
		return o.buildCP(q, plan.ICP{Order: prefix, Methods: methods}, scans, aliases)
	}
	// Extend greedily-by-DP over remaining tables: standard DP seeded with
	// the prefix state. For simplicity (and because prefixes are short), we
	// extend greedily by cheapest next (table, method), which preserves the
	// hint semantics: the leading order steers, the optimizer completes.
	order := append([]string(nil), prefix...)
	for len(order) < len(aliases) {
		bestCost := math.Inf(1)
		var bestAlias string
		var bestMethod plan.JoinMethod
		var bestRows float64
		for _, a := range aliases {
			if set[a] {
				continue
			}
			preds := q.JoinsBetween(set, a)
			if len(preds) == 0 {
				continue
			}
			for _, m := range []plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.NestLoop} {
				outRows := o.joinOutRows(q, rows, scans[pos[a]].outRows, preds)
				jc := o.joinCost(q, m, rows, scans[pos[a]].outRows, outRows, a, preds)
				total := jc
				if m != plan.NestLoop {
					total += scans[pos[a]].cost
				}
				if total < bestCost {
					bestCost, bestAlias, bestMethod, bestRows = total, a, m, outRows
				}
			}
		}
		if bestAlias == "" {
			// disconnected remainder: take any remaining alias via cross join
			for _, a := range aliases {
				if !set[a] {
					bestAlias, bestMethod = a, plan.HashJoin
					bestRows = rows * scans[pos[a]].outRows
					break
				}
			}
		}
		order = append(order, bestAlias)
		methods = append(methods, bestMethod)
		set[bestAlias] = true
		rows = bestRows
	}
	return o.buildCP(q, plan.ICP{Order: order, Methods: methods}, scans, aliases)
}
