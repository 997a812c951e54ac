// Package exec executes complete plans against the column store and charges
// a deterministic simulated latency.
//
// Latency model. Every operator is charged the cost-model formula of its
// physical method evaluated over the *true* cardinalities the execution
// observes, using cost.TruthParams (which deviate slightly from the
// optimizer's believed constants — cost-model error on top of cardinality
// error). Join results are always computed with an efficient algorithm
// (hashing or index lookups) so execution stays fast, while the *charge*
// reflects the plan's chosen method: a nested loop without an index is
// charged |outer|·|inner| work even though its result is computed by
// hashing. This yields latencies that are deterministic, reproducible, and
// faithful to the relative economics of the operators — which is what the
// paper's learning signal needs.
//
// Intermediate results are flat row-id buffers: each operator appends its
// output rows, one base-table row id per joined alias, into one []int32, so
// no tuple is an allocation of its own and the GC never scans the buffers.
//
// Timeouts. Execute aborts once charged work exceeds the budget, mirroring
// the paper's dynamic timeout (1.5× the original plan's latency) that keeps
// catastrophic candidate plans from stalling training.
package exec

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/foss-db/foss/internal/engine/cost"
	"github.com/foss-db/foss/internal/engine/storage"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
)

// Result reports one plan execution.
type Result struct {
	LatencyMs float64 // simulated latency (ms); if TimedOut, the budget value
	Work      float64 // charged work units
	OutRows   int     // final output cardinality (0 if timed out)
	TimedOut  bool
}

// Executor runs plans over one database.
type Executor struct {
	DB     *storage.DB
	Params cost.Params
}

// New creates an executor charging the cost constants p
// (cost.TruthParams for the default engine).
func New(db *storage.DB, p cost.Params) *Executor {
	return &Executor{DB: db, Params: p}
}

// Execute runs the plan. timeoutMs <= 0 means no timeout.
func (e *Executor) Execute(cp *plan.CP, timeoutMs float64) Result {
	budget := math.Inf(1)
	if timeoutMs > 0 {
		budget = cost.FromMs(timeoutMs)
	}
	st := &execState{ex: e, q: cp.Q, budget: budget, sc: scratchPool.Get().(*scratch)}
	defer scratchPool.Put(st.sc)
	rel, ok := st.run(cp.Root)
	if !ok {
		return Result{LatencyMs: timeoutMs, Work: st.work, TimedOut: true}
	}
	st.recycle(rel)
	return Result{LatencyMs: cost.ToMs(st.work), Work: st.work, OutRows: rel.numRows()}
}

// scratch is the memory one execution hands the next through scratchPool,
// so a warm executor allocates next to nothing: the emptied row-id buffers
// of relations already consumed, and the hash join's build table.
type scratch struct {
	spares [][]int32
	build  chains
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// relation is an intermediate result: for each surviving combination, one
// base-table row id per joined alias, row-major in one flat buffer.
type relation struct {
	aliases []string
	ids     []int32
}

func (r *relation) numRows() int { return len(r.ids) / len(r.aliases) }

func (r *relation) colOf(alias string) int {
	for i, a := range r.aliases {
		if a == alias {
			return i
		}
	}
	return -1
}

// joined starts the relation that joining inner onto left produces.
func (s *execState) joined(left *relation, inner string) *relation {
	n := len(left.aliases)
	return &relation{aliases: append(left.aliases[:n:n], inner), ids: s.spare()}
}

type execState struct {
	ex     *Executor
	q      *query.Query
	work   float64
	budget float64
	sc     *scratch
}

// spare returns an empty buffer to append a relation's rows into.
func (s *execState) spare() []int32 {
	sp := s.sc.spares
	if len(sp) == 0 {
		return nil
	}
	s.sc.spares = sp[:len(sp)-1]
	return sp[len(sp)-1][:0]
}

// recycle keeps the buffers of relations no operator reads any more.
func (s *execState) recycle(rels ...*relation) {
	for _, r := range rels {
		s.sc.spares = append(s.sc.spares, r.ids)
	}
}

func (s *execState) charge(w float64) bool {
	s.work += w
	return s.work <= s.budget
}

// tally adds n to *pending and, once outCheckBatch have accrued, charges them
// at unit each and starts the count over; false signals timeout.
func (s *execState) tally(pending *int, n int, unit float64) bool {
	*pending += n
	if *pending < outCheckBatch {
		return true
	}
	w := float64(*pending) * unit
	*pending = 0
	return s.charge(w)
}

// run evaluates a plan node; ok=false signals timeout.
func (s *execState) run(n *plan.Node) (*relation, bool) {
	if n.IsScan() {
		return s.runScan(n)
	}
	if n.Method == plan.NestLoop {
		return s.runNestLoop(n)
	}
	left, ok := s.run(n.Left)
	if !ok {
		return nil, false
	}
	right, ok := s.runScan(n.Right)
	if !ok {
		return nil, false
	}
	return s.runHashComputedJoin(n, left, right)
}

// runScan produces the filtered row ids of a base table and charges the
// access-path cost.
func (s *execState) runScan(n *plan.Node) (*relation, bool) {
	tbl := s.ex.DB.Table(s.q.TableOf(n.Alias))
	filters := n.ScanPred
	ids := s.spare()

	if n.Scan == plan.IndexScan && n.IdxFlt >= 0 && n.IdxFlt < len(filters) {
		f := filters[n.IdxFlt]
		cand := tbl.Lookup(tbl.Meta.ColIndex(f.Col), f.Val)
		if !s.charge(s.ex.Params.IndexScanCost(float64(tbl.NumRows()), float64(len(cand)), len(filters)-1)) {
			return nil, false
		}
		if bf, ok := bindFilters(tbl, filters, n.IdxFlt); ok {
			for _, r := range cand {
				if passes(bf, r) {
					ids = append(ids, r)
				}
			}
		}
	} else {
		nRows := tbl.NumRows()
		if !s.charge(s.ex.Params.SeqScanCost(float64(nRows), len(filters))) {
			return nil, false
		}
		if bf, ok := bindFilters(tbl, filters, -1); ok {
			for r := range int32(nRows) {
				if passes(bf, r) {
					ids = append(ids, r)
				}
			}
		}
	}
	return &relation{aliases: []string{n.Alias}, ids: ids}, true
}

// boundFilter is a filter with its column slice looked up once per scan.
type boundFilter struct {
	col []int64
	f   *query.Filter
}

// bindFilters binds every filter but the skip-th to its column; ok=false
// when one names a column the table lacks, which no row passes.
func bindFilters(tbl *storage.Table, filters []query.Filter, skip int) (bf []boundFilter, ok bool) {
	for fi := range filters {
		if fi == skip {
			continue
		}
		ci := tbl.Meta.ColIndex(filters[fi].Col)
		if ci < 0 {
			return nil, false
		}
		bf = append(bf, boundFilter{col: tbl.Cols[ci], f: &filters[fi]})
	}
	return bf, true
}

func passes(bf []boundFilter, r int32) bool {
	for _, b := range bf {
		if !evalFilter(b.col[r], b.f) {
			return false
		}
	}
	return true
}

func evalFilter(v int64, f *query.Filter) bool {
	switch f.Op {
	case query.Eq:
		return v == f.Val
	case query.Ne:
		return v != f.Val
	case query.Lt:
		return v < f.Val
	case query.Le:
		return v <= f.Val
	case query.Gt:
		return v > f.Val
	case query.Ge:
		return v >= f.Val
	case query.Between:
		return v >= f.Val && v <= f.Hi
	case query.In:
		for _, m := range f.Set {
			if v == m {
				return true
			}
		}
		return false
	}
	return false
}

// joinKey is one join predicate bound once: the left column, its alias's
// position in the left relation's rows, and the inner column with its index
// in the inner table.
type joinKey struct {
	lCol, iCol []int64
	lPos, iIdx int
}

type joinKeys []joinKey

func (s *execState) bindKeys(n *plan.Node, innerTbl *storage.Table, left *relation) joinKeys {
	keys := make(joinKeys, len(n.Preds))
	for i, p := range n.Preds {
		la, lc, ic := p.RA, p.RC, p.LC
		if p.RA == n.Right.Alias {
			la, lc, ic = p.LA, p.LC, p.RC
		}
		lt := s.ex.DB.Table(s.q.TableOf(la))
		ci := innerTbl.Meta.ColIndex(ic)
		keys[i] = joinKey{lCol: lt.Cols[lt.Meta.ColIndex(lc)], iCol: innerTbl.Cols[ci], lPos: left.colOf(la), iIdx: ci}
	}
	return keys
}

// indexed returns the first key whose inner column has an index, or -1.
func (ks joinKeys) indexed(innerTbl *storage.Table) int {
	for i, k := range ks {
		if innerTbl.HasIndex(k.iIdx) {
			return i
		}
	}
	return -1
}

func (ks joinKeys) innerHash(r int32) uint64 {
	h := uint64(fnvOffset)
	for _, k := range ks {
		h = mix(h, k.iCol[r])
	}
	return h
}

func (ks joinKeys) leftHash(lrow []int32) uint64 {
	h := uint64(fnvOffset)
	for _, k := range ks {
		h = mix(h, k.lCol[lrow[k.lPos]])
	}
	return h
}

// equal reports whether the left row and inner row r agree on every key but
// the skip-th.
func (ks joinKeys) equal(lrow []int32, r int32, skip int) bool {
	for i, k := range ks {
		if i != skip && k.lCol[lrow[k.lPos]] != k.iCol[r] {
			return false
		}
	}
	return true
}

// chains is a hash join's build side, a chained table over flat slices:
// hashes holds each inner row's key hash, slots each distinct hash's first
// row plus one (0 is empty, found by linear probing from the hash's top
// bits), and next the row after each row with the same hash, or -1.
type chains struct {
	hashes []uint64
	slots  []int32
	next   []int32
	shift  uint
}

// build hashes rows back to front, so every chain lists its rows in their
// order in rows. It reuses c's memory.
func (c *chains) build(keys joinKeys, rows []int32) {
	size := 1
	for size < 2*len(rows) {
		size *= 2
	}
	c.hashes = slices.Grow(c.hashes[:0], len(rows))[:len(rows)]
	c.next = slices.Grow(c.next[:0], len(rows))[:len(rows)]
	c.slots = slices.Grow(c.slots[:0], size)[:size]
	clear(c.slots)
	c.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i := len(rows) - 1; i >= 0; i-- {
		c.hashes[i] = keys.innerHash(rows[i])
		sl := c.slot(c.hashes[i])
		c.next[i] = c.slots[sl] - 1
		c.slots[sl] = int32(i + 1)
	}
}

// slot returns the slot holding hash h's chain, or the empty slot it would
// take.
func (c *chains) slot(h uint64) uint64 {
	mask := uint64(len(c.slots) - 1)
	for i := (h * 0x9E3779B97F4A7C15) >> c.shift; ; i = (i + 1) & mask {
		if e := c.slots[i]; e == 0 || c.hashes[e-1] == h {
			return i
		}
	}
}

const outCheckBatch = 4096

// runHashComputedJoin computes the join result by hashing (regardless of the
// plan's method) and charges the method-specific cost from true cardinalities.
func (s *execState) runHashComputedJoin(n *plan.Node, left *relation, right *relation) (*relation, bool) {
	innerAlias := n.Right.Alias
	innerTbl := s.ex.DB.Table(s.q.TableOf(innerAlias))
	lRows, rRows := float64(left.numRows()), float64(right.numRows())
	keys := s.bindKeys(n, innerTbl, left)

	// Method charge, pre-output: output tuples charged incrementally below.
	switch n.Method {
	case plan.HashJoin:
		if !s.charge(rRows*s.ex.Params.HashBuild + lRows*s.ex.Params.HashProbe) {
			return nil, false
		}
	case plan.MergeJoin:
		sorted := keys.indexed(innerTbl) >= 0
		c := (lRows + rRows) * s.ex.Params.MergeTuple
		if lRows >= 2 {
			c += lRows * math.Log2(lRows) * s.ex.Params.SortTuple
		}
		if !sorted && rRows >= 2 {
			c += rRows * math.Log2(rRows) * s.ex.Params.SortTuple
		}
		if !s.charge(c) {
			return nil, false
		}
	default:
		panic(fmt.Sprintf("exec: runHashComputedJoin on %v", n.Method))
	}

	// Cross product: no predicates connect the sides.
	if len(n.Preds) == 0 {
		return s.crossProduct(left, right, innerAlias)
	}

	// Build on the inner side; chains lists each key's rows in scan order.
	c := &s.sc.build
	c.build(keys, right.ids)

	// Probe with the left relation.
	out := s.joined(left, innerAlias)
	w := len(left.aliases)
	pending := 0
	for lo := 0; lo < len(left.ids); lo += w {
		lrow := left.ids[lo : lo+w]
		for j := c.slots[c.slot(keys.leftHash(lrow))] - 1; j >= 0; j = c.next[j] {
			r := right.ids[j]
			if !keys.equal(lrow, r, -1) {
				continue
			}
			out.ids = append(append(out.ids, lrow...), r)
			if !s.tally(&pending, 1, s.ex.Params.OutTuple) {
				return nil, false
			}
		}
	}
	s.recycle(left, right)
	if !s.charge(float64(pending) * s.ex.Params.OutTuple) {
		return nil, false
	}
	return out, true
}

// runNestLoop executes the nested-loop join. With an index on the inner join
// column it performs true index lookups per outer tuple (and charges them);
// without one it charges |outer|·|innerBase| and computes the result by
// hashing the filtered inner rows.
func (s *execState) runNestLoop(n *plan.Node) (*relation, bool) {
	left, ok := s.run(n.Left)
	if !ok {
		return nil, false
	}
	innerAlias := n.Right.Alias
	innerTbl := s.ex.DB.Table(s.q.TableOf(innerAlias))
	lRows := float64(left.numRows())
	innerBase := float64(innerTbl.NumRows())

	if len(n.Preds) == 0 {
		// cross nested loop: charge the naive formula, compute as product
		if !s.charge(lRows*s.ex.Params.NLOuter + lRows*innerBase*s.ex.Params.NLInner) {
			return nil, false
		}
		right, ok2 := s.runScanUncharged(n.Right)
		if !ok2 {
			return nil, false
		}
		return s.crossProduct(left, right, innerAlias)
	}

	keys := s.bindKeys(n, innerTbl, left)
	if idxPred := keys.indexed(innerTbl); idxPred >= 0 {
		// Index nested loop, executed for real.
		if !s.charge(lRows * (s.ex.Params.NLOuter + s.ex.Params.IdxLookup*log2c(innerBase))) {
			return nil, false
		}
		bf, fok := bindFilters(innerTbl, n.Right.ScanPred, -1)
		ik := keys[idxPred]
		out := s.joined(left, innerAlias)
		w := len(left.aliases)
		pendingCand, pendingOut := 0, 0
		for lo := 0; lo < len(left.ids); lo += w {
			lrow := left.ids[lo : lo+w]
			cands := innerTbl.Lookup(ik.iIdx, ik.lCol[lrow[ik.lPos]])
			if !s.tally(&pendingCand, len(cands), s.ex.Params.IdxTuple) {
				return nil, false
			}
			for _, r := range cands {
				if !fok || !passes(bf, r) || !keys.equal(lrow, r, idxPred) {
					continue
				}
				out.ids = append(append(out.ids, lrow...), r)
				if !s.tally(&pendingOut, 1, s.ex.Params.OutTuple) {
					return nil, false
				}
			}
		}
		s.recycle(left)
		if !s.charge(float64(pendingCand)*s.ex.Params.IdxTuple + float64(pendingOut)*s.ex.Params.OutTuple) {
			return nil, false
		}
		return out, true
	}

	// Naive nested loop: charge the quadratic formula up front; if the budget
	// survives, compute the identical result via hashing, under an unlimited
	// budget and with its charges undone, since the caller already charged.
	if !s.charge(lRows*s.ex.Params.NLOuter + lRows*innerBase*s.ex.Params.NLInner) {
		return nil, false
	}
	right, ok := s.runScanUncharged(n.Right)
	if !ok {
		return nil, false
	}
	saved, savedBudget := s.work, s.budget
	s.budget = math.Inf(1)
	rel, _ := s.runHashComputedJoin(&plan.Node{Method: plan.HashJoin, Preds: n.Preds, Left: n.Left, Right: n.Right}, left, right)
	s.work, s.budget = saved, savedBudget
	// output tuples are still charged
	if !s.charge(float64(rel.numRows()) * s.ex.Params.OutTuple) {
		return nil, false
	}
	return rel, true
}

// runScanUncharged evaluates a scan's row set without charging (used when the
// enclosing operator's formula already covers inner access).
func (s *execState) runScanUncharged(n *plan.Node) (*relation, bool) {
	saved := s.work
	rel, ok := s.runScan(n)
	s.work = saved
	return rel, ok
}

func (s *execState) crossProduct(left, right *relation, innerAlias string) (*relation, bool) {
	out := s.joined(left, innerAlias)
	w := len(left.aliases)
	pending := 0
	for lo := 0; lo < len(left.ids); lo += w {
		for _, r := range right.ids {
			out.ids = append(append(out.ids, left.ids[lo:lo+w]...), r)
			if !s.tally(&pending, 1, s.ex.Params.OutTuple) {
				return nil, false
			}
		}
	}
	s.recycle(left, right)
	if !s.charge(float64(pending) * s.ex.Params.OutTuple) {
		return nil, false
	}
	return out, true
}

func log2c(x float64) float64 {
	if x < 2 {
		return 1
	}
	return math.Log2(x)
}

const fnvOffset = 14695981039346656037
const fnvPrime = 1099511628211

func mix(h uint64, v int64) uint64 { return (h ^ uint64(v)) * fnvPrime }
