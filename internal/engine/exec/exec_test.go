package exec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/engine/cost"
	"github.com/foss-db/foss/internal/engine/stats"
	"github.com/foss-db/foss/internal/engine/storage"
	"github.com/foss-db/foss/internal/optimizer"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/workload"
)

// testDB builds a small 3-table star: orders -> customers, orders -> items.
func testDB(t testing.TB, nCust, nItem, nOrd int, seed int64) *storage.DB {
	t.Helper()
	s := catalog.NewSchema()
	s.AddTable(catalog.NewTable("customer",
		catalog.Column{Name: "id", Indexed: true},
		catalog.Column{Name: "region"},
	))
	s.AddTable(catalog.NewTable("item",
		catalog.Column{Name: "id", Indexed: true},
		catalog.Column{Name: "price"},
	))
	s.AddTable(catalog.NewTable("orders",
		catalog.Column{Name: "id", Indexed: true},
		catalog.Column{Name: "cust_id", Indexed: true},
		catalog.Column{Name: "item_id", Indexed: true},
		catalog.Column{Name: "qty"},
	))
	s.AddFK("orders", "cust_id", "customer", "id")
	s.AddFK("orders", "item_id", "item", "id")
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB(s)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nCust; i++ {
		db.Table("customer").AppendRow(int64(i), int64(rng.Intn(5)))
	}
	for i := 0; i < nItem; i++ {
		db.Table("item").AppendRow(int64(i), int64(rng.Intn(100)))
	}
	for i := 0; i < nOrd; i++ {
		db.Table("orders").AppendRow(int64(i), int64(rng.Intn(nCust)), int64(rng.Intn(nItem)), int64(rng.Intn(10)))
	}
	db.BuildAllIndexes()
	return db
}

func starQ() *query.Query {
	return &query.Query{
		ID: "star",
		Tables: []query.TableRef{
			{Table: "orders", Alias: "o"},
			{Table: "customer", Alias: "c"},
			{Table: "item", Alias: "i"},
		},
		Joins: []query.JoinPred{
			{LA: "o", LC: "cust_id", RA: "c", RC: "id"},
			{LA: "o", LC: "item_id", RA: "i", RC: "id"},
		},
		Filters: []query.Filter{
			{Alias: "c", Col: "region", Op: query.Eq, Val: 2},
			{Alias: "i", Col: "price", Op: query.Lt, Val: 50},
		},
	}
}

// bruteForceCount counts the true result cardinality by triple loop.
func bruteForceCount(db *storage.DB, q *query.Query) int {
	o, c, i := db.Table("orders"), db.Table("customer"), db.Table("item")
	count := 0
	for oi := 0; oi < o.NumRows(); oi++ {
		for ci := 0; ci < c.NumRows(); ci++ {
			if o.Value(1, int32(oi)) != c.Value(0, int32(ci)) {
				continue
			}
			if c.Value(1, int32(ci)) != 2 {
				continue
			}
			for ii := 0; ii < i.NumRows(); ii++ {
				if o.Value(2, int32(oi)) != i.Value(0, int32(ii)) {
					continue
				}
				if i.Value(1, int32(ii)) >= 50 {
					continue
				}
				count++
			}
		}
	}
	return count
}

func planAllOrders(t *testing.T, db *storage.DB, q *query.Query) []*plan.CP {
	t.Helper()
	st := stats.Build(db, 1.0, 1)
	opt := optimizer.New(db, st, cost.OptimizerParams())
	var cps []*plan.CP
	orders := [][]string{
		{"o", "c", "i"}, {"o", "i", "c"},
		{"c", "o", "i"}, {"i", "o", "c"},
	}
	for _, ord := range orders {
		for _, m1 := range []plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.NestLoop} {
			for _, m2 := range []plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.NestLoop} {
				icp := plan.ICP{Order: ord, Methods: []plan.JoinMethod{m1, m2}}
				cp, err := opt.HintedPlan(q, icp)
				if err != nil {
					t.Fatalf("HintedPlan(%v): %v", icp, err)
				}
				cps = append(cps, cp)
			}
		}
	}
	return cps
}

func TestExecutorMatchesBruteForceAcrossAllPlans(t *testing.T) {
	db := testDB(t, 50, 40, 400, 7)
	q := starQ()
	want := bruteForceCount(db, q)
	ex := New(db, cost.TruthParams())
	for _, cp := range planAllOrders(t, db, q) {
		res := ex.Execute(cp, 0)
		if res.TimedOut {
			t.Fatalf("unexpected timeout for %s", cp)
		}
		if res.OutRows != want {
			t.Fatalf("plan produced %d rows, brute force %d:\n%s", res.OutRows, want, cp)
		}
	}
}

func TestExecutorDeterministic(t *testing.T) {
	db := testDB(t, 30, 30, 200, 3)
	q := starQ()
	cps := planAllOrders(t, db, q)
	ex := New(db, cost.TruthParams())
	for _, cp := range cps {
		a := ex.Execute(cp, 0)
		b := ex.Execute(cp, 0)
		if a.LatencyMs != b.LatencyMs || a.OutRows != b.OutRows || a.Work != b.Work {
			t.Fatalf("execution not deterministic: %+v vs %+v", a, b)
		}
	}
}

func TestExecutorMethodsHaveDistinctCosts(t *testing.T) {
	db := testDB(t, 50, 40, 400, 7)
	q := starQ()
	st := stats.Build(db, 1.0, 1)
	opt := optimizer.New(db, st, cost.OptimizerParams())
	ex := New(db, cost.TruthParams())
	lat := map[plan.JoinMethod]float64{}
	for _, m := range []plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.NestLoop} {
		icp := plan.ICP{Order: []string{"c", "o", "i"}, Methods: []plan.JoinMethod{m, plan.HashJoin}}
		cp, err := opt.HintedPlan(q, icp)
		if err != nil {
			t.Fatal(err)
		}
		lat[m] = ex.Execute(cp, 0).LatencyMs
	}
	if lat[plan.HashJoin] == lat[plan.MergeJoin] && lat[plan.MergeJoin] == lat[plan.NestLoop] {
		t.Fatalf("all methods charged identically: %v", lat)
	}
}

func TestExecutorTimeout(t *testing.T) {
	db := testDB(t, 200, 200, 5000, 9)
	q := starQ()
	st := stats.Build(db, 1.0, 1)
	opt := optimizer.New(db, st, cost.OptimizerParams())
	cp, err := opt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	ex := New(db, cost.TruthParams())
	full := ex.Execute(cp, 0)
	if full.TimedOut {
		t.Fatal("full run should not time out")
	}
	cut := ex.Execute(cp, full.LatencyMs/4)
	if !cut.TimedOut {
		t.Fatalf("expected timeout at quarter budget (full=%.3fms)", full.LatencyMs)
	}
	if cut.LatencyMs != full.LatencyMs/4 {
		t.Fatalf("timeout latency should equal the budget: %f vs %f", cut.LatencyMs, full.LatencyMs/4)
	}
}

func TestHintFidelity(t *testing.T) {
	db := testDB(t, 30, 30, 300, 5)
	q := starQ()
	st := stats.Build(db, 1.0, 1)
	opt := optimizer.New(db, st, cost.OptimizerParams())
	f := func(ordPick uint8, m1, m2 uint8) bool {
		orders := [][]string{{"o", "c", "i"}, {"o", "i", "c"}, {"c", "o", "i"}, {"i", "o", "c"}}
		icp := plan.ICP{
			Order:   orders[int(ordPick)%len(orders)],
			Methods: []plan.JoinMethod{plan.JoinMethod(m1 % 3), plan.JoinMethod(m2 % 3)},
		}
		cp, err := opt.HintedPlan(q, icp)
		if err != nil {
			return false
		}
		got, err := plan.Extract(cp)
		if err != nil {
			return false
		}
		return got.Equal(icp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizerPicksConnectedOrder(t *testing.T) {
	db := testDB(t, 50, 40, 400, 7)
	q := starQ()
	st := stats.Build(db, 1.0, 1)
	opt := optimizer.New(db, st, cost.OptimizerParams())
	cp, err := opt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	icp, err := plan.Extract(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsConnectedOrder(icp.Order) {
		t.Fatalf("DP chose a cross-product order %v", icp.Order)
	}
}

func TestOptimizerRespectsDisabledJoins(t *testing.T) {
	db := testDB(t, 50, 40, 400, 7)
	q := starQ()
	st := stats.Build(db, 1.0, 1)
	opt := optimizer.New(db, st, cost.OptimizerParams())
	cfg := optimizer.Config{DisabledJoins: map[plan.JoinMethod]bool{plan.HashJoin: true}}
	cp, err := opt.PlanWithConfig(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	icp, err := plan.Extract(cp)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range icp.Methods {
		if m == plan.HashJoin {
			t.Fatal("disabled method used")
		}
	}
}

func TestOptimizerChoosesIndexScanForSelectiveEq(t *testing.T) {
	db := testDB(t, 5000, 40, 400, 11)
	q := &query.Query{
		ID: "pt",
		Tables: []query.TableRef{
			{Table: "orders", Alias: "o"},
			{Table: "customer", Alias: "c"},
		},
		Joins:   []query.JoinPred{{LA: "o", LC: "cust_id", RA: "c", RC: "id"}},
		Filters: []query.Filter{{Alias: "c", Col: "id", Op: query.Eq, Val: 17}},
	}
	st := stats.Build(db, 1.0, 1)
	opt := optimizer.New(db, st, cost.OptimizerParams())
	cp, err := opt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	// The scan on c (5000 rows, unique eq filter on indexed id) must be an
	// index scan.
	found := false
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n == nil {
			return
		}
		if n.IsScan() && n.Alias == "c" {
			found = n.Scan == plan.IndexScan
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(cp.Root)
	if !found {
		t.Fatalf("expected index scan on c:\n%s", cp)
	}
}

func TestStatsEstimatesWithinReason(t *testing.T) {
	db := testDB(t, 500, 200, 5000, 13)
	st := stats.Build(db, 1.0, 1)
	ts := st.Table("orders")
	if ts == nil || ts.Rows != 5000 {
		t.Fatalf("orders stats rows %v", ts)
	}
	cs := ts.Cols["cust_id"]
	if cs.NDV < 300 || cs.NDV > 500 {
		t.Fatalf("cust_id ndv %.0f, want ~500", cs.NDV)
	}
	// range selectivity of the full domain should be ~1
	if sel := cs.RangeSelectivity(cs.Min, cs.Max); sel < 0.95 || sel > 1.0 {
		t.Fatalf("full-range selectivity %f", sel)
	}
}

func TestSingleTablePlanExecutes(t *testing.T) {
	db := testDB(t, 50, 40, 400, 7)
	q := &query.Query{
		ID:      "single",
		Tables:  []query.TableRef{{Table: "customer", Alias: "c"}},
		Filters: []query.Filter{{Alias: "c", Col: "region", Op: query.Eq, Val: 2}},
	}
	st := stats.Build(db, 1.0, 1)
	opt := optimizer.New(db, st, cost.OptimizerParams())
	cp, err := opt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	res := New(db, cost.TruthParams()).Execute(cp, 0)
	want := 0
	c := db.Table("customer")
	for r := 0; r < c.NumRows(); r++ {
		if c.Value(1, int32(r)) == 2 {
			want++
		}
	}
	if res.OutRows != want {
		t.Fatalf("single table scan got %d rows, want %d", res.OutRows, want)
	}
}

func TestCrossProductWhenDisconnected(t *testing.T) {
	db := testDB(t, 10, 10, 20, 7)
	q := &query.Query{
		ID: "cross",
		Tables: []query.TableRef{
			{Table: "customer", Alias: "c"},
			{Table: "item", Alias: "i"},
		},
	}
	st := stats.Build(db, 1.0, 1)
	opt := optimizer.New(db, st, cost.OptimizerParams())
	cp, err := opt.Plan(q) // must fall back to allowing the cross join
	if err != nil {
		t.Fatal(err)
	}
	res := New(db, cost.TruthParams()).Execute(cp, 0)
	if res.OutRows != 100 {
		t.Fatalf("cross product rows %d, want 100", res.OutRows)
	}
}

// TestExecutorMatchesReference holds Execute to the row-at-a-time reference
// below, Result for Result: latency, work, output rows and the timeout flag
// must be equal, not close. Per query it runs the expert plan and a few
// seeded random hinted plans with connected join orders, under no timeout
// and under 1.5× and 20× the expert plan's latency, so timeouts land inside
// every operator's batched charges. The star subtest adds every order and
// method pair of a three-table query, cross products included.
func TestExecutorMatchesReference(t *testing.T) {
	check := func(t *testing.T, db *storage.DB, cps []*plan.CP, expertMs float64) {
		t.Helper()
		ex := New(db, cost.TruthParams())
		for _, cp := range cps {
			for _, to := range []float64{0, 1.5 * expertMs, 20 * expertMs} {
				if got, want := ex.Execute(cp, to), refExecute(ex, cp, to); got != want {
					t.Fatalf("timeout %g ms: Execute %+v, reference %+v:\n%s", to, got, want, cp)
				}
			}
		}
	}
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			w, err := workload.Load(name, workload.Options{Seed: 1, Scale: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			opt := optimizer.New(w.DB, w.Stats, cost.OptimizerParams())
			rng := rand.New(rand.NewSource(5))
			for _, q := range w.All() {
				expert, err := opt.Plan(q)
				if err != nil {
					t.Fatal(err)
				}
				cps := []*plan.CP{expert}
				for range 3 {
					cp, err := opt.HintedPlan(q, randomICP(rng, q))
					if err != nil {
						t.Fatal(err)
					}
					cps = append(cps, cp)
				}
				check(t, w.DB, cps, New(w.DB, cost.TruthParams()).Execute(expert, 0).LatencyMs)
			}
		})
	}
	t.Run("star", func(t *testing.T) {
		db := testDB(t, 50, 40, 400, 7)
		q := starQ()
		opt := optimizer.New(db, stats.Build(db, 1.0, 1), cost.OptimizerParams())
		expert, err := opt.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		var cps []*plan.CP
		for _, ord := range [][]string{{"o", "c", "i"}, {"o", "i", "c"}, {"c", "o", "i"}, {"i", "o", "c"}, {"c", "i", "o"}, {"i", "c", "o"}} {
			for m := range 9 {
				cp, err := opt.HintedPlan(q, plan.ICP{Order: ord, Methods: []plan.JoinMethod{plan.JoinMethod(m / 3), plan.JoinMethod(m % 3)}})
				if err != nil {
					t.Fatal(err)
				}
				cps = append(cps, cp)
			}
		}
		check(t, db, cps, New(db, cost.TruthParams()).Execute(expert, 0).LatencyMs)
	})
}

// randomICP draws a connected left-deep join order (each next alias joins
// one already placed) and a join method per join.
func randomICP(rng *rand.Rand, q *query.Query) plan.ICP {
	aliases := q.Aliases()
	order := []string{aliases[rng.Intn(len(aliases))]}
	placed := map[string]bool{order[0]: true}
	for len(order) < len(aliases) {
		var next []string
		for _, a := range aliases {
			if !placed[a] && len(q.JoinsBetween(placed, a)) > 0 {
				next = append(next, a)
			}
		}
		a := next[rng.Intn(len(next))]
		order = append(order, a)
		placed[a] = true
	}
	methods := make([]plan.JoinMethod, len(order)-1)
	for i := range methods {
		methods[i] = plan.JoinMethod(rng.Intn(int(plan.NumJoinMethods)))
	}
	return plan.ICP{Order: order, Methods: methods}
}

// jobExpertPlans loads JOB at scale 0.35, the size core's tests and the
// doctor serve, and returns an executor over it with every query's expert
// plan.
func jobExpertPlans(tb testing.TB) (*Executor, []*plan.CP) {
	tb.Helper()
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.35})
	if err != nil {
		tb.Fatal(err)
	}
	opt := optimizer.New(w.DB, w.Stats, cost.OptimizerParams())
	var cps []*plan.CP
	for _, q := range w.All() {
		cp, err := opt.Plan(q)
		if err != nil {
			tb.Fatal(err)
		}
		cps = append(cps, cp)
	}
	return New(w.DB, cost.TruthParams()), cps
}

// TestExecuteAllocsBounded pins what executing a plan allocates: operators
// append into one flat row-id buffer each, so a plan costs a few objects per
// operator, not one per intermediate tuple. The mean over JOB's expert plans
// measured 19 with the buffers and the build table kept from one execution
// for the next, 138 with them allocated per execution, and 19,045 with a
// []int32 per tuple.
func TestExecuteAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ex, cps := jobExpertPlans(t)
	total := 0.0
	for _, cp := range cps {
		total += testing.AllocsPerRun(3, func() { ex.Execute(cp, 0) })
	}
	const budget = 200
	if avg := total / float64(len(cps)); avg > budget {
		t.Fatalf("executing a JOB expert plan allocates %.0f objects on average, budget %d", avg, budget)
	}
}

// BenchmarkExecute times the execution stage: one JOB expert plan per op,
// cycling through every query's.
func BenchmarkExecute(b *testing.B) {
	ex, cps := jobExpertPlans(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		ex.Execute(cps[i%len(cps)], 0)
	}
}

// ---- reference executor ----
//
// refExecute is the row-at-a-time executor the flat-buffer operators
// replaced: one []int32 per intermediate tuple, a map from alias to tuple
// position, and a column lookup by name per row per filter. Its charges are
// the contract Execute keeps bit for bit, its output batch included.

const refBatch = 4096

type refRelation struct {
	aliases []string
	apos    map[string]int
	rows    [][]int32
}

func newRefRelation(aliases []string) *refRelation {
	r := &refRelation{aliases: aliases, apos: map[string]int{}}
	for i, a := range aliases {
		r.apos[a] = i
	}
	return r
}

type refState struct {
	ex     *Executor
	q      *query.Query
	work   float64
	budget float64
}

func refExecute(e *Executor, cp *plan.CP, timeoutMs float64) Result {
	budget := math.Inf(1)
	if timeoutMs > 0 {
		budget = cost.FromMs(timeoutMs)
	}
	st := &refState{ex: e, q: cp.Q, budget: budget}
	rel, ok := st.run(cp.Root)
	if !ok {
		return Result{LatencyMs: timeoutMs, Work: st.work, TimedOut: true}
	}
	return Result{LatencyMs: cost.ToMs(st.work), Work: st.work, OutRows: len(rel.rows)}
}

func (s *refState) charge(w float64) bool {
	s.work += w
	return s.work <= s.budget
}

func (s *refState) run(n *plan.Node) (*refRelation, bool) {
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

func (s *refState) runScan(n *plan.Node) (*refRelation, bool) {
	tbl := s.ex.DB.Table(s.q.TableOf(n.Alias))
	filters := n.ScanPred
	var ids []int32
	if n.Scan == plan.IndexScan && n.IdxFlt >= 0 && n.IdxFlt < len(filters) {
		f := filters[n.IdxFlt]
		cand := tbl.Lookup(tbl.Meta.ColIndex(f.Col), f.Val)
		residual := 0
		for fi := range filters {
			if fi != n.IdxFlt {
				residual++
			}
		}
		if !s.charge(s.ex.Params.IndexScanCost(float64(tbl.NumRows()), float64(len(cand)), residual)) {
			return nil, false
		}
		for _, r := range cand {
			if refRowPasses(tbl, r, filters, n.IdxFlt) {
				ids = append(ids, r)
			}
		}
	} else {
		nRows := tbl.NumRows()
		if !s.charge(s.ex.Params.SeqScanCost(float64(nRows), len(filters))) {
			return nil, false
		}
		for r := 0; r < nRows; r++ {
			if refRowPasses(tbl, int32(r), filters, -1) {
				ids = append(ids, int32(r))
			}
		}
	}
	rel := newRefRelation([]string{n.Alias})
	rel.rows = make([][]int32, len(ids))
	for i, id := range ids {
		rel.rows[i] = []int32{id}
	}
	return rel, true
}

func refRowPasses(tbl *storage.Table, r int32, filters []query.Filter, skip int) bool {
	for fi := range filters {
		if fi == skip {
			continue
		}
		ci := tbl.Meta.ColIndex(filters[fi].Col)
		if ci < 0 || !evalFilter(tbl.Value(ci, r), &filters[fi]) {
			return false
		}
	}
	return true
}

func (s *refState) runHashComputedJoin(n *plan.Node, left, right *refRelation) (*refRelation, bool) {
	innerAlias := n.Right.Alias
	innerTbl := s.ex.DB.Table(s.q.TableOf(innerAlias))
	lRows, rRows := float64(len(left.rows)), float64(len(right.rows))
	switch n.Method {
	case plan.HashJoin:
		if !s.charge(rRows*s.ex.Params.HashBuild + lRows*s.ex.Params.HashProbe) {
			return nil, false
		}
	case plan.MergeJoin:
		sorted := refInnerSortedOnJoinCol(innerTbl, n.Preds, innerAlias)
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
		panic("reference: hash-computed join on a nested loop")
	}
	lAlias, lCol, iCol := refSplitPreds(n.Preds, innerAlias)
	if len(n.Preds) == 0 {
		return s.crossProduct(left, right, innerAlias)
	}
	iColIdx := make([]int, len(iCol))
	for i, c := range iCol {
		iColIdx[i] = innerTbl.Meta.ColIndex(c)
	}
	innerKey := func(r int32) uint64 {
		h := uint64(fnvOffset)
		for _, c := range iColIdx {
			h = mix(h, innerTbl.Value(c, r))
		}
		return h
	}
	build := map[uint64][]int32{}
	for _, row := range right.rows {
		build[innerKey(row[0])] = append(build[innerKey(row[0])], row[0])
	}
	lTbl := make([]*storage.Table, len(lAlias))
	lColIdx := make([]int, len(lAlias))
	lRelPos := make([]int, len(lAlias))
	for i := range lAlias {
		lTbl[i] = s.ex.DB.Table(s.q.TableOf(lAlias[i]))
		lColIdx[i] = lTbl[i].Meta.ColIndex(lCol[i])
		lRelPos[i] = left.apos[lAlias[i]]
	}
	out := newRefRelation(append(append([]string(nil), left.aliases...), innerAlias))
	pending := 0
	for _, lrow := range left.rows {
		h := uint64(fnvOffset)
		for i := range lTbl {
			h = mix(h, lTbl[i].Value(lColIdx[i], lrow[lRelPos[i]]))
		}
	cand:
		for _, r := range build[h] {
			for i := range lTbl {
				if lTbl[i].Value(lColIdx[i], lrow[lRelPos[i]]) != innerTbl.Value(iColIdx[i], r) {
					continue cand
				}
			}
			nr := make([]int32, len(lrow)+1)
			copy(nr, lrow)
			nr[len(lrow)] = r
			out.rows = append(out.rows, nr)
			pending++
			if pending >= refBatch {
				if !s.charge(float64(pending) * s.ex.Params.OutTuple) {
					return nil, false
				}
				pending = 0
			}
		}
	}
	if !s.charge(float64(pending) * s.ex.Params.OutTuple) {
		return nil, false
	}
	return out, true
}

func (s *refState) runNestLoop(n *plan.Node) (*refRelation, bool) {
	left, ok := s.run(n.Left)
	if !ok {
		return nil, false
	}
	innerAlias := n.Right.Alias
	innerTbl := s.ex.DB.Table(s.q.TableOf(innerAlias))
	lRows := float64(len(left.rows))
	innerBase := float64(innerTbl.NumRows())
	lAlias, lCol, iCol := refSplitPreds(n.Preds, innerAlias)
	idxPred := -1
	for i, c := range iCol {
		if ci := innerTbl.Meta.ColIndex(c); ci >= 0 && innerTbl.HasIndex(ci) {
			idxPred = i
			break
		}
	}
	if len(n.Preds) == 0 {
		if !s.charge(lRows*s.ex.Params.NLOuter + lRows*innerBase*s.ex.Params.NLInner) {
			return nil, false
		}
		right, ok := s.runScanUncharged(n.Right)
		if !ok {
			return nil, false
		}
		return s.crossProduct(left, right, innerAlias)
	}
	if idxPred >= 0 {
		if !s.charge(lRows * (s.ex.Params.NLOuter + s.ex.Params.IdxLookup*log2c(innerBase))) {
			return nil, false
		}
		lTbl := make([]*storage.Table, len(lAlias))
		lColIdx := make([]int, len(lAlias))
		lRelPos := make([]int, len(lAlias))
		iColIdx := make([]int, len(iCol))
		for i := range lAlias {
			lTbl[i] = s.ex.DB.Table(s.q.TableOf(lAlias[i]))
			lColIdx[i] = lTbl[i].Meta.ColIndex(lCol[i])
			lRelPos[i] = left.apos[lAlias[i]]
			iColIdx[i] = innerTbl.Meta.ColIndex(iCol[i])
		}
		out := newRefRelation(append(append([]string(nil), left.aliases...), innerAlias))
		pendingCand, pendingOut := 0, 0
		for _, lrow := range left.rows {
			v := lTbl[idxPred].Value(lColIdx[idxPred], lrow[lRelPos[idxPred]])
			cands := innerTbl.Lookup(iColIdx[idxPred], v)
			pendingCand += len(cands)
			if pendingCand >= refBatch {
				if !s.charge(float64(pendingCand) * s.ex.Params.IdxTuple) {
					return nil, false
				}
				pendingCand = 0
			}
		cand:
			for _, r := range cands {
				if !refRowPasses(innerTbl, r, n.Right.ScanPred, -1) {
					continue
				}
				for i := range lAlias {
					if i != idxPred && lTbl[i].Value(lColIdx[i], lrow[lRelPos[i]]) != innerTbl.Value(iColIdx[i], r) {
						continue cand
					}
				}
				nr := make([]int32, len(lrow)+1)
				copy(nr, lrow)
				nr[len(lrow)] = r
				out.rows = append(out.rows, nr)
				pendingOut++
				if pendingOut >= refBatch {
					if !s.charge(float64(pendingOut) * s.ex.Params.OutTuple) {
						return nil, false
					}
					pendingOut = 0
				}
			}
		}
		if !s.charge(float64(pendingCand)*s.ex.Params.IdxTuple + float64(pendingOut)*s.ex.Params.OutTuple) {
			return nil, false
		}
		return out, true
	}
	if !s.charge(lRows*s.ex.Params.NLOuter + lRows*innerBase*s.ex.Params.NLInner) {
		return nil, false
	}
	right, ok := s.runScanUncharged(n.Right)
	if !ok {
		return nil, false
	}
	// The join is computed by hashing under an unlimited budget, and only
	// its output is charged.
	saved, savedBudget := s.work, s.budget
	s.budget = math.Inf(1)
	rel, _ := s.runHashComputedJoin(&plan.Node{Method: plan.HashJoin, Preds: n.Preds, Left: n.Left, Right: n.Right}, left, right)
	s.work, s.budget = saved, savedBudget
	if !s.charge(float64(len(rel.rows)) * s.ex.Params.OutTuple) {
		return nil, false
	}
	return rel, true
}

func (s *refState) runScanUncharged(n *plan.Node) (*refRelation, bool) {
	saved := s.work
	rel, ok := s.runScan(n)
	s.work = saved
	return rel, ok
}

func (s *refState) crossProduct(left, right *refRelation, innerAlias string) (*refRelation, bool) {
	out := newRefRelation(append(append([]string(nil), left.aliases...), innerAlias))
	pending := 0
	for _, lrow := range left.rows {
		for _, rrow := range right.rows {
			nr := make([]int32, len(lrow)+1)
			copy(nr, lrow)
			nr[len(lrow)] = rrow[0]
			out.rows = append(out.rows, nr)
			pending++
			if pending >= refBatch {
				if !s.charge(float64(pending) * s.ex.Params.OutTuple) {
					return nil, false
				}
				pending = 0
			}
		}
	}
	if !s.charge(float64(pending) * s.ex.Params.OutTuple) {
		return nil, false
	}
	return out, true
}

// refSplitPreds resolves which side of each predicate belongs to the left
// relation vs the inner alias, returning (leftAlias, leftCol, innerCol) per
// predicate.
func refSplitPreds(preds []query.JoinPred, inner string) (lAlias, lCol, iCol []string) {
	for _, p := range preds {
		if p.RA == inner {
			lAlias = append(lAlias, p.LA)
			lCol = append(lCol, p.LC)
			iCol = append(iCol, p.RC)
		} else {
			lAlias = append(lAlias, p.RA)
			lCol = append(lCol, p.RC)
			iCol = append(iCol, p.LC)
		}
	}
	return
}

func refInnerSortedOnJoinCol(tbl *storage.Table, preds []query.JoinPred, inner string) bool {
	for _, p := range preds {
		col := p.RC
		if p.RA != inner {
			col = p.LC
		}
		if ci := tbl.Meta.ColIndex(col); ci >= 0 && tbl.HasIndex(ci) {
			return true
		}
	}
	return false
}
