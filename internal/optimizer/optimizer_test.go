package optimizer

import (
	"testing"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/engine/cost"
	"github.com/foss-db/foss/internal/engine/stats"
	"github.com/foss-db/foss/internal/engine/storage"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
)

func chainDB(t *testing.T) (*storage.DB, *stats.Catalog, *query.Query) {
	t.Helper()
	s := catalog.NewSchema()
	s.AddTable(catalog.NewTable("a", catalog.Column{Name: "id", Indexed: true}, catalog.Column{Name: "v"}))
	s.AddTable(catalog.NewTable("b", catalog.Column{Name: "id", Indexed: true}, catalog.Column{Name: "a_id", Indexed: true}))
	s.AddTable(catalog.NewTable("c", catalog.Column{Name: "id", Indexed: true}, catalog.Column{Name: "b_id", Indexed: true}))
	s.AddTable(catalog.NewTable("d", catalog.Column{Name: "id", Indexed: true}, catalog.Column{Name: "c_id", Indexed: true}))
	db := storage.NewDB(s)
	for i := 0; i < 200; i++ {
		db.Table("a").AppendRow(int64(i), int64(i%7))
	}
	for i := 0; i < 800; i++ {
		db.Table("b").AppendRow(int64(i), int64(i%200))
	}
	for i := 0; i < 1200; i++ {
		db.Table("c").AppendRow(int64(i), int64(i%800))
	}
	for i := 0; i < 600; i++ {
		db.Table("d").AppendRow(int64(i), int64(i%1200))
	}
	db.BuildAllIndexes()
	q := &query.Query{
		ID: "chain",
		Tables: []query.TableRef{
			{Table: "a", Alias: "a"}, {Table: "b", Alias: "b"},
			{Table: "c", Alias: "c"}, {Table: "d", Alias: "d"},
		},
		Joins: []query.JoinPred{
			{LA: "b", LC: "a_id", RA: "a", RC: "id"},
			{LA: "c", LC: "b_id", RA: "b", RC: "id"},
			{LA: "d", LC: "c_id", RA: "c", RC: "id"},
		},
		Filters: []query.Filter{{Alias: "a", Col: "v", Op: query.Eq, Val: 3}},
	}
	return db, stats.Build(db, 1.0, 1), q
}

func TestPartialPlanCoversPrefixOnly(t *testing.T) {
	db, st, q := chainDB(t)
	opt := New(db, st, cost.OptimizerParams())
	cp, err := opt.PartialPlan(q, []string{"a", "b"}, []plan.JoinMethod{plan.HashJoin})
	if err != nil {
		t.Fatal(err)
	}
	icp, err := plan.Extract(cp)
	if err != nil {
		t.Fatal(err)
	}
	if len(icp.Order) != 2 || icp.Order[0] != "a" || icp.Order[1] != "b" {
		t.Fatalf("partial order = %v", icp.Order)
	}
	if icp.Methods[0] != plan.HashJoin {
		t.Fatalf("partial method = %v", icp.Methods[0])
	}
	if _, err := opt.PartialPlan(q, []string{"a", "b"}, nil); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestPlanWithPrefixHonorsPrefix(t *testing.T) {
	db, st, q := chainDB(t)
	opt := New(db, st, cost.OptimizerParams())
	for _, prefix := range [][]string{{"d"}, {"c", "d"}, {"b", "c", "d"}} {
		cp, err := opt.PlanWithPrefix(q, prefix)
		if err != nil {
			t.Fatal(err)
		}
		icp, err := plan.Extract(cp)
		if err != nil {
			t.Fatal(err)
		}
		if len(icp.Order) != 4 {
			t.Fatalf("plan covers %d tables", len(icp.Order))
		}
		for i, a := range prefix {
			if icp.Order[i] != a {
				t.Fatalf("prefix %v not honored: order %v", prefix, icp.Order)
			}
		}
	}
	if _, err := opt.PlanWithPrefix(q, []string{"zz"}); err == nil {
		t.Fatal("unknown prefix alias accepted")
	}
}

func TestPlanWithEmptyPrefixEqualsPlan(t *testing.T) {
	db, st, q := chainDB(t)
	opt := New(db, st, cost.OptimizerParams())
	a, err := opt.PlanWithPrefix(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := opt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	ia, _ := plan.Extract(a)
	ib, _ := plan.Extract(b)
	if !ia.Equal(ib) {
		t.Fatalf("empty prefix diverges: %v vs %v", ia, ib)
	}
}

func TestCheapestMethodRespectsRestriction(t *testing.T) {
	db, st, q := chainDB(t)
	opt := New(db, st, cost.OptimizerParams())
	preds := []query.JoinPred{q.Joins[0]}
	free := opt.CheapestMethod(q, 10, "a", preds, nil)
	restricted := opt.CheapestMethod(q, 10, "a", preds,
		map[plan.JoinMethod]bool{plan.HashJoin: true})
	if restricted != plan.HashJoin {
		t.Fatalf("restriction ignored: got %v", restricted)
	}
	_ = free // free choice may legitimately differ
}

func TestDPBeatsWorstHintedPlan(t *testing.T) {
	// The DP's chosen plan should have estimated cost no worse than any
	// hinted plan's estimate (it optimizes exactly that objective).
	db, st, q := chainDB(t)
	opt := New(db, st, cost.OptimizerParams())
	best, err := opt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := opt.HintedPlan(q, plan.ICP{
		Order:   []string{"d", "c", "b", "a"},
		Methods: []plan.JoinMethod{plan.MergeJoin, plan.MergeJoin, plan.MergeJoin},
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Root.EstCost > alt.Root.EstCost+1e-6 {
		t.Fatalf("DP cost %f exceeds hinted alternative %f", best.Root.EstCost, alt.Root.EstCost)
	}
}
