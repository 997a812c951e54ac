package query

import (
	"strings"
	"testing"
)

func sampleQuery() *Query {
	return &Query{
		ID: "s1",
		Tables: []TableRef{
			{Table: "title", Alias: "t"}, {Table: "cast_info", Alias: "ci"}, {Table: "name", Alias: "n"},
		},
		Joins: []JoinPred{
			{LA: "ci", LC: "movie_id", RA: "t", RC: "id"},
			{LA: "ci", LC: "person_id", RA: "n", RC: "id"},
		},
		Filters: []Filter{
			{Alias: "t", Col: "year", Op: Gt, Val: 2000},
			{Alias: "n", Col: "gender", Op: Eq, Val: 1},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := sampleQuery().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	q := sampleQuery()
	q.Filters = append(q.Filters, Filter{Alias: "zz", Col: "x", Op: Eq})
	if err := q.Validate(); err == nil {
		t.Fatal("unknown filter alias accepted")
	}
	q = sampleQuery()
	q.Tables = append(q.Tables, TableRef{Table: "x", Alias: "t"})
	if err := q.Validate(); err == nil {
		t.Fatal("duplicate alias accepted")
	}
	q = sampleQuery()
	q.Joins = append(q.Joins, JoinPred{LA: "t", LC: "a", RA: "t", RC: "b"})
	if err := q.Validate(); err == nil {
		t.Fatal("self-join predicate accepted")
	}
	// A plan's join order is a list of aliases: an empty one names nothing.
	q = &Query{ID: "one", Tables: []TableRef{{Table: "title", Alias: ""}}}
	if err := q.Validate(); err == nil {
		t.Fatal("empty alias accepted")
	}
	q = &Query{ID: "one", Tables: []TableRef{{Table: "", Alias: "t"}}}
	if err := q.Validate(); err == nil {
		t.Fatal("empty table name accepted")
	}
}

func TestAdjacencyAndConnectivity(t *testing.T) {
	q := sampleQuery()
	adj := q.Adjacent("ci")
	if len(adj) != 2 || adj[0] != "n" || adj[1] != "t" {
		t.Fatalf("Adjacent(ci) = %v", adj)
	}
	if !q.Connected() {
		t.Fatal("star query must be connected")
	}
	if !q.IsConnectedOrder([]string{"t", "ci", "n"}) {
		t.Fatal("t-ci-n order is connected")
	}
	if q.IsConnectedOrder([]string{"t", "n", "ci"}) {
		t.Fatal("t-n prefix has no join predicate; order must be rejected")
	}
	q.Joins = q.Joins[:1] // drop ci-n: n is now disconnected
	if q.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestJoinsBetween(t *testing.T) {
	q := sampleQuery()
	set := map[string]bool{"t": true, "n": true}
	js := q.JoinsBetween(set, "ci")
	if len(js) != 2 {
		t.Fatalf("JoinsBetween = %v", js)
	}
	if len(q.JoinsBetween(map[string]bool{"t": true}, "n")) != 0 {
		t.Fatal("t and n are not directly joined")
	}
}

func TestFiltersOnAndTableOf(t *testing.T) {
	q := sampleQuery()
	if fs := q.FiltersOn("t"); len(fs) != 1 || fs[0].Col != "year" {
		t.Fatalf("FiltersOn(t) = %v", fs)
	}
	if q.TableOf("ci") != "cast_info" || q.TableOf("zz") != "" {
		t.Fatal("TableOf broken")
	}
}

func TestSQLRendering(t *testing.T) {
	q := sampleQuery()
	q.Filters = append(q.Filters,
		Filter{Alias: "t", Col: "year", Op: Between, Val: 1990, Hi: 2000},
		Filter{Alias: "n", Col: "code", Op: In, Set: []int64{1, 2, 3}},
	)
	sql := q.SQL()
	for _, want := range []string{
		"SELECT COUNT(*)", "title AS t", "ci.movie_id = t.id",
		"t.year > 2000", "n.gender = 1", "BETWEEN 1990 AND 2000", "IN (1, 2, 3)",
	} {
		if !strings.Contains(sql, want) {
			t.Fatalf("SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestJoinPredHelpers(t *testing.T) {
	j := JoinPred{LA: "a", LC: "x", RA: "b", RC: "y"}
	if !j.Touches("a") || !j.Touches("b") || j.Touches("c") {
		t.Fatal("Touches broken")
	}
	if j.Other("a") != "b" || j.Other("b") != "a" || j.Other("c") != "" {
		t.Fatal("Other broken")
	}
}

func TestCmpOpStrings(t *testing.T) {
	ops := map[CmpOp]string{Eq: "=", Ne: "<>", Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Between: "BETWEEN", In: "IN"}
	for op, want := range ops {
		if op.String() != want {
			t.Fatalf("%v.String() = %q", int(op), op.String())
		}
	}
}
