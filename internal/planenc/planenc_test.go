package planenc

import (
	"testing"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
)

func testSchema() *catalog.Schema {
	s := catalog.NewSchema()
	s.AddTable(catalog.NewTable("t1", catalog.Column{Name: "id", Indexed: true}, catalog.Column{Name: "x"}))
	s.AddTable(catalog.NewTable("t2", catalog.Column{Name: "id", Indexed: true}, catalog.Column{Name: "fk", Indexed: true}))
	s.AddTable(catalog.NewTable("t3", catalog.Column{Name: "id", Indexed: true}))
	return s
}

func testCP() *plan.CP {
	q := &query.Query{
		ID: "enc",
		Tables: []query.TableRef{
			{Table: "t1", Alias: "a"}, {Table: "t2", Alias: "b"}, {Table: "t3", Alias: "c"},
		},
		Joins: []query.JoinPred{
			{LA: "b", LC: "fk", RA: "a", RC: "id"},
			{LA: "b", LC: "id", RA: "c", RC: "id"},
		},
	}
	leafA := &plan.Node{Alias: "a", Scan: plan.IndexScan, IdxCol: "id", EstRows: 10}
	leafB := &plan.Node{Alias: "b", Scan: plan.SeqScan, EstRows: 1000}
	leafC := &plan.Node{Alias: "c", Scan: plan.SeqScan, EstRows: 100}
	j1 := &plan.Node{Method: plan.HashJoin, Left: leafA, Right: leafB, EstRows: 5000,
		Preds: []query.JoinPred{q.Joins[0]}}
	j2 := &plan.Node{Method: plan.NestLoop, Left: j1, Right: leafC, EstRows: 50,
		Preds: []query.JoinPred{q.Joins[1]}}
	return &plan.CP{Root: j2, Q: q}
}

func TestEncodeShapes(t *testing.T) {
	enc := NewEncoder(testSchema())
	e := enc.Encode(testCP())
	if e.N != 5 {
		t.Fatalf("want 5 nodes, got %d", e.N)
	}
	for _, arr := range [][]int{e.Ops, e.Tables, e.Columns, e.RowBkt, e.Heights, e.Structs} {
		if len(arr) != e.N {
			t.Fatalf("feature array length %d != %d", len(arr), e.N)
		}
	}
	if len(e.Mask) != e.N*e.N {
		t.Fatalf("mask length %d != %d", len(e.Mask), e.N*e.N)
	}
}

func TestEncodeStructureTypes(t *testing.T) {
	enc := NewEncoder(testSchema())
	e := enc.Encode(testCP())
	// pre-order: j2(root), j1(left), a(left), b(right), c(right)
	want := []int{StructRoot, StructLeft, StructLeft, StructRight, StructRight}
	for i, w := range want {
		if e.Structs[i] != w {
			t.Fatalf("node %d struct = %d, want %d", i, e.Structs[i], w)
		}
	}
}

func TestEncodeHeights(t *testing.T) {
	enc := NewEncoder(testSchema())
	e := enc.Encode(testCP())
	// j2 height 2, j1 height 1, leaves 0
	want := []int{2, 1, 0, 0, 0}
	for i, w := range want {
		if e.Heights[i] != w {
			t.Fatalf("node %d height = %d, want %d", i, e.Heights[i], w)
		}
	}
}

func TestEncodeOps(t *testing.T) {
	enc := NewEncoder(testSchema())
	e := enc.Encode(testCP())
	want := []int{OpNestLoop, OpHashJoin, OpIndexScan, OpSeqScan, OpSeqScan}
	for i, w := range want {
		if e.Ops[i] != w {
			t.Fatalf("node %d op = %d, want %d", i, e.Ops[i], w)
		}
	}
}

func TestReachabilityMask(t *testing.T) {
	enc := NewEncoder(testSchema())
	e := enc.Encode(testCP())
	n := e.N
	at := func(i, j int) bool { return e.Mask[i*n+j] }
	// self-attention everywhere
	for i := 0; i < n; i++ {
		if !at(i, i) {
			t.Fatalf("node %d cannot attend to itself", i)
		}
	}
	// root (0) reaches everything
	for j := 0; j < n; j++ {
		if !at(0, j) || !at(j, 0) {
			t.Fatalf("root reachability broken at %d", j)
		}
	}
	// leaves a(2) and b(3) are siblings: NOT mutually reachable
	if at(2, 3) || at(3, 2) {
		t.Fatal("siblings must be masked from each other")
	}
	// leaf a(2) and leaf c(4) are in different subtrees: masked
	if at(2, 4) || at(4, 2) {
		t.Fatal("cousins must be masked from each other")
	}
	// mask must be symmetric (ancestor/descendant relation is)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if at(i, j) != at(j, i) {
				t.Fatalf("mask asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestRowBucketMonotone(t *testing.T) {
	prev := -1
	for _, rows := range []float64{0, 1, 9, 99, 1e3, 1e6, 1e15} {
		b := rowBucket(rows)
		if b < prev {
			t.Fatalf("rowBucket not monotone at %f", rows)
		}
		if b < 0 || b >= RowBuckets {
			t.Fatalf("rowBucket out of range: %d", b)
		}
		prev = b
	}
}

func TestEncoderVocabularies(t *testing.T) {
	enc := NewEncoder(testSchema())
	if enc.NumTables != 3 {
		t.Fatalf("NumTables = %d", enc.NumTables)
	}
	if enc.NumCols != 5 {
		t.Fatalf("NumCols = %d", enc.NumCols)
	}
	// unknown table on a scan maps to the "none" bucket rather than panicking
	cp := testCP()
	cp.Q.Tables[0].Table = "nonexistent"
	e := enc.Encode(cp)
	if e.Tables[2] != enc.NumTables {
		t.Fatalf("unknown table should map to %d, got %d", enc.NumTables, e.Tables[2])
	}
}

// TestNoneBucketAtVocabularySize: join nodes carry no table, so they encode
// at NumTables, the none bucket a table outside the vocabulary shares.
func TestNoneBucketAtVocabularySize(t *testing.T) {
	enc := NewEncoder(testSchema())
	e := enc.Encode(testCP())
	// join nodes (pre-order 0,1) carry the none table id
	if e.Tables[0] != enc.NumTables || e.Tables[1] != enc.NumTables {
		t.Fatalf("none bucket moved: %v (numTables=%d)", e.Tables, enc.NumTables)
	}
}
