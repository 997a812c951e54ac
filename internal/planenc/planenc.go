// Package planenc turns complete plans into the feature tensors the state
// network consumes, following the paper's QueryFormer-derived encoding:
// per-node features (operator, table, join/predicate columns, selectivity
// bucket), node height, the four-way node structure type (left / right /
// no-sibling / root), and a reachability attention mask that zeroes
// attention between nodes that are not ancestor/descendant of each other.
// Histogram and sample bitmaps are intentionally omitted, as in the paper.
//
// The table and column vocabularies are those of the load-time schema. A
// table or column a later DDL adds encodes in the "none" bucket, so model
// shapes never change under schema evolution and every replica of a tenant
// encodes a plan the same way.
package planenc

import (
	"math"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/plan"
)

// Operator ids for the encoding (scan methods and join methods share one
// vocabulary).
const (
	OpSeqScan = iota
	OpIndexScan
	OpHashJoin
	OpMergeJoin
	OpNestLoop
	NumOps
)

// Node structure types, per the paper.
const (
	StructLeft = iota
	StructRight
	StructNoSibling
	StructRoot
	NumStructs
)

// MaxHeight bounds the height vocabulary.
const MaxHeight = 24

// RowBuckets is the vocabulary size of the log-scale cardinality bucket.
const RowBuckets = 12

// Encoded is the tensor-ready form of one plan.
type Encoded struct {
	Ops     []int  // operator id per node
	Tables  []int  // table id per node (NumTables = "none")
	Columns []int  // join/index column id per node (NumCols = "none")
	RowBkt  []int  // log10 bucket of estimated rows per node
	Heights []int  // height per node (clamped to MaxHeight-1)
	Structs []int  // structure type per node
	Mask    []bool // seq*seq reachability mask (true = may attend)
	N       int    // number of nodes
}

// Encoder holds the schema vocabularies, fixed at the schema it was built
// from. The "none" bucket sits at NumTables/NumCols: a join node's table, a
// node without a join or index column, and any table or column the
// vocabularies do not hold — one a later DDL added — all encode there.
type Encoder struct {
	TableIDs  map[string]int
	ColumnIDs map[string]int
	NumTables int
	NumCols   int
}

// NewEncoder builds an encoder for one schema.
func NewEncoder(schema *catalog.Schema) *Encoder {
	t := schema.TableIDs()
	c := schema.ColumnIDs()
	return &Encoder{TableIDs: t, ColumnIDs: c, NumTables: len(t), NumCols: len(c)}
}

// rowBucket maps an estimated cardinality to a log10 bucket in [0,RowBuckets).
func rowBucket(rows float64) int {
	if rows < 1 {
		rows = 1
	}
	b := int(math.Log10(rows))
	if b >= RowBuckets {
		b = RowBuckets - 1
	}
	return b
}

// Encode featurizes a complete plan.
func (e *Encoder) Encode(cp *plan.CP) *Encoded {
	type item struct {
		n      *plan.Node
		parent int
		strct  int
	}
	var nodes []item
	var walk func(n *plan.Node, parent, strct int)
	walk = func(n *plan.Node, parent, strct int) {
		idx := len(nodes)
		nodes = append(nodes, item{n, parent, strct})
		if !n.IsScan() {
			ls, rs := StructLeft, StructRight
			if n.Right == nil {
				ls = StructNoSibling
			}
			if n.Left != nil {
				walk(n.Left, idx, ls)
			}
			if n.Right != nil {
				walk(n.Right, idx, rs)
			}
		}
	}
	walk(cp.Root, -1, StructRoot)

	n := len(nodes)
	enc := &Encoded{
		Ops:     make([]int, n),
		Tables:  make([]int, n),
		Columns: make([]int, n),
		RowBkt:  make([]int, n),
		Heights: make([]int, n),
		Structs: make([]int, n),
		Mask:    make([]bool, n*n),
		N:       n,
	}

	heights := make([]int, n)
	var computeHeight func(i int) int
	children := make([][]int, n)
	for i, it := range nodes {
		if it.parent >= 0 {
			children[it.parent] = append(children[it.parent], i)
		}
	}
	computeHeight = func(i int) int {
		if len(children[i]) == 0 {
			heights[i] = 0
			return 0
		}
		h := 0
		for _, c := range children[i] {
			if ch := computeHeight(c); ch+1 > h {
				h = ch + 1
			}
		}
		heights[i] = h
		return h
	}
	computeHeight(0)

	for i, it := range nodes {
		nd := it.n
		enc.Structs[i] = it.strct
		h := heights[i]
		if h >= MaxHeight {
			h = MaxHeight - 1
		}
		enc.Heights[i] = h
		enc.RowBkt[i] = rowBucket(nd.EstRows)
		if nd.IsScan() {
			if nd.Scan == plan.IndexScan {
				enc.Ops[i] = OpIndexScan
			} else {
				enc.Ops[i] = OpSeqScan
			}
			tid, ok := e.TableIDs[cp.Q.TableOf(nd.Alias)]
			if !ok {
				tid = e.NumTables
			}
			enc.Tables[i] = tid
			enc.Columns[i] = e.NumCols
			if nd.IdxCol != "" {
				if cid, ok := e.ColumnIDs[cp.Q.TableOf(nd.Alias)+"."+nd.IdxCol]; ok {
					enc.Columns[i] = cid
				}
			}
		} else {
			switch nd.Method {
			case plan.HashJoin:
				enc.Ops[i] = OpHashJoin
			case plan.MergeJoin:
				enc.Ops[i] = OpMergeJoin
			case plan.NestLoop:
				enc.Ops[i] = OpNestLoop
			}
			enc.Tables[i] = e.NumTables
			enc.Columns[i] = e.NumCols
			if len(nd.Preds) > 0 {
				p := nd.Preds[0]
				if cid, ok := e.ColumnIDs[cp.Q.TableOf(p.LA)+"."+p.LC]; ok {
					enc.Columns[i] = cid
				}
			}
		}
	}

	// Reachability mask: i may attend to j iff j is an ancestor or
	// descendant of i (or i itself).
	anc := make([][]bool, n)
	for i := range anc {
		anc[i] = make([]bool, n)
		for j := nodes[i].parent; j >= 0; j = nodes[j].parent {
			anc[i][j] = true
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || anc[i][j] || anc[j][i] {
				enc.Mask[i*n+j] = true
			}
		}
	}
	return enc
}
