// Package plan defines the two plan representations of the paper and the
// action space that edits them:
//
//   - CP (complete plan): the full physical operator tree the executor runs —
//     scans with access paths, joins with physical methods, annotated with
//     estimated and (after execution) true cardinalities.
//   - ICP (incomplete plan): just the left-deep join order and the join
//     methods, i.e. what FOSS edits and what steers the traditional optimizer
//     via the hint mechanism (the pg_hint_plan analog).
//
// Leaves are labeled T1..Tn bottom-up (T1 = deepest-left table, T2 = its
// sibling, T3 the next leaf up, ...) and joins O1..O(n-1) bottom-up, matching
// the paper's Fig. 2.
package plan

import (
	"fmt"
	"strings"

	"github.com/foss-db/foss/internal/query"
)

// JoinMethod is a physical join operator. The set Op of the paper.
type JoinMethod int

// Join methods (|Op| = 3, as in PostgreSQL).
const (
	HashJoin JoinMethod = iota
	MergeJoin
	NestLoop
)

// NumJoinMethods is |Op|.
const NumJoinMethods = 3

func (m JoinMethod) String() string {
	switch m {
	case HashJoin:
		return "HashJoin"
	case MergeJoin:
		return "MergeJoin"
	case NestLoop:
		return "NestLoop"
	}
	return "?"
}

// ScanMethod is a physical access path for a base table.
type ScanMethod int

// Scan methods.
const (
	SeqScan ScanMethod = iota
	IndexScan
)

func (m ScanMethod) String() string {
	if m == IndexScan {
		return "IndexScan"
	}
	return "SeqScan"
}

// Node is one operator in a complete plan tree. Scan nodes have Alias set
// and no children; join nodes have both children.
type Node struct {
	// Scan fields
	Alias    string
	Scan     ScanMethod
	IdxCol   string // column used by IndexScan (filter column)
	IdxFlt   int    // index into query filters served by the index, -1 if none
	ScanPred []query.Filter

	// Join fields
	Method JoinMethod
	Preds  []query.JoinPred
	Left   *Node
	Right  *Node

	// Annotations
	EstRows float64
	EstCost float64 // cumulative estimated cost of the subtree
}

// IsScan reports whether the node is a leaf scan.
func (n *Node) IsScan() bool { return n.Left == nil && n.Right == nil }

// CP is a complete plan for a query.
type CP struct {
	Root *Node
	Q    *query.Query
}

// String renders the plan tree in a compact indented form.
func (cp *CP) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		if n.IsScan() {
			fmt.Fprintf(&b, "%s(%s) rows=%.0f\n", n.Scan, n.Alias, n.EstRows)
			return
		}
		fmt.Fprintf(&b, "%s rows=%.0f cost=%.0f\n", n.Method, n.EstRows, n.EstCost)
		walk(n.Left, depth+1)
		walk(n.Right, depth+1)
	}
	if cp.Root != nil {
		walk(cp.Root, 0)
	}
	return b.String()
}

// ICP is the incomplete plan: a left-deep join order plus join methods.
// Order[0] and Order[1] are the two deepest leaves (T1, T2); Order[k] for
// k >= 2 is the leaf joined at level k-1 (T_{k+1}). Methods[i] is the method
// of join O_{i+1} (bottom-up), len(Methods) == len(Order)-1.
type ICP struct {
	Order   []string
	Methods []JoinMethod
}

// Clone deep-copies the ICP.
func (p ICP) Clone() ICP {
	return ICP{
		Order:   append([]string(nil), p.Order...),
		Methods: append([]JoinMethod(nil), p.Methods...),
	}
}

// Equal reports whether two ICPs describe the same incomplete plan.
func (p ICP) Equal(o ICP) bool {
	if len(p.Order) != len(o.Order) || len(p.Methods) != len(o.Methods) {
		return false
	}
	for i := range p.Order {
		if p.Order[i] != o.Order[i] {
			return false
		}
	}
	for i := range p.Methods {
		if p.Methods[i] != o.Methods[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string usable as a map key (episode dedupe).
func (p ICP) Key() string {
	var b strings.Builder
	for i, a := range p.Order {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a)
	}
	b.WriteByte('|')
	for _, m := range p.Methods {
		b.WriteByte(byte('0' + int(m)))
	}
	return b.String()
}

// NumTables returns the number of leaves.
func (p ICP) NumTables() int { return len(p.Order) }

func (p ICP) String() string {
	var b strings.Builder
	b.WriteString("ICP[")
	for i, a := range p.Order {
		if i > 0 {
			b.WriteString(" ⋈ ")
		}
		b.WriteString(a)
		if i > 0 && i-1 < len(p.Methods) {
			fmt.Fprintf(&b, "(%s)", shortMethod(p.Methods[i-1]))
		}
	}
	b.WriteString("]")
	return b.String()
}

func shortMethod(m JoinMethod) string {
	switch m {
	case HashJoin:
		return "H"
	case MergeJoin:
		return "M"
	case NestLoop:
		return "N"
	}
	return "?"
}

// Extract derives the ICP (join order + methods) from a complete left-deep
// plan, the planner's first step on the original plan.
func Extract(cp *CP) (ICP, error) {
	var icp ICP
	n := cp.Root
	var methods []JoinMethod
	for n != nil && !n.IsScan() {
		if n.Right == nil || !n.Right.IsScan() {
			return ICP{}, fmt.Errorf("plan: not left-deep at %v", n.Method)
		}
		methods = append(methods, n.Method)
		icp.Order = append(icp.Order, n.Right.Alias)
		n = n.Left
	}
	if n == nil {
		return ICP{}, fmt.Errorf("plan: empty tree")
	}
	icp.Order = append(icp.Order, n.Alias)
	// We walked top-down; reverse to bottom-up order.
	for i, j := 0, len(icp.Order)-1; i < j; i, j = i+1, j-1 {
		icp.Order[i], icp.Order[j] = icp.Order[j], icp.Order[i]
	}
	for i, j := 0, len(methods)-1; i < j; i, j = i+1, j-1 {
		methods[i], methods[j] = methods[j], methods[i]
	}
	icp.Methods = methods
	return icp, nil
}

// ParentJoinOf returns the bottom-up join label Ok (1-based) that is the
// parent of leaf Tk: T1 and T2 join at O1; Tk (k>=3) joins at O_{k-1}.
func ParentJoinOf(leaf int) int {
	if leaf <= 2 {
		return 1
	}
	return leaf - 1
}
