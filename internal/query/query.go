// Package query represents select-project-join queries structurally: a set
// of table references (with aliases), equi-join predicates, and single-table
// filter predicates. FOSS, the traditional optimizer, and all baselines
// consume this representation; no SQL parsing is involved (workloads are
// generated programmatically), but Query can render itself as SQL text.
package query

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/foss-db/foss/internal/engine/catalog"
)

// CmpOp is a comparison operator in a filter predicate.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
	Between // Val <= x <= Hi
	In      // x ∈ Set
)

func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Between:
		return "BETWEEN"
	case In:
		return "IN"
	}
	return "?"
}

// Filter is a single-table predicate alias.Col op Val.
type Filter struct {
	Alias string
	Col   string
	Op    CmpOp
	Val   int64
	Hi    int64   // upper bound for Between
	Set   []int64 // members for In
}

// JoinPred is an equi-join predicate LA.LC = RA.RC between two aliases.
type JoinPred struct {
	LA, LC string
	RA, RC string
}

// Touches reports whether the predicate involves the alias.
func (j JoinPred) Touches(alias string) bool { return j.LA == alias || j.RA == alias }

// Other returns the alias on the opposite side, or "".
func (j JoinPred) Other(alias string) string {
	switch alias {
	case j.LA:
		return j.RA
	case j.RA:
		return j.LA
	}
	return ""
}

// TableRef binds an alias to a base table.
type TableRef struct {
	Table string
	Alias string
}

// Query is a full SPJ query. A Query is immutable once it enters a serving
// path (planners, caches, and the tier router all share the pointer); the
// memoized fingerprint relies on that contract.
type Query struct {
	ID       string // unique within a workload, e.g. "1b" or "q7_3"
	Template string // template name, e.g. "t1"
	Tables   []TableRef
	Joins    []JoinPred
	Filters  []Filter

	// fp memoizes Fingerprint: rendering SQL text per call allocates, and the
	// serving fast path must not. 0 means "not yet computed" (a computed zero
	// is remapped to 1 — both unreachable in practice for FNV-1a over SQL).
	fp atomic.Uint64
	// checked memoizes the last schema every referenced table was found in,
	// so a catalog check repeats its lookups only when the schema it checks
	// against is a different generation. Keyed by pointer, not epoch:
	// replicas over different catalog worlds can share one Query and sit at
	// the same epoch with different schemas. Schemas are immutable, so a
	// match proves the check would pass again.
	checked atomic.Pointer[catalog.Schema]
}

// CheckedAgainst reports whether MarkChecked last recorded s.
func (q *Query) CheckedAgainst(s *catalog.Schema) bool { return s != nil && q.checked.Load() == s }

// MarkChecked records that every table the query references exists in s.
func (q *Query) MarkChecked(s *catalog.Schema) { q.checked.Store(s) }

// NumTables returns the number of joined relations.
func (q *Query) NumTables() int { return len(q.Tables) }

// TableOf returns the base table bound to an alias ("" if unknown).
func (q *Query) TableOf(alias string) string {
	for _, t := range q.Tables {
		if t.Alias == alias {
			return t.Table
		}
	}
	return ""
}

// Aliases returns all aliases in declaration order.
func (q *Query) Aliases() []string {
	as := make([]string, len(q.Tables))
	for i, t := range q.Tables {
		as[i] = t.Alias
	}
	return as
}

// FiltersOn returns the filters that apply to the alias.
func (q *Query) FiltersOn(alias string) []Filter {
	var fs []Filter
	for _, f := range q.Filters {
		if f.Alias == alias {
			fs = append(fs, f)
		}
	}
	return fs
}

// JoinsBetween returns every join predicate connecting an alias in the set
// with the candidate alias.
func (q *Query) JoinsBetween(set map[string]bool, alias string) []JoinPred {
	var js []JoinPred
	for _, j := range q.Joins {
		if j.LA == alias && set[j.RA] {
			js = append(js, j)
		} else if j.RA == alias && set[j.LA] {
			js = append(js, j)
		}
	}
	return js
}

// Adjacent returns the aliases directly joined to the given alias, sorted.
func (q *Query) Adjacent(alias string) []string {
	seen := map[string]bool{}
	for _, j := range q.Joins {
		if o := j.Other(alias); o != "" {
			seen[o] = true
		}
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// IsConnectedOrder reports whether the left-deep join order is free of cross
// products: every prefix of length ≥2 must be connected via join predicates.
func (q *Query) IsConnectedOrder(order []string) bool {
	if len(order) < 2 {
		return true
	}
	set := map[string]bool{order[0]: true}
	for _, a := range order[1:] {
		if len(q.JoinsBetween(set, a)) == 0 {
			return false
		}
		set[a] = true
	}
	return true
}

// Connected reports whether the whole join graph is connected.
func (q *Query) Connected() bool {
	if len(q.Tables) == 0 {
		return true
	}
	seen := map[string]bool{q.Tables[0].Alias: true}
	frontier := []string{q.Tables[0].Alias}
	for len(frontier) > 0 {
		a := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, b := range q.Adjacent(a) {
			if !seen[b] {
				seen[b] = true
				frontier = append(frontier, b)
			}
		}
	}
	return len(seen) == len(q.Tables)
}

// SQL renders the query as SQL text for display and logging.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT COUNT(*) FROM ")
	for i, t := range q.Tables {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s AS %s", t.Table, t.Alias)
	}
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, fmt.Sprintf("%s.%s = %s.%s", j.LA, j.LC, j.RA, j.RC))
	}
	for _, f := range q.Filters {
		switch f.Op {
		case Between:
			conds = append(conds, fmt.Sprintf("%s.%s BETWEEN %d AND %d", f.Alias, f.Col, f.Val, f.Hi))
		case In:
			vals := make([]string, len(f.Set))
			for i, v := range f.Set {
				vals[i] = fmt.Sprint(v)
			}
			conds = append(conds, fmt.Sprintf("%s.%s IN (%s)", f.Alias, f.Col, strings.Join(vals, ", ")))
		default:
			conds = append(conds, fmt.Sprintf("%s.%s %s %d", f.Alias, f.Col, f.Op, f.Val))
		}
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	b.WriteString(";")
	return b.String()
}

// Fingerprint returns a stable hash of the query's structure (tables, join
// predicates, filters — everything that determines its plan space). Two
// structurally identical queries share a fingerprint regardless of ID, which
// is what plan caches key on. The hash is memoized: repeat calls are a
// single atomic load, which keeps the tier-0 serving path allocation-free.
func (q *Query) Fingerprint() uint64 {
	if h := q.fp.Load(); h != 0 {
		return h
	}
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range []byte(q.SQL()) {
		h ^= uint64(b)
		h *= prime
	}
	if h == 0 {
		h = 1 // keep 0 as the "unset" sentinel
	}
	q.fp.Store(h)
	return h
}

// Validate checks structural sanity: every table and alias named, aliases
// unique and resolvable, join predicates and filters referencing declared
// aliases.
func (q *Query) Validate() error {
	seen := map[string]bool{}
	for _, t := range q.Tables {
		if t.Table == "" {
			return fmt.Errorf("query %s: alias %q names no table", q.ID, t.Alias)
		}
		if t.Alias == "" {
			return fmt.Errorf("query %s: table %q has an empty alias", q.ID, t.Table)
		}
		if seen[t.Alias] {
			return fmt.Errorf("query %s: duplicate alias %q", q.ID, t.Alias)
		}
		seen[t.Alias] = true
	}
	for _, j := range q.Joins {
		if !seen[j.LA] || !seen[j.RA] {
			return fmt.Errorf("query %s: join references unknown alias %v", q.ID, j)
		}
		if j.LA == j.RA {
			return fmt.Errorf("query %s: self-join predicate on single alias %q", q.ID, j.LA)
		}
	}
	for _, f := range q.Filters {
		if !seen[f.Alias] {
			return fmt.Errorf("query %s: filter references unknown alias %q", q.ID, f.Alias)
		}
	}
	return nil
}
