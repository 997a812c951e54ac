package plan

import "strings"

// FormatHints renders an ICP as pg_hint_plan-style hint text — the textual
// interface the paper uses to steer PostgreSQL:
//
//	/*+ Leading((((a b) c) d)) HashJoin(a b) NestLoop(a b c) */
//
// Leading fixes the left-deep join order; each method hint names the full
// prefix joined at that level, bottom-up.
func (p ICP) FormatHints() string {
	if len(p.Order) == 0 {
		return "/*+ */"
	}
	var b strings.Builder
	b.WriteString("/*+ Leading(")
	b.WriteString(leadingTree(p.Order))
	b.WriteString(")")
	for i, m := range p.Methods {
		b.WriteString(" ")
		b.WriteString(methodHintName(m))
		b.WriteString("(")
		b.WriteString(strings.Join(p.Order[:i+2], " "))
		b.WriteString(")")
	}
	b.WriteString(" */")
	return b.String()
}

func leadingTree(order []string) string {
	s := order[0]
	for _, a := range order[1:] {
		s = "(" + s + " " + a + ")"
	}
	return s
}

func methodHintName(m JoinMethod) string {
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
