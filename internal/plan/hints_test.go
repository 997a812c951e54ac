package plan

import (
	"strings"
	"testing"
)

func TestFormatHints(t *testing.T) {
	icp := ICP{
		Order:   []string{"a", "b", "c"},
		Methods: []JoinMethod{NestLoop, HashJoin},
	}
	h := icp.FormatHints()
	for _, want := range []string{"/*+", "Leading(((a b) c))", "NestLoop(a b)", "HashJoin(a b c)", "*/"} {
		if !strings.Contains(h, want) {
			t.Fatalf("hints missing %q: %s", want, h)
		}
	}
}
