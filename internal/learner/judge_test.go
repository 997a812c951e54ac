package learner

import (
	"context"
	"testing"

	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
)

// TestServedPlanMatchesArenaFreeSelection: Optimize, whose walks run in an
// arena and whose judge scores the pool on a second goroutine as it grows,
// serves the plan planner.SelectBest picks over the arena-free, memo-free
// reference pool, on every train and test query, and Explain's winner is
// Optimize's. Every query is served twice, in two passes over all of them,
// so the second serve runs in arenas that serves of other queries sized and
// filled.
func TestServedPlanMatchesArenaFreeSelection(t *testing.T) {
	l, _ := trainedLearner(t)
	ctx := context.Background()
	maxSteps := l.Planners[0].Cfg.MaxSteps
	queries := append(append([]*query.Query{}, l.W.Train...), l.W.Test...)
	want := make([]*planner.PlanEval, len(queries))
	doctored := 0
	for i, q := range queries {
		want[i] = planner.SelectBest(l.AAM, independentPool(t, l, q, nil), maxSteps)
		if want[i].Step > 0 {
			doctored++
		}
	}
	t.Logf("%d of %d queries served a doctored plan", doctored, len(queries))
	if doctored == 0 {
		t.Fatal("every query keeps its expert plan: the comparison is vacuous")
	}
	for pass := range 2 {
		for i, q := range queries {
			got, err := l.Optimize(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if got.ICP.Key() != want[i].ICP.Key() || got.Step != want[i].Step {
				t.Fatalf("pass %d, %s: Optimize serves %s step %d, SelectBest over the reference pool %s step %d",
					pass, q.ID, got.ICP.Key(), got.Step, want[i].ICP.Key(), want[i].Step)
			}
			explained, scores, err := l.Explain(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if explained.ICP.Key() != got.ICP.Key() {
				t.Fatalf("pass %d, %s: Explain's winner %s, Optimize's %s", pass, q.ID, explained.ICP.Key(), got.ICP.Key())
			}
			chosen := 0
			for _, sc := range scores {
				if sc.Chosen {
					chosen++
					if sc.ICPKey != got.ICP.Key() {
						t.Fatalf("pass %d, %s: the score card chooses %s, Optimize serves %s", pass, q.ID, sc.ICPKey, got.ICP.Key())
					}
				}
			}
			if chosen != 1 {
				t.Fatalf("pass %d, %s: the score card chooses %d candidates", pass, q.ID, chosen)
			}
		}
	}
}
