package learner

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/planenc"
	"github.com/foss-db/foss/internal/query"
)

// TestMemoisedForwardsMatchForward: over every plan in a trained learner's
// buffer, frozen forwards that share input-stage rows through one
// aam.Scratch, in batches of random sizes, compute the tracked network's
// Forward (one plan, nothing shared) bit for bit, for the AAM's state network
// and every agent's Φ. The networks run on goroutines of their own, each
// with its own scratch over a view of weights no other writes, as a miss's
// walks and judge do.
func TestMemoisedForwardsMatchForward(t *testing.T) {
	l, _ := trainedLearner(t)
	maxSteps := l.Planners[0].Cfg.MaxSteps
	var encs []*planenc.Encoded
	var steps []float64
	for _, qid := range l.Buf.order {
		for _, pe := range l.Buf.byQuery[qid] {
			encs, steps = append(encs, pe.Enc), append(steps, pe.StepStatus(maxSteps))
		}
	}
	if len(encs) < 20 {
		t.Fatalf("the buffer holds %d plans: too few to prove anything", len(encs))
	}
	nets := []*aam.StateNet{l.AAM.State}
	for _, pl := range l.Planners {
		nets = append(nets, pl.Agent.Phi)
	}
	var wg sync.WaitGroup
	for i, net := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view := net.Frozen()
			rng := rand.New(rand.NewSource(int64(i)))
			sc := aam.NewScratch()
			defer sc.Release()
			before := view.InputRows()
			for start := 0; start < len(encs); {
				end := min(len(encs), start+1+rng.Intn(3))
				got := view.ForwardBatch(encs[start:end], steps[start:end], sc)
				w := got.Shape[1]
				for j := start; j < end; j++ {
					want := net.Forward(encs[j], steps[j], nil).Data
					for c := range want {
						if g := got.Data[(j-start)*w+c]; math.Float64bits(g) != math.Float64bits(want[c]) {
							t.Errorf("network %d, plan %d, element %d: memoised %x, Forward %x", i, j, c, math.Float64bits(g), math.Float64bits(want[c]))
							return
						}
					}
				}
				start = end
			}
			if rows := view.InputRows() - before; rows >= int64(countNodes(encs)) {
				t.Errorf("network %d computed %d input-stage rows over %d nodes: nothing was shared, the check proves nothing", i, rows, countNodes(encs))
			}
		}()
	}
	wg.Wait()
}

func countNodes(encs []*planenc.Encoded) int {
	n := 0
	for _, enc := range encs {
		n += enc.N
	}
	return n
}

// TestJudgeComputesInputRowsOncePerServe: a miss's judge runs the AAM's input
// stage once per node feature tuple of the pool it judges, however the judge
// goroutine batched the candidates, and a serve starts from nothing: each
// query pays for its own tuples.
func TestJudgeComputesInputRowsOncePerServe(t *testing.T) {
	l, _ := trainedLearner(t)
	ctx := context.Background()
	queries := append(append([]*query.Query{}, l.W.Train...), l.W.Test...)
	nodes, paid := 0, 0
	for _, q := range queries {
		judge := l.AAM.NewJudge()
		before := l.AAM.InputRows()
		pool, err := l.judged(ctx, q, judge)
		judge.Release()
		if err != nil {
			t.Fatal(err)
		}
		rows := l.AAM.InputRows() - before
		seen := map[[6]int]bool{}
		want := 0
		for _, pe := range pool {
			enc := pe.Enc
			for r := range enc.N {
				key := [6]int{enc.Ops[r], enc.Tables[r], enc.Columns[r], enc.RowBkt[r], enc.Heights[r], enc.Structs[r]}
				if !seen[key] {
					seen[key] = true
					want++
				}
			}
			nodes += enc.N
		}
		if rows != int64(want) {
			t.Fatalf("%s: the judge computed %d input-stage rows for %d distinct tuples over a pool of %d", q.ID, rows, want, len(pool))
		}
		paid += want
	}
	if paid == nodes {
		t.Fatal("no pool repeats a tuple: the check proves nothing")
	}
}
