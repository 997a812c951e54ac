package planner

import (
	"math/rand"
	"testing"

	"github.com/foss-db/foss/internal/planenc"
)

// tupleCount adds each node feature tuple of enc that seen lacks to seen and
// returns how many it added.
func tupleCount(seen map[[6]int]bool, enc *planenc.Encoded) int {
	added := 0
	for r := range enc.N {
		key := [6]int{enc.Ops[r], enc.Tables[r], enc.Columns[r], enc.RowBkt[r], enc.Heights[r], enc.Structs[r]}
		if !seen[key] {
			seen[key] = true
			added++
		}
	}
	return added
}

// TestMemoComputesInputRowsOncePerServe: the rollouts of one query, sharing a
// memo, run Φ's input stage exactly once per node feature tuple of the states
// they forward, and a memo carries nothing into the next query's serve: each
// query pays for its own tuples, those an earlier query met included.
func TestMemoComputesInputRowsOncePerServe(t *testing.T) {
	pl, w, _ := testPlanner(t, 3)
	rng := rand.New(rand.NewSource(5))
	phi := pl.Agent.phi
	nodes, paid := 0, 0
	everSeen := map[[6]int]bool{}
	for _, q := range w.Train[:6] {
		orig, err := pl.OriginalEval(q)
		if err != nil {
			t.Fatal(err)
		}
		memo := NewMemo(nil)
		before := phi.InputRows()
		for r := range 4 {
			if _, err := pl.Rollout(q, orig, r > 0, rng, memo); err != nil {
				t.Fatal(err)
			}
		}
		rows := phi.InputRows() - before
		// The forwarded states: the expert plan at step 0, a hinted plan at
		// every later step (the memo hinted it to get there).
		seen := map[[6]int]bool{}
		want := 0
		for k := range memo.states {
			enc := orig.Enc
			if k.step > 0 {
				enc = memo.hinted[k.icp].enc
			}
			want += tupleCount(seen, enc)
			tupleCount(everSeen, enc)
			nodes += enc.N
		}
		if rows != int64(want) {
			t.Fatalf("%s: Φ computed %d input-stage rows for %d distinct tuples over %d states", q.ID, rows, want, len(memo.states))
		}
		memo.Release()
		paid += want
	}
	if nodes == paid || paid == len(everSeen) {
		t.Fatalf("%d nodes, %d tuples paid for, %d distinct: no tuple repeats within a serve or across serves, the check proves nothing",
			nodes, paid, len(everSeen))
	}
}
