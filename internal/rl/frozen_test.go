package rl

import (
	"math/rand"
	"testing"

	"github.com/foss-db/foss/internal/nn"
)

// TestFrozenPolicyMatchesTracked: Sample, Greedy and Value on the view agree
// bit for bit with the tracked heads (same action, same log-probability, same
// RNG consumption), Value on the view builds no graph, and the same view
// reads the weights a PPO update wrote in place.
func TestFrozenPolicyMatchesTracked(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := NewPolicy(rng, 5, 16, 4)
	view := p.Frozen()
	mask := []bool{true, false, true, true}

	check := func(what string) {
		t.Helper()
		for s := 0; s < 5; s++ {
			sv := stateVec(s)
			rt, rv := rand.New(rand.NewSource(int64(s))), rand.New(rand.NewSource(int64(s)))
			for draw := 0; draw < 4; draw++ {
				at, lt := p.Sample(rt, sv, mask)
				av, lv := view.Sample(rv, sv, mask)
				if at != av || lt != lv {
					t.Fatalf("%s: view sampled (%d, %x), tracked (%d, %x)", what, av, lv, at, lt)
				}
			}
			if rt.Int63() != rv.Int63() {
				t.Fatalf("%s: view and tracked Sample consumed the RNG differently", what)
			}
			if gt, gv := p.Greedy(sv, mask), view.Greedy(sv, mask); gt != gv {
				t.Fatalf("%s: view greedy action %d, tracked %d", what, gv, gt)
			}
			vt, vv := p.Value(sv), view.Value(sv)
			if vt.Item() != vv.Item() {
				t.Fatalf("%s: view value %x, tracked %x", what, vv.Item(), vt.Item())
			}
			// An op that records a graph allocates its result's Grad.
			if vt.Grad == nil {
				t.Fatal("tracked Value built no graph: the comparison proves nothing")
			}
			if vv.Grad != nil || vv.RequiresGrad || view.Logits(sv, mask).Grad != nil {
				t.Fatalf("%s: the view's forward built an autograd graph", what)
			}
		}
	}
	check("fresh policy")

	before := view.Value(stateVec(0)).Item()
	opt := nn.NewAdam(p.Params(), 0.05)
	var trans []Transition
	for s := 0; s < 5; s++ {
		sv := stateVec(s)
		a, lp := view.Sample(rng, sv, mask)
		trans = append(trans, Transition{
			Recompute: func() *nn.Tensor { return sv },
			Mask:      mask, Action: a, LogProb: lp, Reward: float64(s), Value: view.Value(sv).Item(), Done: s == 4,
		})
	}
	Update(opt, p, trans, DefaultConfig())
	if view.Value(stateVec(0)).Item() == before {
		t.Fatal("the update left the view's output unchanged: the check proves nothing")
	}
	check("after Update")
}
