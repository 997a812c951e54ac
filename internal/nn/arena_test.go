package nn

import (
	"math/rand"
	"testing"
)

// TestArenaForwardMatchesHeap: a frozen forward whose activations live in an
// arena computes the heap forward bit for bit, its result carries the arena,
// and once a round has sized the arena, a reset arena serves the next round
// without spilling to the heap.
func TestArenaForwardMatchesHeap(t *testing.T) {
	view := newEncoder(rand.New(rand.NewSource(9))).frozen()
	a := new(Arena)
	for round := range 3 {
		for _, blocks := range []bool{false, true} {
			want := view.forward(blocks, nil)
			got := view.forward(blocks, a)
			sameData(t, "arena forward", got, want)
			graphFree(t, "arena forward", got)
			if got.arena != a || want.arena != nil {
				t.Fatalf("round %d: arena result carries %p, heap result %p; want %p and nil", round, got.arena, want.arena, a)
			}
		}
		if round > 0 && a.spill != 0 {
			t.Fatalf("round %d spilled %d floats to the heap after a reset sized the arena", round, a.spill)
		}
		if a.off+a.spill == 0 {
			t.Fatalf("round %d allocated nothing in the arena: the check proves nothing", round)
		}
		a.Reset()
	}
}

// TestTrackedForwardTakesNoArenaMemory: a tracked forward fed an arena tensor
// allocates nothing in the arena. Its results carry no arena, and its
// gradients are the ones the same forward fed a heap tensor computes.
func TestTrackedForwardTakesNoArenaMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	e := newEncoder(rng)
	ref := newEncoder(rng)
	CopyParams(ref, e)
	view := e.frozen()
	a := new(Arena)
	view.embed(a)
	a.Reset() // sized: the next embedding fits, so spill counts only new takers

	x := view.embed(a)
	if x.arena != a {
		t.Fatal("the frozen embedding did not allocate in the arena: the check proves nothing")
	}
	used := a.off
	tracked := func(e *encoder, x *Tensor) *Tensor {
		h := e.Block.ForwardBlocks(e.In.Forward(x), Blocks([]int{3, 4}, nil))
		return Add(e.Head.Forward(e.LN.Forward(h)), e.Head.Forward(e.LN.Forward(e.In.Forward(e.embed(nil)))))
	}
	got := tracked(e, x)
	if a.off != used || a.spill != 0 {
		t.Fatalf("tracked forward took %d floats of the arena and spilled %d", a.off-used, a.spill)
	}
	if got.arena != nil || got.parents == nil {
		t.Fatalf("tracked result: arena %p, %d parents; want no arena and a graph", got.arena, len(got.parents))
	}
	want := tracked(ref, x.Clone())
	sameData(t, "tracked forward", got, want)
	Sum(got).Backward()
	Sum(want).Backward()
	for i, p := range e.Params() {
		sameBits(t, "param grad", p.Grad, ref.Params()[i].Grad)
	}
}
