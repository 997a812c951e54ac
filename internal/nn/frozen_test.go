package nn

import (
	"math/rand"
	"testing"
)

// encoder is a module with one of every layer kind: embedding → linear →
// transformer block → layer norm → MLP.
type encoder struct {
	Emb   *Embedding
	In    *Linear
	Block *TransformerLayer
	LN    *LayerNorm
	Head  *MLP
}

func newEncoder(rng *rand.Rand) *encoder {
	return &encoder{
		Emb:   NewEmbedding(rng, 10, 8),
		In:    NewLinear(rng, 8, 8),
		Block: NewTransformerLayer(rng, 8, 2, 16),
		LN:    NewLayerNorm(8),
		Head:  NewMLP(rng, 8, 12, 3),
	}
}

func (e *encoder) frozen() *encoder {
	return &encoder{Emb: e.Emb.Frozen(), In: e.In.Frozen(), Block: e.Block.Frozen(), LN: e.LN.Frozen(), Head: e.Head.Frozen()}
}

func (e *encoder) Params() []*Tensor {
	var ps []*Tensor
	for _, m := range []Module{e.Emb, e.In, e.Block, e.LN, e.Head} {
		ps = append(ps, m.Params()...)
	}
	return ps
}

var encoderIDs = []int{3, 1, 4, 1, 5, 9, 2}

// embed looks up encoderIDs: on the heap when a is nil, otherwise through
// EmbedConcat in a, which takes frozen tables only.
func (e *encoder) embed(a *Arena) *Tensor {
	if a == nil {
		return e.Emb.Forward(encoderIDs)
	}
	return EmbedConcat(a, []*Embedding{e.Emb}, [][]int{encoderIDs})
}

// forward runs the whole stack once per attention entry point: Forward over
// the sequence, and ForwardBlocks over the same rows split 3+4. The embedding
// allocates in a (nil: the heap).
func (e *encoder) forward(blocks bool, a *Arena) *Tensor {
	x := e.In.Forward(e.embed(a))
	if blocks {
		x = e.Block.ForwardBlocks(x, Blocks([]int{3, 4}, nil))
	} else {
		x = e.Block.Forward(x, nil)
	}
	return e.Head.Forward(e.LN.Forward(x))
}

func sameData(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d values, want %d", what, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d is %x, want %x", what, i, got.Data[i], want.Data[i])
		}
	}
}

// graphFree fails if x carries autograd state. An op records parents whenever
// any input has them, so a graph-free result means a graph-free forward.
func graphFree(t *testing.T, what string, x *Tensor) {
	t.Helper()
	if x.parents != nil || x.backFn != nil || x.Grad != nil || x.RequiresGrad {
		t.Fatalf("%s: result of op %q has parents=%d backFn=%v grad=%d requiresGrad=%v",
			what, x.op, len(x.parents), x.backFn != nil, len(x.Grad), x.RequiresGrad)
	}
}

// TestFrozenViewMatchesTracked: a frozen view computes bit-identical outputs
// to the module it views, and builds no graph doing so.
func TestFrozenViewMatchesTracked(t *testing.T) {
	e := newEncoder(rand.New(rand.NewSource(7)))
	view := e.frozen()
	for _, blocks := range []bool{false, true} {
		tracked := e.forward(blocks, nil)
		if tracked.parents == nil || tracked.Grad == nil {
			t.Fatal("tracked forward built no graph: the comparison proves nothing")
		}
		got := view.forward(blocks, nil)
		sameData(t, "frozen forward", got, tracked)
		graphFree(t, "frozen forward", got)
	}
	for _, p := range view.Params() {
		graphFree(t, "view parameter", p)
	}
}

// TestFrozenViewTracksInPlaceWrites: the three ways weights change — an
// optimizer step, a load, a parameter copy — all write Data in place,
// so a view built before them reads the new weights without being rebuilt.
func TestFrozenViewTracksInPlaceWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e := newEncoder(rng)
	view := e.frozen()
	before := view.forward(false, nil).Clone()

	check := func(what string) {
		t.Helper()
		want := e.forward(false, nil)
		got := view.forward(false, nil)
		sameData(t, what, got, want)
		graphFree(t, what, got)
		same := true
		for i := range before.Data {
			same = same && got.Data[i] == before.Data[i]
		}
		if same {
			t.Fatalf("%s did not change the output: the check proves nothing", what)
		}
		before = got.Clone()
	}

	opt := NewAdam(e.Params(), 0.05)
	opt.ZeroGrad()
	Sum(Mul(e.forward(false, nil), e.forward(false, nil))).Backward()
	opt.Step()
	check("after Adam.Step")

	blob, err := SaveParams(newEncoder(rng))
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(e, blob); err != nil {
		t.Fatal(err)
	}
	check("after LoadParams")

	CopyParams(e, newEncoder(rng))
	check("after CopyParams")
}
