package nn

import (
	"math/rand"
	"testing"
)

func randParam(rng *rand.Rand, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t.Param()
}

func TestGradRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randParam(rng, 5, 3)
	checkGrad(t, "rows", func() *Tensor { return Sum(Mul(Rows(a, 1, 3), Rows(a, 1, 3))) }, a)
}

func TestGradConcatRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randParam(rng, 2, 3)
	b := randParam(rng, 4, 3)
	checkGrad(t, "concatrows", func() *Tensor { return Sum(Mul(refConcatRows(a, b), refConcatRows(a, b))) }, a, b)
}

func TestGradSegmentMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randParam(rng, 6, 4)
	checkGrad(t, "segmentmean", func() *Tensor {
		return Sum(Mul(SegmentMean(a, []int{2, 1, 3}), SegmentMean(a, []int{2, 1, 3})))
	}, a)
}

func TestSegmentMeanMatchesRowsMean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randParam(rng, 7, 5)
	lengths := []int{3, 4}
	got := SegmentMean(a, lengths).Detach()
	start := 0
	for s, n := range lengths {
		want := RowsMean(Rows(a, start, n), nil).Detach()
		for j := 0; j < 5; j++ {
			if got.Data[s*5+j] != want.Data[j] {
				t.Fatalf("segment %d col %d: %v != %v", s, j, got.Data[s*5+j], want.Data[j])
			}
		}
		start += n
	}
}

// TestForwardBlocksMatchesForward checks that batched block attention over a
// row-stacked input reproduces per-sequence attention bit-for-bit.
func TestForwardBlocksMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	layer := NewTransformerLayer(rng, 8, 2, 16)

	lengths := []int{3, 1, 4}
	masks := make([][]bool, len(lengths))
	var parts []*Tensor
	for i, n := range lengths {
		masks[i] = make([]bool, n*n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				masks[i][r*n+c] = r == c || r+c == n-1
			}
		}
		parts = append(parts, randParam(rng, n, 8))
	}
	stacked := refConcatRows(parts...)
	out := layer.ForwardBlocks(stacked, Blocks(lengths, masks)).Detach()

	start := 0
	for i, n := range lengths {
		want := layer.Forward(parts[i], masks[i]).Detach()
		for j := 0; j < n*8; j++ {
			if out.Data[start*8+j] != want.Data[j] {
				t.Fatalf("block %d elem %d: batch %v != sequential %v",
					i, j, out.Data[start*8+j], want.Data[j])
			}
		}
		start += n
	}
}

// TestForwardProjectedFromGatheredRows: a frozen block entered with x, Q, K
// and V gathered from the distinct rows of its input, each projected once,
// computes ForwardBlocks over the full input bit for bit. The gathered rows
// live in the arena and carry it, so the block allocates there too.
func TestForwardProjectedFromGatheredRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	layer := NewTransformerLayer(rng, 8, 2, 16).Frozen()
	distinct := randTensor(rng, 3, 8).Detach()
	idx := []int{2, 0, 0, 1, 2, 2, 1} // every distinct row repeats
	blocks, rows := caseBlocks([]int{3, 4}, true)
	if rows != len(idx) {
		t.Fatal("the blocks do not tile the gathered rows")
	}
	table := func(x *Tensor) [][]float64 {
		rows := make([][]float64, x.Shape[0])
		for r := range rows {
			rows[r] = x.Data[r*8 : (r+1)*8]
		}
		return rows
	}
	q, k, v := layer.Project(distinct)
	a := new(Arena)
	x := Gather(a, table(distinct), idx, 8)
	got := layer.ForwardProjected(x, Gather(a, table(q), idx, 8), Gather(a, table(k), idx, 8), Gather(a, table(v), idx, 8), blocks)
	want := layer.ForwardBlocks(Gather(nil, table(distinct), idx, 8), blocks)
	sameBits(t, "ForwardProjected over gathered rows", got.Data, want.Data)
	if x.arena != a || got.arena != a || want.arena != nil {
		t.Fatalf("gathered input carries %p, result %p, heap result %p; want %p, %p and nil", x.arena, got.arena, want.arena, a, a)
	}
	for i, r := range idx {
		sameBits(t, "gathered row", x.Data[i*8:(i+1)*8], distinct.Data[r*8:(r+1)*8])
	}
}

// TestEmbedConcatMatchesChain: one EmbedConcat is the Concat of each frozen
// table's Forward bit for bit, out-of-range ids clamped alike, in the arena it
// is given; a tracked table is refused.
func TestEmbedConcatMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	tracked := []*Embedding{NewEmbedding(rng, 5, 4), NewEmbedding(rng, 3, 2), NewEmbedding(rng, 7, 4)}
	tables := make([]*Embedding, len(tracked))
	for i, e := range tracked {
		tables[i] = e.Frozen()
	}
	ids := [][]int{{0, 4, 9, 2}, {-1, 2, 1, 1}, {6, 0, 3, 7}}
	a := new(Arena)
	got := EmbedConcat(a, tables, ids)
	want := Concat(tables[0].Forward(ids[0]), tables[1].Forward(ids[1]), tables[2].Forward(ids[2]))
	sameBits(t, "EmbedConcat", got.Data, want.Data)
	if got.Shape[0] != 4 || got.Shape[1] != 10 || got.arena != a {
		t.Fatalf("EmbedConcat: shape %v, arena %p; want [4 10] in %p", got.Shape, got.arena, a)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EmbedConcat took a tracked table")
		}
	}()
	EmbedConcat(nil, tracked, ids)
}
