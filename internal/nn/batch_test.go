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
