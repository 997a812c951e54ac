package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The oracles: the plain loops and op chains the kernels and fused ops
// replaced, kept here verbatim. Every comparison below is on
// math.Float64bits, never a tolerance: the kernels may reorder independent
// sums, not the additions inside one.

// refGemm is MatMul's old forward: dst[i][j] += a[i][p]*b[p][j], i-p-j, a zero
// a[i][p] skipped.
func refGemm(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		dr := dst[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ar[p]
			if av == 0 {
				continue
			}
			br := b[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				dr[j] += av * br[j]
			}
		}
	}
}

// refGemmNT is MatMul's old input gradient: acc[i][p] += g[i]·b[p].
func refGemmNT(acc, g, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		gr := g[i*n : (i+1)*n]
		agr := acc[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			br := b[p*n : (p+1)*n]
			s := 0.0
			for j := 0; j < n; j++ {
				s += gr[j] * br[j]
			}
			agr[p] += s
		}
	}
}

// refGemmTN is MatMul's old weight gradient: acc[p][j] += a[i][p]*g[i][j],
// i-p-j, a zero a[i][p] skipped.
func refGemmTN(acc, a, g []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		gr := g[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ar[p]
			if av == 0 {
				continue
			}
			bgr := acc[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				bgr[j] += av * gr[j]
			}
		}
	}
}

func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	d := make([]float64, m*n)
	refGemm(d, a.Data, b.Data, m, k, n)
	out := newResult("matmul", d, []int{m, n}, a, b)
	if out.parents != nil {
		out.backFn = func() {
			if a.RequiresGrad || a.parents != nil {
				a.ensureGrad()
				refGemmNT(a.Grad, out.Grad, b.Data, m, k, n)
			}
			if b.RequiresGrad || b.parents != nil {
				b.ensureGrad()
				refGemmTN(b.Grad, a.Data, out.Grad, m, k, n)
			}
		}
	}
	return out
}

// refTranspose is the TransposeT op attention's chain used.
func refTranspose(a *Tensor) *Tensor {
	rows, cols := a.Shape[0], a.Shape[1]
	d := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			d[c*rows+r] = a.Data[r*cols+c]
		}
	}
	out := newResult("transpose", d, []int{cols, rows}, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					a.Grad[r*cols+c] += out.Grad[c*rows+r]
				}
			}
		}
	}
	return out
}

// refConcatRows is the ConcatRows op that stacked the chain's per-block
// outputs: 2-D tensors with equal column counts, along dimension 0.
func refConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("nn: refConcatRows of nothing")
	}
	cols := ts[0].Shape[1]
	total := 0
	for _, t := range ts {
		if len(t.Shape) != 2 || t.Shape[1] != cols {
			panic("nn: refConcatRows column mismatch")
		}
		total += t.Shape[0]
	}
	d := make([]float64, total*cols)
	off := 0
	for _, t := range ts {
		copy(d[off:off+len(t.Data)], t.Data)
		off += len(t.Data)
	}
	out := newResult("concatrows", d, []int{total, cols}, ts...)
	if out.parents != nil {
		out.backFn = func() {
			off := 0
			for _, t := range ts {
				if t.RequiresGrad || t.parents != nil {
					t.ensureGrad()
					for i := range t.Data {
						t.Grad[i] += out.Grad[off+i]
					}
				}
				off += len(t.Data)
			}
		}
	}
	return out
}

func refLinear(l *Linear, x *Tensor) *Tensor { return AddRowVector(refMatMul(x, l.W), l.B) }

// refAttention is the per-head op chain of the old ForwardBlocks.
func refAttention(q, k, v *Tensor, heads int, blocks []Block) *Tensor {
	dh := q.Shape[1] / heads
	scale := 1 / math.Sqrt(float64(dh))
	outBlocks := make([]*Tensor, len(blocks))
	for bi, b := range blocks {
		qb, kb, vb := Rows(q, b.Start, b.N), Rows(k, b.Start, b.N), Rows(v, b.Start, b.N)
		hs := make([]*Tensor, heads)
		for h := 0; h < heads; h++ {
			qh, kh, vh := Cols(qb, h*dh, dh), Cols(kb, h*dh, dh), Cols(vb, h*dh, dh)
			scores := Scale(refMatMul(qh, refTranspose(kh)), scale)
			if b.Mask != nil {
				scores = MaskedFill(scores, b.Mask, -1e9)
			}
			hs[h] = refMatMul(Softmax(scores), vh)
		}
		outBlocks[bi] = Concat(hs...)
	}
	return refConcatRows(outBlocks...)
}

// refMHAForward is the old single-sequence MultiHeadAttention.Forward, which
// had its own head loop (no Rows, no ConcatRows).
func refMHAForward(m *MultiHeadAttention, x *Tensor, mask []bool) *Tensor {
	dh := x.Shape[1] / m.Heads
	q, k, v := refLinear(m.WQ, x), refLinear(m.WK, x), refLinear(m.WV, x)
	hs := make([]*Tensor, m.Heads)
	scale := 1 / math.Sqrt(float64(dh))
	for h := 0; h < m.Heads; h++ {
		qh, kh, vh := Cols(q, h*dh, dh), Cols(k, h*dh, dh), Cols(v, h*dh, dh)
		scores := Scale(refMatMul(qh, refTranspose(kh)), scale)
		if mask != nil {
			scores = MaskedFill(scores, mask, -1e9)
		}
		hs[h] = refMatMul(Softmax(scores), vh)
	}
	return refLinear(m.WO, Concat(hs...))
}

func refMHAForwardBlocks(m *MultiHeadAttention, x *Tensor, blocks []Block) *Tensor {
	return refLinear(m.WO, refAttention(refLinear(m.WQ, x), refLinear(m.WK, x), refLinear(m.WV, x), m.Heads, blocks))
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: elem %d: %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// randData draws n normals; a share zeroFrac of them is exactly zero, the way
// post-ReLU activations and fully-masked attention weights are.
func randData(rng *rand.Rand, n int, zeroFrac float64) []float64 {
	d := make([]float64, n)
	for i := range d {
		if rng.Float64() >= zeroFrac {
			d[i] = rng.NormFloat64()
		}
	}
	return d
}

// pad spreads a dense [rows, cols] matrix over leading dimension ld, filling
// the gaps with NaN: a kernel that strays outside its rows poisons its result.
func pad(d []float64, rows, cols, ld int) []float64 {
	out := make([]float64, rows*ld+1)
	for i := range out {
		out[i] = math.NaN()
	}
	for r := 0; r < rows; r++ {
		copy(out[r*ld:r*ld+cols], d[r*cols:(r+1)*cols])
	}
	return out
}

func unpad(d []float64, rows, cols, ld int) []float64 {
	out := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		copy(out[r*cols:(r+1)*cols], d[r*ld:r*ld+cols])
	}
	return out
}

// checkGemm compares the three kernels with their triple loops at one shape:
// dense and strided operands, accumulators that start non-zero, exact zeros
// scattered through a, and ±Inf/NaN planted where a zero multiplier must skip.
func checkGemm(t *testing.T, m, k, n int, seed int64, zeroFrac float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := randData(rng, m*k, zeroFrac)
	b := randData(rng, k*n, 0)
	g := randData(rng, m*n, zeroFrac)
	// The zero-multiplier skip: a term whose a(i,p) is zero must not read the
	// other operand at all. Column p0 of a is zero and row p0 of b is poison
	// (a·b); row i0 of a is zero and row i0 of gBad is poison (aᵀ·g).
	bad := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	gBad := append([]float64(nil), g...)
	if m > 0 && k > 0 {
		p0, i0 := rng.Intn(k), rng.Intn(m)
		for i := 0; i < m; i++ {
			a[i*k+p0] = 0
		}
		for p := 0; p < k; p++ {
			a[i0*k+p] = 0
		}
		for j := 0; j < n; j++ {
			b[p0*n+j], gBad[i0*n+j] = bad[j%3], bad[(j+1)%3]
		}
	}
	name := fmt.Sprintf("m=%d k=%d n=%d seed=%d zero=%.2f", m, k, n, seed, zeroFrac)
	finite := func(what string, d []float64) {
		for _, x := range d {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s: %s read a row its zero multiplier skips", name, what)
			}
		}
	}
	for _, ld := range []int{0, 3} { // extra leading dimension on every operand
		init := randData(rng, m*n, 0.2)
		want := append([]float64(nil), init...)
		refGemm(want, a, b, m, k, n)
		got := pad(init, m, n, n+ld)
		gemm(got, n+ld, pad(a, m, k, k+ld), k+ld, 1, pad(b, k, n, n+ld), n+ld, m, k, n)
		sameBits(t, name+" a·b", unpad(got, m, n, n+ld), want)
		finite("a·b", want)

		// g·bᵀ has no skip, so it gets a finite b.
		fb := randData(rng, k*n, 0)
		init = randData(rng, m*k, 0.2)
		want = append([]float64(nil), init...)
		refGemmNT(want, g, fb, m, k, n)
		got = pad(init, m, k, k+ld)
		gemmNT(got, k+ld, pad(g, m, n, n+ld), n+ld, pad(fb, k, n, n+ld), n+ld, m, k, n)
		sameBits(t, name+" g·bᵀ", unpad(got, m, k, k+ld), want)

		init = randData(rng, k*n, 0.2)
		want = append([]float64(nil), init...)
		refGemmTN(want, a, gBad, m, k, n)
		got = pad(init, k, n, n+ld)
		gemm(got, n+ld, pad(a, m, k, k+ld), 1, k+ld, pad(gBad, m, n, n+ld), n+ld, k, m, n)
		sameBits(t, name+" aᵀ·g", unpad(got, k, n, n+ld), want)
		finite("aᵀ·g", want)
	}
}

// gemmDims are the remainders of the ×8/×4 tiles on every axis, plus one
// length past gemmChunk so the term list is gathered in two pieces.
var gemmDims = []int{0, 1, 3, 4, 5, 7, 8, 33, 80, gemmChunk + 2}

func TestGemmMatchesTripleLoop(t *testing.T) {
	seed := int64(0)
	for _, m := range gemmDims {
		for _, k := range gemmDims {
			for _, n := range gemmDims {
				seed++
				checkGemm(t, m, k, n, seed, 0)
				checkGemm(t, m, k, n, seed, 0.5)
			}
		}
	}
}

func FuzzGemm(f *testing.F) {
	for i, m := range gemmDims {
		for j, k := range gemmDims {
			n := gemmDims[(i+j)%len(gemmDims)]
			f.Add(uint8(m), uint8(k), uint8(n), int64(i*len(gemmDims)+j), uint8(i*25))
		}
	}
	f.Fuzz(func(t *testing.T, m, k, n uint8, seed int64, zeros uint8) {
		checkGemm(t, int(m)%160, int(k)%160, int(n)%160, seed, float64(zeros)/255)
	})
}

func TestMatMulMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range [][3]int{{1, 1, 1}, {5, 7, 3}, {9, 33, 12}, {33, 8, 80}} {
		a, b := NewTensor(randData(rng, s[0]*s[1], 0.3), s[0], s[1]).Param(), randTensor(rng, s[1], s[2])
		ra, rb := a.Clone().Param(), b.Clone().Param()
		for _, p := range []*Tensor{a, b} { // gradient accumulators start non-zero
			copy(p.Grad, randData(rng, len(p.Grad), 0))
		}
		copy(ra.Grad, a.Grad)
		copy(rb.Grad, b.Grad)
		w := randTensor(rng, s[0], s[2]).Detach()
		got, want := MatMul(a, b), refMatMul(ra, rb)
		sameBits(t, "matmul forward", got.Data, want.Data)
		Sum(Mul(got, w)).Backward()
		Sum(Mul(want, w)).Backward()
		sameBits(t, "matmul dA", a.Grad, ra.Grad)
		sameBits(t, "matmul dB", b.Grad, rb.Grad)
	}
}

// cloneLinear returns an independent layer with l's weights and gradient
// accumulators.
func cloneLinear(l *Linear) *Linear {
	c := &Linear{W: l.W.Clone().Param(), B: l.B.Clone().Param()}
	copy(c.W.Grad, l.W.Grad)
	copy(c.B.Grad, l.B.Grad)
	return c
}

func TestLinearMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, s := range [][3]int{{1, 1, 1}, {4, 9, 5}, {13, 80, 32}, {7, 64, 33}} {
		l := NewLinear(rng, s[1], s[2])
		copy(l.B.Data, randData(rng, s[2], 0))
		copy(l.W.Grad, randData(rng, len(l.W.Grad), 0))
		copy(l.B.Grad, randData(rng, len(l.B.Grad), 0))
		ref := cloneLinear(l)
		x := NewTensor(randData(rng, s[0]*s[1], 0.4), s[0], s[1]).Param()
		copy(x.Grad, randData(rng, len(x.Grad), 0))
		rx := x.Clone().Param()
		copy(rx.Grad, x.Grad)
		w := randTensor(rng, s[0], s[2]).Detach()

		got, want := l.Forward(x), refLinear(ref, rx)
		sameBits(t, "linear forward", got.Data, want.Data)
		sameBits(t, "frozen linear forward", l.Frozen().Forward(x.Detach()).Data, want.Data)
		Sum(Mul(got, w)).Backward()
		Sum(Mul(want, w)).Backward()
		sameBits(t, "linear dx", x.Grad, rx.Grad)
		sameBits(t, "linear dW", l.W.Grad, ref.W.Grad)
		sameBits(t, "linear dB", l.B.Grad, ref.B.Grad)
	}
}

// reachMask is a plan-tree-like reachability mask: i attends to j when one
// index divides into the other's ancestor chain. Row 0 of n ≥ 3 keeps only
// itself, so a softmax row with every other weight exactly zero is covered.
func reachMask(n int) []bool {
	m := make([]bool, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for a, b := i+1, j+1; ; {
				if a == b {
					m[i*n+j] = i != 0 || j == 0
					break
				}
				if a > b {
					a /= 2
				} else {
					b /= 2
				}
				if a == 0 || b == 0 {
					break
				}
			}
			if i == j {
				m[i*n+j] = true
			}
		}
	}
	if n >= 3 {
		for j := 1; j < n; j++ {
			m[j] = false
		}
	}
	return m
}

var attentionCases = []struct {
	name    string
	lengths []int
	masked  bool
}{
	{"one block, nil mask", []int{5}, false},
	{"one block, reachability mask", []int{7}, true},
	{"one row", []int{1}, true},
	{"several blocks, nil masks", []int{3, 1, 6}, false},
	{"several blocks of different N, masks", []int{4, 9, 1, 2, 13}, true},
	{"an empty block among others", []int{2, 0, 3}, true},
}

func caseBlocks(lengths []int, masked bool) ([]Block, int) {
	var masks [][]bool
	rows := 0
	for _, n := range lengths {
		rows += n
		if masked {
			masks = append(masks, reachMask(n))
		}
	}
	return Blocks(lengths, masks), rows
}

// TestAttentionMatchesChain compares the fused op with the per-head chain on
// q, k, v themselves: the output and all three input gradients, from
// accumulators that start non-zero.
func TestAttentionMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range attentionCases {
		for _, hd := range [][2]int{{1, 4}, {2, 16}, {4, 3}} {
			heads, dim := hd[0], hd[0]*hd[1]
			blocks, rows := caseBlocks(tc.lengths, tc.masked)
			var in, ref [3]*Tensor
			for i := range in {
				in[i] = NewTensor(randData(rng, rows*dim, 0.1), rows, dim).Param()
				copy(in[i].Grad, randData(rng, rows*dim, 0))
				ref[i] = in[i].Clone().Param()
				copy(ref[i].Grad, in[i].Grad)
			}
			w := randTensor(rng, rows, dim).Detach()
			name := fmt.Sprintf("%s, %d heads of %d", tc.name, heads, hd[1])

			got, want := attention(in[0], in[1], in[2], heads, blocks), refAttention(ref[0], ref[1], ref[2], heads, blocks)
			sameBits(t, name+": forward", got.Data, want.Data)
			frozen := attention(in[0].Detach(), in[1].Detach(), in[2].Detach(), heads, blocks)
			sameBits(t, name+": frozen forward", frozen.Data, want.Data)
			if frozen.parents != nil || frozen.backFn != nil || frozen.Grad != nil {
				t.Fatalf("%s: frozen attention recorded a graph", name)
			}
			Sum(Mul(got, w)).Backward()
			Sum(Mul(want, w)).Backward()
			for i, what := range []string{"dq", "dk", "dv"} {
				sameBits(t, name+": "+what, in[i].Grad, ref[i].Grad)
			}
		}
	}
}

// TestMultiHeadAttentionMatchesChain runs the whole layer against the old
// Forward and ForwardBlocks chains: x.Grad collects the V, K and Q
// projections' contributions in that order, every weight its own.
func TestMultiHeadAttentionMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const dim, heads = 8, 2
	for _, tc := range attentionCases {
		blocks, rows := caseBlocks(tc.lengths, tc.masked)
		mha := NewMultiHeadAttention(rng, dim, heads)
		for _, p := range mha.Params() {
			copy(p.Grad, randData(rng, len(p.Grad), 0))
		}
		ref := &MultiHeadAttention{Heads: heads, WQ: cloneLinear(mha.WQ), WK: cloneLinear(mha.WK), WV: cloneLinear(mha.WV), WO: cloneLinear(mha.WO)}
		x := randTensor(rng, rows, dim)
		rx := x.Clone().Param()
		w := randTensor(rng, rows, dim).Detach()

		var got, want *Tensor
		if len(blocks) == 1 {
			got, want = mha.Forward(x, blocks[0].Mask), refMHAForward(ref, rx, blocks[0].Mask)
		} else {
			got, want = mha.ForwardBlocks(x, blocks), refMHAForwardBlocks(ref, rx, blocks)
		}
		sameBits(t, tc.name+": forward", got.Data, want.Data)
		Sum(Mul(got, w)).Backward()
		Sum(Mul(want, w)).Backward()
		sameBits(t, tc.name+": dx", x.Grad, rx.Grad)
		for i, p := range mha.Params() {
			sameBits(t, fmt.Sprintf("%s: param %d grad", tc.name, i), p.Grad, ref.Params()[i].Grad)
		}
	}
}

// TestSharedWeightsAccumulateInChainOrder applies one layer twice inside one
// graph: the weights' accumulators receive the two uses' contributions in the
// reverse-topological order the chain gave them.
func TestSharedWeightsAccumulateInChainOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	l := NewLinear(rng, 6, 6)
	ref := cloneLinear(l)
	x := randTensor(rng, 5, 6)
	rx := x.Clone().Param()
	got := Sum(Mul(l.Forward(ReLU(l.Forward(x))), l.Forward(x)))
	want := Sum(Mul(refLinear(ref, ReLU(refLinear(ref, rx))), refLinear(ref, rx)))
	sameBits(t, "forward", got.Data, want.Data)
	got.Backward()
	want.Backward()
	sameBits(t, "dx", x.Grad, rx.Grad)
	sameBits(t, "dW", l.W.Grad, ref.W.Grad)
	sameBits(t, "dB", l.B.Grad, ref.B.Grad)
}

// TestFrozenForwardBlocksAllocsPinned pins what a graph-free encoder block
// allocates at a fixed shape: per op the result's data and its Tensor, plus
// attention's transposed keys and one softmax scratch. A return to per-head
// ops, backward-only buffers or heap-allocated shapes shows up here first.
func TestFrozenForwardBlocksAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(16))
	layer := NewTransformerLayer(rng, 32, 2, 64).Frozen()
	lengths := []int{9, 13, 5}
	blocks, rows := caseBlocks(lengths, true)
	x := randTensor(rng, rows, 32).Detach()
	got := testing.AllocsPerRun(50, func() { layer.ForwardBlocks(x, blocks) })
	// 12 ops (2 layer norms, 6 affines, attention, ReLU, 2 adds) × (data +
	// Tensor) + kᵀ + softmax scratch.
	if got != 26 {
		t.Fatalf("frozen TransformerLayer.ForwardBlocks: %v allocs/op, want 26", got)
	}
}

// TestFrozenForwardBlocksArenaAllocsPinned is TestFrozenForwardBlocksAllocsPinned
// with the input in a warm arena: every op's data, kᵀ and the softmax scratch
// come from the arena, so the block allocates only its 12 Tensor headers.
func TestFrozenForwardBlocksArenaAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(16))
	layer := NewTransformerLayer(rng, 32, 2, 64).Frozen()
	blocks, rows := caseBlocks([]int{9, 13, 5}, true)
	a := new(Arena)
	x := randTensor(rng, rows, 32).Detach()
	x.arena = a
	run := func() {
		a.Reset()
		layer.ForwardBlocks(x, blocks)
	}
	run() // size the arena
	if got := testing.AllocsPerRun(50, run); got != 12 {
		t.Fatalf("frozen TransformerLayer.ForwardBlocks in a warm arena: %v allocs/op, want 12", got)
	}
	if a.spill != 0 {
		t.Fatalf("a warm arena spilled %d floats to the heap", a.spill)
	}
}
