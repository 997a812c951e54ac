package nn

import (
	"math"
	"sync"
)

// Batched building blocks: ops that let several independent sequences share
// one forward pass. A batch of plans is stacked row-wise into a single
// [ΣSeq, dim] tensor; the dense layers (projections, layer norms, MLPs) run
// once over the stacked rows, while attention is evaluated per contiguous
// block so no cross-sequence mixing (and no quadratic blow-up over the
// combined sequence) occurs. Row-wise ops make every batched result
// bit-identical to the corresponding sequential forward.

// Rows extracts the contiguous row range [start, start+n) of a 2-D tensor as
// an [n, cols] tensor.
func Rows(a *Tensor, start, n int) *Tensor {
	if len(a.Shape) != 2 {
		panic("nn: Rows expects a 2-D tensor")
	}
	rows, cols := a.Shape[0], a.Shape[1]
	if start < 0 || start+n > rows {
		panic("nn: Rows out of range")
	}
	d := alloc(n*cols, a)
	copy(d, a.Data[start*cols:(start+n)*cols])
	out := newResult("rows", d, []int{n, cols}, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			for i := range out.Grad {
				a.Grad[start*cols+i] += out.Grad[i]
			}
		}
	}
	return out
}

// SegmentMean averages consecutive row segments of a [ΣSeq, cols] tensor:
// segment i covers lengths[i] rows, and the result is [len(lengths), cols].
// Rows are summed in order, so segment i's output is bit-identical to
// RowsMean over that segment alone.
func SegmentMean(a *Tensor, lengths []int) *Tensor {
	if len(a.Shape) != 2 {
		panic("nn: SegmentMean expects a 2-D tensor")
	}
	cols := a.Shape[1]
	total := 0
	for _, n := range lengths {
		total += n
	}
	if total != a.Shape[0] {
		panic("nn: SegmentMean lengths do not cover the tensor rows")
	}
	d := alloc(len(lengths)*cols, a)
	start := 0
	for s, n := range lengths {
		cnt := float64(n)
		if cnt == 0 {
			cnt = 1
		}
		for r := start; r < start+n; r++ {
			for j := 0; j < cols; j++ {
				d[s*cols+j] += a.Data[r*cols+j]
			}
		}
		for j := 0; j < cols; j++ {
			d[s*cols+j] /= cnt
		}
		start += n
	}
	out := newResult("segmentmean", d, []int{len(lengths), cols}, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			start := 0
			for s, n := range lengths {
				cnt := float64(n)
				if cnt == 0 {
					cnt = 1
				}
				for r := start; r < start+n; r++ {
					for j := 0; j < cols; j++ {
						a.Grad[r*cols+j] += out.Grad[s*cols+j] / cnt
					}
				}
				start += n
			}
		}
	}
	return out
}

// Block describes one independent sequence inside a row-stacked batch: rows
// [Start, Start+N) belong to it, with its own N×N attention mask (nil =
// full attention within the block).
type Block struct {
	Start int
	N     int
	Mask  []bool
}

// Blocks builds contiguous block descriptors from per-sequence lengths and
// masks.
func Blocks(lengths []int, masks [][]bool) []Block {
	bs := make([]Block, len(lengths))
	fillBlocks(bs, lengths, masks)
	return bs
}

func fillBlocks(bs []Block, lengths []int, masks [][]bool) {
	start := 0
	for i, n := range lengths {
		var m []bool
		if masks != nil {
			m = masks[i]
		}
		bs[i] = Block{Start: start, N: n, Mask: m}
		start += n
	}
}

// BlockScratch is a pool-backed Block descriptor slice. Serving builds one
// per batched forward and drops it immediately after, so reuse removes the
// per-batch allocation. Reuse is safe because no autograd closure retains
// the slice: attention copies each Block by value and holds only its Mask,
// which the caller (the plan encoding) owns.
type BlockScratch struct {
	bs []Block
}

var blockPool = sync.Pool{New: func() any { return &BlockScratch{} }}

// BorrowBlocks is Blocks over pooled storage. Call Release once the forward
// pass that consumes Blocks() has completed.
func BorrowBlocks(lengths []int, masks [][]bool) *BlockScratch {
	s := blockPool.Get().(*BlockScratch)
	if cap(s.bs) < len(lengths) {
		s.bs = make([]Block, len(lengths))
	}
	s.bs = s.bs[:len(lengths)]
	fillBlocks(s.bs, lengths, masks)
	return s
}

// Blocks returns the descriptor slice, valid until Release.
func (s *BlockScratch) Blocks() []Block { return s.bs }

// Release hands the descriptors back to the pool. Mask pointers are cleared
// so the pool never pins a caller's mask alive.
func (s *BlockScratch) Release() {
	for i := range s.bs {
		s.bs[i].Mask = nil
	}
	blockPool.Put(s)
}

// ForwardBlocks computes masked self-attention independently within each
// block of the row-stacked input x [ΣSeq, dim], sharing the Q/K/V/output
// projections across blocks. Attention never crosses block boundaries, and
// each block's output rows are bit-identical to Forward on that block alone.
func (m *MultiHeadAttention) ForwardBlocks(x *Tensor, blocks []Block) *Tensor {
	return m.WO.Forward(attention(m.WQ.Forward(x), m.WK.Forward(x), m.WV.Forward(x), m.Heads, blocks))
}

// attention is masked multi-head scaled-dot-product attention as one op over
// row-stacked q, k, v [ΣSeq, dim] (the three projections of one input, hence
// tracked or frozen together): per block and head, softmax(q·kᵀ/√dh, masked
// positions at -1e9)·v, heads read in place by stride and written side by
// side into one [ΣSeq, dim] output. blocks must tile the rows in order; the
// slice is not retained.
func attention(q, k, v *Tensor, heads int, blocks []Block) *Tensor {
	rows, dim := q.Shape[0], q.Shape[1]
	dh := dim / heads
	scale := 1 / math.Sqrt(float64(dh))
	next, maxN, sumSq := 0, 0, 0
	for _, b := range blocks {
		if b.Start != next || (b.Mask != nil && len(b.Mask) != b.N*b.N) {
			panic("nn: attention blocks must tile the rows in order, each mask N×N")
		}
		next += b.N
		maxN = max(maxN, b.N)
		sumSq += b.N * b.N
	}
	if next != rows || len(k.Data) != len(q.Data) || len(v.Data) != len(q.Data) {
		panic("nn: attention blocks or operands do not cover the rows")
	}
	graph := needsGraph(q, k, v)
	ar := arenaOf(q, k, v)
	// Each block's keys transposed, [dim, N] at offset Start*dim: head h's kᵀ
	// is rows [h*dh, (h+1)*dh) of it, so the scores are a plain a·b product.
	kT := ar.alloc(rows * dim)
	// The softmax weights: one [N, N] per block and head when the backward
	// needs them, one scratch reused by every head when it does not.
	var probs []float64
	if graph {
		probs = make([]float64, heads*sumSq)
	} else {
		probs = ar.alloc(maxN * maxN)
	}
	d := ar.alloc(rows * dim)
	po := 0
	for _, b := range blocks {
		n, base := b.N, b.Start*dim
		if n == 0 {
			continue
		}
		for r := 0; r < n; r++ {
			for c := 0; c < dim; c++ {
				kT[base+c*n+r] = k.Data[base+r*dim+c]
			}
		}
		for h := 0; h < heads; h++ {
			hb := base + h*dh
			p := probs[po : po+n*n]
			if graph {
				po += n * n
			} else {
				clear(p)
			}
			gemm(p, n, q.Data[hb:], dim, 1, kT[base+h*dh*n:], n, n, dh, n)
			for i := range p {
				p[i] *= scale
				if b.Mask != nil && !b.Mask[i] {
					p[i] = -1e9
				}
			}
			for i := 0; i < n; i++ {
				softmaxRow(p[i*n:(i+1)*n], p[i*n:(i+1)*n])
			}
			gemm(d[hb:], dim, p, n, 1, v.Data[hb:], dim, n, n, dh)
		}
	}
	out := newResult("attention", d, []int{rows, dim}, q, k, v)
	if out.parents != nil {
		bs := append([]Block(nil), blocks...)
		out.backFn = func() { attentionBackward(out.Grad, q, k, v, kT, probs, heads, maxN, scale, bs) }
	}
	return out
}

// attentionBackward adds attention's input gradients to q.Grad, k.Grad and
// v.Grad given g, the gradient of its output. Every element is built the way
// the op-by-op chain built it: each head's contribution summed from zero in
// the chain's index order, then added to the input's accumulator once.
func attentionBackward(g []float64, q, k, v *Tensor, kT, probs []float64, heads, maxN int, scale float64, blocks []Block) {
	q.ensureGrad()
	k.ensureGrad()
	v.ensureGrad()
	dim := q.Shape[1]
	dh := dim / heads
	ds := make([]float64, maxN*maxN) // one head's d(probs), then d(scores)
	tmp := make([]float64, maxN*dh)  // one head's dV [N, dh], then dKᵀ [dh, N]
	po := 0
	for _, b := range blocks {
		n, base := b.N, b.Start*dim
		if n == 0 {
			continue
		}
		for h := 0; h < heads; h++ {
			hb := base + h*dh
			p := probs[po : po+n*n]
			po += n * n
			dp, dv := ds[:n*n], tmp[:n*dh]
			clear(dp)
			gemmNT(dp, n, g[hb:], dim, v.Data[hb:], dim, n, n, dh)
			clear(dv)
			gemm(dv, dh, p, 1, n, g[hb:], dim, n, n, dh)
			for j := 0; j < n; j++ {
				for c := 0; c < dh; c++ {
					v.Grad[hb+j*dim+c] += dv[j*dh+c]
				}
			}
			// Through softmax, the mask (no gradient into a masked score) and
			// the 1/√dh scale, in place: dp becomes d(q·kᵀ).
			for i := 0; i < n; i++ {
				pr, dr := p[i*n:(i+1)*n], dp[i*n:(i+1)*n]
				dot := 0.0
				for j := range pr {
					dot += pr[j] * dr[j]
				}
				for j := range pr {
					if b.Mask != nil && !b.Mask[i*n+j] {
						dr[j] = 0
					} else {
						dr[j] = pr[j] * (dr[j] - dot) * scale
					}
				}
			}
			gemmNT(q.Grad[hb:], dim, dp, n, kT[base+h*dh*n:], n, n, dh, n)
			dk := tmp[:dh*n]
			clear(dk)
			gemm(dk, n, q.Data[hb:], 1, dim, dp, n, dh, n, n)
			for j := 0; j < n; j++ {
				for c := 0; c < dh; c++ {
					k.Grad[hb+j*dim+c] += dk[c*n+j]
				}
			}
		}
	}
}

// ForwardBlocks applies the encoder block to a row-stacked batch: layer
// norms and the feed-forward MLP run over all rows at once, attention per
// block. It is Project, then ForwardProjected.
func (t *TransformerLayer) ForwardBlocks(x *Tensor, blocks []Block) *Tensor {
	q, k, v := t.Project(x)
	return t.ForwardProjected(x, q, k, v, blocks)
}

// Project is the block's row-local input stage: the attention's Q, K and V
// projections of LN1(x). Row i of each depends on row i of x alone, so a
// caller that has projected a row once may reuse it wherever the same row
// enters the block again.
func (t *TransformerLayer) Project(x *Tensor) (q, k, v *Tensor) {
	ln := t.LN1.Forward(x)
	return t.Attn.WQ.Forward(ln), t.Attn.WK.Forward(ln), t.Attn.WV.Forward(ln)
}

// ForwardProjected is ForwardBlocks entered after its input stage: q, k and
// v are Project(x), row for row, however they were assembled. Attention and
// everything after it run over the stacked rows exactly as in ForwardBlocks.
func (t *TransformerLayer) ForwardProjected(x, q, k, v *Tensor, blocks []Block) *Tensor {
	h := Add(x, t.Attn.WO.Forward(attention(q, k, v, t.Attn.Heads, blocks)))
	return Add(h, t.FF2.Forward(ReLU(t.FF1.Forward(t.LN2.Forward(h)))))
}

// Gather stacks rows into a graph-free [len(idx), cols] tensor whose row i is
// a copy of rows[idx[i]] (each row holds cols values), allocated in a (nil:
// the heap) and carrying a, like an embedding lookup. It is how a frozen
// forward re-enters rows it computed before.
func Gather(a *Arena, rows [][]float64, idx []int, cols int) *Tensor {
	d := a.alloc(len(idx) * cols)
	for i, r := range idx {
		if len(rows[r]) != cols {
			panic("nn: Gather row width mismatch")
		}
		copy(d[i*cols:(i+1)*cols], rows[r])
	}
	out := newResult("gather", d, []int{len(idx), cols})
	out.arena = a
	return out
}
