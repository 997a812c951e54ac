package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Module is anything with trainable parameters.
type Module interface {
	// Params returns the trainable tensors of the module, in a stable order.
	Params() []*Tensor
}

// Linear is a fully-connected layer y = xW + b.
type Linear struct {
	W *Tensor // [in, out]
	B *Tensor // [1, out]
}

// NewLinear creates a Linear layer with Xavier-uniform initialization.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	limit := math.Sqrt(6.0 / float64(in+out))
	w := Zeros(in, out)
	for i := range w.Data {
		w.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return &Linear{W: w.Param(), B: Zeros(1, out).Param()}
}

// Forward applies the layer to a [batch, in] input as one fused affine op:
// the product, then the bias, into a single buffer, with a single backward.
func (l *Linear) Forward(x *Tensor) *Tensor {
	w, b := l.W, l.B
	if len(x.Shape) != 2 || x.Shape[1] != w.Shape[0] {
		panic(fmt.Sprintf("nn: Linear shape mismatch %v x %v", x.Shape, w.Shape))
	}
	m, k, n := x.Shape[0], x.Shape[1], w.Shape[1]
	d := alloc(m*n, x, w, b)
	gemm(d, n, x.Data, k, 1, w.Data, n, m, k, n)
	bias := b.Data[:n]
	for i := 0; i < m; i++ {
		row := d[i*n : (i+1)*n]
		for j := range row {
			row[j] += bias[j]
		}
	}
	out := newResult("affine", d, []int{m, n}, x, w, b)
	if out.parents != nil {
		out.backFn = func() {
			if b.RequiresGrad || b.parents != nil {
				b.ensureGrad()
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						b.Grad[j] += out.Grad[i*n+j]
					}
				}
			}
			matMulBackward(out.Grad, x, w, m, k, n)
		}
	}
	return out
}

// Params implements Module.
func (l *Linear) Params() []*Tensor { return []*Tensor{l.W, l.B} }

// Frozen returns the layer's frozen view (see the package comment).
func (l *Linear) Frozen() *Linear { return &Linear{W: l.W.Detach(), B: l.B.Detach()} }

// In returns the input width.
func (l *Linear) In() int { return l.W.Shape[0] }

// Out returns the output width.
func (l *Linear) Out() int { return l.W.Shape[1] }

// Embedding maps integer ids to dense vectors.
type Embedding struct {
	W *Tensor // [vocab, dim]
}

// NewEmbedding creates an embedding table with N(0, 0.1) initialization.
func NewEmbedding(rng *rand.Rand, vocab, dim int) *Embedding {
	w := Zeros(vocab, dim)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * 0.1
	}
	return &Embedding{W: w.Param()}
}

// Forward gathers rows for the given ids producing [len(ids), dim], on the
// heap. Ids out of range are clamped to the last row (an explicit "other"
// bucket).
func (e *Embedding) Forward(ids []int) *Tensor {
	vocab, dim := e.W.Shape[0], e.W.Shape[1]
	var clamped []int // backward-only
	if needsGraph(e.W) {
		clamped = make([]int, len(ids))
	}
	d := make([]float64, len(ids)*dim)
	for i, id := range ids {
		if id < 0 || id >= vocab {
			id = vocab - 1
		}
		if clamped != nil {
			clamped[i] = id
		}
		copy(d[i*dim:(i+1)*dim], e.W.Data[id*dim:(id+1)*dim])
	}
	out := newResult("embed", d, []int{len(ids), dim}, e.W)
	if out.parents != nil {
		out.backFn = func() {
			e.W.ensureGrad()
			for i, id := range clamped {
				for j := 0; j < dim; j++ {
					e.W.Grad[id*dim+j] += out.Grad[i*dim+j]
				}
			}
		}
	}
	return out
}

// EmbedConcat is Concat over tables[p].Forward(ids[p]) for every p, as one
// graph-free op: row i is table 0's row for ids[0][i], then table 1's row for
// ids[1][i], and so on. It copies the rows the chain would, so its output is
// the chain's bit for bit. It records no graph, so it panics on a tracked
// table: frozen views only. Like Gather, it is where data enters an arena:
// the result is allocated in a (nil: the heap) and carries it, so every op
// downstream allocates there too.
func EmbedConcat(a *Arena, tables []*Embedding, ids [][]int) *Tensor {
	width := 0
	for p, e := range tables {
		if needsGraph(e.W) || len(ids[p]) != len(ids[0]) {
			panic("nn: EmbedConcat takes frozen tables and one id per row from each")
		}
		width += e.W.Shape[1]
	}
	rows := len(ids[0])
	d := a.alloc(rows * width)
	off := 0
	for p, e := range tables {
		vocab, dim := e.W.Shape[0], e.W.Shape[1]
		for i, id := range ids[p] {
			if id < 0 || id >= vocab {
				id = vocab - 1
			}
			copy(d[i*width+off:i*width+off+dim], e.W.Data[id*dim:(id+1)*dim])
		}
		off += dim
	}
	out := newResult("embedconcat", d, []int{rows, width})
	out.arena = a
	return out
}

// Params implements Module.
func (e *Embedding) Params() []*Tensor { return []*Tensor{e.W} }

// Frozen returns the table's frozen view (see the package comment).
func (e *Embedding) Frozen() *Embedding { return &Embedding{W: e.W.Detach()} }

// LayerNorm normalizes each row of a 2-D tensor and applies a learned
// affine transform.
type LayerNorm struct {
	Gamma *Tensor
	Beta  *Tensor
	Eps   float64
}

// NewLayerNorm creates a LayerNorm over rows of width dim.
func NewLayerNorm(dim int) *LayerNorm {
	return &LayerNorm{Gamma: Full(1, 1, dim).Param(), Beta: Zeros(1, dim).Param(), Eps: 1e-5}
}

// Forward normalizes each row of x [rows, dim].
func (l *LayerNorm) Forward(x *Tensor) *Tensor {
	rows, dim := x.Shape[0], x.Shape[1]
	d := alloc(rows*dim, x, l.Gamma, l.Beta)
	var invstd, norm []float64 // backward-only
	if needsGraph(x, l.Gamma, l.Beta) {
		invstd = make([]float64, rows)
		norm = make([]float64, rows*dim)
	}
	gamma, beta := l.Gamma.Data[:dim], l.Beta.Data[:dim]
	for r := 0; r < rows; r++ {
		row, dr := x.Data[r*dim:(r+1)*dim], d[r*dim:(r+1)*dim]
		m := 0.0
		for _, v := range row {
			m += v
		}
		m /= float64(dim)
		vr := 0.0
		for _, v := range row {
			vr += (v - m) * (v - m)
		}
		vr /= float64(dim)
		is := 1 / math.Sqrt(vr+l.Eps)
		for j, v := range row {
			n := (v - m) * is
			dr[j] = n*gamma[j] + beta[j]
			if norm != nil {
				norm[r*dim+j] = n
			}
		}
		if invstd != nil {
			invstd[r] = is
		}
	}
	out := newResult("layernorm", d, x.Shape, x, l.Gamma, l.Beta)
	if out.parents != nil {
		out.backFn = func() {
			if l.Gamma.RequiresGrad {
				for r := 0; r < rows; r++ {
					for j := 0; j < dim; j++ {
						l.Gamma.Grad[j] += out.Grad[r*dim+j] * norm[r*dim+j]
						l.Beta.Grad[j] += out.Grad[r*dim+j]
					}
				}
			}
			if x.RequiresGrad || x.parents != nil {
				x.ensureGrad()
				for r := 0; r < rows; r++ {
					// dnorm_j = dout_j * gamma_j
					// dx = invstd * (dnorm - mean(dnorm) - norm * mean(dnorm*norm))
					var mdn, mdnn float64
					for j := 0; j < dim; j++ {
						dn := out.Grad[r*dim+j] * l.Gamma.Data[j]
						mdn += dn
						mdnn += dn * norm[r*dim+j]
					}
					mdn /= float64(dim)
					mdnn /= float64(dim)
					for j := 0; j < dim; j++ {
						dn := out.Grad[r*dim+j] * l.Gamma.Data[j]
						x.Grad[r*dim+j] += invstd[r] * (dn - mdn - norm[r*dim+j]*mdnn)
					}
				}
			}
		}
	}
	return out
}

// Params implements Module.
func (l *LayerNorm) Params() []*Tensor { return []*Tensor{l.Gamma, l.Beta} }

// Frozen returns the layer's frozen view (see the package comment).
func (l *LayerNorm) Frozen() *LayerNorm {
	return &LayerNorm{Gamma: l.Gamma.Detach(), Beta: l.Beta.Detach(), Eps: l.Eps}
}

// MultiHeadAttention is masked multi-head self-attention over a single
// sequence of shape [seq, dim]. The mask is a seq×seq boolean matrix where
// mask[i*seq+j]==true means position i may attend to position j (the paper's
// reachability mask: attention score forced to zero between unreachable plan
// nodes).
type MultiHeadAttention struct {
	Heads int
	WQ    *Linear
	WK    *Linear
	WV    *Linear
	WO    *Linear
}

// NewMultiHeadAttention creates self-attention with the given model width and
// head count (dim must be divisible by heads).
func NewMultiHeadAttention(rng *rand.Rand, dim, heads int) *MultiHeadAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("nn: dim %d not divisible by heads %d", dim, heads))
	}
	return &MultiHeadAttention{
		Heads: heads,
		WQ:    NewLinear(rng, dim, dim),
		WK:    NewLinear(rng, dim, dim),
		WV:    NewLinear(rng, dim, dim),
		WO:    NewLinear(rng, dim, dim),
	}
}

// Forward computes masked self-attention for x [seq, dim]. mask may be nil
// (full attention). It is ForwardBlocks over the single block [0, seq).
func (m *MultiHeadAttention) Forward(x *Tensor, mask []bool) *Tensor {
	return m.ForwardBlocks(x, []Block{{N: x.Shape[0], Mask: mask}})
}

// Frozen returns the attention layer's frozen view (see the package comment).
func (m *MultiHeadAttention) Frozen() *MultiHeadAttention {
	return &MultiHeadAttention{Heads: m.Heads, WQ: m.WQ.Frozen(), WK: m.WK.Frozen(), WV: m.WV.Frozen(), WO: m.WO.Frozen()}
}

// Params implements Module.
func (m *MultiHeadAttention) Params() []*Tensor {
	var ps []*Tensor
	ps = append(ps, m.WQ.Params()...)
	ps = append(ps, m.WK.Params()...)
	ps = append(ps, m.WV.Params()...)
	ps = append(ps, m.WO.Params()...)
	return ps
}

// Cols extracts columns [start, start+n) of a 2-D tensor.
func Cols(a *Tensor, start, n int) *Tensor {
	rows, cols := a.Shape[0], a.Shape[1]
	if start < 0 || start+n > cols {
		panic("nn: Cols out of range")
	}
	d := alloc(rows*n, a)
	for r := 0; r < rows; r++ {
		copy(d[r*n:(r+1)*n], a.Data[r*cols+start:r*cols+start+n])
	}
	out := newResult("cols", d, []int{rows, n}, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			for r := 0; r < rows; r++ {
				for j := 0; j < n; j++ {
					a.Grad[r*cols+start+j] += out.Grad[r*n+j]
				}
			}
		}
	}
	return out
}

// TransformerLayer is a pre-norm transformer encoder block:
// x + MHA(LN(x)), then x + FFN(LN(x)).
type TransformerLayer struct {
	Attn *MultiHeadAttention
	LN1  *LayerNorm
	LN2  *LayerNorm
	FF1  *Linear
	FF2  *Linear
}

// NewTransformerLayer creates one encoder block with an ffDim-wide MLP.
func NewTransformerLayer(rng *rand.Rand, dim, heads, ffDim int) *TransformerLayer {
	return &TransformerLayer{
		Attn: NewMultiHeadAttention(rng, dim, heads),
		LN1:  NewLayerNorm(dim),
		LN2:  NewLayerNorm(dim),
		FF1:  NewLinear(rng, dim, ffDim),
		FF2:  NewLinear(rng, ffDim, dim),
	}
}

// Forward applies the block to x [seq, dim] with the given attention mask.
func (t *TransformerLayer) Forward(x *Tensor, mask []bool) *Tensor {
	h := Add(x, t.Attn.Forward(t.LN1.Forward(x), mask))
	return Add(h, t.FF2.Forward(ReLU(t.FF1.Forward(t.LN2.Forward(h)))))
}

// Frozen returns the block's frozen view (see the package comment).
func (t *TransformerLayer) Frozen() *TransformerLayer {
	return &TransformerLayer{Attn: t.Attn.Frozen(), LN1: t.LN1.Frozen(), LN2: t.LN2.Frozen(), FF1: t.FF1.Frozen(), FF2: t.FF2.Frozen()}
}

// Params implements Module.
func (t *TransformerLayer) Params() []*Tensor {
	var ps []*Tensor
	ps = append(ps, t.Attn.Params()...)
	ps = append(ps, t.LN1.Params()...)
	ps = append(ps, t.LN2.Params()...)
	ps = append(ps, t.FF1.Params()...)
	ps = append(ps, t.FF2.Params()...)
	return ps
}

// MLP is a stack of Linear layers with ReLU between them (none after the
// final layer).
type MLP struct {
	Layers []*Linear
}

// NewMLP builds an MLP with the given layer widths, e.g. (rng, 64, 128, 1).
func NewMLP(rng *rand.Rand, widths ...int) *MLP {
	if len(widths) < 2 {
		panic("nn: MLP needs at least two widths")
	}
	m := &MLP{}
	for i := 0; i+1 < len(widths); i++ {
		m.Layers = append(m.Layers, NewLinear(rng, widths[i], widths[i+1]))
	}
	return m
}

// Forward applies the MLP to x [batch, in].
func (m *MLP) Forward(x *Tensor) *Tensor {
	for i, l := range m.Layers {
		x = l.Forward(x)
		if i+1 < len(m.Layers) {
			x = ReLU(x)
		}
	}
	return x
}

// Frozen returns the MLP's frozen view (see the package comment).
func (m *MLP) Frozen() *MLP {
	f := &MLP{Layers: make([]*Linear, len(m.Layers))}
	for i, l := range m.Layers {
		f.Layers[i] = l.Frozen()
	}
	return f
}

// Params implements Module.
func (m *MLP) Params() []*Tensor {
	var ps []*Tensor
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
