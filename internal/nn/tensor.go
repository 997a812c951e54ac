// Package nn is a small, dependency-free neural-network substrate: dense
// float64 tensors with reverse-mode automatic differentiation, the layers
// needed for a tree-transformer (linear, embedding, layer norm, masked
// multi-head attention) and the Adam optimizer.
//
// It exists because the paper's models (the planner's state network, the
// asymmetric advantage model, and the PPO actor-critic) must run without any
// external ML framework. Sizes are deliberately small so CPU training
// converges in minutes on the laptop-scale workloads this repository uses.
//
// # Frozen views
//
// Every layer has a Frozen method returning a view of itself: the same type
// over the same Data slices with RequiresGrad false, so each op runs
// unchanged but records no parents, no backward closure and no gradient
// buffer. Adam.Step, LoadParams and CopyParams write parameters in place and
// nothing replaces a parameter tensor, so a view built once always reads the
// current weights. A forward that is never followed by Backward belongs on
// the view. A view may be called wherever its layer's Forward methods may,
// from any number of goroutines, under the same rule as the layer: not while
// an optimizer step, load or copy writes those weights. A view must not be
// handed to an optimizer (its Params carry no gradient buffers), and Backward
// from its outputs reaches no parameter: train on the module itself. There is
// no package-level grad switch: which tensors track is a property of the
// module a caller holds, so one replica trains while another serves.
//
// # Arenas
//
// A frozen forward's intermediate tensors die with the forward, so serving
// can place their data in an Arena, a bump allocator that Reset empties in
// one step, instead of on the garbage-collected heap. The arena travels on
// tensors, not through parameters: data enters one at EmbedConcat or Gather,
// the two ops that take one, an op allocates its output (and attention its kᵀ
// and softmax scratch) from its first input that carries an arena, and the
// output carries that arena on. Only the Tensor headers still come from the
// heap. The rules:
//
//   - One goroutine per arena. An Arena has no lock: the goroutine that
//     allocates in it is the only one that may use it until it hands the
//     arena's tensors over through a synchronising operation (a channel
//     receive, say), after which that goroutine is.
//   - Tracked ops never take arena memory. An op that records a graph
//     allocates from the heap whatever its inputs carry, so nothing a backward
//     closure reads as its own output can be reset underneath it. A tracked op
//     fed an arena tensor does read that input in its backward, so the
//     arena must not be reset before that graph is dropped.
//   - Reset (and Release, which resets) invalidates everything allocated in
//     the arena. A value that must outlive it is copied out first
//     (Tensor.Clone allocates on the heap). An arena is scratch memory, not a
//     cache: nothing in it is read after the Reset that ends its round.
//   - Frozen forwards may share rows, tracked forwards never do. Every op
//     before a block's attention computes row i from row i alone (gemm, the
//     fused Linear bias, LayerNorm, the lookups), so a frozen forward may run
//     that input stage once per distinct row and enter the block through
//     TransformerLayer.ForwardProjected with rows gathered from earlier
//     calls; the result is the recomputed one bit for bit. Such rows are
//     valid only for the weights that computed them and live in the arena of
//     the round that computed them, so they are shared per network and never
//     past a Reset. A tracked forward keeps one graph row per input row:
//     merging rows there would sum their gradients before back-propagation
//     and change training's bits.
//
// # Kernels
//
// Every product goes through one GEMM family on raw slices (kernel.go): gemm
// (a·b, and aᵀ·g by swapping a's strides) and gemmNT (g·bᵀ). MatMul is those
// and nothing else; Linear.Forward is one fused affine op (product, then bias,
// one buffer, one backward); masked multi-head attention is one fused op over
// (q, k, v, blocks) with a hand-written backward. Tracked and frozen forwards
// run the same code and differ only in whether the backward closure and its
// saved state are recorded.
//
// The kernels are fast only in ways that change no bit, because bit-identical
// weights and plans are what let wrl/gmrl and the golden replays prove that a
// kernel change changed nothing else. The order rule, which kernel_test.go
// checks against the plain loops by math.Float64bits:
//
//   - Each output element's sum adds its products in ascending index order,
//     starting from the accumulator's current value (gemm), or from zero with
//     the finished dot product added to the accumulator once (gemmNT).
//   - A zero multiplier contributes nothing and its other operand is not read:
//     a[i][p] == 0 in gemm (post-ReLU activations, masked attention weights).
//     gemmNT skips nothing.
//   - Unrolling is across independent outputs (eight or four sums carried in
//     registers at once), or by writing consecutive terms as one
//     left-associated expression. Never partial sums, never math.FMA, no
//     reassociation.
//   - A fused op adds to each input's accumulator exactly the quantities the
//     chain it replaced added (attention: one head's contribution summed from
//     zero, then added once), and lists its parents in the chain's first-visit
//     order (x, W, B; q, k, v). Backward's reverse-topological order is then
//     unchanged, and with it the order in which shared accumulators receive
//     contributions: x.Grad from the V, K and Q projections, a weight's Grad
//     across its uses.
package nn

import (
	"fmt"
	"math"
)

// Tensor is a dense float64 tensor participating in an autograd graph.
// A Tensor produced by an op records its parents and a backward closure;
// calling Backward on a scalar output propagates gradients to every
// reachable tensor with RequiresGrad set.
type Tensor struct {
	Data  []float64
	Grad  []float64
	Shape []int

	RequiresGrad bool

	parents []*Tensor
	backFn  func()
	op      string

	// shape backs Shape at rank ≤ 2 (every op in this package, and
	// NewTensor), so a tensor costs one allocation besides its data.
	shape [2]int

	// arena, when set, is where ops over this tensor allocate their outputs
	// (see "Arenas" in the package comment).
	arena *Arena
}

// NewTensor creates a tensor with the given shape backed by data.
// len(data) must equal the product of the shape dimensions.
func NewTensor(data []float64, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if len(data) != n {
		panic(fmt.Sprintf("nn: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	t := &Tensor{Data: data}
	t.setShape(shape)
	return t
}

// setShape copies shape into t.Shape, backed by t.shape when it fits.
func (t *Tensor) setShape(shape []int) {
	if len(shape) <= len(t.shape) {
		t.Shape = t.shape[:copy(t.shape[:], shape)]
	} else {
		t.Shape = append([]int(nil), shape...)
	}
}

// Zeros returns a zero-filled tensor of the given shape.
func Zeros(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	return &Tensor{Data: make([]float64, n), Shape: append([]int(nil), shape...)}
}

// Full returns a tensor filled with v.
func Full(v float64, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Param marks the tensor as trainable and allocates its gradient buffer.
func (t *Tensor) Param() *Tensor {
	t.RequiresGrad = true
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
	return t
}

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx...)] }

// Set assigns the element at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx...)] = v }

func (t *Tensor) offset(idx ...int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("nn: index rank %d does not match tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	stride := 1
	for i := len(t.Shape) - 1; i >= 0; i-- {
		if idx[i] < 0 || idx[i] >= t.Shape[i] {
			panic(fmt.Sprintf("nn: index %v out of range for shape %v", idx, t.Shape))
		}
		off += idx[i] * stride
		stride *= t.Shape[i]
	}
	return off
}

// Item returns the sole element of a one-element tensor.
func (t *Tensor) Item() float64 {
	if len(t.Data) != 1 {
		panic("nn: Item on tensor with more than one element")
	}
	return t.Data[0]
}

// Clone returns a deep copy detached from the autograd graph.
func (t *Tensor) Clone() *Tensor {
	d := make([]float64, len(t.Data))
	copy(d, t.Data)
	return NewTensor(d, t.Shape...)
}

// Detach returns a view of the same data without graph history.
func (t *Tensor) Detach() *Tensor {
	return &Tensor{Data: t.Data, Shape: t.Shape}
}

func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
}

// ZeroGrad clears the gradient buffer.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// needsGraph reports whether any input requires gradient tracking, in which
// case the op must record a backward function.
func needsGraph(ts ...*Tensor) bool {
	for _, t := range ts {
		if t != nil && (t.RequiresGrad || t.backFn != nil || len(t.parents) > 0) {
			return true
		}
	}
	return false
}

// newResult wraps an op's output. It retains neither shape nor parents (both
// are copied, parents only when the graph is recorded), so call sites build
// them on the stack and a graph-free forward allocates the Tensor and nothing
// else. A graph-free result carries arenaOf(parents), the arena its data came
// from, so the next op allocates there too.
func newResult(op string, data []float64, shape []int, parents ...*Tensor) *Tensor {
	out := &Tensor{Data: data, op: op}
	out.setShape(shape)
	if needsGraph(parents...) {
		out.parents = append([]*Tensor(nil), parents...)
		out.ensureGrad()
	} else {
		out.arena = arenaOf(parents...)
	}
	return out
}

// Backward runs reverse-mode autodiff from t, which must be scalar unless
// seed gradients were already written into t.Grad.
func (t *Tensor) Backward() {
	t.ensureGrad()
	if len(t.Data) == 1 {
		t.Grad[0] = 1
	} else {
		any := false
		for _, g := range t.Grad {
			if g != 0 {
				any = true
				break
			}
		}
		if !any {
			panic("nn: Backward on non-scalar tensor with zero seed gradient")
		}
	}

	// Topological order via iterative DFS.
	var order []*Tensor
	visited := map[*Tensor]bool{}
	type frame struct {
		t *Tensor
		i int
	}
	stack := []frame{{t, 0}}
	visited[t] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(f.t.parents) {
			p := f.t.parents[f.i]
			f.i++
			if p != nil && !visited[p] {
				visited[p] = true
				stack = append(stack, frame{p, 0})
			}
			continue
		}
		order = append(order, f.t)
		stack = stack[:len(stack)-1]
	}
	// order is child-after-parents; walk in reverse (outputs first).
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backFn != nil {
			n.backFn()
		}
	}
}

// ----- element-wise ops -----

func sameShape(a, b *Tensor) {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("nn: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
}

// Add returns a + b (element-wise; shapes must match).
func Add(a, b *Tensor) *Tensor {
	sameShape(a, b)
	d := alloc(len(a.Data), a, b)
	for i := range d {
		d[i] = a.Data[i] + b.Data[i]
	}
	out := newResult("add", d, a.Shape, a, b)
	if out.parents != nil {
		out.backFn = func() {
			if a.RequiresGrad || a.parents != nil {
				a.ensureGrad()
				for i := range out.Grad {
					a.Grad[i] += out.Grad[i]
				}
			}
			if b.RequiresGrad || b.parents != nil {
				b.ensureGrad()
				for i := range out.Grad {
					b.Grad[i] += out.Grad[i]
				}
			}
		}
	}
	return out
}

// Sub returns a - b (element-wise).
func Sub(a, b *Tensor) *Tensor {
	sameShape(a, b)
	d := alloc(len(a.Data), a, b)
	for i := range d {
		d[i] = a.Data[i] - b.Data[i]
	}
	out := newResult("sub", d, a.Shape, a, b)
	if out.parents != nil {
		out.backFn = func() {
			if a.RequiresGrad || a.parents != nil {
				a.ensureGrad()
				for i := range out.Grad {
					a.Grad[i] += out.Grad[i]
				}
			}
			if b.RequiresGrad || b.parents != nil {
				b.ensureGrad()
				for i := range out.Grad {
					b.Grad[i] -= out.Grad[i]
				}
			}
		}
	}
	return out
}

// Mul returns a * b (element-wise Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	sameShape(a, b)
	d := alloc(len(a.Data), a, b)
	for i := range d {
		d[i] = a.Data[i] * b.Data[i]
	}
	out := newResult("mul", d, a.Shape, a, b)
	if out.parents != nil {
		out.backFn = func() {
			if a.RequiresGrad || a.parents != nil {
				a.ensureGrad()
				for i := range out.Grad {
					a.Grad[i] += out.Grad[i] * b.Data[i]
				}
			}
			if b.RequiresGrad || b.parents != nil {
				b.ensureGrad()
				for i := range out.Grad {
					b.Grad[i] += out.Grad[i] * a.Data[i]
				}
			}
		}
	}
	return out
}

// Scale returns a * s for scalar s.
func Scale(a *Tensor, s float64) *Tensor {
	d := alloc(len(a.Data), a)
	for i := range d {
		d[i] = a.Data[i] * s
	}
	out := newResult("scale", d, a.Shape, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			for i := range out.Grad {
				a.Grad[i] += out.Grad[i] * s
			}
		}
	}
	return out
}

// AddScalar returns a + s element-wise.
func AddScalar(a *Tensor, s float64) *Tensor {
	d := alloc(len(a.Data), a)
	for i := range d {
		d[i] = a.Data[i] + s
	}
	out := newResult("adds", d, a.Shape, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			for i := range out.Grad {
				a.Grad[i] += out.Grad[i]
			}
		}
	}
	return out
}

// Neg returns -a.
func Neg(a *Tensor) *Tensor { return Scale(a, -1) }

// ReLU applies max(0, x) element-wise.
func ReLU(a *Tensor) *Tensor {
	d := alloc(len(a.Data), a)
	for i, v := range a.Data {
		if v > 0 {
			d[i] = v
		}
	}
	out := newResult("relu", d, a.Shape, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			for i := range out.Grad {
				if a.Data[i] > 0 {
					a.Grad[i] += out.Grad[i]
				}
			}
		}
	}
	return out
}

// Tanh applies tanh element-wise.
func Tanh(a *Tensor) *Tensor {
	d := alloc(len(a.Data), a)
	for i, v := range a.Data {
		d[i] = math.Tanh(v)
	}
	out := newResult("tanh", d, a.Shape, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			for i := range out.Grad {
				a.Grad[i] += out.Grad[i] * (1 - d[i]*d[i])
			}
		}
	}
	return out
}

// Sigmoid applies 1/(1+e^-x) element-wise.
func Sigmoid(a *Tensor) *Tensor {
	d := alloc(len(a.Data), a)
	for i, v := range a.Data {
		d[i] = 1 / (1 + math.Exp(-v))
	}
	out := newResult("sigmoid", d, a.Shape, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			for i := range out.Grad {
				a.Grad[i] += out.Grad[i] * d[i] * (1 - d[i])
			}
		}
	}
	return out
}

// Exp applies e^x element-wise.
func Exp(a *Tensor) *Tensor {
	d := alloc(len(a.Data), a)
	for i, v := range a.Data {
		d[i] = math.Exp(v)
	}
	out := newResult("exp", d, a.Shape, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			for i := range out.Grad {
				a.Grad[i] += out.Grad[i] * d[i]
			}
		}
	}
	return out
}

// Log applies natural log element-wise (inputs must be positive).
func Log(a *Tensor) *Tensor {
	d := alloc(len(a.Data), a)
	for i, v := range a.Data {
		d[i] = math.Log(v)
	}
	out := newResult("log", d, a.Shape, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			for i := range out.Grad {
				a.Grad[i] += out.Grad[i] / a.Data[i]
			}
		}
	}
	return out
}

// Sum reduces to a scalar.
func Sum(a *Tensor) *Tensor {
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	d := alloc(1, a)
	d[0] = s
	out := newResult("sum", d, []int{1}, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			g := out.Grad[0]
			for i := range a.Grad {
				a.Grad[i] += g
			}
		}
	}
	return out
}

// Mean reduces to the scalar average.
func Mean(a *Tensor) *Tensor {
	return Scale(Sum(a), 1/float64(len(a.Data)))
}

// Concat concatenates 2-D tensors [rows, ci] along the last dimension.
func Concat(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("nn: Concat of nothing")
	}
	rows := ts[0].Shape[0]
	total := 0
	for _, t := range ts {
		if len(t.Shape) != 2 || t.Shape[0] != rows {
			panic(fmt.Sprintf("nn: Concat shape mismatch %v", t.Shape))
		}
		total += t.Shape[1]
	}
	d := alloc(rows*total, ts...)
	off := 0
	for _, t := range ts {
		c := t.Shape[1]
		for r := 0; r < rows; r++ {
			copy(d[r*total+off:r*total+off+c], t.Data[r*c:(r+1)*c])
		}
		off += c
	}
	out := newResult("concat", d, []int{rows, total}, ts...)
	if out.parents != nil {
		ts := out.parents // the backward's own copy: ts itself does not escape
		out.backFn = func() {
			off := 0
			for _, t := range ts {
				c := t.Shape[1]
				if t.RequiresGrad || t.parents != nil {
					t.ensureGrad()
					for r := 0; r < rows; r++ {
						for j := 0; j < c; j++ {
							t.Grad[r*c+j] += out.Grad[r*total+off+j]
						}
					}
				}
				off += c
			}
		}
	}
	return out
}

// RowsMean averages a [rows, cols] tensor over rows, optionally weighted by
// a 0/1 keep mask of length rows (nil means keep all). Result is [1, cols].
func RowsMean(a *Tensor, keep []bool) *Tensor {
	if len(a.Shape) != 2 {
		panic("nn: RowsMean expects a 2-D tensor")
	}
	rows, cols := a.Shape[0], a.Shape[1]
	cnt := 0.0
	d := alloc(cols, a)
	for r := 0; r < rows; r++ {
		if keep != nil && !keep[r] {
			continue
		}
		cnt++
		for j := 0; j < cols; j++ {
			d[j] += a.Data[r*cols+j]
		}
	}
	if cnt == 0 {
		cnt = 1
	}
	for j := range d {
		d[j] /= cnt
	}
	out := newResult("rowsmean", d, []int{1, cols}, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			for r := 0; r < rows; r++ {
				if keep != nil && !keep[r] {
					continue
				}
				for j := 0; j < cols; j++ {
					a.Grad[r*cols+j] += out.Grad[j] / cnt
				}
			}
		}
	}
	return out
}

// Row extracts row r of a 2-D tensor as a [1, cols] tensor.
func Row(a *Tensor, r int) *Tensor {
	if len(a.Shape) != 2 {
		panic("nn: Row expects a 2-D tensor")
	}
	cols := a.Shape[1]
	d := alloc(cols, a)
	copy(d, a.Data[r*cols:(r+1)*cols])
	out := newResult("row", d, []int{1, cols}, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			for j := 0; j < cols; j++ {
				a.Grad[r*cols+j] += out.Grad[j]
			}
		}
	}
	return out
}

// VStack stacks tensors of shape [k_i, cols] (any tensor of k_i·cols
// elements, its last dimension cols) row-wise into [Σk_i, cols].
func VStack(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("nn: VStack of nothing")
	}
	cols := ts[0].Shape[len(ts[0].Shape)-1]
	total := 0
	for _, t := range ts {
		if t.Size()%cols != 0 {
			panic("nn: VStack size mismatch")
		}
		total += t.Size()
	}
	d := alloc(total, ts...)
	off := 0
	for _, t := range ts {
		off += copy(d[off:], t.Data)
	}
	out := newResult("vstack", d, []int{total / cols, cols}, ts...)
	if out.parents != nil {
		ts := out.parents // the backward's own copy: ts itself does not escape
		out.backFn = func() {
			off := 0
			for _, t := range ts {
				if t.RequiresGrad || t.parents != nil {
					t.ensureGrad()
					for j := range t.Grad {
						t.Grad[j] += out.Grad[off+j]
					}
				}
				off += t.Size()
			}
		}
	}
	return out
}

// MatMul multiplies a [m,k] by b [k,n] giving [m,n].
func MatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("nn: MatMul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	d := alloc(m*n, a, b)
	gemm(d, n, a.Data, k, 1, b.Data, n, m, k, n)
	out := newResult("matmul", d, []int{m, n}, a, b)
	if out.parents != nil {
		out.backFn = func() { matMulBackward(out.Grad, a, b, m, k, n) }
	}
	return out
}

// matMulBackward adds g·bᵀ to a.Grad and aᵀ·g to b.Grad, g being the [m,n]
// gradient of a·b, for whichever of the two is tracked.
func matMulBackward(g []float64, a, b *Tensor, m, k, n int) {
	if a.RequiresGrad || a.parents != nil {
		a.ensureGrad()
		gemmNT(a.Grad, k, g, n, b.Data, n, m, k, n)
	}
	if b.RequiresGrad || b.parents != nil {
		b.ensureGrad()
		gemm(b.Grad, n, a.Data, 1, k, g, n, k, m, n)
	}
}

// AddRowVector adds a [1,n] bias to every row of a [m,n] tensor.
func AddRowVector(a, bias *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	if bias.Size() != n {
		panic("nn: AddRowVector size mismatch")
	}
	d := alloc(m*n, a, bias)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			d[i*n+j] = a.Data[i*n+j] + bias.Data[j]
		}
	}
	out := newResult("addrow", d, a.Shape, a, bias)
	if out.parents != nil {
		out.backFn = func() {
			if a.RequiresGrad || a.parents != nil {
				a.ensureGrad()
				for i := range out.Grad {
					a.Grad[i] += out.Grad[i]
				}
			}
			if bias.RequiresGrad || bias.parents != nil {
				bias.ensureGrad()
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						bias.Grad[j] += out.Grad[i*n+j]
					}
				}
			}
		}
	}
	return out
}

// Softmax applies a row-wise softmax to a 2-D tensor.
func Softmax(a *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	d := alloc(m*n, a)
	for i := 0; i < m; i++ {
		softmaxRow(a.Data[i*n:(i+1)*n], d[i*n:(i+1)*n])
	}
	out := newResult("softmax", d, a.Shape, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			for i := 0; i < m; i++ {
				or := d[i*n : (i+1)*n]
				gr := out.Grad[i*n : (i+1)*n]
				dot := 0.0
				for j := 0; j < n; j++ {
					dot += or[j] * gr[j]
				}
				for j := 0; j < n; j++ {
					a.Grad[i*n+j] += or[j] * (gr[j] - dot)
				}
			}
		}
	}
	return out
}

func softmaxRow(in, out []float64) {
	maxv := math.Inf(-1)
	for _, v := range in {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for j, v := range in {
		e := math.Exp(v - maxv)
		out[j] = e
		sum += e
	}
	if sum == 0 {
		sum = 1
	}
	for j := range out {
		out[j] /= sum
	}
}

// LogSoftmax applies a row-wise log-softmax to a 2-D tensor.
func LogSoftmax(a *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	d := alloc(m*n, a)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - maxv)
		}
		lse := maxv + math.Log(sum)
		for j, v := range row {
			d[i*n+j] = v - lse
		}
	}
	out := newResult("logsoftmax", d, a.Shape, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			for i := 0; i < m; i++ {
				gr := out.Grad[i*n : (i+1)*n]
				gsum := 0.0
				for j := 0; j < n; j++ {
					gsum += gr[j]
				}
				for j := 0; j < n; j++ {
					p := math.Exp(d[i*n+j])
					a.Grad[i*n+j] += gr[j] - p*gsum
				}
			}
		}
	}
	return out
}

// MaskedFill returns a copy of a where positions with mask==false are set to
// value (no gradient flows into masked positions). a is 2-D, mask is row-major
// with the same number of elements.
func MaskedFill(a *Tensor, mask []bool, value float64) *Tensor {
	if len(mask) != len(a.Data) {
		panic("nn: MaskedFill mask length mismatch")
	}
	d := alloc(len(a.Data), a)
	for i, v := range a.Data {
		if mask[i] {
			d[i] = v
		} else {
			d[i] = value
		}
	}
	out := newResult("maskfill", d, a.Shape, a)
	if out.parents != nil {
		out.backFn = func() {
			a.ensureGrad()
			for i := range out.Grad {
				if mask[i] {
					a.Grad[i] += out.Grad[i]
				}
			}
		}
	}
	return out
}
