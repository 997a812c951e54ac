package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// numGrad computes the finite-difference gradient of f with respect to x.
func numGrad(f func() float64, x *Tensor) []float64 {
	const h = 1e-6
	g := make([]float64, len(x.Data))
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		fp := f()
		x.Data[i] = orig - h
		fm := f()
		x.Data[i] = orig
		g[i] = (fp - fm) / (2 * h)
	}
	return g
}

func checkGrad(t *testing.T, name string, f func() *Tensor, inputs ...*Tensor) {
	t.Helper()
	out := f()
	out.Backward()
	for k, in := range inputs {
		ng := numGrad(func() float64 { return f().Item() }, in)
		for i := range ng {
			if math.Abs(ng[i]-in.Grad[i]) > 1e-4*(1+math.Abs(ng[i])) {
				t.Fatalf("%s: input %d elem %d: analytic %.8f vs numeric %.8f", name, k, i, in.Grad[i], ng[i])
			}
		}
		in.ZeroGrad()
	}
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t.Param()
}

func TestGradElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 3, 4)
	b := randTensor(rng, 3, 4)
	checkGrad(t, "add", func() *Tensor { return Sum(Add(a, b)) }, a, b)
	checkGrad(t, "sub", func() *Tensor { return Sum(Sub(a, b)) }, a, b)
	checkGrad(t, "mul", func() *Tensor { return Sum(Mul(a, b)) }, a, b)
	checkGrad(t, "scale", func() *Tensor { return Sum(Scale(a, 2.5)) }, a)
	checkGrad(t, "tanh", func() *Tensor { return Sum(Tanh(a)) }, a)
	checkGrad(t, "sigmoid", func() *Tensor { return Sum(Sigmoid(a)) }, a)
	checkGrad(t, "exp", func() *Tensor { return Sum(Exp(a)) }, a)
	checkGrad(t, "mean", func() *Tensor { return Mean(Mul(a, a)) }, a)
}

func TestGradReLU(t *testing.T) {
	// Use values away from the kink so finite differences are valid.
	a := NewTensor([]float64{1.5, -2.0, 0.7, -0.3, 2.2, -1.1}, 2, 3).Param()
	checkGrad(t, "relu", func() *Tensor { return Sum(ReLU(a)) }, a)
}

func TestGradLog(t *testing.T) {
	a := NewTensor([]float64{0.5, 1.5, 2.0, 3.0}, 2, 2).Param()
	checkGrad(t, "log", func() *Tensor { return Sum(Log(a)) }, a)
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randTensor(rng, 3, 5)
	b := randTensor(rng, 5, 2)
	checkGrad(t, "matmul", func() *Tensor { return Sum(MatMul(a, b)) }, a, b)
}

func TestGradSoftmaxLogSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randTensor(rng, 2, 4)
	w := randTensor(rng, 2, 4) // weighting makes the test non-trivial
	checkGrad(t, "softmax", func() *Tensor { return Sum(Mul(Softmax(a), w.Detach())) }, a)
	checkGrad(t, "logsoftmax", func() *Tensor { return Sum(Mul(LogSoftmax(a), w.Detach())) }, a)
}

func TestGradConcatColsTransposeRow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randTensor(rng, 3, 2)
	b := randTensor(rng, 3, 4)
	checkGrad(t, "concat", func() *Tensor { return Sum(Mul(Concat(a, b), Concat(a, b))) }, a, b)
	checkGrad(t, "cols", func() *Tensor { return Sum(Cols(b, 1, 2)) }, b)
	checkGrad(t, "transpose", func() *Tensor { return Sum(Mul(refTranspose(b), refTranspose(b))) }, b)
	checkGrad(t, "row", func() *Tensor { return Sum(Row(b, 1)) }, b)
	checkGrad(t, "rowsmean", func() *Tensor { return Sum(RowsMean(b, []bool{true, false, true})) }, b)
	checkGrad(t, "vstack", func() *Tensor { return Sum(VStack(Row(b, 0), Row(b, 2))) }, b)
}

func TestGradMaskedFill(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randTensor(rng, 2, 3)
	mask := []bool{true, false, true, true, true, false}
	checkGrad(t, "maskfill", func() *Tensor { return Sum(Softmax(MaskedFill(a, mask, -1e9))) }, a)
}

func TestGradLinearLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	lin := NewLinear(rng, 4, 3)
	ln := NewLayerNorm(4)
	x := randTensor(rng, 2, 4)
	f := func() *Tensor { return Sum(Mul(lin.Forward(ln.Forward(x)), lin.Forward(ln.Forward(x)))) }
	checkGrad(t, "linear+ln", f, x, lin.W, lin.B, ln.Gamma, ln.Beta)
}

func TestGradEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	emb := NewEmbedding(rng, 10, 4)
	ids := []int{1, 3, 3, 9}
	checkGrad(t, "embedding", func() *Tensor { return Sum(Mul(emb.Forward(ids), emb.Forward(ids))) }, emb.W)
}

func TestGradAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	mha := NewMultiHeadAttention(rng, 8, 2)
	x := randTensor(rng, 3, 8)
	mask := []bool{
		true, true, false,
		true, true, true,
		false, true, true,
	}
	f := func() *Tensor { return Sum(Mul(mha.Forward(x, mask), mha.Forward(x, mask))) }
	checkGrad(t, "mha", f, x, mha.WQ.W, mha.WK.W, mha.WV.W, mha.WO.W)
}

func TestGradTransformerLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tl := NewTransformerLayer(rng, 8, 2, 16)
	x := randTensor(rng, 3, 8)
	f := func() *Tensor { return Sum(tl.Forward(x, nil)) }
	checkGrad(t, "transformer", f, x, tl.FF1.W, tl.Attn.WQ.W)
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 100 {
				return true // skip degenerate inputs
			}
		}
		x := NewTensor([]float64{a, b, c, d}, 1, 4)
		s := Softmax(x)
		sum := 0.0
		for _, v := range s.Data {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskedSoftmaxZeroesMasked(t *testing.T) {
	x := NewTensor([]float64{5, 1, 3}, 1, 3)
	s := Softmax(MaskedFill(x, []bool{true, false, true}, -1e9))
	if s.Data[1] > 1e-6 {
		t.Fatalf("masked position got probability %f", s.Data[1])
	}
	if math.Abs(s.Data[0]+s.Data[2]-1) > 1e-9 {
		t.Fatalf("unmasked probabilities do not sum to 1: %v", s.Data)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// minimize (w - 3)^2 elementwise
	w := Full(10, 1, 4).Param()
	opt := NewAdam([]*Tensor{w}, 0.1)
	target := Full(3, 1, 4)
	for i := 0; i < 500; i++ {
		opt.ZeroGrad()
		diff := Sub(w, target)
		loss := Sum(Mul(diff, diff))
		loss.Backward()
		opt.Step()
	}
	for _, v := range w.Data {
		if math.Abs(v-3) > 1e-2 {
			t.Fatalf("Adam failed to converge: %v", w.Data)
		}
	}
}

func TestAdamClipNorm(t *testing.T) {
	w := Full(1, 1, 2).Param()
	w.Grad[0], w.Grad[1] = 300, 400 // norm 500
	opt := NewAdam([]*Tensor{w}, 0.1)
	opt.ClipNorm = 5
	if n := opt.GradNorm(); math.Abs(n-500) > 1e-9 {
		t.Fatalf("grad norm %f", n)
	}
	opt.Step() // must not blow up the weights
	for _, v := range w.Data {
		if math.Abs(v-1) > 0.2 {
			t.Fatalf("clipped step moved too far: %v", w.Data)
		}
	}
}

func TestSaveLoadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m1 := NewMLP(rng, 4, 8, 2)
	m2 := NewMLP(rand.New(rand.NewSource(99)), 4, 8, 2)
	blob, err := SaveParams(m1)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(m2, blob); err != nil {
		t.Fatal(err)
	}
	x := randTensor(rng, 1, 4)
	y1 := m1.Forward(x.Detach())
	y2 := m2.Forward(x.Detach())
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatalf("loaded model diverges: %v vs %v", y1.Data, y2.Data)
		}
	}
}

func TestLoadParamsStructureMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m1 := NewMLP(rng, 4, 8, 2)
	m2 := NewMLP(rng, 4, 9, 2)
	blob, err := SaveParams(m1)
	if err != nil {
		t.Fatal(err)
	}
	// Same tensor count, different widths: the error names the first tensor
	// that differs and both sizes.
	err = LoadParams(m2, blob)
	if err == nil {
		t.Fatal("expected structure mismatch error")
	}
	if want := "tensor 0: want 36 values, got 32"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not say %q", err, want)
	}
	// Different tensor count.
	err = LoadParams(NewLinear(rng, 4, 8), blob)
	if err == nil || !strings.Contains(err.Error(), "want 2 tensors, got 4") {
		t.Fatalf("error %v does not say want 2 tensors, got 4", err)
	}
}

func TestCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	src := NewLinear(rng, 3, 3)
	dst := NewLinear(rand.New(rand.NewSource(13)), 3, 3)
	CopyParams(dst, src)
	for i := range src.W.Data {
		if dst.W.Data[i] != src.W.Data[i] {
			t.Fatal("CopyParams did not copy weights")
		}
	}
}

func TestTensorIndexing(t *testing.T) {
	x := NewTensor([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if x.At(1, 2) != 6 || x.At(0, 0) != 1 {
		t.Fatalf("At broken: %v", x.Data)
	}
	x.Set(42, 1, 1)
	if x.At(1, 1) != 42 {
		t.Fatal("Set broken")
	}
	c := x.Clone()
	c.Data[0] = -1
	if x.Data[0] == -1 {
		t.Fatal("Clone aliases data")
	}
}

func TestBackwardDiamondGraph(t *testing.T) {
	// y = a*a + a*a shares the node a through two paths; gradient must be 4a.
	a := NewTensor([]float64{3}, 1, 1).Param()
	sq := Mul(a, a)
	y := Sum(Add(sq, sq))
	y.Backward()
	if math.Abs(a.Grad[0]-12) > 1e-9 {
		t.Fatalf("diamond gradient %f, want 12", a.Grad[0])
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, 2, 16, 1)
	opt := NewAdam(m.Params(), 0.05)
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 2000; epoch++ {
		opt.ZeroGrad()
		x := NewTensor([]float64{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
		pred := Sigmoid(m.Forward(x))
		tgt := NewTensor(ys, 4, 1)
		diff := Sub(pred, tgt)
		loss := Mean(Mul(diff, diff))
		loss.Backward()
		opt.Step()
	}
	for i, xv := range xs {
		p := Sigmoid(m.Forward(NewTensor(xv, 1, 2))).Item()
		if math.Abs(p-ys[i]) > 0.25 {
			t.Fatalf("XOR not learned: input %v pred %f want %f", xv, p, ys[i])
		}
	}
}
