package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// Adam implements the Adam optimizer with optional gradient clipping by
// global norm.
type Adam struct {
	LR       float64
	Beta1    float64
	Beta2    float64
	Eps      float64
	ClipNorm float64 // 0 disables clipping

	params []*Tensor
	m      [][]float64
	v      [][]float64
	t      int
}

// NewAdam creates an optimizer over params with the given learning rate.
func NewAdam(params []*Tensor, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p.Data)))
		a.v = append(a.v, make([]float64, len(p.Data)))
	}
	return a
}

// ZeroGrad clears gradients on all managed parameters.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// GradNorm returns the global L2 norm of all parameter gradients.
func (a *Adam) GradNorm() float64 {
	s := 0.0
	for _, p := range a.params {
		for _, g := range p.Grad {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// Step applies one Adam update (with bias correction) to every parameter.
func (a *Adam) Step() {
	a.t++
	scale := 1.0
	if a.ClipNorm > 0 {
		if n := a.GradNorm(); n > a.ClipNorm {
			scale = a.ClipNorm / (n + 1e-12)
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j := range p.Data {
			g := p.Grad[j] * scale
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			mh := m[j] / bc1
			vh := v[j] / bc2
			p.Data[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}

// SaveParams serializes the parameter values (not optimizer state) of a
// module into a byte slice, in Params() order.
func SaveParams(m Module) ([]byte, error) {
	var vals [][]float64
	for _, p := range m.Params() {
		v := make([]float64, len(p.Data))
		copy(v, p.Data)
		vals = append(vals, v)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(vals); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// LoadParams restores parameter values previously written by SaveParams.
// The module must have an identical parameter structure.
func LoadParams(m Module, data []byte) error {
	var vals [][]float64
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&vals); err != nil {
		return err
	}
	ps := m.Params()
	if len(vals) != len(ps) {
		return fmt.Errorf("nn: parameter structure mismatch on load: want %d tensors, got %d", len(ps), len(vals))
	}
	for i, p := range ps {
		if len(vals[i]) != len(p.Data) {
			return fmt.Errorf("nn: parameter structure mismatch on load: tensor %d: want %d values, got %d", i, len(p.Data), len(vals[i]))
		}
		copy(p.Data, vals[i])
	}
	return nil
}

// CopyParams copies parameter values from src into dst (same structure).
func CopyParams(dst, src Module) {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		panic("nn: CopyParams structure mismatch")
	}
	for i := range dp {
		if len(dp[i].Data) != len(sp[i].Data) {
			panic("nn: CopyParams size mismatch")
		}
		copy(dp[i].Data, sp[i].Data)
	}
}
