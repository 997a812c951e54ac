package aam

import (
	"math"
	"math/rand"
	"testing"

	"github.com/foss-db/foss/internal/nn"
	"github.com/foss-db/foss/internal/planenc"
)

// variableEncoded builds a fake encoded plan with n nodes and a banded
// reachability mask, so batch tests cover varying sequence lengths and
// nontrivial masking.
func variableEncoded(rng *rand.Rand, n int) *planenc.Encoded {
	enc := &planenc.Encoded{
		Ops:     make([]int, n),
		Tables:  make([]int, n),
		Columns: make([]int, n),
		RowBkt:  make([]int, n),
		Heights: make([]int, n),
		Structs: make([]int, n),
		Mask:    make([]bool, n*n),
		N:       n,
	}
	for i := 0; i < n; i++ {
		enc.Ops[i] = rng.Intn(planenc.NumOps)
		enc.Tables[i] = rng.Intn(4)
		enc.Columns[i] = rng.Intn(4)
		enc.RowBkt[i] = rng.Intn(planenc.RowBuckets)
		enc.Heights[i] = rng.Intn(4)
		enc.Structs[i] = rng.Intn(planenc.NumStructs)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			enc.Mask[i*n+j] = i == j || i-j == 1 || j-i == 1
		}
	}
	return enc
}

func TestForwardBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := StateNetConfig{DModel: 16, Heads: 2, Layers: 2, FFDim: 32, StateDim: 16}
	s := NewStateNet(rng, cfg, 4, 4)

	var encs []*planenc.Encoded
	var steps []float64
	for i := 0; i < 7; i++ {
		encs = append(encs, variableEncoded(rng, 1+rng.Intn(6)))
		steps = append(steps, float64(i)/7)
	}
	batch := s.ForwardBatch(encs, steps, nil)
	dim := batch.Shape[1]
	for i, enc := range encs {
		want := s.Forward(enc, steps[i], nil)
		for j := 0; j < dim; j++ {
			if batch.Data[i*dim+j] != want.Data[j] {
				t.Fatalf("plan %d dim %d: batch %v != sequential %v",
					i, j, batch.Data[i*dim+j], want.Data[j])
			}
		}
	}
}

func TestScoreStatesMatchesScore(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cfg := StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	m := NewModel(rng, cfg, 4, 4)

	var encs []*planenc.Encoded
	var steps []float64
	for i := 0; i < 6; i++ {
		encs = append(encs, variableEncoded(rng, 1+rng.Intn(5)))
		steps = append(steps, float64(i)/6)
	}
	sv := m.StatesBatch(encs, steps)
	for l := 0; l < len(encs); l++ {
		for r := 0; r < len(encs); r++ {
			if l == r {
				continue
			}
			want := argmax(m.Logits(encs[l], encs[r], steps[l], steps[r]).Data)
			if got := m.ScoreStates(sv, l, r); got != want {
				t.Fatalf("(%d,%d): ScoreStates %d != Score %d", l, r, got, want)
			}
		}
	}
}

// ScoreStates is the per-comparison pairwise head that Heads replaced, kept
// as the oracle: both FC1 passes run again for every (l, r) over rows l and r
// of a StatesBatch result.
func (m *Model) ScoreStates(sv *nn.Tensor, l, r int) int {
	return argmax(m.scoreStatesLogits(sv, l, r).Data)
}

func (m *Model) scoreStatesLogits(sv *nn.Tensor, l, r int) *nn.Tensor {
	m = m.frozen
	hl := nn.ReLU(m.FC1.Forward(nn.Add(nn.Rows(sv, l, 1), m.PosL)))
	hr := nn.ReLU(m.FC1.Forward(nn.Add(nn.Rows(sv, r, 1), m.PosR)))
	return m.FC2.Forward(nn.Sub(hl, hr))
}

// TestHeadsMatchScoreStates: the heads computed once per plan give the
// logits, bit for bit, and hence the class, of the per-comparison head on
// every ordered pair of a random pool, the diagonal included.
func TestHeadsMatchScoreStates(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cfg := StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	m := NewModel(rng, cfg, 4, 4)
	var encs []*planenc.Encoded
	var steps []float64
	for i := 0; i < 9; i++ {
		encs = append(encs, variableEncoded(rng, 1+rng.Intn(6)))
		steps = append(steps, float64(i%4)/3)
	}
	sv := m.StatesBatch(encs, steps)
	h := m.Heads(encs, steps, nil)
	classes := map[int]bool{}
	for l := range encs {
		for r := range encs {
			want := m.scoreStatesLogits(sv, l, r).Data
			got := h.logits(l, r).Data
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("(%d,%d) logit %d: heads %v != ScoreStates %v", l, r, k, got[k], want[k])
				}
			}
			if got, want := h.Score(l, r), m.ScoreStates(sv, l, r); got != want {
				t.Fatalf("(%d,%d): heads class %d != ScoreStates %d", l, r, got, want)
			}
			classes[h.Score(l, r)] = true
		}
	}
	if len(classes) < 2 {
		t.Fatalf("the pool scores one class only (%v): the comparison is vacuous", classes)
	}
}

// TestJudgeMatchesHeads: a judge fed a pool in pieces, whatever the split,
// builds heads whose logits are bit-identical to Model.Heads over the whole
// pool on the heap, on every ordered pair. Judges are borrowed and released
// in turn, so later rounds run in reused arenas.
func TestJudgeMatchesHeads(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cfg := StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	m := NewModel(rng, cfg, 4, 4)
	var encs []*planenc.Encoded
	var steps []float64
	for i := 0; i < 9; i++ {
		encs = append(encs, variableEncoded(rng, 1+rng.Intn(6)))
		steps = append(steps, float64(i%4)/3)
	}
	want := m.Heads(encs, steps, nil)
	for _, split := range [][]int{{9}, {1, 1, 1, 1, 1, 1, 1, 1, 1}, {2, 3, 4}, {1, 5, 1, 2}} {
		j := m.NewJudge()
		start := 0
		for _, n := range split {
			j.Add(encs[start:start+n], steps[start:start+n])
			start += n
		}
		got := j.Heads()
		for l := range encs {
			for r := range encs {
				g, w := got.logits(l, r).Data, want.logits(l, r).Data
				for k := range w {
					if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
						t.Fatalf("split %v (%d,%d) logit %d: judge %v != heads %v", split, l, r, k, g[k], w[k])
					}
				}
			}
		}
		j.Release()
	}
}
