package aam

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/foss-db/foss/internal/planenc"
)

func TestAdvInitRange(t *testing.T) {
	f := func(l, r float64) bool {
		latL := math.Abs(l) + 0.001
		latR := math.Abs(r) + 0.001
		a := AdvInit(latL, latR)
		return a <= 1 && !math.IsNaN(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestScoreOfThresholds(t *testing.T) {
	cases := []struct {
		adv  float64
		want int
	}{
		{-3, 0}, {0, 0}, {0.05, 0}, {0.051, 1}, {0.3, 1}, {0.5, 1}, {0.51, 2}, {0.99, 2},
	}
	for _, c := range cases {
		if got := ScoreOf(c.adv); got != c.want {
			t.Fatalf("ScoreOf(%f) = %d, want %d", c.adv, got, c.want)
		}
	}
}

func TestScoreSemantics(t *testing.T) {
	// r twice as fast as l: saving 0.5 -> score 1 (boundary); 60% saving -> 2.
	if s := ScoreOf(AdvInit(100, 40)); s != 2 {
		t.Fatalf("60%% saving scored %d", s)
	}
	if s := ScoreOf(AdvInit(100, 90)); s != 1 {
		t.Fatalf("10%% saving scored %d", s)
	}
	if s := ScoreOf(AdvInit(100, 200)); s != 0 {
		t.Fatalf("regression scored %d", s)
	}
}

func TestMidpoints(t *testing.T) {
	if Midpoint(0) != 0 {
		t.Fatal("Midpoint(0)")
	}
	if math.Abs(Midpoint(1)-0.275) > 1e-9 {
		t.Fatalf("Midpoint(1) = %f", Midpoint(1))
	}
	if math.Abs(Midpoint(2)-0.75) > 1e-9 {
		t.Fatalf("Midpoint(2) = %f", Midpoint(2))
	}
}

// syntheticEncoded builds a fake encoded plan whose features encode a hidden
// "goodness" g in the row-bucket feature, so the model has signal to learn.
func syntheticEncoded(g int) *planenc.Encoded {
	n := 3
	enc := &planenc.Encoded{
		Ops:     []int{planenc.OpHashJoin, planenc.OpSeqScan, planenc.OpSeqScan},
		Tables:  []int{2, 0, 1},
		Columns: []int{0, 1, 1},
		RowBkt:  []int{g, g, g},
		Heights: []int{1, 0, 0},
		Structs: []int{planenc.StructRoot, planenc.StructLeft, planenc.StructRight},
		Mask:    make([]bool, n*n),
		N:       n,
	}
	for i := 0; i < n*n; i++ {
		enc.Mask[i] = true
	}
	return enc
}

func TestModelAsymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	m := NewModel(rng, cfg, 4, 4)
	a, b := syntheticEncoded(2), syntheticEncoded(7)
	lr := m.Logits(a, b, 0, 0.5).Detach()
	rl := m.Logits(b, a, 0.5, 0).Detach()
	diff := 0.0
	for i := range lr.Data {
		diff += math.Abs(lr.Data[i] + rl.Data[i])
	}
	if diff < 1e-6 {
		t.Fatal("model output is perfectly antisymmetric; position encoding has no effect")
	}
}

func TestModelLearnsSyntheticAdvantage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	m := NewModel(rng, cfg, 4, 4)

	// goodness g in 0..9; latency ~ 2^g. label = ScoreOf(AdvInit(2^gl, 2^gr))
	var samples []Sample
	for gl := 0; gl < 10; gl += 1 {
		for gr := 0; gr < 10; gr += 1 {
			latL, latR := math.Pow(2, float64(gl)), math.Pow(2, float64(gr))
			samples = append(samples, Sample{
				EncL: syntheticEncoded(gl), EncR: syntheticEncoded(gr),
				StepL: 0, StepR: 0.5,
				Label: ScoreOf(AdvInit(latL, latR)),
			})
		}
	}
	tc := DefaultTrainConfig()
	tc.Epochs = 30
	tc.LR = 3e-3
	losses := m.Train(samples, tc)
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
	if acc := m.Accuracy(samples); acc < 0.85 {
		t.Fatalf("AAM accuracy %.2f on separable synthetic task", acc)
	}
}

func TestTrainEmptyIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	m := NewModel(rng, cfg, 4, 4)
	if out := m.Train(nil, DefaultTrainConfig()); out != nil {
		t.Fatal("training on empty set should be a no-op")
	}
}

func TestStateNetDeterministicForward(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	s := NewStateNet(rng, cfg, 4, 4)
	enc := syntheticEncoded(3)
	a := s.Forward(enc, 0.3, nil)
	b := s.Forward(enc, 0.3, nil)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("state network forward is nondeterministic")
		}
	}
	c := s.Forward(enc, 0.9, nil)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
		}
	}
	if same {
		t.Fatal("step status has no effect on state representation")
	}
}
