package aam

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/foss-db/foss/internal/nn"
	"github.com/foss-db/foss/internal/planenc"
)

var frozenTestCfg = StateNetConfig{DModel: 16, Heads: 2, Layers: 2, FFDim: 32, StateDim: 16}

// untracked fails if x was produced under autograd: every op that records a
// graph allocates its result's Grad, so a nil Grad means no graph was built.
func untracked(t *testing.T, what string, x *nn.Tensor) {
	t.Helper()
	if x.Grad != nil || x.RequiresGrad {
		t.Fatalf("%s was computed with an autograd graph", what)
	}
}

func sameData(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d is %x, want %x", what, i, got[i], want[i])
		}
	}
}

func randomPlans(rng *rand.Rand, n int) ([]*planenc.Encoded, []float64) {
	encs := make([]*planenc.Encoded, n)
	steps := make([]float64, n)
	for i := range encs {
		encs[i] = variableEncoded(rng, 1+rng.Intn(6))
		steps[i] = float64(i) / float64(n)
	}
	return encs, steps
}

// TestFrozenStateNetMatchesTracked: Forward and ForwardBatch on the view are
// bit-identical to the tracked network's, without a graph.
func TestFrozenStateNetMatchesTracked(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := NewStateNet(rng, frozenTestCfg, 4, 4)
	view := s.Frozen()
	encs, steps := randomPlans(rng, 7)

	tracked := s.ForwardBatch(encs, steps, nil)
	if tracked.Grad == nil {
		t.Fatal("tracked forward built no graph: the comparison proves nothing")
	}
	batch := view.ForwardBatch(encs, steps, nil)
	sameData(t, "ForwardBatch", batch.Data, tracked.Data)
	untracked(t, "view ForwardBatch", batch)
	for i, enc := range encs {
		one := view.Forward(enc, steps[i], nil)
		sameData(t, "Forward", one.Data, s.Forward(enc, steps[i], nil).Data)
		untracked(t, "view Forward", one)
	}
}

// wantScores is the reference the scoring methods are held to: the argmax of
// the tracked model's own Logits.
func wantScores(m *Model, pairs []Pair) []int {
	out := make([]int, len(pairs))
	for i, p := range pairs {
		out[i] = argmax(m.Logits(p.EncL, p.EncR, p.StepL, p.StepR).Data)
	}
	return out
}

func checkScoring(t *testing.T, what string, m *Model, pairs []Pair) {
	t.Helper()
	want := wantScores(m, pairs)
	batch := m.ScoreBatch(pairs)
	encs := make([]*planenc.Encoded, 0, 2*len(pairs))
	steps := make([]float64, 0, 2*len(pairs))
	for _, p := range pairs {
		encs = append(encs, p.EncL, p.EncR)
		steps = append(steps, p.StepL, p.StepR)
	}
	sv := m.StatesBatch(encs, steps)
	untracked(t, what+": StatesBatch", sv)
	heads := m.Heads(encs, steps, nil)
	untracked(t, what+": Heads", heads.l)
	untracked(t, what+": Heads", heads.r)
	for i, p := range pairs {
		if got := m.Score(p.EncL, p.EncR, p.StepL, p.StepR); got != want[i] {
			t.Fatalf("%s: Score(pair %d) = %d, tracked logits say %d", what, i, got, want[i])
		}
		if batch[i] != want[i] {
			t.Fatalf("%s: ScoreBatch[%d] = %d, tracked logits say %d", what, i, batch[i], want[i])
		}
		if got := m.ScoreStates(sv, 2*i, 2*i+1); got != want[i] {
			t.Fatalf("%s: ScoreStates(pair %d) = %d, tracked logits say %d", what, i, got, want[i])
		}
		if got := heads.Score(2*i, 2*i+1); got != want[i] {
			t.Fatalf("%s: Heads.Score(pair %d) = %d, tracked logits say %d", what, i, got, want[i])
		}
		sameData(t, what+": view logits", m.frozen.Logits(p.EncL, p.EncR, p.StepL, p.StepR).Data,
			m.Logits(p.EncL, p.EncR, p.StepL, p.StepR).Data)
	}
}

func syntheticSamples() []Sample {
	var samples []Sample
	for gl := 0; gl < 10; gl += 3 {
		for gr := 0; gr < 10; gr += 2 {
			samples = append(samples, Sample{
				EncL: syntheticEncoded(gl), EncR: syntheticEncoded(gr), StepR: 0.5,
				Label: ScoreOf(AdvInit(math.Pow(2, float64(gl)), math.Pow(2, float64(gr)))),
			})
		}
	}
	return samples
}

func pairsOf(samples []Sample) []Pair {
	pairs := make([]Pair, len(samples))
	for i, s := range samples {
		pairs[i] = Pair{EncL: s.EncL, EncR: s.EncR, StepL: s.StepL, StepR: s.StepR}
	}
	return pairs
}

// TestModelScoresThroughCurrentWeights: the scoring methods run on the view
// NewModel built, and that one view keeps agreeing with the tracked model
// after training (Adam steps in place), a load and a parameter copy.
func TestModelScoresThroughCurrentWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	m := NewModel(rng, frozenTestCfg, 4, 4)
	view := m.frozen
	samples := syntheticSamples()
	pairs := pairsOf(samples)
	checkScoring(t, "fresh model", m, pairs)

	before := m.frozen.Logits(pairs[0].EncL, pairs[0].EncR, 0, 0.5).Clone()
	moved := func(what string) {
		t.Helper()
		after := m.frozen.Logits(pairs[0].EncL, pairs[0].EncR, 0, 0.5)
		if after.Data[0] == before.Data[0] {
			t.Fatalf("%s left the view's output unchanged: the check proves nothing", what)
		}
		before = after.Clone()
	}

	tc := DefaultTrainConfig()
	tc.Epochs = 2
	m.Train(samples, tc)
	moved("Train")
	checkScoring(t, "after Train", m, pairs)

	other := NewModel(rng, frozenTestCfg, 4, 4)
	blob, err := nn.SaveParams(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadParams(m, blob); err != nil {
		t.Fatal(err)
	}
	moved("LoadParams")
	checkScoring(t, "after LoadParams", m, pairs)

	nn.CopyParams(m, NewModel(rng, frozenTestCfg, 4, 4))
	moved("CopyParams")
	checkScoring(t, "after CopyParams", m, pairs)

	if m.frozen != view {
		t.Fatal("the view was rebuilt; it must be the one NewModel made")
	}
}

// TestFrozenViewServesWhileOtherReplicaTrains is the retrain shape under
// -race: the live replica scores through its view on several goroutines while
// a fork of it trains its tracked parameters. The two share no tensor, and
// nothing package-level (a grad switch would be written by one side and read
// by the other), so the detector must stay silent and the live replica's
// answers must not move. The trained weights are then copied into the live
// model in place, as a Load does, and the same view must serve them.
func TestFrozenViewServesWhileOtherReplicaTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	live := NewModel(rng, frozenTestCfg, 4, 4)
	fork := NewModel(rng, frozenTestCfg, 4, 4)
	nn.CopyParams(fork, live)
	samples := syntheticSamples()
	pairs := pairsOf(samples)
	want := wantScores(live, pairs)

	var wg sync.WaitGroup
	trained := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(trained)
		tc := DefaultTrainConfig()
		tc.Epochs = 3
		fork.Train(samples, tc)
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := false; !done; {
				select {
				case <-trained:
					done = true // one more pass after training ends
				default:
				}
				got := live.ScoreBatch(pairs)
				for i := range want {
					if got[i] != want[i] || live.Score(pairs[i].EncL, pairs[i].EncR, pairs[i].StepL, pairs[i].StepR) != want[i] {
						t.Errorf("live replica's score for pair %d moved while the fork trained", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	nn.CopyParams(live, fork)
	checkScoring(t, "after copying the trained fork in", live, pairs)
}
