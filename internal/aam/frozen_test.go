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
func wantScores(m *Model, samples []Sample) []int {
	out := make([]int, len(samples))
	for i, s := range samples {
		out[i] = argmax(m.Logits(s.EncL, s.EncR, s.StepL, s.StepR).Data)
	}
	return out
}

// pool lists the samples' plans, each sample's left plan at row 2i and its
// right plan at 2i+1.
func pool(samples []Sample) ([]*planenc.Encoded, []float64) {
	encs := make([]*planenc.Encoded, 0, 2*len(samples))
	steps := make([]float64, 0, 2*len(samples))
	for _, s := range samples {
		encs = append(encs, s.EncL, s.EncR)
		steps = append(steps, s.StepL, s.StepR)
	}
	return encs, steps
}

func checkScoring(t *testing.T, what string, m *Model, samples []Sample) {
	t.Helper()
	want := wantScores(m, samples)
	encs, steps := pool(samples)
	sv := m.StatesBatch(encs, steps)
	untracked(t, what+": StatesBatch", sv)
	heads := m.Heads(encs, steps, nil)
	untracked(t, what+": Heads", heads.l)
	untracked(t, what+": Heads", heads.r)
	ok := 0
	for i, s := range samples {
		if got := m.ScoreStates(sv, 2*i, 2*i+1); got != want[i] {
			t.Fatalf("%s: ScoreStates(pair %d) = %d, tracked logits say %d", what, i, got, want[i])
		}
		if got := heads.Score(2*i, 2*i+1); got != want[i] {
			t.Fatalf("%s: Heads.Score(pair %d) = %d, tracked logits say %d", what, i, got, want[i])
		}
		if want[i] == s.Label {
			ok++
		}
		sameData(t, what+": view logits", m.frozen.Logits(s.EncL, s.EncR, s.StepL, s.StepR).Data,
			m.Logits(s.EncL, s.EncR, s.StepL, s.StepR).Data)
	}
	if acc, wantAcc := m.Accuracy(samples), float64(ok)/float64(len(samples)); acc != wantAcc {
		t.Fatalf("%s: Accuracy %v, tracked logits say %v", what, acc, wantAcc)
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

// TestModelScoresThroughCurrentWeights: the scoring methods run on the view
// NewModel built, and that one view keeps agreeing with the tracked model
// after training (Adam steps in place), a load and a parameter copy.
func TestModelScoresThroughCurrentWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	m := NewModel(rng, frozenTestCfg, 4, 4)
	view := m.frozen
	samples := syntheticSamples()
	checkScoring(t, "fresh model", m, samples)

	before := m.frozen.Logits(samples[0].EncL, samples[0].EncR, 0, 0.5).Clone()
	moved := func(what string) {
		t.Helper()
		after := m.frozen.Logits(samples[0].EncL, samples[0].EncR, 0, 0.5)
		if after.Data[0] == before.Data[0] {
			t.Fatalf("%s left the view's output unchanged: the check proves nothing", what)
		}
		before = after.Clone()
	}

	tc := DefaultTrainConfig()
	tc.Epochs = 2
	m.Train(samples, tc)
	moved("Train")
	checkScoring(t, "after Train", m, samples)

	other := NewModel(rng, frozenTestCfg, 4, 4)
	blob, err := nn.SaveParams(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadParams(m, blob); err != nil {
		t.Fatal(err)
	}
	moved("LoadParams")
	checkScoring(t, "after LoadParams", m, samples)

	nn.CopyParams(m, NewModel(rng, frozenTestCfg, 4, 4))
	moved("CopyParams")
	checkScoring(t, "after CopyParams", m, samples)

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
	want := wantScores(live, samples)
	encs, steps := pool(samples)

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
				heads := live.Heads(encs, steps, nil)
				for i := range want {
					if heads.Score(2*i, 2*i+1) != want[i] {
						t.Errorf("live replica's score for pair %d moved while the fork trained", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	nn.CopyParams(live, fork)
	checkScoring(t, "after copying the trained fork in", live, samples)
}

// sameBits fails unless got and want hold the same float64 bit patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// sharedNodePlans is randomPlans plus plans that share nodes with them: each
// of the first plans again with one node's row bucket moved, and two plans
// repeated whole, so a forward meets tuples it has seen in other plans.
func sharedNodePlans(rng *rand.Rand) ([]*planenc.Encoded, []float64) {
	encs, steps := randomPlans(rng, 6)
	for i := range 4 {
		enc := *encs[i]
		enc.RowBkt = append([]int(nil), enc.RowBkt...)
		enc.RowBkt[rng.Intn(enc.N)] = rng.Intn(planenc.RowBuckets)
		encs, steps = append(encs, &enc), append(steps, float64(i)/5)
	}
	return append(encs, encs[1], encs[4]), append(steps, steps[1], 0.5)
}

// TestScratchComputesEachTupleOnce: frozen forwards through one Scratch run
// the input stage once per feature tuple new to it, however the plans are
// split into calls, and each row equals the tracked network's Forward, which
// shares nothing, bit for bit. A nil scratch merges within its call only, a
// tracked network computes no memo rows, and a scratch refuses a second
// network.
func TestScratchComputesEachTupleOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	s := NewStateNet(rng, frozenTestCfg, 4, 4)
	view := s.Frozen()
	encs, steps := sharedNodePlans(rng)
	sc := NewScratch()
	defer sc.Release()
	seen := map[tuple]bool{}
	rows := 0
	for start := 0; start < len(encs); {
		end := min(len(encs), start+1+rng.Intn(4))
		fresh := 0
		for _, enc := range encs[start:end] {
			for r := range enc.N {
				key := tuple{enc.Ops[r], enc.Tables[r], enc.Columns[r], enc.RowBkt[r], enc.Heights[r], enc.Structs[r]}
				if !seen[key] {
					seen[key] = true
					fresh++
				}
			}
			rows += enc.N
		}
		before := view.InputRows()
		got := view.ForwardBatch(encs[start:end], steps[start:end], sc)
		if n := view.InputRows() - before; n != int64(fresh) {
			t.Fatalf("plans [%d, %d): %d input-stage rows computed, %d tuples new to the scratch", start, end, n, fresh)
		}
		untracked(t, "memoised ForwardBatch", got)
		w := got.Shape[1]
		for i := start; i < end; i++ {
			sameBits(t, "memoised row", got.Data[(i-start)*w:(i-start+1)*w], s.Forward(encs[i], steps[i], nil).Data)
		}
		start = end
	}
	if len(seen) >= rows {
		t.Fatalf("%d distinct tuples over %d rows: nothing repeats, the check proves nothing", len(seen), rows)
	}

	before := view.InputRows()
	whole := view.ForwardBatch(encs, steps, nil)
	if n := view.InputRows() - before; n != int64(len(seen)) {
		t.Fatalf("a nil-scratch batch computed %d input-stage rows for %d distinct tuples", n, len(seen))
	}
	s.ForwardBatch(encs, steps, sc)
	if n := view.InputRows() - before; n != int64(len(seen)) || s.InputRows() != 0 {
		t.Fatalf("a tracked batch moved the count: %d rows, tracked network %d", n, s.InputRows())
	}
	w := whole.Shape[1]
	for i, enc := range encs {
		sameBits(t, "nil-scratch row", whole.Data[i*w:(i+1)*w], view.Forward(enc, steps[i], nil).Data)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a scratch forwarded a second network")
		}
	}()
	NewStateNet(rng, frozenTestCfg, 4, 4).Frozen().Forward(encs[0], 0, sc)
}
