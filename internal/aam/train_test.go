package aam

import (
	"math"
	"math/rand"
	"testing"

	"github.com/foss-db/foss/internal/nn"
)

// refPairLoss is the per-pair reference chain the minibatch loss is held to:
// two single-row forwards, the pairwise head, and the asymmetric focal loss
// with label smoothing with detached focal factors, as one scalar node.
func refPairLoss(m *Model, s Sample, cfg LossConfig) *nn.Tensor {
	logp := nn.LogSoftmax(m.Logits(s.EncL, s.EncR, s.StepL, s.StepR))
	w := make([]float64, NumScores)
	for j := range w {
		p := math.Exp(logp.Data[j])
		smoothed, phat, gamma := cfg.Epsilon/float64(NumScores-1), 1-p, cfg.GammaNeg
		if j == s.Label {
			smoothed, phat, gamma = 1-cfg.Epsilon, p, cfg.GammaPos
		}
		w[j] = smoothed * math.Pow(1-clamp01(phat), gamma)
	}
	return nn.Neg(nn.Sum(nn.Mul(logp, nn.NewTensor(w, 1, NumScores))))
}

// queryPairs lists every ordered pair of p plans of one query, each plan at
// its own step status, labelled deterministically.
func queryPairs(rng *rand.Rand, query string, p int) []Sample {
	encs, steps := randomPlans(rng, p)
	var out []Sample
	for i := range encs {
		for j := range encs {
			if i != j {
				out = append(out, Sample{
					EncL: encs[i], EncR: encs[j], StepL: steps[i], StepR: steps[j],
					Label: (i + 2*j) % NumScores, Query: query,
				})
			}
		}
	}
	return out
}

// grads copies every parameter gradient out of m and clears it.
func grads(m *Model) [][]float64 {
	var out [][]float64
	for _, p := range m.Params() {
		out = append(out, append([]float64(nil), p.Grad...))
		clear(p.Grad)
	}
	return out
}

// TestBatchLossMatchesPerPairReference: on a minibatch whose pairs share plan
// states (two queries, all ordered pairs), the one-graph loss equals the mean
// of the per-pair reference losses and yields the same parameter gradients.
func TestBatchLossMatchesPerPairReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := NewModel(rng, frozenTestCfg, 4, 4)
	batch := append(queryPairs(rng, "a", 4), queryPairs(rng, "b", 3)...)
	cfg := DefaultLossConfig()

	var ref *nn.Tensor
	for _, s := range batch {
		l := refPairLoss(m, s, cfg)
		if ref == nil {
			ref = l
		} else {
			ref = nn.Add(ref, l)
		}
	}
	ref = nn.Scale(ref, 1/float64(len(batch)))
	ref.Backward()
	want := grads(m)

	got := m.batchLoss(batch, cfg)
	got.Backward()
	have := grads(m)

	if d := math.Abs(got.Item()-ref.Item()) / math.Abs(ref.Item()); d > 1e-12 {
		t.Fatalf("loss %v, per-pair reference %v (relative difference %g)", got.Item(), ref.Item(), d)
	}
	// Every gradient is held to 1e-9 of the largest reference gradient. An
	// element-wise relative test would compare round-off: the attention key
	// bias's gradient is analytically zero (softmax ignores a shift per row)
	// and reads ~1e-20 on both sides.
	scale := 0.0
	for _, g := range want {
		for _, v := range g {
			scale = math.Max(scale, math.Abs(v))
		}
	}
	if scale == 0 {
		t.Fatal("reference gradients are all zero: the comparison proves nothing")
	}
	for i := range want {
		for j := range want[i] {
			if d := math.Abs(have[i][j]-want[i][j]) / scale; d > 1e-9 {
				t.Fatalf("param %d grad %d: %v, reference %v (difference %g of the largest)", i, j, have[i][j], want[i][j], d)
			}
		}
	}
}

// TestBatchLossForwardsEachStateOnce: a minibatch forwards one state row per
// distinct (encoding, step), so one query with p plans costs p rows for its
// p(p−1) pairs, not 2p(p−1).
func TestBatchLossForwardsEachStateOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const p = 5
	batch := queryPairs(rng, "q", p)
	encs, steps, left, right := distinctStates(batch)
	if len(encs) != p || len(steps) != p {
		t.Fatalf("%d pairs of %d plans forward %d rows, want %d", len(batch), p, len(encs), p)
	}
	for i, s := range batch {
		if encs[left[i]] != s.EncL || steps[left[i]] != s.StepL ||
			encs[right[i]] != s.EncR || steps[right[i]] != s.StepR {
			t.Fatalf("pair %d gathers the wrong rows", i)
		}
	}

	// The same encoding at another step is another state.
	again := batch[0]
	again.StepL += 0.5
	if encs, _, _, _ := distinctStates(append(batch, again)); len(encs) != p+1 {
		t.Fatalf("a new step status forwards %d rows, want %d", len(encs), p+1)
	}
}

// BenchmarkAAMTrainEpoch times one training epoch over a fixed synthetic
// buffer: 8 queries × 6 plans, every ordered pair of a query's plans.
func BenchmarkAAMTrainEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	var samples []Sample
	for q := 0; q < 8; q++ {
		samples = append(samples, queryPairs(rng, string(rune('a'+q)), 6)...)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	m := NewModel(rng, DefaultStateNetConfig(), 4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Train(samples, cfg)
	}
	b.ReportMetric(float64(len(samples)*b.N)/b.Elapsed().Seconds(), "pairs/s")
}
