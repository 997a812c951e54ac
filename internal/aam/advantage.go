package aam

import (
	"math"
	"math/rand"

	"github.com/foss-db/foss/internal/nn"
	"github.com/foss-db/foss/internal/planenc"
)

// NumScores is K, the number of advantage classes.
const NumScores = 3

// Partition is the ordered point set {d1, d2} splitting (−∞, 1] into the
// K=3 score intervals, per §IV-B of the paper: score 0 = "not better than 5%
// saving", 1 = "5–50% saving", 2 = ">50% saving".
var Partition = [2]float64{0.05, 0.50}

// AdvInit is the initial advantage function: how much better plan r is than
// plan l, expressed as the fractional time saving 1 − lat(r)/lat(l). Its
// range is exactly the paper's (−∞, 1].
func AdvInit(latL, latR float64) float64 {
	if latL <= 0 {
		latL = 1e-9
	}
	return 1 - latR/latL
}

// ScoreOf discretizes an initial advantage into a class {0,1,2}.
func ScoreOf(advInit float64) int {
	switch {
	case advInit > Partition[1]:
		return 2
	case advInit > Partition[0]:
		return 1
	default:
		return 0
	}
}

// Midpoint is the paper's D̂: a representative advantage magnitude for each
// score class (interval midpoints, D̂(0)=0).
func Midpoint(score int) float64 {
	switch score {
	case 1:
		return (Partition[0] + Partition[1]) / 2
	case 2:
		return (Partition[1] + 1) / 2
	}
	return 0
}

// Model is the asymmetric advantage model θadv: a shared state network plus
// a position-aware pairwise output layer
// FC2(FC1(ϕ(l)⊕pos_left) − FC1(ϕ(r)⊕pos_right)) → K logits.
// The position vectors make the model asymmetric by construction: swapping
// the inputs does not negate the output.
type Model struct {
	State *StateNet
	PosL  *nn.Tensor
	PosR  *nn.Tensor
	FC1   *nn.Linear
	FC2   *nn.Linear

	// frozen is the model's frozen view (see package nn), nil on the view
	// itself. The scoring methods run on it, so only Logits and Train touch
	// tracked parameters.
	frozen *Model
}

// NewModel creates an advantage model over the given state network sizes.
func NewModel(rng *rand.Rand, cfg StateNetConfig, numTables, numCols int) *Model {
	h := cfg.StateDim
	m := &Model{
		State: NewStateNet(rng, cfg, numTables, numCols),
		PosL:  nn.Zeros(1, cfg.StateDim).Param(),
		PosR:  nn.Zeros(1, cfg.StateDim).Param(),
		FC1:   nn.NewLinear(rng, cfg.StateDim, h),
		FC2:   nn.NewLinear(rng, h, NumScores),
	}
	for i := range m.PosL.Data {
		m.PosL.Data[i] = rng.NormFloat64() * 0.05
		m.PosR.Data[i] = rng.NormFloat64() * 0.05
	}
	m.frozen = &Model{State: m.State.Frozen(), PosL: m.PosL.Detach(), PosR: m.PosR.Detach(), FC1: m.FC1.Frozen(), FC2: m.FC2.Frozen()}
	return m
}

// Params implements nn.Module.
func (m *Model) Params() []*nn.Tensor {
	ps := m.State.Params()
	ps = append(ps, m.PosL, m.PosR)
	ps = append(ps, m.FC1.Params()...)
	ps = append(ps, m.FC2.Params()...)
	return ps
}

// Logits computes the K advantage logits for the pair (l, r) at the given
// step statuses.
func (m *Model) Logits(encL, encR *planenc.Encoded, stepL, stepR float64) *nn.Tensor {
	svL := m.State.Forward(encL, stepL, nil)
	svR := m.State.Forward(encR, stepR, nil)
	hl := nn.ReLU(m.FC1.Forward(nn.Add(svL, m.PosL)))
	hr := nn.ReLU(m.FC1.Forward(nn.Add(svR, m.PosR)))
	return m.FC2.Forward(nn.Sub(hl, hr))
}

func argmax(xs []float64) int {
	best, bi := math.Inf(-1), 0
	for i, v := range xs {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Sample is one supervised training pair for the AAM.
type Sample struct {
	EncL, EncR   *planenc.Encoded
	StepL, StepR float64
	Label        int    // true advantage class ScoreOf(AdvInit(latL, latR))
	Query        string // the query both plans belong to; Train groups by it
}

// LossConfig parameterizes the asymmetric loss of §IV-C.
type LossConfig struct {
	GammaPos float64 // decay for the true-label term (γ+)
	GammaNeg float64 // decay for the other terms (γ−), γ+ < γ−
	Epsilon  float64 // label smoothing ε
}

// DefaultLossConfig mirrors the paper's choices (K=3, ε=0.1) with the
// standard asymmetric-loss decay pair.
func DefaultLossConfig() LossConfig {
	return LossConfig{GammaPos: 1, GammaNeg: 4, Epsilon: 0.1}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// TrainConfig parameterizes supervised AAM training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Loss      LossConfig
	Seed      int64
}

// DefaultTrainConfig returns settings that converge quickly at repo scale.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 3, BatchSize: 16, LR: 1e-3, Loss: DefaultLossConfig(), Seed: 1}
}

// Train fits the model to the samples and returns the mean loss per epoch.
// Each epoch shuffles the order of the queries, lays each query's pairs out
// in sample order, and cuts that sequence into BatchSize minibatches, so a
// minibatch mostly compares plans of one query and shares their states.
func (m *Model) Train(samples []Sample, cfg TrainConfig) []float64 {
	if len(samples) == 0 {
		return nil
	}
	opt := nn.NewAdam(m.Params(), cfg.LR)
	opt.ClipNorm = 5
	rng := rand.New(rand.NewSource(cfg.Seed))
	var groups [][]Sample
	group := map[string]int{}
	for _, s := range samples {
		g, ok := group[s.Query]
		if !ok {
			g = len(groups)
			group[s.Query] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], s)
	}
	var epochLosses []float64
	order := make([]Sample, 0, len(samples))
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
		order = order[:0]
		for _, g := range groups {
			order = append(order, g...)
		}
		total := 0.0
		for start := 0; start < len(order); start += cfg.BatchSize {
			batch := order[start:min(start+cfg.BatchSize, len(order))]
			opt.ZeroGrad()
			loss := m.batchLoss(batch, cfg.Loss)
			loss.Backward()
			opt.Step()
			total += loss.Item() * float64(len(batch))
		}
		epochLosses = append(epochLosses, total/float64(len(samples)))
	}
	return epochLosses
}

// batchLoss is the asymmetric focal loss with label smoothing of §IV-C,
// averaged over a minibatch, as one graph: a single tracked ForwardBatch over
// the minibatch's distinct plan states, the pairwise head over the gathered
// left and right rows, and the per-class loss terms over [B, NumScores]. The
// focal decay factors (1−p̂)^γ are constants (detached), the standard
// focal-loss implementation choice.
func (m *Model) batchLoss(batch []Sample, cfg LossConfig) *nn.Tensor {
	encs, steps, left, right := distinctStates(batch)
	sv := m.State.ForwardBatch(encs, steps, nil)
	gather := func(idx []int) *nn.Tensor {
		rows := make([]*nn.Tensor, len(idx))
		for i, r := range idx {
			rows[i] = nn.Row(sv, r)
		}
		return nn.VStack(rows...)
	}
	hl := nn.ReLU(m.FC1.Forward(nn.AddRowVector(gather(left), m.PosL)))
	hr := nn.ReLU(m.FC1.Forward(nn.AddRowVector(gather(right), m.PosR)))
	logp := nn.LogSoftmax(m.FC2.Forward(nn.Sub(hl, hr))) // [B, NumScores]
	w := make([]float64, len(logp.Data))
	for i, s := range batch {
		for j := 0; j < NumScores; j++ {
			p := math.Exp(logp.Data[i*NumScores+j])
			smoothed, phat, gamma := cfg.Epsilon/float64(NumScores-1), 1-p, cfg.GammaNeg
			if j == s.Label {
				smoothed, phat, gamma = 1-cfg.Epsilon, p, cfg.GammaPos
			}
			w[i*NumScores+j] = smoothed * math.Pow(1-clamp01(phat), gamma)
		}
	}
	weights := nn.NewTensor(w, len(batch), NumScores)
	return nn.Scale(nn.Sum(nn.Mul(logp, weights)), -1/float64(len(batch)))
}

// distinctStates lists the distinct (encoding, step) plan states of a set of
// samples, in first-use order, and for each sample the rows of its left and
// right plan in that list.
func distinctStates(batch []Sample) (encs []*planenc.Encoded, steps []float64, left, right []int) {
	type state struct {
		enc  *planenc.Encoded
		step float64
	}
	row := map[state]int{}
	at := func(enc *planenc.Encoded, step float64) int {
		k := state{enc, step}
		r, ok := row[k]
		if !ok {
			r = len(encs)
			row[k] = r
			encs = append(encs, enc)
			steps = append(steps, step)
		}
		return r
	}
	left = make([]int, len(batch))
	right = make([]int, len(batch))
	for i, s := range batch {
		left[i] = at(s.EncL, s.StepL)
		right[i] = at(s.EncR, s.StepR)
	}
	return encs, steps, left, right
}

// Accuracy returns the fraction of samples whose predicted class matches:
// one Heads pass over the samples' distinct plan states, then one
// comparison per sample.
func (m *Model) Accuracy(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	encs, steps, left, right := distinctStates(samples)
	heads := m.Heads(encs, steps, nil)
	ok := 0
	for i, s := range samples {
		if heads.Score(left[i], right[i]) == s.Label {
			ok++
		}
	}
	return float64(ok) / float64(len(samples))
}
