// Package rl implements Proximal Policy Optimization (clipped surrogate,
// generalized advantage estimation, entropy bonus, approximate-KL early
// stopping) over arbitrary state-representation producers. The paper uses
// PPO "due to its effectiveness in mitigating differences in the action
// distribution before and after agent updates through KL divergence", which
// matters because the AAM-backed simulated environment assumes the agent's
// behaviour drifts slowly between AAM refreshes.
package rl

import (
	"math"
	"math/rand"

	"github.com/foss-db/foss/internal/nn"
)

// Transition is one step of experience. It keeps no state vector: Value and
// LogProb are plain numbers the frozen view computed at collection time, and
// the Recompute closure rebuilds the state vector with a graph at update time
// so gradients flow through the state network.
type Transition struct {
	Recompute func() *nn.Tensor // rebuilds statevec [1, D] with graph
	Mask      []bool            // legal actions at this state
	Action    int               // chosen action (0-based)
	LogProb   float64           // log π(a|s) at collection time
	Reward    float64
	Value     float64 // V(s) at collection time
	Done      bool    // episode boundary after this transition
}

// Policy is the actor-critic head over state vectors.
type Policy struct {
	Actor  *nn.MLP // StateDim -> hidden -> numActions
	Critic *nn.MLP // StateDim -> hidden -> 1
}

// NewPolicy builds the actor-critic heads.
func NewPolicy(rng *rand.Rand, stateDim, hidden, numActions int) *Policy {
	return &Policy{
		Actor:  nn.NewMLP(rng, stateDim, hidden, numActions),
		Critic: nn.NewMLP(rng, stateDim, hidden, 1),
	}
}

// Params implements nn.Module.
func (p *Policy) Params() []*nn.Tensor {
	return append(p.Actor.Params(), p.Critic.Params()...)
}

// Frozen returns the heads' frozen view (see package nn): collection-time
// forwards (Sample, Greedy, the Value a Transition records) belong on it;
// Update trains the policy itself.
func (p *Policy) Frozen() *Policy {
	return &Policy{Actor: p.Actor.Frozen(), Critic: p.Critic.Frozen()}
}

// Logits returns masked action logits for a state vector.
func (p *Policy) Logits(statevec *nn.Tensor, mask []bool) *nn.Tensor {
	logits := p.Actor.Forward(statevec)
	if mask != nil {
		logits = nn.MaskedFill(logits, mask, -1e9)
	}
	return logits
}

// Value returns V(s).
func (p *Policy) Value(statevec *nn.Tensor) *nn.Tensor {
	return p.Critic.Forward(statevec)
}

// Sample draws an action from the masked policy distribution; returns the
// action and its log-probability. Exploration is the caller's rng.
func (p *Policy) Sample(rng *rand.Rand, statevec *nn.Tensor, mask []bool) (int, float64) {
	probs := softmax(p.Logits(statevec, mask).Data)
	u := rng.Float64()
	acc := 0.0
	for i, pr := range probs {
		acc += pr
		if u <= acc {
			return i, math.Log(math.Max(pr, 1e-12))
		}
	}
	// numeric fallthrough: pick the last legal action
	for i := len(probs) - 1; i >= 0; i-- {
		if mask == nil || mask[i] {
			return i, math.Log(math.Max(probs[i], 1e-12))
		}
	}
	return 0, math.Log(1e-12)
}

// Greedy returns the argmax legal action.
func (p *Policy) Greedy(statevec *nn.Tensor, mask []bool) int {
	best, bi := math.Inf(-1), 0
	for i, v := range p.Logits(statevec, mask).Data {
		if (mask == nil || mask[i]) && v > best {
			best, bi = v, i
		}
	}
	return bi
}

func softmax(xs []float64) []float64 {
	out := make([]float64, len(xs))
	maxv := math.Inf(-1)
	for _, v := range xs {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for i, v := range xs {
		out[i] = math.Exp(v - maxv)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Config holds PPO hyperparameters.
type Config struct {
	Gamma       float64 // discount
	Lambda      float64 // GAE
	ClipEps     float64
	EntropyCoef float64
	ValueCoef   float64
	Epochs      int
	BatchSize   int
	LR          float64
	TargetKL    float64 // early-stop threshold on approximate KL
	Seed        int64
}

// DefaultConfig returns standard PPO settings tuned for the short episodes
// (maxsteps ≤ 5) of the planner MDP.
func DefaultConfig() Config {
	return Config{
		Gamma: 0.99, Lambda: 0.95, ClipEps: 0.2,
		EntropyCoef: 0.01, ValueCoef: 0.5,
		Epochs: 4, BatchSize: 32, LR: 3e-4, TargetKL: 0.03, Seed: 1,
	}
}

// Stats summarizes one Update call.
type Stats struct {
	PolicyLoss float64
	ApproxKL   float64
	Epochs     int // epochs actually run before KL early stop
}

// Update runs clipped-PPO epochs over the transitions, updating both the
// policy heads and (through the Recompute closures) the state network.
// opt must manage the union of all trainable parameters.
func Update(opt *nn.Adam, policy *Policy, trans []Transition, cfg Config) Stats {
	if len(trans) == 0 {
		return Stats{}
	}
	adv, ret := gae(trans, cfg.Gamma, cfg.Lambda)
	normalize(adv)

	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, len(trans))
	for i := range idx {
		idx[i] = i
	}
	var stats Stats
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		klSum, klCount := 0.0, 0
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			opt.ZeroGrad()
			var loss *nn.Tensor
			for _, i := range idx[start:end] {
				t := trans[i]
				sv := t.Recompute()
				logits := policy.Logits(sv, t.Mask)
				logp := nn.LogSoftmax(logits)
				lpA := nn.Row(logp, 0)
				sel := nn.Cols(lpA, t.Action, 1) // log π_new(a|s)

				// ratio = exp(logp_new - logp_old)
				ratio := nn.Exp(nn.AddScalar(sel, -t.LogProb))
				surr1 := nn.Scale(ratio, adv[i])
				clipped := clampTensor(ratio, 1-cfg.ClipEps, 1+cfg.ClipEps)
				surr2 := nn.Scale(clipped, adv[i])
				pl := nn.Neg(minTensor(surr1, surr2))

				v := policy.Value(sv)
				dv := nn.AddScalar(v, -ret[i])
				vl := nn.Scale(nn.Mul(dv, dv), cfg.ValueCoef)

				// entropy of masked distribution
				probs := nn.Softmax(logits)
				ent := nn.Neg(nn.Sum(nn.Mul(probs, maskedLogP(logp, t.Mask))))
				el := nn.Scale(ent, -cfg.EntropyCoef)

				term := nn.Add(nn.Add(pl, vl), el)
				if loss == nil {
					loss = term
				} else {
					loss = nn.Add(loss, term)
				}

				klSum += t.LogProb - sel.Data[0]
				klCount++
			}
			loss = nn.Scale(loss, 1/float64(end-start))
			loss.Backward()
			opt.Step()
			stats.PolicyLoss = loss.Item()
		}
		stats.Epochs = ep + 1
		if klCount > 0 {
			stats.ApproxKL = klSum / float64(klCount)
			if cfg.TargetKL > 0 && stats.ApproxKL > cfg.TargetKL {
				break
			}
		}
	}
	return stats
}

// maskedLogP replaces -1e9-driven logp at illegal positions with 0
// contribution by zeroing them (probs there are ~0 anyway, but 0·(-1e9)
// would produce NaN-scale noise).
func maskedLogP(logp *nn.Tensor, mask []bool) *nn.Tensor {
	if mask == nil {
		return logp
	}
	return nn.MaskedFill(logp, mask, 0)
}

func clampTensor(x *nn.Tensor, lo, hi float64) *nn.Tensor {
	// clip(x) = lo + relu(x-lo) - relu(x-hi)
	a := nn.ReLU(nn.AddScalar(x, -lo))
	b := nn.ReLU(nn.AddScalar(x, -hi))
	return nn.AddScalar(nn.Sub(a, b), lo)
}

func minTensor(a, b *nn.Tensor) *nn.Tensor {
	// min(a,b) = a - relu(a-b)
	return nn.Sub(a, nn.ReLU(nn.Sub(a, b)))
}

// gae computes generalized advantage estimates and returns (advantages,
// value targets).
func gae(trans []Transition, gamma, lambda float64) (adv, ret []float64) {
	n := len(trans)
	adv = make([]float64, n)
	ret = make([]float64, n)
	running := 0.0
	for i := n - 1; i >= 0; i-- {
		nextV := 0.0
		if !trans[i].Done && i+1 < n {
			nextV = trans[i+1].Value
		}
		delta := trans[i].Reward + gamma*nextV - trans[i].Value
		if trans[i].Done {
			running = 0
		}
		running = delta + gamma*lambda*running
		adv[i] = running
		ret[i] = adv[i] + trans[i].Value
	}
	return adv, ret
}

func normalize(xs []float64) {
	if len(xs) < 2 {
		return
	}
	m, s := 0.0, 0.0
	for _, v := range xs {
		m += v
	}
	m /= float64(len(xs))
	for _, v := range xs {
		s += (v - m) * (v - m)
	}
	s = math.Sqrt(s/float64(len(xs))) + 1e-8
	for i := range xs {
		xs[i] = (xs[i] - m) / s
	}
}
