// Package planner implements the paper's planner: the MDP whose states are
// complete plans (plus step status), whose actions are Swap/Override edits
// on the incomplete plan, and whose episodes iteratively doctor the
// traditional optimizer's original plan (Algorithm 1).
//
// Algorithm 1 runs in two halves. The walk (RunEpisodeWithRng, or Rollout
// with a per-serve Memo) generates plans and is all that serving and Explain
// execute. The scoring
// pass (Score) turns a walked episode into PPO transitions and the estimated
// optimal plan CP̄, and only training runs it. Every forward that is not
// differentiated goes through a frozen view (see package nn): tracked
// parameters are touched only by the Recompute closures inside rl.Update and
// by the advantage model's own training.
package planner

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/engine/exec"
	"github.com/foss-db/foss/internal/nn"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planenc"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/rl"
)

// Steering is the slice of an optimizer backend the planner drives: expert
// plan enumeration (the episode's step-0 state) and hint-steered replanning
// (the state transition every Swap/Override edit goes through). Both
// *optimizer.Optimizer and backend.Backend satisfy it, keeping the planner
// backend-generic.
type Steering interface {
	Plan(q *query.Query) (*plan.CP, error)
	HintedPlan(q *query.Query, icp plan.ICP) (*plan.CP, error)
}

// PlanEval is one candidate plan in an episode's temporal sequence.
type PlanEval struct {
	Q        *query.Query
	ICP      plan.ICP
	CP       *plan.CP
	Enc      *planenc.Encoded
	Step     int     // 0 = original plan
	Latency  float64 // simulated ms; NaN until executed
	TimedOut bool
}

// HasLatency reports whether the plan has been executed.
func (p *PlanEval) HasLatency() bool { return !math.IsNaN(p.Latency) }

// StepStatus returns Step/maxsteps for the state encoding.
func (p *PlanEval) StepStatus(maxSteps int) float64 {
	return float64(p.Step) / float64(maxSteps)
}

// Environment provides reward signals: the real environment executes plans;
// the simulated environment queries the AAM.
type Environment interface {
	// Prepare readies a candidate for comparison. timeoutMs is the dynamic
	// timeout (1.5× the original plan's latency); the real environment
	// executes under it, the simulated environment ignores it.
	Prepare(pe *PlanEval, timeoutMs float64)
	// Advantage returns the function that gives the advantage class in
	// {0..K-1} of r over l, for l and r among plans (the scoring pass lists
	// every plan it will compare, so a model can forward each one once).
	Advantage(plans []*PlanEval, maxSteps int) func(l, r *PlanEval) int
}

// Executor is the slice of an optimizer backend that runs plans: execution
// under a dynamic timeout with observed latency. Both *exec.Executor and
// backend.Backend satisfy it.
type Executor interface {
	Execute(cp *plan.CP, timeoutMs float64) exec.Result
}

// RealEnv executes candidates in the backend's executor.
type RealEnv struct {
	Exec Executor
	// OnExecuted, if set, is called after every execution (the learner uses
	// it to fill the execution buffer).
	OnExecuted func(pe *PlanEval)
}

// Prepare executes the plan under the dynamic timeout if not yet executed.
func (e *RealEnv) Prepare(pe *PlanEval, timeoutMs float64) {
	if pe.HasLatency() {
		return
	}
	res := e.Exec.Execute(pe.CP, timeoutMs)
	pe.Latency = res.LatencyMs
	pe.TimedOut = res.TimedOut
	if e.OnExecuted != nil {
		e.OnExecuted(pe)
	}
}

// Advantage computes the true advantage class from executed latencies.
func (e *RealEnv) Advantage(plans []*PlanEval, maxSteps int) func(l, r *PlanEval) int {
	return func(l, r *PlanEval) int { return aam.ScoreOf(aam.AdvInit(l.Latency, r.Latency)) }
}

// SimEnv scores candidates with the asymmetric advantage model; no execution
// happens (the traditional optimizer has already acted as the state
// transitioner when the candidate was hinted into a complete plan).
type SimEnv struct {
	Model    *aam.Model
	MaxSteps int
}

// Prepare is a no-op in the simulated environment.
func (e *SimEnv) Prepare(pe *PlanEval, timeoutMs float64) {}

// Advantage queries the AAM: one batched pass over the distinct plans for
// their state vectors and selection heads, then only the last pairwise layer
// per comparison (aam.Heads, identical to Score).
func (e *SimEnv) Advantage(plans []*PlanEval, maxSteps int) func(l, r *PlanEval) int {
	var distinct []*PlanEval
	for _, pe := range plans {
		if !slices.Contains(distinct, pe) {
			distinct = append(distinct, pe)
		}
	}
	heads := planHeads(e.Model, distinct, maxSteps)
	return func(l, r *PlanEval) int {
		return heads.Score(slices.Index(distinct, l), slices.Index(distinct, r))
	}
}

// Config parameterizes the planner.
type Config struct {
	MaxSteps      int     // episode length (paper default 3); core.New sets it from core.Config.MaxSteps
	Eta           float64 // episode-bounty weight η (paper: 12)
	PenaltyGamma  float64 // penalty coefficient γ (paper: 2; 0 disables)
	TimeoutFactor float64 // dynamic timeout multiplier (paper: 1.5)
	Mask          plan.MaskConfig
	Hidden        int // policy/critic hidden width
	PPO           rl.Config
}

// DefaultConfig mirrors the paper's hyperparameters.
func DefaultConfig() Config {
	return Config{
		MaxSteps:      3,
		Eta:           12,
		PenaltyGamma:  2,
		TimeoutFactor: 1.5,
		Mask:          plan.MaskConfig{RestrictAfterSwap: true},
		Hidden:        128,
		PPO:           rl.DefaultConfig(),
	}
}

// Agent bundles the state network ϕ, the action selector π, their optimizer,
// and the frozen views (phi, policy) the walk and the scoring pass forward on.
type Agent struct {
	Phi    *aam.StateNet
	Policy *rl.Policy
	Opt    *nn.Adam
	Rng    *rand.Rand

	phi    *aam.StateNet
	policy *rl.Policy

	phiForwards atomic.Int64 // walk forwards of phi, read by PhiForwards
}

// NewAgent creates an agent for the given action-space size.
func NewAgent(rng *rand.Rand, netCfg aam.StateNetConfig, numTables, numCols, numActions, hidden int, lr float64) *Agent {
	phi := aam.NewStateNet(rng, netCfg, numTables, numCols)
	pol := rl.NewPolicy(rng, netCfg.StateDim, hidden, numActions)
	params := append(phi.Params(), pol.Params()...)
	opt := nn.NewAdam(params, lr)
	opt.ClipNorm = 5
	return &Agent{Phi: phi, Policy: pol, Opt: opt, Rng: rng, phi: phi.Frozen(), policy: pol.Frozen()}
}

// PhiForwards reports how many Φ forwards the agent's walks have run, so a
// test can check that a memo forwards each distinct state once.
func (a *Agent) PhiForwards() int64 { return a.phiForwards.Load() }

// Params implements nn.Module over the agent's trainable tensors (state
// network + policy heads), enabling save/load of trained agents.
func (a *Agent) Params() []*nn.Tensor {
	return append(a.Phi.Params(), a.Policy.Params()...)
}

// Planner drives episodes for one workload's schema.
type Planner struct {
	Cfg   Config
	Space plan.Space
	Enc   *planenc.Encoder
	Opt   Steering
	Agent *Agent
}

// Ref is one reference plan for the episode bounty: its evaluated plan and
// its reference bounty refb = AdvInit(lat(original), lat(ref)).
type Ref struct {
	Eval *PlanEval
	RefB float64
}

// EpisodeResult is everything one episode produced: the walk fills
// Candidates and OrigLatency, Score fills Transitions and Final.
type EpisodeResult struct {
	Transitions []rl.Transition
	Candidates  []*PlanEval // temporal sequence, original first
	Final       *PlanEval   // estimated-optimal plan CP̄ (the output)
	OrigLatency float64     // NaN when unknown (pure simulated episodes)

	keys  []string // keys[i] is Candidates[i].ICP.Key()
	env   Environment
	refs  []Ref
	steps []step
}

// step is what the walk records of one edit for the scoring pass.
type step struct {
	cur, next *PlanEval
	sv        *nn.Tensor // Φ(cur) from the frozen view
	mask      []bool
	action    int     // 0-based
	logp      float64 // 0 on a greedy walk
	isNew     bool    // next's ICP had not been visited in this episode
}

// NewEval hints the ICP into a complete plan and encodes it.
func (p *Planner) NewEval(q *query.Query, icp plan.ICP, step int) (*PlanEval, error) {
	cp, enc, err := (*Memo)(nil).hint(p, q, icp, "")
	if err != nil {
		return nil, err
	}
	return &PlanEval{Q: q, ICP: icp, CP: cp, Enc: enc, Step: step, Latency: math.NaN()}, nil
}

// OriginalEval plans the query with the traditional optimizer and wraps it
// as step-0 candidate.
func (p *Planner) OriginalEval(q *query.Query) (*PlanEval, error) {
	cp, err := p.Opt.Plan(q)
	if err != nil {
		return nil, err
	}
	icp, err := plan.Extract(cp)
	if err != nil {
		return nil, err
	}
	return &PlanEval{Q: q, ICP: icp, CP: cp, Enc: p.Enc.Encode(cp), Step: 0, Latency: math.NaN()}, nil
}

// RunEpisodeWithRng is the walk: from orig, up to MaxSteps times, mask → Φ →
// policy sample (rng) or greedy → edit → hinted replan → env.Prepare, keeping
// each ICP visited for the first time in Candidates. Training passes the
// environment and the bounty references (empty: orig alone) that Score will
// read. The walk only reads weights, so walks may run concurrently on one
// agent, each with its own rng, while no optimizer step runs.
func (p *Planner) RunEpisodeWithRng(q *query.Query, orig *PlanEval, env Environment, refs []Ref, sample bool, rng *rand.Rand) (*EpisodeResult, error) {
	return p.walk(q, orig, env, refs, sample, rng, nil)
}

// Rollout is the serving walk: RunEpisodeWithRng with no environment and no
// references, taking its Φ forwards, hinted plans and masks from memo, which
// the query's other rollouts share, and adding its candidates to memo's
// pool. The episode is the one RunEpisodeWithRng walks on the same rng.
func (p *Planner) Rollout(q *query.Query, orig *PlanEval, sample bool, rng *rand.Rand, memo *Memo) (*EpisodeResult, error) {
	return p.walk(q, orig, nil, nil, sample, rng, memo)
}

// walk is the one walk behind RunEpisodeWithRng and Rollout; memo may be nil.
// Each visit's ICP key is built once and serves the episode's dedup and the
// memo, which adds each candidate new to the query to its pool as the step
// that reached it ends.
func (p *Planner) walk(q *query.Query, orig *PlanEval, env Environment, refs []Ref, sample bool, rng *rand.Rand, memo *Memo) (*EpisodeResult, error) {
	maxSteps := p.Cfg.MaxSteps
	timeout := 0.0
	if env != nil {
		// Dynamic timeout needs the original latency in the real environment.
		env.Prepare(orig, 0)
		if orig.HasLatency() {
			timeout = orig.Latency * p.Cfg.TimeoutFactor
		}
	}

	curKey := orig.ICP.Key()
	res := &EpisodeResult{Candidates: []*PlanEval{orig}, keys: []string{curKey}, OrigLatency: orig.Latency, env: env, refs: refs}
	memo.visit(orig, curKey)
	cur := orig
	var prevAction *plan.Action

	for t := 1; t <= maxSteps; t++ {
		mask := memo.mask(p, q, cur.ICP, curKey, prevAction)
		if mask == nil {
			break
		}
		st := step{cur: cur, mask: mask, sv: memo.state(p.Agent, cur, curKey, maxSteps)}
		if sample {
			st.action, st.logp = p.Agent.policy.Sample(rng, st.sv, mask)
		} else {
			st.action = p.Agent.policy.Greedy(st.sv, mask)
		}
		action := p.Space.Decode(st.action + 1)
		nextICP, err := p.Space.Apply(cur.ICP, action)
		if err != nil {
			return nil, fmt.Errorf("planner: masked action slipped through: %w", err)
		}
		key := nextICP.Key()
		cp, enc, err := memo.hint(p, q, nextICP, key)
		if err != nil {
			return nil, err
		}
		st.next = &PlanEval{Q: q, ICP: nextICP, CP: cp, Enc: enc, Step: t, Latency: math.NaN()}
		if env != nil {
			env.Prepare(st.next, timeout)
		}
		if !slices.Contains(res.keys, key) {
			st.isNew = true
			res.Candidates = append(res.Candidates, st.next)
			res.keys = append(res.keys, key)
			memo.visit(st.next, key)
		}
		res.steps = append(res.steps, st)
		prevAction = &action
		cur, curKey = st.next, key
	}
	return res, nil
}

// Score is the scoring pass over an episode walked with an environment: one
// advantage per step tracks CP̄ (Final), and each step becomes a Transition
// whose reward is the penalty plus, for an ICP new in the episode, the bounty
// and on the last step the episode bounty. The advantage function is built
// once over every plan the pass compares (orig, each step's next, and the
// bounty references when the episode bounty is paid). It and the critic
// consume no randomness and read only what the walk fixed, so scoring after
// the walk equals scoring inside it.
func (p *Planner) Score(ep *EpisodeResult) {
	maxSteps := p.Cfg.MaxSteps
	orig := ep.Candidates[0]
	refs := ep.refs
	if len(refs) == 0 {
		refs = []Ref{{Eval: orig, RefB: 0}}
	}
	plans := []*PlanEval{orig}
	for _, st := range ep.steps {
		plans = append(plans, st.next)
	}
	if n := len(ep.steps); n == maxSteps && ep.steps[n-1].isNew { // the episode bounty is paid
		for _, ref := range refs {
			plans = append(plans, ref.Eval)
		}
	}
	advantage := ep.env.Advantage(plans, maxSteps)
	best := orig
	for i, st := range ep.steps {
		t := i + 1
		adv := advantage(best, st.next)
		if adv > 0 {
			best = st.next
		}
		reward := -p.Cfg.PenaltyGamma * float64(t-plan.MinSteps(orig.ICP, st.next.ICP))
		if st.isNew {
			bounty := float64(adv)
			if t == maxSteps {
				bounty += p.Cfg.Eta * episodeBounty(advantage, refs, best)
			}
			reward += bounty
		}
		enc, status := st.cur.Enc, st.cur.StepStatus(maxSteps)
		ep.Transitions = append(ep.Transitions, rl.Transition{
			Recompute: func() *nn.Tensor { return p.Agent.Phi.Forward(enc, status, nil) },
			Mask:      st.mask,
			Action:    st.action,
			LogProb:   st.logp,
			Reward:    reward,
			Value:     p.Agent.policy.Value(st.sv).Item(),
			Done:      i == len(ep.steps)-1,
		})
	}
	ep.Final = best
}

// episodeBounty computes eb = Σ_i (D̂(adv_i) + adv_i/l) · (refb_{i-1} − refb_i)
// over the reference set {best, median, original} (orig alone when the
// buffer has none) with refb_0 = 1.
func episodeBounty(advantage func(l, r *PlanEval) int, refs []Ref, final *PlanEval) float64 {
	const l = float64(len(aam.Partition)) // 2
	prev := 1.0
	eb := 0.0
	for _, ref := range refs {
		adv := advantage(ref.Eval, final)
		eb += (aam.Midpoint(adv) + float64(adv)/l) * (prev - ref.RefB)
		prev = ref.RefB
	}
	return eb
}

// Update runs one PPO update over collected transitions.
func (p *Planner) Update(trans []rl.Transition) rl.Stats {
	return rl.Update(p.Agent.Opt, p.Agent.Policy, trans, p.Cfg.PPO)
}

// SelectBest applies the paper's temporal selection: walk the candidate
// sequence in generation order keeping the AAM-estimated best. All candidate
// state vectors and both halves of the pairwise head are produced by one
// batched pass, so the comparison chain costs N−1 passes of the head's last
// layer instead of 2(N−1) full forwards. A singleton pool needs no model pass.
func SelectBest(model *aam.Model, cands []*PlanEval, maxSteps int) *PlanEval {
	switch len(cands) {
	case 0:
		return nil
	case 1:
		return cands[0]
	}
	return cands[Select(planHeads(model, cands, maxSteps), len(cands))]
}

// Select is the temporal selection chain over a non-empty pool of n plans
// whose heads are built (row i is candidate i): it returns the index of the
// winner. It is the one comparison chain behind SelectBest and serving.
func Select(heads *aam.Heads, n int) int {
	best := 0
	for i := 1; i < n; i++ {
		if heads.Score(best, i) > 0 {
			best = i
		}
	}
	return best
}

// planHeads runs one batched pass over plans: index i of the result is
// plans[i].
func planHeads(model *aam.Model, plans []*PlanEval, maxSteps int) *aam.Heads {
	encs := make([]*planenc.Encoded, len(plans))
	steps := make([]float64, len(plans))
	for i, pe := range plans {
		encs[i] = pe.Enc
		steps[i] = pe.StepStatus(maxSteps)
	}
	return model.Heads(encs, steps, nil)
}

// CandidateScore describes one candidate of an explained selection: its hint
// set, where it sat in the episode, and the AAM's predicted advantage class
// of the WINNER over it (higher = the chosen plan is preferred by a larger
// margin class; 0 = no predicted advantage, and 0 for the chosen plan
// itself). Scores are relative comparisons under the model that ran the
// explanation, not absolute latency estimates.
type CandidateScore struct {
	ICPKey  string  `json:"icp_key"`
	Step    int     `json:"step"`
	EstCost float64 `json:"est_cost"`
	Score   int     `json:"score_vs_chosen"`
	Chosen  bool    `json:"chosen"`
}

// Explain returns the score card of a pool Select chose best from, over the
// same heads: every candidate's hint set, step and estimated cost, and the
// class of the winner over it. The winner is the one Select picked, so it is
// bit-identical to SelectBest on the same pool and model.
func Explain(heads *aam.Heads, cands []*PlanEval, best int) []CandidateScore {
	scores := make([]CandidateScore, len(cands))
	for i, c := range cands {
		scores[i] = CandidateScore{ICPKey: c.ICP.Key(), Step: c.Step}
		if c.CP != nil && c.CP.Root != nil {
			scores[i].EstCost = c.CP.Root.EstCost
		}
		if i != best {
			// Class of the winner (r) over candidate i (l) — the mirror of
			// the selection chain's comparisons.
			scores[i].Score = heads.Score(i, best)
		}
	}
	scores[best].Chosen = true
	return scores
}
