// Package learner implements the paper's simulated learner (Fig. 3): the
// training loop that alternates between (a) executing candidate plans in the
// real environment to fill the execution buffer, (b) supervising the
// asymmetric advantage model on plan pairs from that buffer, (c) letting the
// planner's agent interact cheaply with the simulated environment
// (traditional optimizer as state transitioner + AAM as reward indicator)
// to generate ample experience for PPO updates, and (d) validating promising
// plans found in simulation by executing them for real, which both corrects
// AAM drift and enriches its training pool.
package learner

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/planenc"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/rl"
	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/workload"
)

// Buffer is the execution buffer: every executed candidate plan per query.
// It is safe for concurrent use: the online loop's Record adds executed plans
// while Checkpoint exports them.
type Buffer struct {
	mu      sync.Mutex
	byQuery map[string][]*planner.PlanEval
	order   []string
}

// NewBuffer creates an empty execution buffer.
func NewBuffer() *Buffer {
	return &Buffer{byQuery: map[string][]*planner.PlanEval{}}
}

// Add records an executed plan (its Latency must be set). Duplicate ICPs for
// the same query keep only the first execution (latencies are deterministic).
func (b *Buffer) Add(pe *planner.PlanEval) {
	if pe == nil || !pe.HasLatency() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.holds(pe) {
		b.insert(pe)
	}
}

// AddExecuted is Add for a served candidate that other readers still share:
// a new execution is stored as a copy carrying the observed latency, and a
// repeat of an ICP already buffered for its query copies nothing. pe itself
// is never written.
func (b *Buffer) AddExecuted(pe *planner.PlanEval, latencyMs float64) {
	if pe == nil || math.IsNaN(latencyMs) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.holds(pe) {
		return
	}
	fb := *pe
	fb.Latency = latencyMs
	fb.TimedOut = false
	b.insert(&fb)
}

// holds reports whether pe's ICP is already buffered for its query. Caller
// holds mu.
func (b *Buffer) holds(pe *planner.PlanEval) bool {
	for _, old := range b.byQuery[pe.Q.ID] {
		if old.ICP.Equal(pe.ICP) {
			return true
		}
	}
	return false
}

// insert appends pe under its query, registering the query on first sight.
// Caller holds mu.
func (b *Buffer) insert(pe *planner.PlanEval) {
	qid := pe.Q.ID
	if _, ok := b.byQuery[qid]; !ok {
		b.order = append(b.order, qid)
	}
	b.byQuery[qid] = append(b.byQuery[qid], pe)
}

// Export snapshots the buffer in durable, engine-independent form: each
// execution's query, incomplete plan, step, and observed outcome. Records
// come out in the buffer's canonical order — the order Samples() iterates —
// so an export→import round trip reproduces iteration order (and therefore
// AAM sample order) exactly.
func (b *Buffer) Export() []store.ExecRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []store.ExecRecord
	for _, qid := range b.order {
		for _, pe := range b.byQuery[qid] {
			out = append(out, store.ExecRecord{
				Query:     pe.Q,
				ICP:       pe.ICP.Clone(),
				Step:      pe.Step,
				LatencyMs: pe.Latency,
				TimedOut:  pe.TimedOut,
			})
		}
	}
	return out
}

// Import restores exported records: rebuild re-derives each record's
// complete plan and encoding (a deterministic function of query × ICP under
// a fixed backend), the observed outcome is restored onto the rebuilt
// candidate, and Add ingests it (deduplicating entries the buffer already
// holds). Records are imported in order, preserving the exported canonical
// order.
func (b *Buffer) Import(recs []store.ExecRecord, rebuild func(store.ExecRecord) (*planner.PlanEval, error)) error {
	for _, r := range recs {
		pe, err := rebuild(r)
		if err != nil {
			return fmt.Errorf("learner: import %s step %d: %w", r.Query.ID, r.Step, err)
		}
		pe.Latency = r.LatencyMs
		pe.TimedOut = r.TimedOut
		b.Add(pe)
	}
	return nil
}

// Size returns the total number of executions stored.
func (b *Buffer) Size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, v := range b.byQuery {
		n += len(v)
	}
	return n
}

// Original returns the recorded step-0 plan for a query, or nil.
func (b *Buffer) Original(qid string) *planner.PlanEval {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.original(qid)
}

func (b *Buffer) original(qid string) *planner.PlanEval {
	for _, pe := range b.byQuery[qid] {
		if pe.Step == 0 {
			return pe
		}
	}
	return nil
}

// Refs assembles the paper's episode-bounty reference set for a query: the
// best-performing and median-performing executed plans that beat the
// original, plus the original, with refb_i = AdvInit(lat_orig, lat_ref_i).
func (b *Buffer) Refs(qid string) []planner.Ref {
	b.mu.Lock()
	defer b.mu.Unlock()
	orig := b.original(qid)
	if orig == nil {
		return nil
	}
	var better []*planner.PlanEval
	for _, pe := range b.byQuery[qid] {
		if !pe.TimedOut && pe.Latency < orig.Latency {
			better = append(better, pe)
		}
	}
	sort.Slice(better, func(i, j int) bool { return better[i].Latency < better[j].Latency })
	best, median := orig, orig
	if len(better) > 0 {
		best = better[0]
		median = better[len(better)/2]
	}
	mk := func(pe *planner.PlanEval) planner.Ref {
		return planner.Ref{Eval: pe, RefB: aam.AdvInit(orig.Latency, pe.Latency)}
	}
	return []planner.Ref{mk(best), mk(median), mk(orig)}
}

// Samples builds the AAM supervised training set: all ordered pairs of
// executed plans of the same query, excluding pairs where both timed out
// (their relative order is unknowable), labeled with the true advantage
// class and tagged with the query. maxSteps normalizes the step-status
// feature.
func (b *Buffer) Samples(maxSteps int) []aam.Sample {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []aam.Sample
	for _, qid := range b.order {
		plans := b.byQuery[qid]
		for i := 0; i < len(plans); i++ {
			for j := 0; j < len(plans); j++ {
				if i == j {
					continue
				}
				l, r := plans[i], plans[j]
				if l.TimedOut && r.TimedOut {
					continue
				}
				out = append(out, aam.Sample{
					EncL: l.Enc, EncR: r.Enc,
					StepL: l.StepStatus(maxSteps), StepR: r.StepStatus(maxSteps),
					Label: aam.ScoreOf(aam.AdvInit(l.Latency, r.Latency)),
					Query: qid,
				})
			}
		}
	}
	return out
}

// Config drives the training loop.
type Config struct {
	Iterations      int // outer loop iterations
	RealPerIter     int // queries rolled out in the real environment per iteration
	SimPerIter      int // simulated episodes per iteration (the paper's 900-episode updates, scaled)
	ValidatePerIter int // promising plans executed (validated) per iteration
	AAMTrain        aam.TrainConfig
	Seed            int64

	// Ablation switches (Table II).
	DisableSim        bool // Off-Simulated: agent learns from real episodes only
	DisableValidation bool // Off-Validation: no promising-plan execution
	Agents            int  // multi-agent switch; 0/1 = single agent

	// InferenceRollouts is the number of episodes each agent runs per query
	// at inference time: one greedy plus (InferenceRollouts-1) stochastic
	// rollouts whose candidates all enter the AAM selection. More rollouts
	// widen the candidate set at the cost of optimization time.
	InferenceRollouts int
}

// DefaultConfig returns a laptop-scale training schedule.
func DefaultConfig() Config {
	return Config{
		Iterations:        8,
		RealPerIter:       24,
		SimPerIter:        150,
		ValidatePerIter:   24,
		AAMTrain:          aam.DefaultTrainConfig(),
		Seed:              1,
		Agents:            1,
		InferenceRollouts: 4,
	}
}

// Learner owns one FOSS training run.
type Learner struct {
	W        *workload.Workload
	Planners []*planner.Planner // one per agent (shared Enc/backend, distinct nets)
	AAM      *aam.Model
	Exec     planner.Executor // the backend's execution surface
	Buf      *Buffer
	Cfg      Config

	rng     *rand.Rand
	origMap map[string]*planner.PlanEval // cached original plans per query
}

// New assembles a learner from pre-built components. planners must share the
// encoder and backend; each brings its own agent. ex is the backend's
// execution surface (any planner.Executor).
func New(w *workload.Workload, planners []*planner.Planner, model *aam.Model, ex planner.Executor, cfg Config) *Learner {
	if cfg.Agents < 1 {
		cfg.Agents = 1
	}
	return &Learner{
		W:        w,
		Planners: planners,
		AAM:      model,
		Exec:     ex,
		Buf:      NewBuffer(),
		Cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		origMap:  map[string]*planner.PlanEval{},
	}
}

// original returns (and caches) the step-0 evaluated plan for q, executing
// it if needed.
func (l *Learner) original(q *query.Query) (*planner.PlanEval, error) {
	if pe, ok := l.origMap[q.ID]; ok {
		return pe, nil
	}
	pe, err := l.Planners[0].OriginalEval(q)
	if err != nil {
		return nil, err
	}
	res := l.Exec.Execute(pe.CP, 0)
	pe.Latency = res.LatencyMs
	pe.TimedOut = res.TimedOut
	l.origMap[q.ID] = pe
	l.Buf.Add(pe)
	return pe, nil
}

// IterStats summarizes one outer iteration for progress callbacks.
type IterStats struct {
	Iter        int
	BufferSize  int
	AAMLoss     float64
	AAMAccuracy float64
	PPO         rl.Stats
	Validated   int
}

// Train runs the full loop over the workload's train split. progress may be
// nil. Cancellation is honored between episodes and iterations.
func (l *Learner) Train(ctx context.Context, progress func(IterStats)) error {
	return l.TrainOn(ctx, l.W.Train, 0, progress)
}

// TrainOn runs the training loop over an explicit query set — the online
// service retrains on recently served queries this way, adapting the models
// to the live distribution rather than the offline train split. iterations
// overrides Cfg.Iterations when positive (incremental refreshes use a shorter
// schedule than the offline run). progress may be nil.
func (l *Learner) TrainOn(ctx context.Context, queries []*query.Query, iterations int, progress func(IterStats)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(queries) == 0 {
		return fmt.Errorf("learner: no queries to train on: %w", fosserr.ErrBadConfig)
	}
	iters := l.Cfg.Iterations
	if iterations > 0 {
		iters = iterations
	}
	for iter := 0; iter < iters; iter++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		st := IterStats{Iter: iter}

		// (a) real-environment episodes to gather executions
		realTrans, err := l.realPhase(ctx, queries)
		if err != nil {
			return err
		}

		// (b) AAM supervised training from the execution buffer
		samples := l.Buf.Samples(l.Planners[0].Cfg.MaxSteps)
		if len(samples) > 0 {
			losses := l.AAM.Train(samples, l.Cfg.AAMTrain)
			st.AAMLoss = losses[len(losses)-1]
			if len(samples) > 200 {
				samples = samples[:200]
			}
			st.AAMAccuracy = l.AAM.Accuracy(samples)
		}

		// (c) simulated episodes + PPO update per agent
		if l.Cfg.DisableSim {
			// Off-Simulated ablation: the agent updates from the (scarce)
			// real experience instead.
			for ai, pl := range l.Planners {
				if len(realTrans[ai]) > 0 {
					st.PPO = pl.Update(realTrans[ai])
				}
			}
		} else {
			promising, err := l.simPhase(ctx, queries, &st)
			if err != nil {
				return err
			}
			// (d) promising-plan validation
			if !l.Cfg.DisableValidation {
				st.Validated = l.validate(promising)
			}
		}

		st.BufferSize = l.Buf.Size()
		if progress != nil {
			progress(st)
		}
	}
	return nil
}

// episode is one training episode: a query drawn from the main RNG stream,
// walked on the agent's own RNG against the bounty references as of now, then
// scored.
func (l *Learner) episode(ctx context.Context, pl *planner.Planner, queries []*query.Query, env planner.Environment) (*planner.EpisodeResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q := queries[l.rng.Intn(len(queries))]
	orig, err := l.original(q)
	if err != nil {
		return nil, err
	}
	ep, err := pl.RunEpisodeWithRng(q, orig, env, l.Buf.Refs(q.ID), true, pl.Agent.Rng)
	if err == nil {
		pl.Score(ep)
	}
	return ep, err
}

// realPhase runs real-environment episodes on randomly sampled queries and
// returns the transitions per agent (used directly in the Off-Simulated
// ablation; otherwise only their side effect — buffer fills — matters).
func (l *Learner) realPhase(ctx context.Context, queries []*query.Query) ([][]rl.Transition, error) {
	out := make([][]rl.Transition, len(l.Planners))
	for ai, pl := range l.Planners {
		env := &planner.RealEnv{Exec: l.Exec, OnExecuted: func(pe *planner.PlanEval) { l.Buf.Add(pe) }}
		for e := 0; e < l.Cfg.RealPerIter; e++ {
			ep, err := l.episode(ctx, pl, queries, env)
			if err != nil {
				return nil, err
			}
			out[ai] = append(out[ai], ep.Transitions...)
		}
	}
	return out, nil
}

// simPhase runs simulated episodes (AAM as reward indicator) and one PPO
// update per agent, returning the promising plans found.
func (l *Learner) simPhase(ctx context.Context, queries []*query.Query, st *IterStats) ([]*planner.PlanEval, error) {
	var promising []*planner.PlanEval
	for _, pl := range l.Planners {
		simEnv := &planner.SimEnv{Model: l.AAM, MaxSteps: pl.Cfg.MaxSteps}
		var trans []rl.Transition
		for e := 0; e < l.Cfg.SimPerIter; e++ {
			ep, err := l.episode(ctx, pl, queries, simEnv)
			if err != nil {
				return nil, err
			}
			trans = append(trans, ep.Transitions...)
			if ep.Final != nil && ep.Final.Step > 0 {
				promising = append(promising, ep.Final)
			}
		}
		st.PPO = pl.Update(trans)
	}
	return promising, nil
}

// validate executes up to ValidatePerIter distinct promising plans under the
// dynamic timeout and adds the results to the buffer.
func (l *Learner) validate(promising []*planner.PlanEval) int {
	l.rng.Shuffle(len(promising), func(i, j int) { promising[i], promising[j] = promising[j], promising[i] })
	n := 0
	for _, pe := range promising {
		if n >= l.Cfg.ValidatePerIter {
			break
		}
		if pe.HasLatency() {
			continue
		}
		res := l.Exec.Execute(pe.CP, l.validateTimeout(pe))
		pe.Latency = res.LatencyMs
		pe.TimedOut = res.TimedOut
		l.Buf.Add(pe)
		n++
	}
	return n
}

// validateTimeout computes the dynamic validation timeout (1.5× the original
// plan's latency, 0 = none when the original is unknown).
func (l *Learner) validateTimeout(pe *planner.PlanEval) float64 {
	if orig := l.origMap[pe.Q.ID]; orig != nil {
		return orig.Latency * l.Planners[0].Cfg.TimeoutFactor
	}
	return 0
}

// Optimize doctors one query at inference time. Every agent walks its
// episodes — one greedy plus InferenceRollouts−1 stochastic ones, widening the
// pool the way the paper's multi-agent mode does — with no environment and no
// scoring pass. Meanwhile the AAM judges the pool on a second goroutine,
// computing each candidate's selection heads as a walk adds it, and once the
// walks end the temporal chain selects the estimated-best plan over those
// heads. The original plan is always a candidate, so FOSS never does worse
// than its own selector believes. Safe for concurrent use while no training
// runs; cancellation is honored between rollouts.
func (l *Learner) Optimize(ctx context.Context, q *query.Query) (*planner.PlanEval, error) {
	best, _, err := l.doctor(ctx, q, false)
	return best, err
}

// Explain doctors one query the way Optimize does but additionally returns
// the full deduplicated candidate pool as a per-candidate score card: each
// entry carries its hint set and the AAM's advantage class of the winner
// over it. The winner is bit-identical to Optimize on the same model state
// (same fingerprint-seeded rollouts, same selection chain); the extra cost
// is one pairwise comparison per losing candidate.
func (l *Learner) Explain(ctx context.Context, q *query.Query) (*planner.PlanEval, []planner.CandidateScore, error) {
	return l.doctor(ctx, q, true)
}

// doctor is Optimize, plus the score card when explain is set: the judged
// walks, then the selection chain over the judge's heads.
func (l *Learner) doctor(ctx context.Context, q *query.Query, explain bool) (*planner.PlanEval, []planner.CandidateScore, error) {
	judge := l.AAM.NewJudge()
	defer judge.Release()
	pool, err := l.judged(ctx, q, judge)
	if err != nil {
		return nil, nil, err
	}
	if len(pool) == 0 {
		return nil, nil, errNoCandidate
	}
	heads := judge.Heads()
	best := planner.Select(heads, len(pool))
	var scores []planner.CandidateScore
	if explain {
		scores = planner.Explain(heads, pool, best)
	}
	return pool[best], scores, nil
}

// judgeQueue is how many candidates the walks may run ahead of the judge
// before a walk waits; it exceeds the pool of a default-sized query.
const judgeQueue = 32

// judged builds q's candidate pool with the judge beside the walks: the memo
// hands each new candidate to a goroutine that adds it, together with any
// others already waiting, to judge. It returns once the judge has drained
// every candidate, on error and cancellation too, so judge.Heads covers the
// pool and the judge's goroutine is the caller's again.
func (l *Learner) judged(ctx context.Context, q *query.Query, judge *aam.Judge) ([]*planner.PlanEval, error) {
	maxSteps := l.Planners[0].Cfg.MaxSteps
	feed := make(chan *planner.PlanEval, judgeQueue)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var encs []*planenc.Encoded
		var steps []float64
		for pe := range feed {
			encs, steps = encs[:0], steps[:0]
			for {
				encs, steps = append(encs, pe.Enc), append(steps, pe.StepStatus(maxSteps))
				if len(feed) == 0 {
					break
				}
				pe = <-feed
			}
			judge.Add(encs, steps)
		}
	}()
	defer func() {
		close(feed)
		<-done
	}()
	memo := planner.NewMemo(func(pe *planner.PlanEval) { feed <- pe })
	defer memo.Release()
	if err := l.candidates(ctx, q, memo); err != nil {
		return nil, err
	}
	return memo.Pool(), nil
}

// candidates walks every agent's greedy episode plus its stochastic rollouts
// for one query through memo, whose pool they fill. The RNG is seeded by the
// query fingerprint, so the pool is independent of request interleaving, and
// the rollouts share the memo, so a state several of them visit is
// forwarded, hinted, encoded and masked once.
func (l *Learner) candidates(ctx context.Context, q *query.Query, memo *planner.Memo) error {
	rollouts := max(l.Cfg.InferenceRollouts, 1)
	rng := rand.New(rand.NewSource(int64(q.Fingerprint()>>1) ^ l.Cfg.Seed))
	for _, pl := range l.Planners {
		orig, err := pl.OriginalEval(q)
		if err != nil {
			return err
		}
		for r := 0; r < rollouts; r++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if _, err := pl.Rollout(q, orig, r > 0, rng, memo); err != nil {
				return err
			}
		}
	}
	return nil
}

var errNoCandidate = fmt.Errorf("learner: %w", fosserr.ErrNoCandidate)

// KnownBest returns, for each query id, the lowest-latency non-timeout
// execution seen during training (used by the Fig. 7/8 analyses).
func (l *Learner) KnownBest() map[string]*planner.PlanEval {
	out := map[string]*planner.PlanEval{}
	l.Buf.mu.Lock()
	defer l.Buf.mu.Unlock()
	for qid, plans := range l.Buf.byQuery {
		for _, pe := range plans {
			if pe.TimedOut {
				continue
			}
			if cur, ok := out[qid]; !ok || pe.Latency < cur.Latency {
				out[qid] = pe
			}
		}
	}
	return out
}
