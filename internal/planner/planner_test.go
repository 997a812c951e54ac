package planner

import (
	"math"
	"math/rand"
	"testing"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/engine/exec"
	"github.com/foss-db/foss/internal/optimizer"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planenc"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/workload"
)

func testPlanner(t *testing.T, maxSteps int) (*Planner, *workload.Workload, *exec.Executor) {
	t.Helper()
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	enc := planenc.NewEncoder(w.DB.Schema)
	opt := optimizer.New(w.DB, w.Stats)
	space := plan.NewSpace(w.MaxTables)
	cfg := DefaultConfig()
	cfg.MaxSteps = maxSteps
	netCfg := aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	agent := NewAgent(rand.New(rand.NewSource(3)), netCfg, enc.NumTables, enc.NumCols, space.Size(), 32, 1e-3)
	return &Planner{Cfg: cfg, Space: space, Enc: enc, Opt: opt, Agent: agent}, w, exec.New(w.DB)
}

// trainEpisode is all of Algorithm 1 for one query: the expert plan, a
// sampled walk on the agent's own RNG, then the scoring pass.
func trainEpisode(pl *Planner, q *query.Query, env Environment) (*EpisodeResult, error) {
	orig, err := pl.OriginalEval(q)
	if err != nil {
		return nil, err
	}
	ep, err := pl.RunEpisodeWithRng(q, orig, env, nil, true, pl.Agent.Rng)
	if err == nil {
		pl.Score(ep)
	}
	return ep, err
}

func TestEpisodeBasicsRealEnv(t *testing.T) {
	pl, w, ex := testPlanner(t, 3)
	env := &RealEnv{Exec: ex}
	q := w.Train[0]
	ep, err := trainEpisode(pl, q, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.Transitions) != 3 {
		t.Fatalf("expected 3 transitions, got %d", len(ep.Transitions))
	}
	if !ep.Transitions[2].Done {
		t.Fatal("final transition not marked done")
	}
	if len(ep.Candidates) < 1 || ep.Candidates[0].Step != 0 {
		t.Fatal("original plan must be candidate 0")
	}
	if ep.Final == nil {
		t.Fatal("no final plan selected")
	}
	if math.IsNaN(ep.OrigLatency) {
		t.Fatal("real env must execute the original plan")
	}
	// every candidate in a real-env episode has a latency
	for _, c := range ep.Candidates {
		if !c.HasLatency() {
			t.Fatalf("candidate at step %d not executed", c.Step)
		}
	}
}

func TestEpisodeCandidatesAreDistinctICPs(t *testing.T) {
	pl, w, ex := testPlanner(t, 4)
	env := &RealEnv{Exec: ex}
	ep, err := trainEpisode(pl, w.Train[2], env)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range ep.Candidates {
		if seen[c.ICP.Key()] {
			t.Fatalf("duplicate ICP in candidates: %v", c.ICP)
		}
		seen[c.ICP.Key()] = true
	}
}

func TestEpisodeFinalNeverWorseUnderTrueAdv(t *testing.T) {
	// In the real environment the estimated-best tracking uses true
	// latencies, so Final must be at least as fast as the original.
	pl, w, ex := testPlanner(t, 3)
	env := &RealEnv{Exec: ex}
	for _, q := range w.Train[:8] {
		ep, err := trainEpisode(pl, q, env)
		if err != nil {
			t.Fatal(err)
		}
		orig := ep.Candidates[0]
		// ScoreOf(AdvInit) > 0 requires >5% improvement, so Final is within
		// 5% of (or better than) the original.
		if ep.Final.Latency > orig.Latency*1.0001 &&
			aam.ScoreOf(aam.AdvInit(orig.Latency, ep.Final.Latency)) > 0 {
			t.Fatalf("final plan slower than original yet scored better: %f vs %f",
				ep.Final.Latency, orig.Latency)
		}
	}
}

func TestPenaltyIsNonPositive(t *testing.T) {
	// With PenaltyGamma > 0, reward penalties only subtract: a transition's
	// reward can never exceed the maximum bounty (2 + eta * ebMax).
	pl, w, ex := testPlanner(t, 3)
	env := &RealEnv{Exec: ex}
	maxBounty := 2.0 + pl.Cfg.Eta*2.0
	for _, q := range w.Train[:5] {
		ep, err := trainEpisode(pl, q, env)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range ep.Transitions {
			if tr.Reward > maxBounty+1e-9 {
				t.Fatalf("reward %f exceeds max bounty %f", tr.Reward, maxBounty)
			}
		}
	}
}

func TestRepeatedICPGetsNoBounty(t *testing.T) {
	// Force a 2-step episode where the agent could revisit the original ICP
	// (swap twice). Rewards for the revisit must be penalty-only (<= 0).
	pl, w, ex := testPlanner(t, 2)
	pl.Cfg.Mask = plan.MaskConfig{} // allow swap-swap sequences
	env := &RealEnv{Exec: ex}
	sawRevisit := false
	for _, q := range w.Train[:20] {
		ep, err := trainEpisode(pl, q, env)
		if err != nil {
			t.Fatal(err)
		}
		if len(ep.Transitions) == 2 && len(ep.Candidates) == 2 {
			// second action returned to an already-seen ICP
			sawRevisit = true
			if ep.Transitions[1].Reward > 0 {
				t.Fatalf("revisited ICP earned positive reward %f", ep.Transitions[1].Reward)
			}
		}
	}
	_ = sawRevisit // revisits are stochastic; the assertion above is the point
}

func TestSimEnvNeedsNoExecution(t *testing.T) {
	pl, w, _ := testPlanner(t, 3)
	netCfg := aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	model := aam.NewModel(rand.New(rand.NewSource(4)), netCfg, pl.Enc.NumTables, pl.Enc.NumCols)
	env := &SimEnv{Model: model, MaxSteps: 3}
	ep, err := trainEpisode(pl, w.Train[1], env)
	if err != nil {
		t.Fatal(err)
	}
	// no candidate should carry a latency: nothing was executed
	for _, c := range ep.Candidates {
		if c.HasLatency() {
			t.Fatal("simulated episode executed a plan")
		}
	}
	if len(ep.Transitions) != 3 {
		t.Fatalf("expected 3 transitions, got %d", len(ep.Transitions))
	}
}

func TestSelectBestTemporalOrder(t *testing.T) {
	pl, w, ex := testPlanner(t, 3)
	netCfg := aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	model := aam.NewModel(rand.New(rand.NewSource(5)), netCfg, pl.Enc.NumTables, pl.Enc.NumCols)
	env := &RealEnv{Exec: ex}
	ep, err := trainEpisode(pl, w.Train[0], env)
	if err != nil {
		t.Fatal(err)
	}
	best := SelectBest(model, ep.Candidates, 3)
	if best == nil {
		t.Fatal("SelectBest returned nil")
	}
	if SelectBest(model, nil, 3) != nil {
		t.Fatal("SelectBest on empty slice should be nil")
	}
}

func TestUpdateChangesPolicy(t *testing.T) {
	pl, w, ex := testPlanner(t, 3)
	env := &RealEnv{Exec: ex}
	var trans []interface{}
	_ = trans
	var all []EpisodeResult
	for _, q := range w.Train[:6] {
		ep, err := trainEpisode(pl, q, env)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, *ep)
	}
	before, _ := nnSnapshot(pl)
	var ts = all[0].Transitions
	for _, ep := range all[1:] {
		ts = append(ts, ep.Transitions...)
	}
	st := pl.Update(ts)
	if st.Epochs == 0 {
		t.Fatal("PPO did not run")
	}
	after, _ := nnSnapshot(pl)
	if before == after {
		t.Fatal("PPO update did not change the policy parameters")
	}
}

func nnSnapshot(pl *Planner) (float64, int) {
	s, n := 0.0, 0
	for _, p := range pl.Agent.Policy.Params() {
		for _, v := range p.Data {
			s += v
			n++
		}
	}
	return s, n
}
