package learner

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/backend"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planenc"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/workload"
)

// countingSteering records the ICP of every hinted replan it forwards.
type countingSteering struct {
	inner  planner.Steering
	hinted []string
}

func (c *countingSteering) Plan(q *query.Query) (*plan.CP, error) { return c.inner.Plan(q) }

func (c *countingSteering) HintedPlan(q *query.Query, icp plan.ICP) (*plan.CP, error) {
	c.hinted = append(c.hinted, icp.Key())
	return c.inner.HintedPlan(q, icp)
}

// trainedLearner builds and briefly trains a two-agent learner over a small
// JOB instance, every planner steering through one countingSteering.
func trainedLearner(t *testing.T) (*Learner, *countingSteering) {
	t.Helper()
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	be, err := backend.New("selinger", w.DB, w.Stats)
	if err != nil {
		t.Fatal(err)
	}
	steer := &countingSteering{inner: be}
	enc := planenc.NewEncoder(w.DB.Schema)
	space := plan.NewSpace(w.MaxTables)
	netCfg := aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	model := aam.NewModel(rand.New(rand.NewSource(1)), netCfg, enc.NumTables, enc.NumCols)
	var planners []*planner.Planner
	for a := range 2 {
		cfg := planner.DefaultConfig()
		cfg.Hidden = 32
		agent := planner.NewAgent(rand.New(rand.NewSource(int64(10+a))), netCfg, enc.NumTables, enc.NumCols, space.Size(), cfg.Hidden, cfg.PPO.LR)
		planners = append(planners, &planner.Planner{Cfg: cfg, Space: space, Enc: enc, Opt: steer, Agent: agent})
	}
	cfg := DefaultConfig()
	cfg.Iterations, cfg.RealPerIter, cfg.SimPerIter, cfg.ValidatePerIter = 2, 8, 30, 8
	l := New(w, planners, model, be, cfg)
	if err := l.Train(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	return l, steer
}

// independentPool is the reference pool of q: the walks candidates runs, on
// the same fingerprint-seeded rng, but as independent RunEpisodeWithRng walks
// with no memo and no arena, deduplicated by ICP key after each walk the way
// candidates did before the memo. walked, unless nil, is called after each
// walk with the walking agent and its expert plan.
func independentPool(t *testing.T, l *Learner, q *query.Query, walked func(agent int, orig *planner.PlanEval)) []*planner.PlanEval {
	t.Helper()
	var ref []*planner.PlanEval
	inRef := map[string]bool{}
	rng := rand.New(rand.NewSource(int64(q.Fingerprint()>>1) ^ l.Cfg.Seed))
	for a, pl := range l.Planners {
		orig, err := pl.OriginalEval(q)
		if err != nil {
			t.Fatal(err)
		}
		for r := range l.Cfg.InferenceRollouts {
			ep, err := pl.RunEpisodeWithRng(q, orig, nil, nil, r > 0, rng)
			if err != nil {
				t.Fatal(err)
			}
			if walked != nil {
				walked(a, orig)
			}
			for _, c := range ep.Candidates {
				if key := c.ICP.Key(); !inRef[key] {
					inRef[key] = true
					ref = append(ref, c)
				}
			}
		}
	}
	return ref
}

// phiForwards sums the Φ forwards every agent's walks have run.
func phiForwards(l *Learner) int64 {
	var n int64
	for _, pl := range l.Planners {
		n += pl.Agent.PhiForwards()
	}
	return n
}

// TestCandidatesMemoChangesNothingAndDedups: over every query, the pool the
// memoised rollouts build is the pool independent RunEpisodeWithRng walks
// build on the same rng — ICP keys, steps, encodings and winner — while a
// miss runs one Φ forward per distinct (agent, ICP, step) state and one
// hinted replan per distinct ICP, where the independent walks run one of each
// per visit.
func TestCandidatesMemoChangesNothingAndDedups(t *testing.T) {
	l, steer := trainedLearner(t)
	ctx := context.Background()
	maxSteps := l.Planners[0].Cfg.MaxSteps
	queries := append(append([]*query.Query{}, l.W.Train...), l.W.Test...)
	var visits, states, icps int
	for _, q := range queries {
		// The reference: independent walks, no memo, as candidates ran them
		// before the memo. The steering's log gives each walk's visits.
		type state struct {
			agent int
			icp   string
			step  int
		}
		distinctStates := map[state]bool{}
		distinctICPs := map[string]bool{}
		phi0 := phiForwards(l)
		walkVisits := 0
		steer.hinted = steer.hinted[:0]
		ref := independentPool(t, l, q, func(a int, orig *planner.PlanEval) {
			// Step t forwards Φ on the state step t−1 reached, then hints
			// step t's edit: Φ and hinted replans pair up.
			cur := orig.ICP.Key()
			for step, icp := range steer.hinted {
				distinctStates[state{a, cur, step}] = true
				distinctICPs[icp] = true
				cur = icp
			}
			walkVisits += len(steer.hinted)
			steer.hinted = steer.hinted[:0]
		})
		if got := phiForwards(l) - phi0; got != int64(walkVisits) {
			t.Fatalf("%s: independent walks ran %d Φ forwards for %d visits", q.ID, got, walkVisits)
		}

		steer.hinted = steer.hinted[:0]
		phi0 = phiForwards(l)
		memo := planner.NewMemo(nil)
		if err := l.candidates(ctx, q, memo); err != nil {
			t.Fatal(err)
		}
		pool := memo.Pool()
		memo.Release()
		phi := phiForwards(l) - phi0
		if len(pool) != len(ref) {
			t.Fatalf("%s: memoised pool has %d candidates, independent walks %d", q.ID, len(pool), len(ref))
		}
		for i := range pool {
			if pool[i].ICP.Key() != ref[i].ICP.Key() || pool[i].Step != ref[i].Step {
				t.Fatalf("%s candidate %d: %s step %d, independent walks %s step %d",
					q.ID, i, pool[i].ICP.Key(), pool[i].Step, ref[i].ICP.Key(), ref[i].Step)
			}
			if !reflect.DeepEqual(*pool[i].Enc, *ref[i].Enc) {
				t.Fatalf("%s candidate %d (%s): encodings differ", q.ID, i, pool[i].ICP.Key())
			}
		}
		if got, want := planner.SelectBest(l.AAM, pool, maxSteps), planner.SelectBest(l.AAM, ref, maxSteps); got.ICP.Key() != want.ICP.Key() {
			t.Fatalf("%s: memoised pool picks %s, independent walks %s", q.ID, got.ICP.Key(), want.ICP.Key())
		}
		if phi != int64(len(distinctStates)) {
			t.Errorf("%s: %d Φ forwards for %d distinct states (%d visits)", q.ID, phi, len(distinctStates), walkVisits)
		}
		if len(steer.hinted) != len(distinctICPs) {
			t.Errorf("%s: %d hinted replans for %d distinct ICPs (%d visits)", q.ID, len(steer.hinted), len(distinctICPs), walkVisits)
		}
		visits += walkVisits
		states += len(distinctStates)
		icps += len(distinctICPs)
	}
	n := float64(len(queries))
	t.Logf("per miss over %d queries: %.2f visits, %.2f distinct states, %.2f distinct ICPs",
		len(queries), float64(visits)/n, float64(states)/n, float64(icps)/n)
	if states >= visits || icps >= visits {
		t.Fatalf("no walk revisited a state (%d visits, %d states, %d ICPs): the test shows nothing", visits, states, icps)
	}
}
