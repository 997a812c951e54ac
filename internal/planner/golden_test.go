package planner

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/backend"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planenc"
	"github.com/foss-db/foss/internal/workload"
)

// TestWalkThenScoreMatchesGolden replays testdata/golden_episodes.txt, a
// table written by the single-loop RunEpisodeWithRng of commit 4cfdc62 (before
// Algorithm 1 was split into the walk and the scoring pass): 24 JOB queries ×
// {greedy, sampled} × {selinger, gaussim}, each a real-environment episode
// followed, on the same RNG, by a simulated one whose bounty references are
// the real episode's best execution and the original plan. Walk-then-score
// must reproduce every (action, logp, reward, value, done), the candidate
// count and Final bit for bit, and leave the RNG where the old loop left it
// (`next` is the draw after the episode).
func TestWalkThenScoreMatchesGolden(t *testing.T) {
	f, err := os.Open("testdata/golden_episodes.txt")
	if err != nil {
		t.Fatalf("golden table missing: %v", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}

	const queries = 24
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	netCfg := aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	var got []string
	for _, name := range backend.Names() {
		be, err := backend.New(name, w.DB, w.Stats)
		if err != nil {
			t.Fatal(err)
		}
		enc := planenc.NewEncoder(w.DB.Schema)
		space := plan.NewSpace(w.MaxTables)
		agent := NewAgent(rand.New(rand.NewSource(3)), netCfg, enc.NumTables, enc.NumCols, space.Size(), 32, 1e-3)
		pl := &Planner{Cfg: DefaultConfig(), Space: space, Enc: enc, Opt: be, Agent: agent}
		model := aam.NewModel(rand.New(rand.NewSource(5)), netCfg, enc.NumTables, enc.NumCols)
		for i, q := range w.Train[:queries] {
			for _, sample := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(1000 + i)))
				record := func(envName string, env Environment, refs []Ref) *EpisodeResult {
					orig, err := pl.OriginalEval(q)
					if err != nil {
						t.Fatal(err)
					}
					ep, err := pl.RunEpisodeWithRng(q, orig, env, refs, sample, rng)
					if err != nil {
						t.Fatal(err)
					}
					next := rng.Int63() // before Score: the walk alone must account for every draw
					if ep.Transitions != nil || ep.Final != nil {
						t.Fatalf("%s %s: the walk scored the episode", name, q.ID)
					}
					pl.Score(ep)
					var b strings.Builder
					fmt.Fprintf(&b, "%s %s sample=%v env=%s next=%d cands=%d final=%q",
						name, q.ID, sample, envName, next, len(ep.Candidates), ep.Final.ICP.Key())
					for _, tr := range ep.Transitions {
						fmt.Fprintf(&b, " | a=%d lp=%x r=%x v=%x d=%v", tr.Action, tr.LogProb, tr.Reward, tr.Value, tr.Done)
					}
					got = append(got, b.String())
					return ep
				}
				real := record("real", &RealEnv{Exec: be}, nil)
				orig, best := real.Candidates[0], real.Candidates[0]
				for _, c := range real.Candidates {
					if !c.TimedOut && c.Latency < best.Latency {
						best = c
					}
				}
				refs := []Ref{{Eval: best, RefB: aam.AdvInit(orig.Latency, best.Latency)}, {Eval: orig, RefB: 0}}
				record("sim", &SimEnv{Model: model, MaxSteps: pl.Cfg.MaxSteps}, refs)
			}
		}
	}

	if len(got) != len(want) || len(want) < 2*2*2*20 {
		t.Fatalf("replayed %d episodes, golden table has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("episode %d diverged from the single-loop episode:\n  got    %s\n  golden %s", i, got[i], want[i])
		}
	}
}
