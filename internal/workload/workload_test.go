package workload

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/foss-db/foss/internal/engine/cost"
	"github.com/foss-db/foss/internal/engine/exec"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/optimizer"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
)

func TestPaperQueryCounts(t *testing.T) {
	cases := []struct {
		name              string
		train, test, tmpl int
	}{
		{"job", 94, 19, 33},
		{"tpcds", 95, 19, 19},
		{"stack", 96, 24, 12},
	}
	for _, c := range cases {
		w, err := Load(c.name, Options{Seed: 1, Scale: 0.1})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(w.Train) != c.train || len(w.Test) != c.test {
			t.Fatalf("%s: split %d/%d, want %d/%d", c.name, len(w.Train), len(w.Test), c.train, c.test)
		}
		tmpls := map[string]bool{}
		for _, q := range w.All() {
			tmpls[q.Template] = true
		}
		if len(tmpls) != c.tmpl {
			t.Fatalf("%s: %d templates, want %d", c.name, len(tmpls), c.tmpl)
		}
	}
}

// TestLoadUnknownWorkload: a name outside Names() is refused with the
// sentinel a caller (fossd's flag, a tenant spec) classifies on.
func TestLoadUnknownWorkload(t *testing.T) {
	if _, err := Load("bogus", Options{Seed: 1, Scale: 0.1}); !errors.Is(err, fosserr.ErrUnknownWorkload) {
		t.Fatalf("Load(bogus) error = %v, want ErrUnknownWorkload", err)
	}
}

func TestJOBHas21Relations(t *testing.T) {
	w, err := Load("job", Options{Seed: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.DB.Tables) != 21 {
		t.Fatalf("JOB has %d relations, want 21", len(w.DB.Tables))
	}
}

func TestGenerationDeterministic(t *testing.T) {
	a, err := Load("job", Options{Seed: 5, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load("job", Options{Seed: 5, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if a.DB.TotalRows() != b.DB.TotalRows() {
		t.Fatal("row counts differ across identical seeds")
	}
	ta, tb := a.DB.Table("cast_info"), b.DB.Table("cast_info")
	for c := range ta.Cols {
		for r := range ta.Cols[c] {
			if ta.Cols[c][r] != tb.Cols[c][r] {
				t.Fatalf("cast_info[%d][%d] differs", c, r)
			}
		}
	}
	for i := range a.Train {
		if a.Train[i].ID != b.Train[i].ID || a.Train[i].SQL() != b.Train[i].SQL() {
			t.Fatalf("train query %d differs across identical seeds", i)
		}
	}
}

func TestSeedChangesQueries(t *testing.T) {
	a, _ := Load("job", Options{Seed: 5, Scale: 0.1})
	b, _ := Load("job", Options{Seed: 6, Scale: 0.1})
	same := 0
	for i := range a.Train {
		if a.Train[i].SQL() == b.Train[i].SQL() {
			same++
		}
	}
	if same == len(a.Train) {
		t.Fatal("seed has no effect on query constants")
	}
}

func TestAllQueriesPlanAndExecute(t *testing.T) {
	for _, name := range Names() {
		w, err := Load(name, Options{Seed: 2, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		opt := optimizer.New(w.DB, w.Stats, cost.OptimizerParams())
		ex := exec.New(w.DB, cost.TruthParams())
		for _, q := range w.All() {
			cp, err := opt.Plan(q)
			if err != nil {
				t.Fatalf("%s/%s: plan: %v", name, q.ID, err)
			}
			res := ex.Execute(cp, 0)
			if res.TimedOut {
				t.Fatalf("%s/%s: timed out without budget", name, q.ID)
			}
			if res.LatencyMs <= 0 {
				t.Fatalf("%s/%s: non-positive latency", name, q.ID)
			}
		}
	}
}

func TestQueriesAreConnectedAndWithinDPLimit(t *testing.T) {
	for _, name := range Names() {
		w, err := Load(name, Options{Seed: 3, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.All() {
			if !q.Connected() {
				t.Fatalf("%s/%s disconnected", name, q.ID)
			}
			if q.NumTables() < 3 || q.NumTables() > 12 {
				t.Fatalf("%s/%s has %d tables", name, q.ID, q.NumTables())
			}
		}
		if w.MaxTables < 3 {
			t.Fatalf("%s MaxTables %d", name, w.MaxTables)
		}
	}
}

// TestOptimizerRegretExists guards the core premise of the reproduction:
// there must be queries whose original plan a few Swap/Override edits improve
// substantially — otherwise FOSS has nothing to learn.
func TestOptimizerRegretExists(t *testing.T) {
	w, err := Load("job", Options{Seed: 1, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(w.DB, w.Stats, cost.OptimizerParams())
	ex := exec.New(w.DB, cost.TruthParams())
	rng := rand.New(rand.NewSource(7))
	bigWins := 0
	checked := 0
	for _, q := range w.All() {
		if q.NumTables() < 5 {
			continue
		}
		checked++
		if checked > 20 {
			break
		}
		cp, err := opt.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		orig := ex.Execute(cp, 0)
		icp, _ := plan.Extract(cp)
		space := plan.NewSpace(q.NumTables())
		best := orig.LatencyMs
		for try := 0; try < 120; try++ {
			cur := icp.Clone()
			var prev *plan.Action
			ok := true
			for s := 0; s < 1+rng.Intn(3); s++ {
				mask := space.Mask(cur, q, prev, plan.MaskConfig{})
				var legal []int
				for i, m := range mask {
					if m {
						legal = append(legal, i+1)
					}
				}
				if len(legal) == 0 {
					ok = false
					break
				}
				a := space.Decode(legal[rng.Intn(len(legal))])
				next, err := space.Apply(cur, a)
				if err != nil {
					ok = false
					break
				}
				cur = next
				prev = &a
			}
			if !ok {
				continue
			}
			hcp, err := opt.HintedPlan(q, cur)
			if err != nil {
				continue
			}
			if r := ex.Execute(hcp, best*1.2); !r.TimedOut && r.LatencyMs < best {
				best = r.LatencyMs
			}
		}
		if orig.LatencyMs/best > 1.8 {
			bigWins++
		}
	}
	if bigWins < 2 {
		t.Fatalf("only %d/%d large queries show >1.8x recoverable regret; the estimator traps are not firing", bigWins, checked)
	}
}

func TestEstimatorActuallyErrs(t *testing.T) {
	// The estimator must misestimate join cardinalities on correlated slices
	// (q-error well above 1); if it were exact there would be nothing to fix.
	w, err := Load("job", Options{Seed: 1, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(w.DB, w.Stats, cost.OptimizerParams())
	ex := exec.New(w.DB, cost.TruthParams())
	maxQErr := 1.0
	for _, q := range w.Train[:30] {
		cp, err := opt.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		res := ex.Execute(cp, 0)
		est := cp.Root.EstRows
		truth := float64(res.OutRows)
		if truth < 1 {
			truth = 1
		}
		if est < 1 {
			est = 1
		}
		qe := est / truth
		if qe < 1 {
			qe = 1 / qe
		}
		if qe > maxQErr {
			maxQErr = qe
		}
	}
	if maxQErr < 5 {
		t.Fatalf("max q-error %.1f; estimator is suspiciously accurate", maxQErr)
	}
}

var _ = query.Query{} // keep the import for helpers used above
