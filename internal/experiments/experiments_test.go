package experiments

import (
	"io"
	"strings"
	"testing"

	"github.com/foss-db/foss/internal/metrics"
	"github.com/foss-db/foss/internal/workload"
)

// tinyOpts keeps experiment smoke tests to a few seconds each.
func tinyOpts() Opts { return Opts{Scale: 0.08, Seed: 1, Fast: true} }

func TestBuildMethodsNamesAndOrder(t *testing.T) {
	w := loadTiny(t)
	ms := BuildMethods(w, tinyOpts())
	want := []string{"PostgreSQL", "Bao", "Balsa", "Loger", "HybridQO", "FOSS"}
	if len(ms) != len(want) {
		t.Fatalf("%d methods, want %d", len(ms), len(want))
	}
	for i, m := range ms {
		if m.Name() != want[i] {
			t.Fatalf("method %d = %s, want %s", i, m.Name(), want[i])
		}
	}
}

func loadTiny(t *testing.T) *workload.Workload {
	t.Helper()
	o := tinyOpts()
	w, err := workload.Load("job", workload.Options{Seed: o.Seed, Scale: o.Scale})
	if err != nil {
		t.Fatal(err)
	}
	w.Train = w.Train[:15]
	w.Test = w.Test[:6]
	return w
}

func TestEvaluateProducesResults(t *testing.T) {
	w := loadTiny(t)
	pg := NewPostgreSQL(w)
	res := Evaluate(pg, w, w.Test)
	if len(res) != len(w.Test) {
		t.Fatalf("evaluated %d of %d queries", len(res), len(w.Test))
	}
	for _, r := range res {
		if r.LatencyMs <= 0 {
			t.Fatalf("%s: non-positive latency", r.QueryID)
		}
	}
}

func TestPostgresSelfWRLIsOne(t *testing.T) {
	w := loadTiny(t)
	pg := NewPostgreSQL(w)
	a := Evaluate(pg, w, w.Test)
	b := Evaluate(pg, w, w.Test)
	// GMRL of identical latency sets must be exactly 1 (OT may differ
	// between runs; GMRL excludes it)
	g := metrics.GMRL(a, b)
	if g < 0.999 || g > 1.001 {
		t.Fatalf("expert self-GMRL = %f", g)
	}
}

func TestFig4Derivation(t *testing.T) {
	rows := []TableIRow{
		{Method: "PostgreSQL", Workload: "job", RuntimeSec: 100},
		{Method: "Bao", Workload: "job", RuntimeSec: 30},
		{Method: "FOSS", Workload: "job", RuntimeSec: 20},
	}
	var sb strings.Builder
	out := Fig4(&sb, rows)
	if len(out) != 2 {
		t.Fatalf("fig4 rows = %d", len(out))
	}
	for _, r := range out {
		switch r.Versus {
		case "PostgreSQL":
			if r.Speedup != 5 {
				t.Fatalf("speedup vs pg = %f", r.Speedup)
			}
		case "Bao":
			if r.Speedup != 1.5 {
				t.Fatalf("speedup vs bao = %f", r.Speedup)
			}
		}
	}
}

func TestAblationConfigsDiffer(t *testing.T) {
	base := ablationConfig(Maxsteps3, tinyOpts())
	for _, ab := range AllAblations() {
		cfg := ablationConfig(ab, tinyOpts())
		switch ab {
		case Maxsteps2:
			if cfg.MaxSteps != 2 {
				t.Fatal("maxsteps2 wrong")
			}
		case Maxsteps5:
			if cfg.MaxSteps != 5 {
				t.Fatal("maxsteps5 wrong")
			}
		case OffSimulated:
			if !cfg.Learner.DisableSim {
				t.Fatal("off-simulated wrong")
			}
		case OffPenalty:
			if cfg.Planner.PenaltyGamma != 0 || base.Planner.PenaltyGamma == 0 {
				t.Fatal("off-penalty wrong")
			}
		case OffValidation:
			if !cfg.Learner.DisableValidation {
				t.Fatal("off-validation wrong")
			}
		case TwoAgents:
			if cfg.Agents != 2 {
				t.Fatal("two-agents wrong")
			}
		}
	}
	if base.MaxSteps != 3 {
		t.Fatal("default maxsteps wrong")
	}
}

func TestTableISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table I run")
	}
	rows, err := TableI(io.Discard, []string{"job"}, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("Table I rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Method == "PostgreSQL" && (r.WRLTest < 0.99 || r.WRLTest > 1.01) {
			t.Fatalf("expert WRL vs itself = %f", r.WRLTest)
		}
	}
}
