package experiments

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/foss-db/foss/internal/engine/exec"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
)

// TestBaselinesGolden pins Bao, Balsa, Loger and HybridQO as Table I builds
// them, at the tiny scale: after Train, every train and test query's plan
// (ICP key) and its executed latency, then the sorted KnownBest map, must
// match testdata/golden_baselines.txt byte for byte. Latencies are hex
// floats, so a changed bit anywhere in training or search shows.
func TestBaselinesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_baselines.txt")
	if err != nil {
		t.Fatalf("golden missing: %v", err)
	}
	w := loadTiny(t)
	o := tinyOpts()
	ex := exec.New(w.DB)
	var b strings.Builder
	fmt.Fprintf(&b, "workload=job scale=%v seed=%d train=%d test=%d fast=%v\n", o.Scale, o.Seed, len(w.Train), len(w.Test), o.Fast)
	for _, m := range BuildMethods(w, o) {
		if m.Name() == "PostgreSQL" || m.Name() == "FOSS" {
			continue
		}
		if err := m.Train(nil); err != nil {
			t.Fatalf("%s: train: %v", m.Name(), err)
		}
		for _, split := range []struct {
			name string
			qs   []*query.Query
		}{{"train", w.Train}, {"test", w.Test}} {
			for _, q := range split.qs {
				cp, _, err := m.Plan(q)
				if err != nil {
					t.Fatalf("%s: plan %s: %v", m.Name(), q.ID, err)
				}
				icp, err := plan.Extract(cp)
				if err != nil {
					t.Fatalf("%s: %s: %v", m.Name(), q.ID, err)
				}
				fmt.Fprintf(&b, "%s %s %s icp=%q lat=%x\n", m.Name(), split.name, q.ID, icp.Key(), ex.Execute(cp, 0).LatencyMs)
			}
		}
		kb := m.KnownBest()
		ids := make([]string, 0, len(kb))
		for id := range kb {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			fmt.Fprintf(&b, "%s known %s lat=%x\n", m.Name(), id, kb[id])
		}
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d diverged from testdata/golden_baselines.txt:\n  got    %s\n  golden %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("run printed %d lines, golden holds %d", len(gl), len(wl))
	}
}
