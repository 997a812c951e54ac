package core_test

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/workload"
)

// TestReplFeedbackRefusesNonPlans: a leader answers POST repl/feedback with
// 422 when the body's plan identity is not one an episode can produce — an
// order that repeats an alias, or a step outside [0, MaxSteps] — and records
// and journals nothing. The expert's own identity, as a control, records
// once and journals once.
func TestReplFeedbackRefusesNonPlans(t *testing.T) {
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(w, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := sys.EnableOnline(service.Config{
		Detector:   service.DetectorConfig{Window: 8, Threshold: 1e12, MinSamples: 8},
		Cooldown:   1 << 30,
		Background: false,
		Store:      st,
	}); err != nil {
		t.Fatal(err)
	}
	base := serveOneTenant(t, sys, nil)

	q := w.Test[0]
	cp, _, err := sys.ExpertPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	icp, err := plan.Extract(cp)
	if err != nil {
		t.Fatal(err)
	}
	type wireTable struct {
		Table string `json:"table"`
		Alias string `json:"alias"`
	}
	type wireJoin struct {
		LA string `json:"la"`
		LC string `json:"lc"`
		RA string `json:"ra"`
		RC string `json:"rc"`
	}
	var spec struct {
		ID     string      `json:"id"`
		Tables []wireTable `json:"tables"`
		Joins  []wireJoin  `json:"joins"`
	}
	spec.ID = q.ID
	for _, tr := range q.Tables {
		spec.Tables = append(spec.Tables, wireTable{tr.Table, tr.Alias})
	}
	for _, j := range q.Joins {
		spec.Joins = append(spec.Joins, wireJoin{j.LA, j.LC, j.RA, j.RC})
	}
	var methods []string
	for _, m := range icp.Methods {
		methods = append(methods, m.String())
	}
	body := func(order []string, step int) string {
		b, err := json.Marshal(map[string]any{
			"query": spec, "order": order, "methods": methods, "step": step, "latency_ms": 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	recorded := func() float64 {
		t.Helper()
		resp, err := http.Get(base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		decodeJSONT(t, resp, &out)
		return out["stats"].(map[string]any)["Recorded"].(float64)
	}

	repeated := make([]string, len(icp.Order))
	for i := range repeated {
		repeated[i] = icp.Order[0]
	}
	wal0, rec0 := st.WAL().Len(), recorded()
	for _, c := range []struct {
		what string
		body string
	}{
		{"an order repeating one alias", body(repeated, 1)},
		{"a negative step", body(icp.Order, -7)},
		{"a step past MaxSteps", body(icp.Order, sys.Cfg.MaxSteps+1)},
	} {
		if code, out := postJSONT(t, base+"/repl/feedback", c.body); code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: %d %v, want 422", c.what, code, out)
		}
	}
	if got, rec := st.WAL().Len(), recorded(); got != wal0 || rec != rec0 {
		t.Fatalf("refused feedback changed state: WAL %d -> %d entries, Recorded %v -> %v", wal0, got, rec0, rec)
	}

	if code, out := postJSONT(t, base+"/repl/feedback", body(icp.Order, 0)); code != http.StatusOK {
		t.Fatalf("the expert's identity: %d %v", code, out)
	}
	if got, rec := st.WAL().Len(), recorded(); got != wal0+1 || rec != rec0+1 {
		t.Fatalf("accepted feedback: WAL %d -> %d entries, Recorded %v -> %v", wal0, got, rec0, rec)
	}
}
