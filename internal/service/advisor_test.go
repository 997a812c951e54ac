package service

// Advisor emission tests: ingest() is driven synchronously with synthetic
// observation streams, so the regression latch and the cooldown-blocked
// streak are pinned deterministically. The loop tests below drive real
// records through Record: the advisor sees every one of them, in journal
// order, under concurrency too, and findings surface on GET /v1/advisor the
// moment Record returns.

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/tier"
)

// TestAdvisorRegressionLatch: a regression finding fires once the window
// fills and the regressed fraction crosses the threshold, stays latched while
// the fraction hovers, and re-arms only after clear recovery.
func TestAdvisorRegressionLatch(t *testing.T) {
	a := newAdvisor()
	obs := func(ratio float64, n int) {
		for range n {
			a.ingest(advisorObs{epoch: 1, ratio: ratio})
		}
	}
	// The fewest regressed records of a full window that cross regressionFrac.
	fire := int(math.Ceil(regressionFrac * advisorWindow))

	obs(1, advisorWindow-1)
	if got := a.snapshot(); len(got) != 0 {
		t.Fatalf("finding before the window filled: %+v", got)
	}
	obs(10, fire-1) // window full, one regressed record short of the threshold
	if got := a.snapshot(); len(got) != 0 {
		t.Fatalf("finding below regressionFrac: %+v", got)
	}
	obs(10, 1) // crosses it → fire
	got := a.snapshot()
	if len(got) != 1 || got[0].Kind != FindingRegression {
		t.Fatalf("findings = %+v, want one regression", got)
	}
	if got[0].Count != fire || got[0].Ratio != float64(fire)/advisorWindow || got[0].Epoch != 1 {
		t.Fatalf("regression finding fields wrong: %+v", got[0])
	}
	// The window keeps regressing: the latch holds, no re-emission per record.
	obs(10, 2)
	if got := a.snapshot(); len(got) != 1 {
		t.Fatalf("latched regression re-emitted: %+v", got)
	}
	// Recovery below regressionFrac/2 re-arms the latch...
	obs(1, advisorWindow)
	if got := a.snapshot(); len(got) != 1 {
		t.Fatalf("recovery emitted spuriously: %+v", got)
	}
	// ...so the next sustained regression fires a second finding.
	obs(10, fire)
	if got := a.snapshot(); len(got) != 2 {
		t.Fatalf("re-armed regression did not fire: %+v", got)
	}
}

// TestAdvisorCooldownBlocked: only a consecutive streak of cooldown-
// suppressed drift signals fires; any unblocked record resets it.
func TestAdvisorCooldownBlocked(t *testing.T) {
	a := newAdvisor()
	blocked := func(b bool, n int) {
		for range n {
			a.ingest(advisorObs{epoch: 1, driftBlocked: b})
		}
	}
	blocked(true, cooldownTurns-1)
	blocked(false, 1) // streak broken
	blocked(true, cooldownTurns-1)
	if got := a.snapshot(); len(got) != 0 {
		t.Fatalf("broken streak fired: %+v", got)
	}
	blocked(true, 1)
	got := a.snapshot()
	if len(got) != 1 || got[0].Kind != FindingCooldownBlocked || got[0].Count != cooldownTurns {
		t.Fatalf("findings = %+v, want one cooldown-blocked with count %d", got, cooldownTurns)
	}
}

// TestAdvisorEpochReset: a hot-swap (epoch change) resets the regression
// latch — the old model's pathology must not carry into the new model's
// record.
func TestAdvisorEpochReset(t *testing.T) {
	a := newAdvisor()
	for range advisorWindow {
		a.ingest(advisorObs{epoch: 1, ratio: 10})
	}
	if got := a.snapshot(); len(got) != 1 || got[0].Kind != FindingRegression {
		t.Fatalf("setup: want one latched regression, got %+v", got)
	}
	// Epoch bump: the latch clears, so the still-regressing window fires a
	// fresh finding attributed to the new epoch.
	a.ingest(advisorObs{epoch: 2, ratio: 10})
	got := a.snapshot()
	if len(got) != 2 || got[1].Epoch != 2 {
		t.Fatalf("epoch change did not re-arm the latch: %+v", got)
	}
}

// TestAdvisorRetention: retained findings are FIFO-bounded while the
// emitted counter keeps the lifetime total.
func TestAdvisorRetention(t *testing.T) {
	a := newAdvisor()
	const emitted = maxFindings + 2
	// Each cooldownTurns-long blocked streak emits one finding, the k-th at
	// record k·cooldownTurns.
	for range emitted * cooldownTurns {
		a.ingest(advisorObs{epoch: 1, driftBlocked: true})
	}
	got := a.snapshot()
	first, last := uint64(emitted-maxFindings+1)*cooldownTurns, uint64(emitted)*cooldownTurns
	if len(got) != maxFindings || got[0].Seq != first || got[maxFindings-1].Seq != last {
		t.Fatalf("retention not FIFO-bounded at %d: %d findings, first %+v", maxFindings, len(got), got[0])
	}
	if a.emitted.Load() != emitted {
		t.Fatalf("emitted = %d, want the lifetime %d", a.emitted.Load(), emitted)
	}
}

// advisorStreamConfig is a tiered loop whose drift detector fires on a
// regressed window while the cooldown keeps every retrain out of reach.
func advisorStreamConfig() Config {
	cfg := syncConfig()
	cfg.Detector = DetectorConfig{Window: 4, Threshold: 1.2, MinSamples: 4}
	cfg.Cooldown = 1 << 20
	cfg.Tier = tier.Config{Memory: true}
	cfg.Advisor = AdvisorConfig{Enabled: true}
	return cfg
}

// advisorStreamLen is the number of records feedAdvisorStream takes: one
// full advisor window and the regressed tail after it.
const advisorStreamLen = advisorWindow + 4

// feedAdvisorStream drives one fixed stream through lp: a promotion and its
// demotion, a regressed run the cooldown blocks drift on, a DDL marker,
// winning traffic after it until the advisor's window fills, and a regressed
// tail. The fake expert runs at 10 ms: 5 is a win, 100 a regression.
func feedAdvisorStream(t *testing.T, lp *Loop) {
	t.Helper()
	turn := func(v int64, lat float64) {
		q := fq(v)
		res, err := lp.Serve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !lp.Record(q, res.Eval, lat) {
			t.Fatalf("record of %s refused", q.ID)
		}
	}
	for i := 0; i < 3; i++ {
		turn(1, 5) // three wins pin q1
	}
	turn(1, 100) // the pin regresses: demoted
	for i := 0; i < cooldownTurns+4; i++ {
		turn(2, 100)
	}
	if _, err := lp.ApplyDDL([]catalog.DDL{{Kind: catalog.DDLDropTable, Table: "zz"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < advisorWindow-cooldownTurns-8; i++ {
		turn(3, 5)
	}
	for i := 0; i < 4; i++ {
		turn(4, 100)
	}
}

// TestAdvisorLosslessAndDeterministic: the advisor analyzes every record, so
// one feedback stream fed to two loops yields the same findings, and the
// advisor's ordinal is exactly the number of records the loop took.
func TestAdvisorLosslessAndDeterministic(t *testing.T) {
	var runs [2][]Finding
	for i := range runs {
		lp := New(advisorStreamConfig(), newFake("blue"), nil)
		feedAdvisorStream(t, lp)
		st := lp.Stats()
		if lp.adv.seq != st.Recorded || st.Recorded != advisorStreamLen {
			t.Fatalf("advisor seq %d, recorded %d: want both %d", lp.adv.seq, st.Recorded, advisorStreamLen)
		}
		if st.Demotions != 1 || st.CatalogApplies != 1 {
			t.Fatalf("stream did not demote once and apply one DDL: %+v", st)
		}
		runs[i] = lp.AdvisorFindings()
	}
	kinds := map[string]bool{}
	for _, f := range runs[0] {
		kinds[f.Kind] = true
	}
	for _, k := range []string{FindingRegression, FindingCooldownBlocked} {
		if !kinds[k] {
			t.Fatalf("stream emitted no %s finding: %+v", k, runs[0])
		}
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("same stream, different findings:\n%+v\n%+v", runs[0], runs[1])
	}
}

// TestAdvisorUnderConcurrentRecords is the -race soak for the inline
// advisor: two recording goroutines, a DDL apply, and readers of the
// findings, Stats and /metrics, all at once. Every record still reaches the
// advisor.
func TestAdvisorUnderConcurrentRecords(t *testing.T) {
	cfg := advisorStreamConfig()
	lp := New(cfg, newFake("blue"), nil)
	fleet := NewMultiHTTPServer(oneTenant(NewHTTPServer(lp, HTTPOptions{})))

	const writers, turns = 2, 200
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < turns; i++ {
				q := fq(int64(g*4 + i%4))
				res, err := lp.Serve(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				lat := 5.0
				if i%3 == 2 {
					lat = 100
				}
				if !lp.Record(q, res.Eval, lat) {
					t.Errorf("record of %s refused", q.ID)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := lp.ApplyDDL([]catalog.DDL{{Kind: catalog.DDLDropTable, Table: "zz"}}); err != nil {
			t.Error(err)
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reads := 0; ; reads++ {
		select {
		case <-done:
			if reads == 0 {
				t.Fatal("readers never overlapped the records")
			}
			if st := lp.Stats(); lp.adv.seq != st.Recorded || st.Recorded != writers*turns {
				t.Fatalf("advisor seq %d, recorded %d: want both %d", lp.adv.seq, st.Recorded, writers*turns)
			}
			return
		default:
			_ = lp.AdvisorFindings()
			_ = lp.Stats()
			rec := httptest.NewRecorder()
			fleet.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/t/default/metrics", nil))
			if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), "foss_advisor_dropped_total") {
				t.Fatalf("metrics scrape: status %d, want 200 and no foss_advisor_dropped_total family", rec.Code)
			}
		}
	}
}

// TestHTTPAdvisorEndpoint drives the advisor end to end: regressing traffic
// through the loop, findings surfacing on GET /v1/advisor as soon as the
// feedback that caused them is acknowledged. A loop without an advisor
// answers 200 with enabled:false.
func TestHTTPAdvisorEndpoint(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100 // never drift: epoch stays 1
	cfg.Advisor = AdvisorConfig{Enabled: true}
	blue := newFake("blue")
	lp := New(cfg, blue, nil)
	t.Cleanup(func() { _ = lp.Close(context.Background()) })
	h := NewHTTPServer(lp, HTTPOptions{Resolve: resolveQ})
	_, base := serveFleet(t, h)

	code, out := getJSON(t, base+"/advisor")
	if code != http.StatusOK || out["enabled"] != true {
		t.Fatalf("advisor before traffic: %d %v", code, out)
	}
	if fs, _ := out["findings"].([]any); len(fs) != 0 {
		t.Fatalf("findings before traffic: %v", out)
	}

	// A window of executions at 10x the expert baseline fills it regressed.
	for i := 1; i <= advisorWindow; i++ {
		_, row := postJSON(t, base+"/optimize", `{"query_id": "q`+strconv.Itoa(i)+`"}`)
		sid := row["serve_id"].(string)
		if code, fb := postJSON(t, base+"/feedback", `{"serve_id": "`+sid+`", "latency_ms": 100}`); code != http.StatusOK {
			t.Fatalf("feedback: %d %v", code, fb)
		}
	}
	// The analysis ran inside Record: the finding is already there.
	_, out = getJSON(t, base+"/advisor")
	fs, _ := out["findings"].([]any)
	if len(fs) == 0 {
		t.Fatalf("no finding after regressing traffic: %v", out)
	}
	if f := fs[0].(map[string]any); f["kind"] != FindingRegression || f["epoch"] != float64(1) {
		t.Fatalf("unexpected finding %v", f)
	}
	if out["emitted"].(float64) < 1 {
		t.Fatalf("emitted counter lags findings: %v", out)
	}
	if _, ok := out["dropped"]; ok {
		t.Fatalf("response still carries a dropped counter: %v", out)
	}

	// Disabled advisor: still a 200, explicitly not enabled.
	cfg2 := syncConfig()
	cfg2.Detector.Threshold = 100
	base2, _ := newWireFixture(t, cfg2)
	code, out = getJSON(t, base2+"/advisor")
	if code != http.StatusOK || out["enabled"] != false {
		t.Fatalf("disabled advisor: %d %v", code, out)
	}
}

// TestAdvisorSchemaChurn drives real serves, records and a DDL apply through
// a tiered loop. The apply drops every tier-0 pin. When tier 0 carried a
// fifth or more of the serves before the apply, and the hot set does not
// re-earn its pins over the next advisorWindow serves, a schema-churn
// finding fires on the record that completes that window. When tier 0
// carried less, the same collapse is silent: there was nothing to churn.
func TestAdvisorSchemaChurn(t *testing.T) {
	run := func(t *testing.T, hits, cold int) (*Loop, []Finding) {
		t.Helper()
		cfg := tierConfig(tier.Config{Memory: true})
		cfg.Advisor = AdvisorConfig{Enabled: true}
		lp := New(cfg, newFake("blue"), nil)
		turn := func(v int64, lat float64, want int) {
			t.Helper()
			q := fq(v)
			res, err := lp.Serve(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Tier != want {
				t.Fatalf("%s served at tier %d, want %d", q.ID, res.Tier, want)
			}
			if !lp.Record(q, res.Eval, lat) {
				t.Fatalf("record of %s refused", q.ID)
			}
		}
		// The fake's expert runs at 10 ms: 5 is a win, 100 a regression.
		for range 3 {
			turn(1, 5, tier.Tier2) // three wins pin q1
		}
		for range hits {
			turn(1, 5, tier.Tier0)
		}
		for i := range cold {
			turn(int64(100+i), 100, tier.Tier2)
		}
		if _, err := lp.ApplyDDL([]catalog.DDL{{Kind: catalog.DDLDropTable, Table: "zz"}}); err != nil {
			t.Fatal(err)
		}
		if st := lp.Stats(); st.PinnedPlans != 0 {
			t.Fatalf("the apply left %d pins", st.PinnedPlans)
		}
		// The hot set comes back regressing, so it never re-earns its pin.
		for range advisorWindow - 1 {
			turn(1, 100, tier.Tier2)
		}
		for _, f := range lp.AdvisorFindings() {
			if f.Kind == FindingSchemaChurn {
				t.Fatalf("schema churn judged before a full window of serves: %+v", f)
			}
		}
		turn(1, 100, tier.Tier2)
		return lp, lp.AdvisorFindings()
	}
	churn := func(fs []Finding) []Finding {
		var out []Finding
		for _, f := range fs {
			if f.Kind == FindingSchemaChurn {
				out = append(out, f)
			}
		}
		return out
	}

	t.Run("fires", func(t *testing.T) {
		// 20 hits of 30 serves: tier 0 carried two thirds before the apply.
		lp, fs := run(t, 20, 7)
		got := churn(fs)
		if len(got) != 1 {
			t.Fatalf("findings = %+v, want one schema-churn", fs)
		}
		if f := got[0]; f.Ratio != 0 || f.Count != advisorWindow || f.Seq != lp.Stats().Recorded || f.Epoch != lp.Epoch() {
			t.Fatalf("schema-churn fields wrong: %+v (recorded %d, epoch %d)", f, lp.Stats().Recorded, lp.Epoch())
		}
	})
	t.Run("silent below a fifth", func(t *testing.T) {
		// 5 hits of 26 serves: tier 0 carried 19 % before the apply.
		if _, fs := run(t, 5, 18); len(churn(fs)) != 0 {
			t.Fatalf("schema churn fired on a workload tier 0 barely served: %+v", fs)
		}
	})
}
