package service

// Advisor emission tests: ingest() is driven synchronously with synthetic
// observation streams, so every finding kind — regression (with its latch),
// plan-thrash, cooldown-blocked — is pinned deterministically. The wire test
// at the bottom covers the async path end to end: real traffic through the
// loop, findings surfacing on GET /v1/advisor.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/foss-db/foss/internal/query"
)

// TestAdvisorRegressionLatch: a regression finding fires once the window
// fills and the regressed fraction crosses the threshold, stays latched while
// the fraction hovers, and re-arms only after clear recovery.
func TestAdvisorRegressionLatch(t *testing.T) {
	a := newAdvisor(AdvisorConfig{Enabled: true, Window: 4, RegressionFrac: 0.5, RegressionRatio: 1.5})
	obs := func(ratio float64) { a.ingest(advisorObs{epoch: 1, ratio: ratio}) }

	obs(1)
	obs(1)
	obs(1)
	if got := a.snapshot(); len(got) != 0 {
		t.Fatalf("finding before the window filled: %+v", got)
	}
	obs(10) // window full: 1/4 regressed, below the 0.5 threshold
	if got := a.snapshot(); len(got) != 0 {
		t.Fatalf("finding below RegressionFrac: %+v", got)
	}
	obs(10) // 2/4 regressed → fire
	got := a.snapshot()
	if len(got) != 1 || got[0].Kind != FindingRegression {
		t.Fatalf("findings = %+v, want one regression", got)
	}
	if got[0].Count != 2 || got[0].Ratio != 0.5 || got[0].Epoch != 1 {
		t.Fatalf("regression finding fields wrong: %+v", got[0])
	}
	// The window keeps regressing: the latch holds, no re-emission per record.
	obs(10)
	obs(10)
	if got := a.snapshot(); len(got) != 1 {
		t.Fatalf("latched regression re-emitted: %+v", got)
	}
	// Recovery below RegressionFrac/2 re-arms the latch...
	obs(1)
	obs(1)
	obs(1)
	obs(1)
	if got := a.snapshot(); len(got) != 1 {
		t.Fatalf("recovery emitted spuriously: %+v", got)
	}
	// ...so the next sustained regression fires a second finding.
	obs(10)
	obs(10)
	if got := a.snapshot(); len(got) != 2 {
		t.Fatalf("re-armed regression did not fire: %+v", got)
	}
}

// TestAdvisorPlanThrash: repeated demotions of one fingerprint fire a thrash
// finding naming it; other fingerprints' demotions don't pool together, and
// emission resets that fingerprint's cycle count.
func TestAdvisorPlanThrash(t *testing.T) {
	a := newAdvisor(AdvisorConfig{Enabled: true, ThrashCycles: 2})
	a.ingest(advisorObs{epoch: 1, fp: 7, qid: "q7", demoted: true})
	a.ingest(advisorObs{epoch: 1, fp: 8, qid: "q8", demoted: true}) // different fp: no pooling
	if got := a.snapshot(); len(got) != 0 {
		t.Fatalf("thrash before ThrashCycles: %+v", got)
	}
	a.ingest(advisorObs{epoch: 1, fp: 7, qid: "q7", demoted: true})
	got := a.snapshot()
	if len(got) != 1 || got[0].Kind != FindingPlanThrash {
		t.Fatalf("findings = %+v, want one plan-thrash", got)
	}
	if got[0].Fingerprint != 7 || got[0].QueryID != "q7" || got[0].Count != 2 {
		t.Fatalf("thrash finding fields wrong: %+v", got[0])
	}
	// Emission reset the count: one more demotion is not enough again.
	a.ingest(advisorObs{epoch: 1, fp: 7, qid: "q7", demoted: true})
	if got := a.snapshot(); len(got) != 1 {
		t.Fatalf("thrash count did not reset on emission: %+v", got)
	}
}

// TestAdvisorCooldownBlocked: only a consecutive streak of cooldown-
// suppressed drift signals fires; any unblocked record resets it.
func TestAdvisorCooldownBlocked(t *testing.T) {
	a := newAdvisor(AdvisorConfig{Enabled: true, CooldownTurns: 3})
	blocked := func(b bool) { a.ingest(advisorObs{epoch: 1, driftBlocked: b}) }
	blocked(true)
	blocked(true)
	blocked(false) // streak broken
	blocked(true)
	blocked(true)
	if got := a.snapshot(); len(got) != 0 {
		t.Fatalf("broken streak fired: %+v", got)
	}
	blocked(true)
	got := a.snapshot()
	if len(got) != 1 || got[0].Kind != FindingCooldownBlocked || got[0].Count != 3 {
		t.Fatalf("findings = %+v, want one cooldown-blocked with count 3", got)
	}
}

// TestAdvisorEpochReset: a hot-swap (epoch change) resets the regression
// latch and the per-fingerprint thrash tallies — the old model's pathology
// must not carry into the new model's record.
func TestAdvisorEpochReset(t *testing.T) {
	a := newAdvisor(AdvisorConfig{Enabled: true, Window: 2, RegressionFrac: 0.5, RegressionRatio: 1.5, ThrashCycles: 2})
	a.ingest(advisorObs{epoch: 1, ratio: 10})
	a.ingest(advisorObs{epoch: 1, ratio: 10, fp: 7, demoted: true})
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
	// The thrash tally restarted: one pre-swap demotion plus one post-swap
	// demotion must not add up to ThrashCycles.
	a.ingest(advisorObs{epoch: 2, ratio: 1, fp: 7, demoted: true})
	for _, f := range a.snapshot() {
		if f.Kind == FindingPlanThrash {
			t.Fatalf("thrash cycles pooled across epochs: %+v", f)
		}
	}
}

// TestAdvisorBackpressureAndRetention: offers past the channel depth drop
// and count; retained findings are FIFO-bounded while the emitted counter
// keeps the lifetime total.
func TestAdvisorBackpressureAndRetention(t *testing.T) {
	a := newAdvisor(AdvisorConfig{Enabled: true, Depth: 1})
	a.offer(advisorObs{})
	a.offer(advisorObs{})
	a.offer(advisorObs{})
	if got := a.dropped.Load(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}

	b := newAdvisor(AdvisorConfig{Enabled: true, ThrashCycles: 1, MaxFindings: 2})
	for fp := uint64(1); fp <= 3; fp++ {
		b.ingest(advisorObs{epoch: 1, fp: fp, demoted: true})
	}
	got := b.snapshot()
	if len(got) != 2 || got[0].Fingerprint != 2 || got[1].Fingerprint != 3 {
		t.Fatalf("retention not FIFO-bounded at 2: %+v", got)
	}
	if b.emitted.Load() != 3 {
		t.Fatalf("emitted = %d, want the lifetime 3", b.emitted.Load())
	}
}

// TestWaitReturnsWithAdvisorEnabled: Wait drains transient retrain work, not
// the loop-lifetime advisor goroutine — on a quiet loop with the advisor on,
// Wait must return immediately instead of blocking until Close (a caller
// that drains its stream and then Waits would deadlock on the advisor).
func TestWaitReturnsWithAdvisorEnabled(t *testing.T) {
	cfg := syncConfig()
	cfg.Advisor = AdvisorConfig{Enabled: true, Window: 4}
	lp := New(cfg, newFake("blue"), newFake("green"), nil)
	t.Cleanup(func() { _ = lp.Close(context.Background()) })

	done := make(chan struct{})
	go func() { lp.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait blocked on the advisor goroutine")
	}
}

// TestHTTPAdvisorEndpoint drives the async path end to end: regressing
// traffic through the loop, the advisor goroutine analyzing off the record
// path, findings surfacing on GET /v1/advisor. A loop without an advisor
// answers 200 with enabled:false.
func TestHTTPAdvisorEndpoint(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100 // never drift: epoch stays 1
	cfg.Advisor = AdvisorConfig{Enabled: true, Window: 2, RegressionFrac: 0.5, RegressionRatio: 1.5}
	blue, green := newFake("blue"), newFake("green")
	lp := New(cfg, blue, green, nil)
	t.Cleanup(func() { _ = lp.Close(context.Background()) })
	h := NewHTTPServer(lp, HTTPOptions{Resolve: func(id string) *query.Query {
		v, err := strconv.ParseInt(strings.TrimPrefix(id, "q"), 10, 64)
		if err != nil {
			return nil
		}
		return fq(v)
	}})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	code, out := getJSON(t, ts.URL+"/v1/advisor")
	if code != http.StatusOK || out["enabled"] != true {
		t.Fatalf("advisor before traffic: %d %v", code, out)
	}
	if fs, _ := out["findings"].([]any); len(fs) != 0 {
		t.Fatalf("findings before traffic: %v", out)
	}

	// Two executions at 10x the expert baseline fill the window regressed.
	for i := 1; i <= 2; i++ {
		_, row := postJSON(t, ts.URL+"/v1/optimize", `{"query_id": "q`+strconv.Itoa(i)+`"}`)
		sid := row["serve_id"].(string)
		if code, fb := postJSON(t, ts.URL+"/v1/feedback", `{"serve_id": "`+sid+`", "latency_ms": 100}`); code != http.StatusOK {
			t.Fatalf("feedback: %d %v", code, fb)
		}
	}
	// The analysis is asynchronous: poll until the finding lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, out = getJSON(t, ts.URL+"/v1/advisor")
		if fs, _ := out["findings"].([]any); len(fs) > 0 {
			f := fs[0].(map[string]any)
			if f["kind"] != FindingRegression || f["epoch"] != float64(1) {
				t.Fatalf("unexpected finding %v", f)
			}
			if out["emitted"].(float64) < 1 {
				t.Fatalf("emitted counter lags findings: %v", out)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no finding after regressing traffic: %v", out)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Disabled advisor: still a 200, explicitly not enabled.
	cfg2 := syncConfig()
	cfg2.Detector.Threshold = 100
	ts2, _, _ := newWireFixture(t, cfg2)
	code, out = getJSON(t, ts2.URL+"/v1/advisor")
	if code != http.StatusOK || out["enabled"] != false {
		t.Fatalf("disabled advisor: %d %v", code, out)
	}
}
