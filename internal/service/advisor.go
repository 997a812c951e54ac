package service

// advisor.go — the self-diagnosis advisor: an analyst that watches the
// feedback stream and turns raw counters into findings an operator can act
// on. It runs inline, in O(1) per record, inside the Loop.mu section that
// journals the record, so it sees every record and DDL marker in journal
// order: nothing is sampled or dropped, and the findings are a deterministic
// function of the feedback stream.

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
)

// Finding kinds emitted by the advisor.
const (
	// FindingRegression: a sustained fraction of recent traffic ran slower
	// than the expert baseline by more than the regression ratio.
	FindingRegression = "regression"
	// FindingCooldownBlocked: the drift detector has been signalling drift
	// while the retrain cooldown suppressed the trigger, for many
	// consecutive records — the doctor knows it is behind and is not allowed
	// to catch up.
	FindingCooldownBlocked = "cooldown-blocked"
	// FindingSchemaChurn: a DDL apply invalidated tier-0 plan memory and the
	// hit rate stayed collapsed over the following observation window — the
	// workload's hot set is not re-earning its pins against the evolved
	// schema (a dropped index changed plan stability, or traffic shifted
	// with the schema change).
	FindingSchemaChurn = "schema-churn"
)

// AdvisorConfig switches the advisor on. The zero value disables it.
type AdvisorConfig struct {
	// Enabled turns the advisor on.
	Enabled bool
}

// The advisor's analysis constants.
const (
	// advisorWindow is the number of recent records the regression analysis
	// looks at; a regression finding needs a full window.
	advisorWindow = 64
	// regressionFrac is the fraction of the window that must regress before
	// a regression finding fires.
	regressionFrac = 0.10
	// regressionRatio is the served-vs-expert latency ratio past which one
	// record counts as regressed.
	regressionRatio = 1.5
	// cooldownTurns is the number of consecutive cooldown-suppressed drift
	// signals that triggers a cooldown-blocked finding.
	cooldownTurns = 8
	// maxFindings bounds the retained findings, oldest dropped first.
	maxFindings = 64
)

// Finding is one structured advisor emission.
type Finding struct {
	// Kind is one of the Finding* constants.
	Kind string `json:"kind"`
	// Detail is the human-readable diagnosis.
	Detail string `json:"detail"`
	// Epoch is the model generation the triggering record was served by.
	Epoch uint64 `json:"epoch"`
	// Seq is the ordinal of the triggering record among those the loop
	// recorded (1 = the first); DDL markers are not counted.
	Seq uint64 `json:"seq"`
	// Ratio is the measured fraction/ratio behind the finding (regression:
	// fraction of the window regressed).
	Ratio float64 `json:"ratio,omitempty"`
	// Count is the measured count behind the finding (regressed records,
	// blocked turns, serves since the DDL).
	Count int `json:"count,omitempty"`
}

// advisorObs is what Record hands the advisor per ingested execution (and
// what ApplyDDL hands it as a schema-change marker, ddl=true).
type advisorObs struct {
	epoch        uint64
	ratio        float64 // served-vs-expert latency ratio (1.0 = neutral)
	promoted     bool    // promoted and demoted feed Record's tier counters;
	demoted      bool    // the analysis itself does not read them
	driftBlocked bool    // detector signalled drift but the cooldown suppressed it

	// Schema-evolution channel: ddl marks a catalog apply; every obs carries
	// the loop's cumulative tier-0 hit and serve counters so the advisor can
	// compare the hit rate before and after the marker without touching loop
	// state.
	ddl      bool
	catEpoch uint64
	t0Hits   uint64
	served   uint64
}

// advisor owns the analysis state, which only ingest touches — under
// Loop.mu, or a unit test's single goroutine. findings and emitted are the
// surface readers share.
type advisor struct {
	emitted atomic.Uint64

	mu       sync.Mutex
	findings []Finding

	seq        uint64
	window     []bool // ring of the last advisorWindow records: regressed or not
	wpos       int
	regressed  int  // true entries in window
	regLatched bool // a regression finding is live; re-arm on recovery
	blocked    int  // consecutive cooldown-suppressed drift signals
	lastEpoch  uint64

	// Schema-churn state: set by a ddl marker, resolved once a full window of
	// serves has accumulated past it.
	ddlPending  bool
	ddlCatEpoch uint64
	ddlT0       uint64  // cumulative tier-0 hits at the marker
	ddlServed   uint64  // cumulative serves at the marker
	preT0Rate   float64 // tier-0 hit rate before the DDL landed
}

func newAdvisor() *advisor {
	return &advisor{window: make([]bool, 0, advisorWindow)}
}

// ingest runs the analysis for one observation in O(1); only emitting a
// finding allocates.
func (a *advisor) ingest(obs advisorObs) {
	if obs.ddl {
		// Schema-change marker: remember the pre-DDL tier-0 hit rate and
		// start the post-DDL measurement. The marker itself carries no
		// execution, so it skips the regression analysis entirely.
		a.ddlPending = true
		a.ddlCatEpoch = obs.catEpoch
		a.ddlT0, a.ddlServed = obs.t0Hits, obs.served
		a.preT0Rate = 0
		if obs.served > 0 {
			a.preT0Rate = float64(obs.t0Hits) / float64(obs.served)
		}
		return
	}
	a.seq++
	if a.ddlPending && obs.served >= a.ddlServed+advisorWindow {
		post := float64(obs.t0Hits-a.ddlT0) / float64(obs.served-a.ddlServed)
		a.ddlPending = false
		// Fires only when tier-0 was pulling real weight before the DDL and
		// lost most of it after; a workload that never pinned much has
		// nothing to churn.
		if a.preT0Rate >= 0.2 && post < a.preT0Rate/4 {
			a.emit(Finding{
				Kind:  FindingSchemaChurn,
				Epoch: obs.epoch,
				Seq:   a.seq,
				Ratio: post,
				Count: int(obs.served - a.ddlServed),
				Detail: fmt.Sprintf(
					"tier-0 hit rate collapsed after catalog epoch %d: %.0f%% before the DDL, %.0f%% over the %d serves since — the hot set is not re-earning its pins against the evolved schema",
					a.ddlCatEpoch, a.preT0Rate*100, post*100, obs.served-a.ddlServed),
			})
		}
	}
	if obs.epoch != a.lastEpoch {
		// New model generation: the regression latch and the blocked tally
		// describe the old model's behavior, not this one's.
		a.lastEpoch = obs.epoch
		a.regLatched = false
		a.blocked = 0
	}

	// Regression: fraction of the last advisorWindow records past
	// regressionRatio, counted as records enter and leave the ring.
	reg := obs.ratio > regressionRatio
	if len(a.window) < advisorWindow {
		a.window = append(a.window, reg)
	} else {
		if a.window[a.wpos] {
			a.regressed--
		}
		a.window[a.wpos] = reg
		a.wpos = (a.wpos + 1) % advisorWindow
	}
	if reg {
		a.regressed++
	}
	if len(a.window) == advisorWindow {
		frac := float64(a.regressed) / float64(len(a.window))
		switch {
		case frac >= regressionFrac && !a.regLatched:
			a.regLatched = true
			a.emit(Finding{
				Kind:  FindingRegression,
				Epoch: obs.epoch,
				Seq:   a.seq,
				Ratio: frac,
				Count: a.regressed,
				Detail: fmt.Sprintf(
					"%.0f%% of the last %d executions regressed past %.2fx the expert baseline since epoch %d",
					frac*100, len(a.window), regressionRatio, obs.epoch),
			})
		case frac < regressionFrac/2:
			// Re-arm only after the window clearly recovers, so a fraction
			// hovering at the threshold emits once, not per record.
			a.regLatched = false
		}
	}

	// Cooldown starvation: the detector keeps firing, the cooldown keeps
	// suppressing the retrain.
	if obs.driftBlocked {
		a.blocked++
		if a.blocked >= cooldownTurns {
			n := a.blocked
			a.blocked = 0
			a.emit(Finding{
				Kind:  FindingCooldownBlocked,
				Epoch: obs.epoch,
				Seq:   a.seq,
				Count: n,
				Detail: fmt.Sprintf(
					"drift detector armed but retrain cooldown-blocked for %d consecutive records at epoch %d",
					n, obs.epoch),
			})
		}
	} else {
		a.blocked = 0
	}
}

// emit appends one finding, oldest-first bounded by maxFindings.
func (a *advisor) emit(f Finding) {
	a.emitted.Add(1)
	a.mu.Lock()
	a.findings = append(a.findings, f)
	if over := len(a.findings) - maxFindings; over > 0 {
		a.findings = append(a.findings[:0], a.findings[over:]...)
	}
	a.mu.Unlock()
}

// snapshot copies the retained findings, oldest first.
func (a *advisor) snapshot() []Finding {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Finding(nil), a.findings...)
}

// advise stamps obs with the loop's cumulative counters and runs the
// advisor (if any) on it. Caller holds mu, so the advisor sees records and
// DDL markers in journal order.
func (lp *Loop) advise(obs advisorObs) {
	if lp.adv == nil {
		return
	}
	// Tier-0 hits before served, the order Stats reads them in.
	obs.t0Hits = lp.srv.hist[histPin].Count()
	obs.catEpoch, obs.served = lp.CatalogEpoch(), lp.srv.served.Load()
	lp.adv.ingest(obs)
}

// AdvisorEnabled reports whether the loop runs an advisor.
func (lp *Loop) AdvisorEnabled() bool { return lp.adv != nil }

// AdvisorFindings returns the advisor's retained findings, oldest first
// (nil when the advisor is disabled). A record is analyzed before Record
// returns.
func (lp *Loop) AdvisorFindings() []Finding {
	if lp.adv == nil {
		return nil
	}
	return lp.adv.snapshot()
}

// AdvisorCounters returns (emitted, dropped): findings emitted over the
// loop's lifetime (emission keeps counting past the maxFindings retention
// bound), and 0 — the advisor sees every record, so nothing is dropped.
func (lp *Loop) AdvisorCounters() (emitted, dropped uint64) {
	if lp.adv == nil {
		return 0, 0
	}
	return lp.adv.emitted.Load(), 0
}

// advisorResponse is the GET advisor body.
type advisorResponse struct {
	Enabled  bool      `json:"enabled"`
	Findings []Finding `json:"findings"`
	Emitted  uint64    `json:"emitted"`
}

// handleAdvisor serves the advisor's findings. A disabled advisor answers
// 200 with enabled:false — scraping it is never an error.
func (s *HTTPServer) handleAdvisor(w http.ResponseWriter, r *http.Request) {
	findings := s.lp.AdvisorFindings()
	if findings == nil {
		findings = []Finding{}
	}
	emitted, _ := s.lp.AdvisorCounters()
	writeJSON(w, http.StatusOK, advisorResponse{
		Enabled:  s.lp.AdvisorEnabled(),
		Findings: findings,
		Emitted:  emitted,
	})
}
