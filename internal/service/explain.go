package service

// explain.go — GET /v1/t/{tenant}/explain/{serve_id}: an EXPLAIN for the
// doctor's own decision. Every served plan already passes through the
// pendingServe ring on its way to feedback; explain reads that captured
// context back out, so the serve path pays nothing for explainability until
// someone asks. The response reconstructs the full story of one serve: the
// plan that was served (with its tree), the expert plan the traditional
// optimizer would have run, the hint diff between them, the tier decision
// that routed the request, and — when the replica supports it — the
// candidate pool with per-candidate AAM scores.

import (
	"context"
	"fmt"
	"net/http"

	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/tier"
)

// candidateExplainer is the optional replica capability behind the
// per-candidate score card: re-derive the candidate pool for a query and
// score every candidate against the selected plan. *core.System implements
// it; replicas without it (test fakes) simply explain without candidates.
type candidateExplainer interface {
	ExplainCandidates(ctx context.Context, q *query.Query) ([]planner.CandidateScore, error)
}

// explainPlanJSON is planJSON plus the rendered artifacts: the pg_hint_plan
// style hint string and the indented plan tree.
type explainPlanJSON struct {
	planJSON
	Hints string `json:"hints,omitempty"`
	Tree  string `json:"tree,omitempty"`
}

// hintDiffJSON is the structural diff between the served and expert plans.
type hintDiffJSON struct {
	// MatchesExpert: the served plan IS the expert plan (no steering).
	MatchesExpert bool `json:"matches_expert"`
	// OrderChanged: the join orders differ (method changes are only
	// enumerated when the orders line up).
	OrderChanged  bool     `json:"order_changed"`
	MethodChanges []string `json:"method_changes,omitempty"`
	ServedKey     string   `json:"served_key"`
	ExpertKey     string   `json:"expert_key"`
}

// explainResponse is the explain/{serve_id} body.
type explainResponse struct {
	ServeID     string `json:"serve_id"`
	QueryID     string `json:"query_id"`
	Fingerprint string `json:"fingerprint"`
	// Epoch is the model generation that served the plan (the candidate
	// score card, if present, is computed under CandidatesEpoch instead).
	Epoch        uint64  `json:"epoch"`
	Tier         int     `json:"tier"`
	TierDecision string  `json:"tier_decision"`
	CacheHit     bool    `json:"cache_hit"`
	OptTimeMs    float64 `json:"opt_time_ms"`
	// Recorded / LatencyMs report the feedback state: latency is present
	// once the execution was recorded (either path).
	Recorded  bool     `json:"recorded"`
	LatencyMs *float64 `json:"latency_ms,omitempty"`

	Served      explainPlanJSON  `json:"served"`
	Expert      *explainPlanJSON `json:"expert,omitempty"`
	ExpertError string           `json:"expert_error,omitempty"`
	HintDiff    *hintDiffJSON    `json:"hint_diff,omitempty"`

	// Candidates is the per-candidate AAM score card, re-derived under the
	// CURRENT model (CandidatesEpoch): after a hot-swap it explains what
	// today's model thinks of that pool, not a replay of the old epoch.
	Candidates      []planner.CandidateScore `json:"candidates,omitempty"`
	CandidatesEpoch uint64                   `json:"candidates_epoch,omitempty"`
	CandidatesError string                   `json:"candidates_error,omitempty"`
}

func (s *HTTPServer) handleExplain(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("serve_id")
	var seq uint64
	if _, err := fmt.Sscanf(id, "s%d", &seq); err != nil || fmt.Sprintf("s%d", seq) != id {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown serve_id %q", id))
		return
	}
	// Peek, don't consume: explaining a serve must not interfere with its
	// pending feedback. The snapshot copies the entry under mu so the
	// rendering below runs lock-free.
	s.mu.Lock()
	ps, ok := s.pending[seq]
	var snap pendingServe
	if ok {
		snap = *ps
	}
	horizon := s.evictedThrough
	s.mu.Unlock()
	if !ok {
		if seq > 0 && seq <= horizon {
			writeErr(w, http.StatusGone,
				fmt.Sprintf("serve_id %q left the ring (holds %d) before it was explained", id, s.opts.MaxPending))
			return
		}
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown serve_id %q", id))
		return
	}

	resp := explainResponse{
		ServeID:      id,
		QueryID:      snap.q.ID,
		Fingerprint:  fmt.Sprintf("%016x", snap.q.Fingerprint()),
		Epoch:        snap.res.Epoch,
		Tier:         snap.res.Tier,
		TierDecision: tierDecision(snap.res),
		CacheHit:     snap.res.CacheHit,
		OptTimeMs:    snap.res.OptTime.Seconds() * 1000,
		Recorded:     snap.consumed,
		Served:       explainPlan(snap.pe),
	}
	if snap.hasLatency {
		lat := snap.latencyMs
		resp.LatencyMs = &lat
	}

	active := s.lp.Active()
	if ecp, _, err := active.ExpertPlan(snap.q); err != nil {
		resp.ExpertError = err.Error()
	} else {
		ep := &explainPlanJSON{}
		ep.Tree = ecp.String()
		if ecp.Root != nil {
			ep.EstCost = ecp.Root.EstCost
			ep.EstRows = ecp.Root.EstRows
		}
		if eicp, err := plan.Extract(ecp); err != nil {
			resp.ExpertError = "hint diff unavailable: " + err.Error()
		} else {
			ep.planJSON.Order = append([]string(nil), eicp.Order...)
			ep.planJSON.Methods = methodNames(eicp.Methods)
			ep.planJSON.ICPKey = eicp.Key()
			ep.Hints = eicp.FormatHints()
			resp.HintDiff = diffICP(snap.pe.ICP, eicp)
		}
		resp.Expert = ep
	}

	if ce, ok := active.(candidateExplainer); ok {
		if scores, err := ce.ExplainCandidates(r.Context(), snap.q); err != nil {
			resp.CandidatesError = err.Error()
		} else {
			resp.Candidates = scores
			resp.CandidatesEpoch = s.lp.Epoch()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// explainPlan renders a served candidate: the planJSON summary (identical to
// the optimize row's — the round-trip test pins this bit-for-bit) plus the
// hint string and the plan tree.
func explainPlan(pe *planner.PlanEval) explainPlanJSON {
	ep := explainPlanJSON{planJSON: planSummary(pe)}
	ep.Hints = pe.ICP.FormatHints()
	if pe.CP != nil {
		ep.Tree = pe.CP.String()
	}
	return ep
}

// tierDecision renders the routing decision behind a serve.
func tierDecision(res Result) string {
	switch res.Tier {
	case tier.Tier0:
		return "tier-0 plan memory: feedback-proven pin answered without touching the model"
	default:
		if res.CacheHit {
			return "tier-2 full AAM steering: plan-cache hit on the active replica"
		}
		return "tier-2 full AAM steering: candidate pool scored by the advantage model"
	}
}

func methodNames(ms []plan.JoinMethod) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	return out
}

// diffICP computes the structural served-vs-expert hint diff.
func diffICP(served, expert plan.ICP) *hintDiffJSON {
	d := &hintDiffJSON{
		MatchesExpert: served.Equal(expert),
		ServedKey:     served.Key(),
		ExpertKey:     expert.Key(),
	}
	orderSame := len(served.Order) == len(expert.Order)
	if orderSame {
		for i := range served.Order {
			if served.Order[i] != expert.Order[i] {
				orderSame = false
				break
			}
		}
	}
	d.OrderChanged = !orderSame
	if orderSame {
		for i := range served.Methods {
			if i < len(expert.Methods) && served.Methods[i] != expert.Methods[i] {
				// Methods[i] is the method of join i+1; Order[i+1] is the
				// leaf that join adds.
				d.MethodChanges = append(d.MethodChanges, fmt.Sprintf(
					"join %d (%s): expert %s -> served %s",
					i+1, served.Order[i+1], expert.Methods[i], served.Methods[i]))
			}
		}
	}
	return d
}
