package service

// The replication wire surface, under /v1/t/{tenant}/ like every tenant
// endpoint. On a leader:
//
//	GET  repl/manifest          — the current recovery point (404 until the
//	                              first checkpoint lands, 412 without a store)
//	GET  repl/checkpoint/{name} — the named sealed checkpoint blob
//	POST repl/feedback          — feedback forwarded from a follower, in
//	                              durable identity form (query × incomplete
//	                              plan × step × latency): serve_ids never
//	                              cross processes, so the forwarded form
//	                              carries what WAL records carry and the
//	                              leader rebuilds the executed candidate
//	                              deterministically
//
// On a follower the same paths answer 403 (a follower cannot be a
// replication source — it has no store — and does not accept writes).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
)

// replFeedbackRequest is the POST repl/feedback body: one executed
// plan's durable identity plus the observed latency — the cross-process
// form of feedback.
type replFeedbackRequest struct {
	Query     wireQuery `json:"query"`
	Order     []string  `json:"order"`
	Methods   []string  `json:"methods"`
	Step      int       `json:"step"`
	LatencyMs float64   `json:"latency_ms"`
}

// wireMethods maps plan-method wire names (the same strings planJSON
// emits) back to join methods.
var wireMethods = map[string]plan.JoinMethod{
	"HashJoin": plan.HashJoin, "MergeJoin": plan.MergeJoin, "NestLoop": plan.NestLoop,
}

func (req replFeedbackRequest) toICP() (plan.ICP, error) {
	icp := plan.ICP{Order: append([]string(nil), req.Order...)}
	if len(req.Methods) != 0 && len(req.Methods) != len(req.Order)-1 {
		return plan.ICP{}, fmt.Errorf("methods count %d does not match order length %d", len(req.Methods), len(req.Order))
	}
	for _, name := range req.Methods {
		m, ok := wireMethods[name]
		if !ok {
			return plan.ICP{}, fmt.Errorf("unknown join method %q", name)
		}
		icp.Methods = append(icp.Methods, m)
	}
	return icp, nil
}

func (s *HTTPServer) handleReplManifest(w http.ResponseWriter, r *http.Request) {
	if s.lp.Follower() {
		writeFollowerErr(w, s.opts.LeaderAddr, "checkpoint replication")
		return
	}
	m, ok, err := s.lp.ReplManifest()
	if err != nil {
		writeErr(w, http.StatusPreconditionFailed, "no durability store attached (run with -state-dir)")
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, "no checkpoint published yet")
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *HTTPServer) handleReplCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.lp.Follower() {
		writeFollowerErr(w, s.opts.LeaderAddr, "checkpoint replication")
		return
	}
	// PathValue decodes %2F, so the name may hold a slash or a dot-segment;
	// ReplCheckpointBlob admits only names store.ValidCheckpointName accepts.
	blob, err := s.lp.ReplCheckpointBlob(r.PathValue("name"))
	if err != nil {
		if errors.Is(err, fosserr.ErrNoStore) {
			writeErr(w, http.StatusPreconditionFailed, "no durability store attached (run with -state-dir)")
			return
		}
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

func (s *HTTPServer) handleReplFeedback(w http.ResponseWriter, r *http.Request) {
	if s.lp.Follower() {
		writeFollowerErr(w, s.opts.LeaderAddr, "feedback ingestion")
		return
	}
	var req replFeedbackRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.LatencyMs < 0 {
		writeErr(w, http.StatusBadRequest, "latency_ms must be >= 0")
		return
	}
	q, err := req.Query.toQuery()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad query spec: "+err.Error())
		return
	}
	icp, err := req.toICP()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad plan identity: "+err.Error())
		return
	}
	// Rebuild the executed candidate from its durable identity, exactly as
	// WAL replay does — the rebuilt encoding is bit-identical to what a
	// local serve would have produced, so forwarded feedback trains the
	// leader the same way local feedback does.
	pe, err := s.lp.Active().RebuildEval(q, icp, req.Step)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "rebuild plan: "+err.Error())
		return
	}
	if !s.lp.Record(q, pe, req.LatencyMs) {
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Sprintf("loop draining; feedback not recorded: %v", fosserr.ErrLoopClosed))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"recorded": true, "epoch": s.lp.Epoch()})
}

// writeFollowerErr answers a write addressed to a follower: 403 with the
// leader's address in the body so clients (and the follower's own feedback
// forwarder) know where writes go.
func writeFollowerErr(w http.ResponseWriter, leader, what string) {
	writeJSON(w, http.StatusForbidden, map[string]any{
		"error":  fmt.Sprintf("%v: %s happens on the leader", fosserr.ErrNotLeader, what),
		"leader": leader,
	})
}

// NewFeedbackForwarder builds the follower-side feedback forwarder: it
// POSTs executed-plan feedback to {base}/repl/feedback in durable identity
// form. base is the tenant's URL prefix on the leader,
// "http://leader:8475/v1/t/{tenant}" — the same shape repl.NewHTTPSource
// takes.
func NewFeedbackForwarder(base string) func(ctx context.Context, q *query.Query, pe *planner.PlanEval, latencyMs float64) error {
	client := &http.Client{Timeout: 10 * time.Second}
	return func(ctx context.Context, q *query.Query, pe *planner.PlanEval, latencyMs float64) error {
		req := replFeedbackRequest{
			Query:     toWireQuery(q),
			Order:     append([]string(nil), pe.ICP.Order...),
			Step:      pe.Step,
			LatencyMs: latencyMs,
		}
		for _, m := range pe.ICP.Methods {
			req.Methods = append(req.Methods, m.String())
		}
		return postForward(ctx, client, base+"/repl/feedback", req)
	}
}

// toWireQuery is wireQuery.toQuery's inverse — the forwarded feedback's
// query spec.
func toWireQuery(q *query.Query) wireQuery {
	wq := wireQuery{ID: q.ID}
	for _, t := range q.Tables {
		wq.Tables = append(wq.Tables, wireTable{Table: t.Table, Alias: t.Alias})
	}
	for _, j := range q.Joins {
		wq.Joins = append(wq.Joins, wireJoin{LA: j.LA, LC: j.LC, RA: j.RA, RC: j.RC})
	}
	for _, f := range q.Filters {
		wq.Filters = append(wq.Filters, wireFilter{
			Alias: f.Alias, Col: f.Col, Op: wireOpName(f.Op), Val: f.Val, Hi: f.Hi, Set: f.Set,
		})
	}
	return wq
}

func wireOpName(op query.CmpOp) string {
	for name, o := range wireOps {
		if o == op {
			return name
		}
	}
	return ""
}

// postForward POSTs a JSON body and classifies the response: 2xx is
// success, anything else surfaces the upstream's error text.
func postForward(ctx context.Context, client *http.Client, url string, body any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("forward to %s: %s: %s", url, resp.Status, msg)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
