package service

// The wire handlers of one doctor: a JSON-over-HTTP projection of a tenant's
// Loop so traffic can reach the doctor from outside the process (the paper's
// service framing — SQL in, steered plan out, observed latency back in).
// HTTPServer holds the per-tenant wire state (loop, options, serve-id ring);
// the fleet mux in multi.go owns every route and calls these handlers under
// /v1/t/{tenant}/:
//
//	POST optimize  {"query_id": "..."} | {"query_ids": [...]}
//	               | {"query": {...}}  | {"queries": [{...}, ...]}
//	               optional "execute": true — the server executes the chosen
//	               plan on the active replica and records the feedback itself
//	               (a one-call doctor-loop turn)
//	POST feedback  {"serve_id": "...", "latency_ms": 12.3}
//	GET  stats
//	POST checkpoint — force a durable checkpoint (requires a store)
//	POST catalog   {"ddl": [{"kind": "drop-index", ...}, ...]} — apply one
//	               atomic schema-evolution batch to the live catalog
//	GET  catalog   — live catalog epoch, hash, and applied-DDL log
//	GET  metrics   — Prometheus text exposition (see httpmetrics.go)
//	GET  explain/{serve_id} — why the doctor chose that plan (explain.go)
//	GET  advisor   — advisor findings (advisor.go)
//	     repl/...  — the replication source (replhttp.go)
//
// Request bodies are size-capped (413 past 1 MiB) and strictly parsed:
// unknown fields are rejected so malformed specs fail loudly.
//
// Every optimize response row carries a serve_id; clients that execute plans
// themselves report the observed latency through feedback, which feeds the
// drift detector and (possibly) a background retrain — the same Record path
// in-process callers use. A batch request is N serves answered by one model
// generation (Loop.ServeBatch); a single is a batch of one.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/repl"
)

// HTTPOptions configures the HTTP projection of a Loop.
type HTTPOptions struct {
	// Resolve maps a query_id to a known query (typically the workload's
	// queries plus any drift variants). nil means only inline query specs
	// are accepted.
	Resolve func(id string) *query.Query
	// MaxPending bounds the served-plan ring awaiting feedback (FIFO
	// eviction). 0 defaults to 4096.
	MaxPending int

	// LeaderAddr is the leader's address, reported when a follower loop
	// (Loop.Follower) refuses a write: feedback without a forwarder,
	// checkpoint, catalog POST, "execute": true optimizes and the repl
	// source endpoints answer 403 naming it; reads serve normally.
	LeaderAddr string
	// ForwardFeedback, when set on a follower, relays feedback to the
	// tenant's leader in durable identity form (see NewFeedbackForwarder).
	ForwardFeedback func(ctx context.Context, q *query.Query, pe *planner.PlanEval, latencyMs float64) error
	// ReplStats, when set, surfaces the follower's replication-tailer
	// progress on /metrics (foss_repl_* families).
	ReplStats func() repl.Stats
}

// HTTPServer is one tenant's wire state — its loop, options and serve-id
// ring — behind the handlers the fleet mux routes to. Safe for concurrent
// use.
type HTTPServer struct {
	lp   *Loop
	opts HTTPOptions

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*pendingServe
	// order is the issuance-order ring of every remembered serve (live and
	// consumed alike), bounded by MaxPending; live is how many of them still
	// await feedback (the pending_feedback stat). Consumed entries stay in
	// the map so explain can answer for already-reported serves; their
	// retention is bounded separately by consumedOrder, and popping one off
	// either ring is bookkeeping, never an expiry.
	order         []uint64
	consumedOrder []uint64
	live          int
	// evictedThrough is the expiry horizon: every serve id at or below it
	// was evicted live (FIFO eviction before its feedback arrived), so
	// feedback for one is answered with 410 Gone / ErrServeIDExpired instead
	// of a generic not-found.
	evictedThrough uint64
	expired        atomic.Uint64 // ids evicted before their feedback arrived
}

// pendingServe is one served plan in the ring: the feedback target while
// live, the explain record for its retained lifetime. q, pe and res are
// immutable after insertion; consumed/latency flip under the server mu.
type pendingServe struct {
	q  *query.Query
	pe *planner.PlanEval
	// res is the serve-time decision context (epoch, tier, cache hit,
	// optimization time) — what explain reports.
	res Result
	// consumed marks feedback as recorded (client- or server-side); a
	// consumed entry answers 404 to further feedback but keeps explaining.
	consumed   bool
	hasLatency bool
	latencyMs  float64
}

// NewHTTPServer builds one tenant's wire state over an online loop.
func NewHTTPServer(lp *Loop, opts HTTPOptions) *HTTPServer {
	if opts.MaxPending <= 0 {
		opts.MaxPending = 4096
	}
	return &HTTPServer{lp: lp, opts: opts, pending: map[uint64]*pendingServe{}}
}

// maxBodyBytes bounds every request body: plans and feedback are small, so
// anything past 1 MiB is either a mistake or abuse — rejected with 413
// instead of buffered.
const maxBodyBytes = 1 << 20

// decodeBody decodes a JSON request body with the two hardening rules every
// handler shares: bodies are size-capped (413 past maxBodyBytes) and
// unknown fields are rejected (400), so a misspelled field fails loudly
// instead of half-parsing into a default. Returns false after writing the
// error response.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeErr(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return false
	}
	return true
}

// ---- wire types ----

// wireFilter is the JSON form of a filter predicate.
type wireFilter struct {
	Alias string  `json:"alias"`
	Col   string  `json:"col"`
	Op    string  `json:"op"` // eq ne lt le gt ge between in
	Val   int64   `json:"val"`
	Hi    int64   `json:"hi,omitempty"`
	Set   []int64 `json:"set,omitempty"`
}

// wireJoin is the JSON form of an equi-join predicate.
type wireJoin struct {
	LA string `json:"la"`
	LC string `json:"lc"`
	RA string `json:"ra"`
	RC string `json:"rc"`
}

// wireTable is the JSON form of a table reference.
type wireTable struct {
	Table string `json:"table"`
	Alias string `json:"alias"`
}

// wireQuery is the inline query spec accepted by optimize.
type wireQuery struct {
	ID      string       `json:"id,omitempty"`
	Tables  []wireTable  `json:"tables"`
	Joins   []wireJoin   `json:"joins"`
	Filters []wireFilter `json:"filters,omitempty"`
}

var wireOps = map[string]query.CmpOp{
	"eq": query.Eq, "ne": query.Ne, "lt": query.Lt, "le": query.Le,
	"gt": query.Gt, "ge": query.Ge, "between": query.Between, "in": query.In,
}

// toQuery converts and validates an inline spec.
func (wq wireQuery) toQuery() (*query.Query, error) {
	if len(wq.Tables) == 0 {
		return nil, fmt.Errorf("query spec has no tables")
	}
	q := &query.Query{ID: wq.ID}
	for _, t := range wq.Tables {
		q.Tables = append(q.Tables, query.TableRef{Table: t.Table, Alias: t.Alias})
	}
	for _, j := range wq.Joins {
		q.Joins = append(q.Joins, query.JoinPred{LA: j.LA, LC: j.LC, RA: j.RA, RC: j.RC})
	}
	for _, f := range wq.Filters {
		op, ok := wireOps[f.Op]
		if !ok {
			return nil, fmt.Errorf("unknown filter op %q", f.Op)
		}
		q.Filters = append(q.Filters, query.Filter{Alias: f.Alias, Col: f.Col, Op: op, Val: f.Val, Hi: f.Hi, Set: f.Set})
	}
	if q.ID == "" {
		q.ID = fmt.Sprintf("http_%x", q.Fingerprint())
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// optimizeRequest is the optimize body.
type optimizeRequest struct {
	QueryID  string      `json:"query_id,omitempty"`
	QueryIDs []string    `json:"query_ids,omitempty"`
	Query    *wireQuery  `json:"query,omitempty"`
	Queries  []wireQuery `json:"queries,omitempty"`
	// Execute runs the chosen plan on the active replica and records the
	// observed latency server-side (one-call doctor-loop turn).
	Execute bool `json:"execute,omitempty"`
}

// planJSON summarizes a chosen plan on the wire.
type planJSON struct {
	Order   []string `json:"order"`
	Methods []string `json:"methods"`
	Step    int      `json:"step"`
	ICPKey  string   `json:"icp_key"`
	EstCost float64  `json:"est_cost"`
	EstRows float64  `json:"est_rows"`
}

// optimizeRow is one served query in an optimize response.
type optimizeRow struct {
	// ServeID names this serve in the pending ring — the feedback target
	// for client-executed plans and the explain handle either way.
	// "execute": true rows are recorded server-side, so their slot is
	// already consumed: later feedback for one answers 404 (already
	// reported) and cannot double-count the execution.
	ServeID  string `json:"serve_id,omitempty"`
	QueryID  string `json:"query_id"`
	Epoch    uint64 `json:"epoch"`
	CacheHit bool   `json:"cache_hit"`
	// Tier reports the serving tier that produced the plan (0 = plan memory,
	// 2 = full AAM steering).
	Tier      int      `json:"tier"`
	OptTimeMs float64  `json:"opt_time_ms"`
	Plan      planJSON `json:"plan"`
	// LatencyMs is present only when the request asked the server to
	// execute ("execute": true).
	LatencyMs *float64 `json:"latency_ms,omitempty"`
}

// optimizeResponse is the optimize body for batch requests; single-query
// requests receive the bare optimizeRow.
type optimizeResponse struct {
	Results []optimizeRow `json:"results"`
}

// feedbackRequest is the feedback body.
type feedbackRequest struct {
	ServeID   string  `json:"serve_id"`
	LatencyMs float64 `json:"latency_ms"`
}

// statsResponse is a tenant's stats body (and, keyed by tenant, one row of the
// multi-tenant aggregate roll-up).
type statsResponse struct {
	Backend string    `json:"backend"`
	Stats   Stats     `json:"stats"`
	Cache   cacheJSON `json:"cache"`
	Pending int       `json:"pending_feedback"`
	// Expired counts serve_ids evicted from the pending ring before their
	// feedback arrived (each later report of one gets 410 Gone).
	Expired uint64 `json:"expired_serve_ids"`
}

type cacheJSON struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
	Size      int     `json:"size"`
	Capacity  int     `json:"capacity"`
	Epoch     uint64  `json:"epoch"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- handlers ----

func (s *HTTPServer) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req optimizeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Execute && s.lp.Follower() {
		// Server-side execution records feedback — a write. Plain optimizes
		// (plan out, no recording) serve fine from a follower.
		writeFollowerErr(w, s.opts.LeaderAddr, "server-side execution")
		return
	}
	single := req.QueryID != "" || req.Query != nil
	var qs []*query.Query
	add := func(q *query.Query) { qs = append(qs, q) }
	for _, id := range append(req.QueryIDs, req.QueryID) {
		if id == "" {
			continue
		}
		if s.opts.Resolve == nil {
			writeErr(w, http.StatusBadRequest, "query_id lookup not configured; send an inline query spec")
			return
		}
		q := s.opts.Resolve(id)
		if q == nil {
			writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown query_id %q", id))
			return
		}
		add(q)
	}
	specs := req.Queries
	if req.Query != nil {
		specs = append(specs, *req.Query)
	}
	for _, wq := range specs {
		q, err := wq.toQuery()
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad query spec: "+err.Error())
			return
		}
		add(q)
	}
	if len(qs) == 0 {
		writeErr(w, http.StatusBadRequest, "no query_id/query_ids/query/queries in request")
		return
	}

	results, err := s.lp.ServeBatch(r.Context(), qs)
	if err != nil {
		writeServeErr(w, err)
		return
	}
	rows := make([]optimizeRow, len(results))
	for i, res := range results {
		row := optimizeRow{
			QueryID:   qs[i].ID,
			Epoch:     res.Epoch,
			CacheHit:  res.CacheHit,
			Tier:      res.Tier,
			OptTimeMs: res.OptTime.Seconds() * 1000,
			Plan:      planSummary(res.Eval),
		}
		if req.Execute {
			// Server-side turn: execute, record, and run the slot through
			// the ring exactly like the two-call path would — inserted, then
			// immediately consumed. Capacity accounting and the eviction
			// horizon stay identical across both paths, and the serve
			// remains explainable. A row the catalog moved under answers
			// 409 for the whole batch; the rows before it ran and stay
			// Recorded (they are real observations).
			lat, err := s.lp.executeAndRecord(qs[i], res)
			if err != nil {
				writeServeErr(w, err)
				return
			}
			row.LatencyMs = &lat
			row.ServeID = s.rememberExecuted(qs[i], res.Eval, res, lat)
		} else {
			row.ServeID = s.remember(qs[i], res.Eval, res)
		}
		rows[i] = row
	}
	if single && len(rows) == 1 {
		writeJSON(w, http.StatusOK, rows[0])
		return
	}
	writeJSON(w, http.StatusOK, optimizeResponse{Results: rows})
}

func (s *HTTPServer) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req feedbackRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// Zero is a legitimate observation — sub-millisecond executions round
	// down to it; only negative latencies are nonsense.
	if req.LatencyMs < 0 {
		writeErr(w, http.StatusBadRequest, "latency_ms must be >= 0")
		return
	}
	if s.lp.Follower() && s.opts.ForwardFeedback == nil {
		writeFollowerErr(w, s.opts.LeaderAddr, "feedback ingestion")
		return
	}
	ps, err := s.take(req.ServeID)
	if err != nil {
		if errors.Is(err, fosserr.ErrServeIDExpired) {
			writeErr(w, http.StatusGone, err.Error())
			return
		}
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	if s.lp.Follower() {
		// Follower with a forwarder: the serve happened here (the serve_id
		// ring is local), but the observation trains the leader. Relay it in
		// durable identity form; the next checkpoint carries it back.
		if err := s.opts.ForwardFeedback(r.Context(), ps.q, ps.pe, req.LatencyMs); err != nil {
			writeErr(w, http.StatusBadGateway, "forward to leader: "+err.Error())
			return
		}
		s.noteLatency(ps, req.LatencyMs)
		writeJSON(w, http.StatusOK, map[string]any{"recorded": true, "forwarded": true, "leader": s.opts.LeaderAddr})
		return
	}
	if !s.lp.Record(ps.q, ps.pe, req.LatencyMs) {
		// The loop is draining: the observation was NOT ingested — a 200
		// here would be a false ack for a sample the doctor threw away.
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Sprintf("loop draining; feedback not recorded: %v", fosserr.ErrLoopClosed))
		return
	}
	s.noteLatency(ps, req.LatencyMs)
	writeJSON(w, http.StatusOK, map[string]any{"recorded": true, "epoch": s.lp.Epoch()})
}

func (s *HTTPServer) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

// statsSnapshot assembles the stats body; the multi-tenant server reuses
// it per shard for the aggregate roll-up.
func (s *HTTPServer) statsSnapshot() statsResponse {
	active := s.lp.Active()
	cs := active.CacheStats()
	s.mu.Lock()
	pending := s.live
	s.mu.Unlock()
	return statsResponse{
		Backend: active.BackendName(),
		Stats:   s.lp.Stats(),
		Cache: cacheJSON{
			Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
			HitRate: cs.HitRate(), Size: cs.Size, Capacity: cs.Capacity, Epoch: cs.Epoch,
		},
		Pending: pending,
		Expired: s.expired.Load(),
	}
}

// Loop returns the online loop this server fronts.
func (s *HTTPServer) Loop() *Loop { return s.lp }

// handleCheckpoint forces a durable checkpoint of the active replica — the
// operational "flush now" knob (pre-maintenance, pre-deploy). 412 when the
// loop runs without a store.
func (s *HTTPServer) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.lp.Follower() {
		writeFollowerErr(w, s.opts.LeaderAddr, "checkpointing")
		return
	}
	name, err := s.lp.Checkpoint()
	if err != nil {
		if errors.Is(err, fosserr.ErrNoStore) {
			writeErr(w, http.StatusPreconditionFailed, "no durability store attached (run with -state-dir)")
			return
		}
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"checkpoint": name, "epoch": s.lp.Epoch()})
}

// catalogRequest is the POST catalog body: one atomic schema-evolution
// batch (all statements apply, or none do).
type catalogRequest struct {
	DDL []catalog.DDL `json:"ddl"`
}

// catalogResponse describes the live catalog (GET and successful POST alike).
type catalogResponse struct {
	CatalogEpoch uint64        `json:"catalog_epoch"`
	CatalogHash  string        `json:"catalog_hash"`
	Epoch        uint64        `json:"epoch"` // serving epoch (bumped by POST)
	Applied      int           `json:"applied,omitempty"`
	Log          []catalog.DDL `json:"log,omitempty"`
}

// handleCatalogGet reports the live catalog's durable identity. It serves
// fine from a follower, whose catalog advances through checkpoint
// replication.
func (s *HTTPServer) handleCatalogGet(w http.ResponseWriter, r *http.Request) {
	active := s.lp.Active()
	writeJSON(w, http.StatusOK, catalogResponse{
		CatalogEpoch: active.CatalogEpoch(),
		CatalogHash:  fmt.Sprintf("%016x", active.CatalogHash()),
		Epoch:        s.lp.Epoch(),
		Log:          active.CatalogLog(),
	})
}

// handleCatalogPost applies one DDL batch to the live catalog.
func (s *HTTPServer) handleCatalogPost(w http.ResponseWriter, r *http.Request) {
	if s.lp.Follower() {
		writeFollowerErr(w, s.opts.LeaderAddr, "schema evolution")
		return
	}
	var req catalogRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.DDL) == 0 {
		writeErr(w, http.StatusBadRequest, "no ddl statements in request")
		return
	}
	epoch, err := s.lp.ApplyDDL(req.DDL)
	if err != nil {
		switch {
		case errors.Is(err, fosserr.ErrLoopClosed):
			writeErr(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, fosserr.ErrBadConfig):
			writeErr(w, http.StatusPreconditionFailed, err.Error())
		default:
			// Apply validates the batch against the live schema (unknown
			// table, duplicate index, ...) — the client's DDL, not a
			// server fault.
			writeErr(w, http.StatusUnprocessableEntity, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, catalogResponse{
		CatalogEpoch: epoch,
		CatalogHash:  fmt.Sprintf("%016x", s.lp.Active().CatalogHash()),
		Epoch:        s.lp.Epoch(),
		Applied:      len(req.DDL),
	})
}

// ---- serve-id ring ----

// remember stores a served plan for later feedback, evicting FIFO past
// MaxPending. Evicted ids advance the expiry horizon so their (too-late)
// feedback is classified as expired, not unknown.
func (s *HTTPServer) remember(q *query.Query, pe *planner.PlanEval, res Result) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("s%d", s.insertLocked(q, pe, res))
}

// rememberExecuted is remember for the one-call execute:true path: the slot
// enters the ring, then is consumed in the same critical section — the exact
// state the two-call path reaches after remember + take, so capacity
// accounting, the eviction horizon, and duplicate-feedback classification
// are identical across both paths.
func (s *HTTPServer) rememberExecuted(q *query.Query, pe *planner.PlanEval, res Result, latencyMs float64) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.insertLocked(q, pe, res)
	ps := s.pending[seq]
	s.consumeLocked(seq, ps)
	ps.hasLatency = true
	ps.latencyMs = latencyMs
	return fmt.Sprintf("s%d", seq)
}

// insertLocked allocates the next serve id, inserts the live entry, and runs
// FIFO eviction. Caller holds mu. With MaxPending ≥ 1 the just-inserted
// entry (at the ring's back) can never be the one evicted.
func (s *HTTPServer) insertLocked(q *query.Query, pe *planner.PlanEval, res Result) uint64 {
	s.nextID++
	seq := s.nextID
	s.pending[seq] = &pendingServe{q: q, pe: pe, res: res}
	s.order = append(s.order, seq)
	s.live++
	for len(s.order) > s.opts.MaxPending {
		drop := s.order[0]
		s.order = s.order[1:]
		if ps := s.pending[drop]; ps == nil || ps.consumed {
			// Already consumed by feedback (still retained for explain, or
			// already released by the consumed ring): popping it here is
			// bookkeeping, not an expiry — it must neither count nor move
			// the 410 horizon (a duplicate report stays a 404).
			continue
		}
		delete(s.pending, drop)
		s.live--
		s.expired.Add(1)
		if drop > s.evictedThrough {
			s.evictedThrough = drop
		}
	}
	return seq
}

// consumeLocked flips a live entry to consumed and hands its retention to
// the consumed ring (bounded by MaxPending; leaving THAT ring deletes the
// entry silently — its feedback already arrived, nothing expires). Caller
// holds mu.
func (s *HTTPServer) consumeLocked(seq uint64, ps *pendingServe) {
	ps.consumed = true
	s.live--
	s.consumedOrder = append(s.consumedOrder, seq)
	for len(s.consumedOrder) > s.opts.MaxPending {
		c := s.consumedOrder[0]
		s.consumedOrder = s.consumedOrder[1:]
		delete(s.pending, c)
	}
}

// take consumes a pending serve (one feedback per serve_id) and returns it.
// An id below the eviction horizon is gone for good —
// fosserr.ErrServeIDExpired (410 on the wire); an id the server never issued
// or already consumed stays a plain not-found (404).
func (s *HTTPServer) take(id string) (*pendingServe, error) {
	var seq uint64
	if _, err := fmt.Sscanf(id, "s%d", &seq); err != nil || fmt.Sprintf("s%d", seq) != id {
		return nil, fmt.Errorf("unknown serve_id %q", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ps, ok := s.pending[seq]; ok && !ps.consumed {
		s.consumeLocked(seq, ps)
		return ps, nil
	} else if ok {
		return nil, fmt.Errorf("unknown or already-reported serve_id %q", id)
	}
	if seq > 0 && seq <= s.evictedThrough {
		return nil, fmt.Errorf("serve_id %q evicted from the pending ring before its feedback arrived (ring holds %d): %w",
			id, s.opts.MaxPending, fosserr.ErrServeIDExpired)
	}
	return nil, fmt.Errorf("unknown or already-reported serve_id %q", id)
}

// noteLatency back-fills the observed latency onto a consumed entry once the
// loop has actually ingested it, so explain reports only recorded
// latencies.
func (s *HTTPServer) noteLatency(ps *pendingServe, latencyMs float64) {
	s.mu.Lock()
	ps.hasLatency = true
	ps.latencyMs = latencyMs
	s.mu.Unlock()
}

// ---- helpers ----

func planSummary(pe *planner.PlanEval) planJSON {
	methods := make([]string, len(pe.ICP.Methods))
	for i, m := range pe.ICP.Methods {
		methods[i] = m.String()
	}
	pj := planJSON{
		Order:   append([]string(nil), pe.ICP.Order...),
		Methods: methods,
		Step:    pe.Step,
		ICPKey:  pe.ICP.Key(),
	}
	if pe.CP != nil && pe.CP.Root != nil {
		pj.EstCost = pe.CP.Root.EstCost
		pj.EstRows = pe.CP.Root.EstRows
	}
	return pj
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

// writeServeErr maps serving errors onto wire statuses: planning failures
// are the client's query (422), a query or plan a DDL has outdated is a
// conflict with the live catalog (409), cancellations are timeouts (504), a
// closed loop is a draining service (503), the rest are server faults.
func writeServeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, fosserr.ErrNoPlan), errors.Is(err, fosserr.ErrNoCandidate):
		writeErr(w, http.StatusUnprocessableEntity, err.Error())
	case errors.Is(err, fosserr.ErrCatalogStale):
		writeErr(w, http.StatusConflict, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, fosserr.ErrLoopClosed):
		writeErr(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeErr(w, http.StatusInternalServerError, err.Error())
	}
}
