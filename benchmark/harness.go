package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/learner"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/tier"
	"github.com/foss-db/foss/internal/workload"
)

// The doctor every workload measures is the one an operator gets from fossd's
// flag defaults, shrunk only where the time cap forces it: data scale 0.35
// and three training iterations instead of six.
const (
	trainIters = 3
	// doctorSeed seeds data generation and the models. It is fixed: --seed
	// varies the traffic, not the system under test.
	doctorSeed = 1
)

// sizing is everything that makes a pass long. The benchmark always runs at
// the full size below; the smoke test swaps in a shrunken copy so that
// `go test ./...` keeps every workload alive in seconds.
type sizing struct {
	scale     float64            // data scale factor
	shrink    func(*core.Config) // applied over the operator defaults; nil at full size
	planCache int                // plan-cache entries (fossd's -cache default)
	pool      int                // distinct fingerprints; > planCache so a fixed-order cycle never hits
	hot       int                // first hot pool queries; < planCache so repeats always hit
	wireIDs   int                // query ids per wire_fleet tenant
	pre, post int                // drift_learn stream turns before and after the shift
	restarts  int                // warm restarts after the crash
}

var size = sizing{scale: 0.35, planCache: 256, pool: 400, hot: 64, wireIDs: 48, pre: 32, post: 64, restarts: 10}

func doctorConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = doctorSeed
	cfg.PlanCache = size.planCache
	cfg.Workers = 1
	cfg.Learner.Iterations = trainIters
	if size.shrink != nil {
		size.shrink(&cfg)
	}
	return cfg
}

// quietLoop is fossd's serving configuration (tier-0 memory on, tier-1 greedy
// off, advisor on) with retrain triggers out of reach, so a workload that is
// not about learning never pays for a retrain mid-measurement.
func quietLoop() service.Config {
	return service.Config{
		Detector:          service.DetectorConfig{Window: 32, Threshold: 1e12, MinSamples: 32, NoveltyFrac: 0},
		Cooldown:          1 << 30,
		RetrainIterations: 1,
		Background:        true,
		Tier:              tier.Config{Memory: true},
		Advisor:           service.AdvisorConfig{Enabled: true},
	}
}

// runEnv is what one pass of one workload is given and fills in.
type runEnv struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
	rec     *recorder
	tr      *tracer
	began   time.Time // process-side start of set-up
}

// phase converts a share of the pass's measured seconds into a duration.
func (e *runEnv) phase(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

// setupDone records setup_s — everything from the start of the pass (data
// generation, training, boot, warm-up) until the first timed operation — and
// the part of it spent in the trainings offline training runs.
func (e *runEnv) setupDone(trainS float64, trainings int) {
	e.rec.set("setup_s", time.Since(e.began).Seconds(), 1)
	e.rec.set("train_s", trainS, trainings)
}

// recorder collects one pass's metrics, operation counts and correctness
// violations. It is used from the workload's main goroutine only; client
// goroutines hand their samples over when they finish.
type recorder struct {
	metrics    map[string]sample
	attempted  int
	failed     int
	violations []string
}

type sample struct {
	v float64
	n int // observations behind the value
}

func newRecorder() *recorder { return &recorder{metrics: map[string]sample{}} }

func (r *recorder) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.violate("metric %s is not finite (%v)", name, v)
		v = 0
	}
	r.metrics[name] = sample{v, n}
}

// setTimes records a timing metric as the median and a named upper
// percentile, both with the sample count.
func (r *recorder) setTimes(p50Name, tailName string, tail float64, xs []float64) {
	sort.Float64s(xs)
	r.set(p50Name, quantile(xs, 0.5), len(xs))
	r.set(tailName, quantile(xs, tail), len(xs))
}

// violate records a failed correctness check. Each one counts as a failed
// operation and makes the pass exit non-zero.
func (r *recorder) violate(format string, args ...any) {
	r.failed++
	r.note(format, args...)
}

// note keeps the text of a violation whose operations the caller has already
// counted as failed.
func (r *recorder) note(format string, args ...any) {
	if len(r.violations) < 32 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// quantile reads the p-quantile off an ascending slice by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timed is one timed turn: when it completed, as an offset into its phase,
// and how long it took in µs.
type timed struct {
	at time.Duration
	us float64
}

// latencies returns the turns' latencies in µs, ascending.
func latencies(turns []timed) []float64 {
	us := make([]float64, len(turns))
	for i, t := range turns {
		us[i] = t.us
	}
	sort.Float64s(us)
	return us
}

// phaseWindows is how many equal time windows a measured phase is cut into.
const phaseWindows = 8

// recordTurns emits the gated turn metrics of a phase that ran for dur. The
// phase is cut into phaseWindows equal windows; each window yields its own
// completion rate and median latency, and the metric is the median over the
// windows. A burst of interference from outside the process — this class of
// machine loses 10–20% of a core for a second or two at a time — then moves a
// window or two, not the reported number, while a change to the program moves
// every window. weight is how many turns each observation stands for (the hot
// path times one turn in hotSample).
func recordTurns(rec *recorder, obs []timed, dur time.Duration, weight float64) {
	per := make([][]float64, phaseWindows)
	width := dur / phaseWindows
	for _, o := range obs {
		w := min(int(o.at/width), phaseWindows-1)
		per[w] = append(per[w], o.us)
	}
	var rates, p50s []float64
	for _, xs := range per {
		if len(xs) == 0 {
			continue
		}
		sort.Float64s(xs)
		rates = append(rates, float64(len(xs))*weight/width.Seconds())
		p50s = append(p50s, quantile(xs, 0.5))
	}
	rec.set("turns_per_s", median(rates), len(obs))
	rec.set("turn_p50_us", median(p50s), len(obs))
}

// ---- tracing ----

// span is one timed call into a layer, recorded by the harness around the
// call. Parent is the index of the span that caused it (-1 for a root) and
// Req groups the spans of one request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer was created
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory and writes them out when the pass ends. It is
// not safe for concurrent use: each client goroutine traces into its own and
// the workload merges them. A disabled tracer records nothing, which is the
// untraced pass.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// fork returns an empty tracer sharing this one's clock, for one client.
func (t *tracer) fork() *tracer { return &tracer{on: t.on, t0: t.t0} }

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// merge appends a forked tracer's spans, rebasing their parent indices.
func (t *tracer) merge(o *tracer) {
	base := len(t.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// durations returns the duration in µs of every span with the name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// perParent sums, for every span named parent, the durations (µs) of its
// direct children named child, and counts them.
func (t *tracer) perParent(parent, child string) (sums, counts []float64) {
	idx := map[int]int{}
	for i, s := range t.spans {
		if s.Name == parent {
			idx[i] = len(sums)
			sums = append(sums, 0)
			counts = append(counts, 0)
		}
	}
	for _, s := range t.spans {
		if s.Name != child {
			continue
		}
		if k, ok := idx[s.Parent]; ok {
			sums[k] += float64(s.End-s.Start) / 1e3
			counts[k]++
		}
	}
	return sums, counts
}

func (t *tracer) flush(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- the doctor under test ----

// doctor is one trained system over the JOB workload.
type doctor struct {
	w      *workload.Workload
	sys    *core.System
	trainS float64
	iters  []learner.IterStats
	iterS  []float64 // gap between progress callbacks, seconds
}

// trainDoctor generates the data and trains the offline model: the part of
// set-up every workload shares. The caller enables the online loop.
func trainDoctor(ctx context.Context) (*doctor, error) {
	w, err := workload.Load("job", workload.Options{Seed: doctorSeed, Scale: size.scale})
	if err != nil {
		return nil, err
	}
	sys, err := core.New(w, doctorConfig())
	if err != nil {
		return nil, err
	}
	d := &doctor{w: w, sys: sys}
	start := time.Now()
	last := start
	err = sys.TrainContext(ctx, func(st learner.IterStats) {
		now := time.Now()
		d.iterS = append(d.iterS, now.Sub(last).Seconds())
		d.iters = append(d.iters, st)
		last = now
	})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	d.trainS = time.Since(start).Seconds()
	return d, nil
}

// baseQueries returns the workload's own queries, train then test, keeping
// the first of any that share a fingerprint.
func baseQueries(w *workload.Workload) []*query.Query {
	seen := map[uint64]bool{}
	var out []*query.Query
	for _, q := range w.All() {
		if !seen[q.Fingerprint()] {
			seen[q.Fingerprint()] = true
			out = append(out, q)
		}
	}
	return out
}

// queryPool returns n queries with pairwise distinct fingerprints: the
// workload's own queries first, in workload order, then seeded
// selectivity-drift variants of them. The head of the pool is therefore the
// same for every seed and the tail is what --seed generates.
func queryPool(w *workload.Workload, seed int64, n int) ([]*query.Query, error) {
	seen := map[uint64]bool{}
	var pool []*query.Query
	add := func(q *query.Query) {
		if len(pool) < n && !seen[q.Fingerprint()] {
			seen[q.Fingerprint()] = true
			pool = append(pool, q)
		}
	}
	for _, q := range baseQueries(w) {
		add(q)
	}
	for round := int64(0); len(pool) < n && round < 8; round++ {
		ds, err := workload.Drift(w, workload.DriftSelectivity, workload.DriftOptions{
			Seed: seed*8 + round + 1, PreLen: 1, PostLen: 4 * n,
		})
		if err != nil {
			return nil, err
		}
		for _, q := range ds.Post {
			add(q)
		}
	}
	if len(pool) < n {
		return nil, fmt.Errorf("query pool: only %d distinct fingerprints, want %d", len(pool), n)
	}
	return pool, nil
}

// simDB is the harness playing the database. Execution latency is a
// deterministic function of the plan, so it is computed once per (query,
// incomplete plan) and replayed from memory; callers keep it outside every
// timed section.
type simDB struct {
	sys    *core.System
	lat    map[string]float64
	expert map[uint64]float64
}

func newSimDB(sys *core.System) *simDB {
	return &simDB{sys: sys, lat: map[string]float64{}, expert: map[uint64]float64{}}
}

func planKey(q *query.Query, icp plan.ICP) string {
	return fmt.Sprintf("%x/%s", q.Fingerprint(), icp.Key())
}

// latency returns the execution latency (ms) of a served plan.
func (db *simDB) latency(pe *planner.PlanEval) float64 {
	k := planKey(pe.Q, pe.ICP)
	if v, ok := db.lat[k]; ok {
		return v
	}
	v := db.sys.Execute(pe.CP)
	db.lat[k] = v
	return v
}

// expertLatency returns the latency (ms) of the backend's own plan for q:
// the baseline the doctor contract is stated against.
func (db *simDB) expertLatency(q *query.Query) (float64, error) {
	if v, ok := db.expert[q.Fingerprint()]; ok {
		return v, nil
	}
	cp, _, err := db.sys.ExpertPlan(q)
	if err != nil {
		return 0, err
	}
	v := db.sys.Execute(cp)
	db.expert[q.Fingerprint()] = v
	return v, nil
}

// quality is the doctor contract over a set of served plans: workload-relative
// latency Σserved/Σexpert, the geometric mean of the per-query ratios, and
// the share of queries served more than 5% slower than the expert's plan.
// All three are deterministic for a fixed seed.
type quality struct {
	wrl, gmrl, regress float64
	n                  int
}

// contractSum accumulates the contract over served plans, executing each
// plan and its query's expert plan through the database it is given.
type contractSum struct {
	sumS, sumE, logSum float64
	worse, n           int
}

func (c *contractSum) add(db *simDB, served []*planner.PlanEval) error {
	for _, pe := range served {
		s := db.latency(pe)
		e, err := db.expertLatency(pe.Q)
		if err != nil {
			return fmt.Errorf("expert plan for %s: %w", pe.Q.ID, err)
		}
		c.sumS += s
		c.sumE += e
		// Sub-microsecond plans would make the ratio meaningless; clamp both
		// sides the same way.
		r := math.Max(s, 1e-3) / math.Max(e, 1e-3)
		c.logSum += math.Log(r)
		if r > 1.05 {
			c.worse++
		}
		c.n++
	}
	return nil
}

func (c *contractSum) quality() quality {
	if c.n == 0 || c.sumE == 0 {
		return quality{}
	}
	n := float64(c.n)
	return quality{c.sumS / c.sumE, math.Exp(c.logSum / n), float64(c.worse) / n, c.n}
}

// servedSet is the plans one system served: plans as first chosen, again as
// an independent later serve of the same queries chose them.
type servedSet struct {
	db           *simDB
	plans, again []*planner.PlanEval
}

// recordContract emits the contract metrics over the sets. It derives them
// twice — from the first plans with the database's memoized answers, and
// from the later plans executed afresh — and a deterministic metric that
// differs between the two derivations is a violation.
func recordContract(rec *recorder, sets ...servedSet) error {
	var first, second contractSum
	for _, s := range sets {
		if err := first.add(s.db, s.plans); err != nil {
			return err
		}
		if err := second.add(newSimDB(s.db.sys), s.again); err != nil {
			return err
		}
	}
	a, b := first.quality(), second.quality()
	if a.n == 0 {
		return fmt.Errorf("contract: no served plans")
	}
	if a != b {
		rec.violate("contract metrics differ between two derivations: %+v vs %+v", a, b)
	}
	rec.set("wrl", a.wrl, a.n)
	rec.set("gmrl", a.gmrl, a.n)
	rec.set("regress_share", a.regress, a.n)
	return nil
}

// coversAliases reports whether a join order names exactly the query's
// aliases, each once: the structural check on every served plan.
func coversAliases(q *query.Query, order []string) bool {
	if len(order) != len(q.Tables) {
		return false
	}
	want := map[string]bool{}
	for _, t := range q.Tables {
		want[t.Alias] = true
	}
	for _, a := range order {
		if !want[a] {
			return false
		}
		delete(want, a)
	}
	return len(want) == 0
}
