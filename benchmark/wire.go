package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/foss-db/foss/internal/gate"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/shard"
	"github.com/foss-db/foss/internal/store"
)

const (
	wireConns     = 2                // keep-alive connections, one sequential client each
	wireRate      = 250              // turns/s of the fixed-rate phase: about a quarter of closed-loop capacity
	wireTimeout   = 10 * time.Second // a stalled fsync must show as latency, not as a failed run
	wireLimitP90  = 5000.0           // µs: the latency limit a ramp step must meet
	checkpointGap = 64               // fossd's -checkpoint-every default
)

// wireRamp are the un-gated rates tried after the fixed-rate phase.
var wireRamp = []int{500, 750, 1000}

// wireTenants are the two durable tenants: different workloads on different
// backends, so the fleet path is not measured on one doctor twice.
var wireTenants = []shard.TenantSpec{
	{Name: "acme", Workload: "job", Backend: "selinger"},
	{Name: "globex", Workload: "stack", Backend: "gaussim"},
}

// runWireFleet is the roadmap's client → gate → member → loop path under
// open-loop load: a loopback HTTP client posts optimize then feedback turns
// at a fixed rate through gate.NewProxy to a shard.Router behind
// service.NewMultiHTTPServer. JSON, the pending ring, the proxy hop and the
// WAL fsync under Loop.mu do the work; every serve is a hit, so the model
// does none. Latency is taken from each turn's due time, so a stall charges
// the turns it delayed.
func runWireFleet(ctx context.Context, env *runEnv) error {
	stateDir, err := os.MkdirTemp(env.outDir, "wire-state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)

	loop := quietLoop()
	loop.CheckpointEvery = checkpointGap
	router, err := shard.NewRouter(ctx, shard.Config{
		System:   doctorConfig(),
		Loop:     loop,
		Defaults: shard.TenantSpec{Scale: size.scale, Seed: doctorSeed},
		StateDir: stateDir,
		Workers:  1,
	}, wireTenants)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			router.Close(ctx)
		}
	}()
	member := httptest.NewServer(service.NewMultiHTTPServer(router))
	defer member.Close()
	proxy, err := gate.NewProxy(gate.Options{Members: []string{member.URL}})
	if err != nil {
		return err
	}
	gw := httptest.NewServer(proxy)
	defer gw.Close()

	w := &wireRun{env: env, client: &http.Client{
		Timeout:   wireTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: wireConns, MaxConnsPerHost: wireConns},
	}}
	defer w.client.CloseIdleConnections()
	var trainS float64
	for _, spec := range wireTenants {
		sh, err := router.Get(spec.Name)
		if err != nil {
			return err
		}
		trainS += sh.Sys.TrainingTime().Seconds()
		if err := w.addTenant(ctx, sh); err != nil {
			return err
		}
	}
	// One warm-up pass over the wire fills the proxy's and the members'
	// connection pools and the pending ring's steady state.
	for i := range w.targets {
		if !w.turn(gw.URL, i, nil) {
			return fmt.Errorf("warm-up turn failed: %s", w.lastErr())
		}
	}
	env.setupDone(trainS, len(wireTenants))

	if env.traced {
		err = w.tracedPass(ctx, router, member.URL, gw.URL, stateDir)
	} else {
		ph := w.openLoop(gw.URL, wireRate, env.phase(1), 0, true)
		recordTurns(env.rec, ph.turns, env.phase(1), 1)
		// An open loop's rate is set by the schedule, so every window holds
		// the same count; what the system achieved is turns completed over
		// the time it took to complete them.
		env.rec.set("turns_per_s", float64(len(ph.turns))/ph.wall.Seconds(), len(ph.turns))
	}
	if err != nil {
		return err
	}

	// Ledger: every acknowledged feedback is recorded by its loop and in its
	// journal. The journals are read after the fleet has drained and released
	// them. The contract is over the distinct ids, served once more here.
	var expired, walErrors, checkpoints float64
	recorded := map[string]uint64{}
	var sets []servedSet
	for _, t := range w.tenants {
		sh, err := router.Get(t.name)
		if err != nil {
			return err
		}
		set := servedSet{db: t.db, plans: t.plans}
		for _, pe := range t.plans {
			res, err := sh.Sys.ServeContext(ctx, pe.Q)
			if err != nil {
				return err
			}
			set.again = append(set.again, res.Eval)
		}
		sets = append(sets, set)
		st := sh.Sys.OnlineStats()
		recorded[t.name] = st.Recorded
		if lo := uint64(w.acked[t.name]); st.Recorded < lo || st.Recorded > lo+uint64(w.unacked[t.name]) {
			env.rec.violate("%s: %d feedbacks acknowledged and %d unanswered, loop recorded %d", t.name, lo, w.unacked[t.name], st.Recorded)
		}
		walErrors += float64(st.WALErrors)
		checkpoints += float64(st.Checkpoints)
		n, err := w.expiredIDs(member.URL, t.name)
		if err != nil {
			return err
		}
		expired += n
	}
	env.rec.set("service.wal_errors", walErrors, len(w.tenants))
	env.rec.set("store.checkpoints", checkpoints, len(w.tenants))
	env.rec.set("service.pending_expired", expired, len(w.tenants))
	closed = true
	if err := router.Close(ctx); err != nil {
		return fmt.Errorf("drain fleet: %w", err)
	}
	for _, t := range w.tenants {
		journaled, err := feedbackEntries(filepath.Join(stateDir, t.name, "wal.log"))
		if err != nil {
			return err
		}
		if journaled != recorded[t.name] {
			env.rec.violate("%s: loop recorded %d feedbacks, journal holds %d", t.name, recorded[t.name], journaled)
		}
	}
	return recordContract(env.rec, sets...)
}

type wireRun struct {
	env     *runEnv
	client  *http.Client
	tenants []*wireTenant
	targets []wireTarget // every (tenant, query id) a turn can ask for

	mu sync.Mutex
	// acked counts feedbacks the client saw acknowledged; unacked counts
	// those whose answer never arrived, which the loop may yet have recorded.
	acked, unacked map[string]int
	lastFailure    string
}

type wireTenant struct {
	name  string
	db    *simDB
	plans []*planner.PlanEval
}

// wireTarget is one thing a client can ask: the request body, and what the
// answer must be.
type wireTarget struct {
	tenant  string
	q       *query.Query
	optBody []byte
	icpKey  string  // the plan this id is served, fixed at warm-up
	latency float64 // the database's answer for that plan, ms
}

// addTenant fixes the tenant's ids (its first size.wireIDs training queries), the
// plan each is served and the database's latency for it, by serving each
// once in process. That serve also warms the plan cache.
func (w *wireRun) addTenant(ctx context.Context, sh *shard.Shard) error {
	if w.acked == nil {
		w.acked, w.unacked = map[string]int{}, map[string]int{}
	}
	t := &wireTenant{name: sh.Spec.Name, db: newSimDB(sh.Sys)}
	for _, q := range sh.W.Train[:size.wireIDs] {
		res, err := sh.Sys.ServeContext(ctx, q)
		if err != nil {
			return fmt.Errorf("%s: warm %s: %w", t.name, q.ID, err)
		}
		body, err := json.Marshal(map[string]string{"query_id": q.ID})
		if err != nil {
			return err
		}
		t.plans = append(t.plans, res.Eval)
		w.targets = append(w.targets, wireTarget{
			tenant: t.name, q: q, optBody: body,
			icpKey: res.Eval.ICP.Key(), latency: t.db.latency(res.Eval),
		})
	}
	w.tenants = append(w.tenants, t)
	return nil
}

// fail keeps why the most recent failed turn failed, for the report.
func (w *wireRun) fail(format string, args ...any) {
	w.mu.Lock()
	w.lastFailure = fmt.Sprintf(format, args...)
	w.mu.Unlock()
}

func (w *wireRun) lastErr() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastFailure
}

// post sends one JSON body and decodes the JSON answer into out.
func (w *wireRun) post(url string, body []byte, out any) error {
	resp, err := w.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// split, when non-nil, receives the optimize and feedback round-trip times.
type split struct{ optUs, fbUs float64 }

// turn is one doctor-loop turn over the wire: optimize by id, check the
// served plan, report the database's latency for it. It returns false on any
// failure, including the client timeout.
func (w *wireRun) turn(base string, target int, sp *split) bool {
	t := &w.targets[target]
	var opt struct {
		ServeID string `json:"serve_id"`
		Plan    struct {
			Order  []string `json:"order"`
			ICPKey string   `json:"icp_key"`
		} `json:"plan"`
	}
	t0 := time.Now()
	if err := w.post(base+"/v1/t/"+t.tenant+"/optimize", t.optBody, &opt); err != nil {
		w.fail("optimize %s/%s: %v", t.tenant, t.q.ID, err)
		return false
	}
	t1 := time.Now()
	if opt.Plan.ICPKey != t.icpKey || !coversAliases(t.q, opt.Plan.Order) {
		w.fail("optimize %s/%s: served plan %s over %v, want %s", t.tenant, t.q.ID, opt.Plan.ICPKey, opt.Plan.Order, t.icpKey)
		return false
	}
	fb, err := json.Marshal(map[string]any{"serve_id": opt.ServeID, "latency_ms": t.latency})
	if err != nil {
		w.fail("feedback body: %v", err)
		return false
	}
	var ack struct {
		Recorded bool `json:"recorded"`
	}
	t2 := time.Now()
	if err := w.post(base+"/v1/t/"+t.tenant+"/feedback", fb, &ack); err != nil || !ack.Recorded {
		w.fail("feedback %s/%s: recorded=%v err=%v", t.tenant, t.q.ID, ack.Recorded, err)
		w.mu.Lock()
		w.unacked[t.tenant]++
		w.mu.Unlock()
		return false
	}
	t3 := time.Now()
	w.mu.Lock()
	w.acked[t.tenant]++
	w.mu.Unlock()
	if sp != nil {
		sp.optUs, sp.fbUs = micros(t1.Sub(t0)), micros(t3.Sub(t2))
	}
	return true
}

// wirePhase is what one open-loop phase measured.
type wirePhase struct {
	done, failed int
	wall         time.Duration
	turns        []timed   // latency from due time; failed turns are not in it
	lateUs       []float64 // start minus due time: how late the generator ran
	backlogMax   int       // most turns due but not yet started
	backlogGrew  bool      // the backlog at the end exceeded the one at half time
}

// openLoop issues turns on a fixed schedule — turn i is due at i/rate —
// regardless of how the system keeps up. Each of the wireConns clients owns
// every wireConns-th turn and runs them in order, so a slow turn delays that
// client's later ones and their latency, taken from the due time, shows it.
// Targets are drawn uniformly from a seeded RNG per client.
func (w *wireRun) openLoop(base string, rate int, dur time.Duration, seedSalt int64, gated bool) wirePhase {
	total := int(float64(rate) * dur.Seconds())
	interval := time.Second / time.Duration(rate)
	outs := make([]wirePhase, wireConns)
	halfBacklog := make([]int, wireConns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < wireConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w.env.seed*1000 + seedSalt*10 + int64(c)))
			o := &outs[c]
			for i := c; i < total; i += wireConns {
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				begun := time.Now()
				late := begun.Sub(due)
				backlog := int(late / (interval * wireConns))
				o.backlogMax = max(o.backlogMax, backlog)
				if i < total/2 {
					halfBacklog[c] = backlog
				}
				ok := w.turn(base, rng.Intn(len(w.targets)), nil)
				o.done++
				if !ok {
					o.failed++
				}
				if ok {
					end := time.Now()
					o.turns = append(o.turns, timed{end.Sub(start), micros(end.Sub(due))})
				}
				o.lateUs = append(o.lateUs, micros(late))
				if i+wireConns >= total {
					o.backlogGrew = backlog > halfBacklog[c]+1
				}
			}
		}(c)
	}
	wg.Wait()
	all := wirePhase{wall: time.Since(start)}
	for _, o := range outs {
		all.done += o.done
		all.failed += o.failed
		all.turns = append(all.turns, o.turns...)
		all.lateUs = append(all.lateUs, o.lateUs...)
		all.backlogMax += o.backlogMax
		all.backlogGrew = all.backlogGrew || o.backlogGrew
	}
	w.env.rec.attempted += all.done
	if gated && all.failed > 0 {
		w.env.rec.failed += all.failed
		w.env.rec.note("%d of %d turns failed at %d turns/s: %s", all.failed, all.done, rate, w.lastErr())
	}
	return all
}

func (w *wireRun) tracedPass(ctx context.Context, router *shard.Router, memberURL, gateURL, stateDir string) error {
	rec, tr := w.env.rec, w.env.tr

	// Closed-loop probes, one client: the same turns direct to the member and
	// through the gate, alternating, so the difference is the proxy hop.
	var direct, gated, fb []float64
	probeEnd := time.Now().Add(w.env.phase(0.15))
	for n := 0; time.Now().Before(probeEnd); n++ {
		base, name := memberURL, "wire.turn.direct"
		if n%2 == 1 {
			base, name = gateURL, "wire.turn.gate"
		}
		var sp split
		id := tr.begin(name, -1, n)
		ok := w.turn(base, n%len(w.targets), &sp)
		tr.end(id)
		rec.attempted++
		if !ok {
			rec.failed++
			return fmt.Errorf("probe turn failed: %s", w.lastErr())
		}
		if n%2 == 1 {
			gated = append(gated, sp.optUs)
		} else {
			direct = append(direct, sp.optUs)
			fb = append(fb, sp.fbUs)
		}
	}
	rec.set("service.http_opt_us", median(direct), len(direct))
	rec.set("service.http_fb_us", median(fb), len(fb))
	rec.set("gate.overhead_us", median(gated)-median(direct), len(gated))

	// The same hit served in process: what the HTTP surface adds to it.
	sh, err := router.Get(wireTenants[0].Name)
	if err != nil {
		return err
	}
	var hitUs []float64
	for n := 0; n < 2048; n++ {
		t := &w.targets[n%size.wireIDs]
		t0 := time.Now()
		if _, err := sh.Sys.ServeContext(ctx, t.q); err != nil {
			return err
		}
		hitUs = append(hitUs, micros(time.Since(t0)))
	}
	rec.set("service.http_overhead_us", median(direct)-median(hitUs), len(hitUs))

	if err := w.storeLayer(sh, stateDir); err != nil {
		return err
	}

	fixed := w.openLoop(gateURL, wireRate, w.env.phase(0.4), 0, true)
	fixedUs := latencies(fixed.turns)
	sort.Float64s(fixed.lateUs)
	rec.set("turn_p90_us", quantile(fixedUs, 0.9), len(fixedUs))
	rec.set("wire.turn_p99_us", quantile(fixedUs, 0.99), len(fixedUs))
	rec.set("wire.late_p50_us", quantile(fixed.lateUs, 0.5), len(fixed.lateUs))
	rec.set("wire.late_p99_us", quantile(fixed.lateUs, 0.99), len(fixed.lateUs))
	rec.set("wire.backlog_max", float64(fixed.backlogMax), fixed.done)

	// The ramp is not gated: a step that misses the limit, even by failing
	// turns, is a finding about capacity, not a failed run.
	maxOK := 0.0
	if fixed.failed == 0 && quantile(fixedUs, 0.9) <= wireLimitP90 && !fixed.backlogGrew {
		maxOK = wireRate
	}
	for step, rate := range wireRamp {
		ph := w.openLoop(gateURL, rate, w.env.phase(0.15), int64(step+1), false)
		if ph.failed == 0 && quantile(latencies(ph.turns), 0.9) <= wireLimitP90 && !ph.backlogGrew {
			maxOK = float64(rate)
		}
	}
	rec.set("wire.max_rate_ok", maxOK, len(wireRamp)+1)
	return nil
}

// storeLayer measures the durability layer beside the live fleet: journal
// appends on a scratch store.WAL in the same directory (the fleet's own
// journals stay untouched), and explicit checkpoints of one tenant.
func (w *wireRun) storeLayer(sh *shard.Shard, stateDir string) error {
	rec := w.env.rec
	path := filepath.Join(stateDir, "scratch.wal")
	wal, err := store.OpenWAL(path)
	if err != nil {
		return err
	}
	const appends = 256
	var appendUs []float64
	for n := 0; n < appends; n++ {
		t := &w.targets[n%size.wireIDs]
		pe := w.tenants[0].plans[n%size.wireIDs]
		e := store.WALEntry{Kind: store.KindFeedback, Fingerprint: t.q.Fingerprint(), Query: t.q,
			ICP: pe.ICP.Clone(), Step: pe.Step, LatencyMs: t.latency}
		t0 := time.Now()
		if _, err := wal.Append(e); err != nil {
			wal.Close()
			return fmt.Errorf("scratch wal append: %w", err)
		}
		appendUs = append(appendUs, micros(time.Since(t0)))
	}
	if err := wal.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	rec.setTimes("store.wal_append_us", "store.wal_append_p99_us", 0.99, appendUs)
	rec.set("store.wal_bytes_per_record", float64(fi.Size())/appends, appends)

	var ckMs []float64
	var ckBytes float64
	for n := 0; n < 5; n++ {
		t0 := time.Now()
		name, err := sh.Sys.Online().Checkpoint()
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		ckMs = append(ckMs, time.Since(t0).Seconds()*1e3)
		if fi, err := os.Stat(filepath.Join(stateDir, sh.Spec.Name, "checkpoints", name)); err == nil {
			ckBytes = float64(fi.Size())
		}
	}
	rec.set("store.checkpoint_ms", median(ckMs), len(ckMs))
	rec.set("store.checkpoint_bytes", ckBytes, 1)
	return nil
}

// expiredIDs reads a tenant's count of serve ids evicted before their
// feedback arrived; the stats endpoint is the only place it is published.
func (w *wireRun) expiredIDs(memberURL, tenant string) (float64, error) {
	resp, err := w.client.Get(memberURL + "/v1/t/" + tenant + "/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Expired float64 `json:"expired_serve_ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("%s stats: %w", tenant, err)
	}
	return st.Expired, nil
}

// feedbackEntries counts the feedback records in a released journal.
func feedbackEntries(path string) (uint64, error) {
	wal, err := store.OpenWAL(path)
	if err != nil {
		return 0, err
	}
	defer wal.Close()
	var n uint64
	err = wal.Replay(0, func(e store.WALEntry) error {
		if e.Kind == store.KindFeedback {
			n++
		}
		return nil
	})
	return n, err
}
