package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	fossrt "github.com/foss-db/foss/internal/runtime"
	"github.com/foss-db/foss/internal/tier"
)

const (
	hotClients = 2  // = nproc on the reference box; the traced pass's contended phases
	hotSample  = 64 // one turn in hotSample is timed: the clock costs as much as a hit
	zipfS      = 1.1
)

// runHotRepeat is the same runtime/tier/service code as cold_novel used the
// other way: closed-loop clients repeat a Zipf-skewed set of size.hot
// fingerprints that fits the plan cache. A turn is ServeContext, the memoized
// execution latency, Record — every serve a hit, the planner and the AAM
// idle. A model-path optimisation must read "no change" here.
//
// The gated pass runs one client. Two clients sharing the Loop complete no
// more turns than one (service.scale_2c ≈ 1: Record serialises on Loop.mu),
// and with both cores busy every burst of outside interference lands on the
// number — the two-client spread across runs was half again the one-client
// spread. The traced pass runs both and reports the ratio.
func runHotRepeat(ctx context.Context, env *runEnv) error {
	d, err := trainDoctor(ctx)
	if err != nil {
		return err
	}
	if err := d.sys.EnableOnline(quietLoop()); err != nil {
		return err
	}
	defer d.sys.Close(ctx)
	pool, err := queryPool(d.w, env.seed, size.pool)
	if err != nil {
		return err
	}
	h := &hotRun{env: env, d: d, qs: pool[:size.hot], db: newSimDB(d.sys)}
	if err := h.warm(ctx); err != nil {
		return err
	}
	env.setupDone(d.trainS, 1)

	if env.traced {
		err = h.tracedPass(ctx)
	} else {
		var ph hotPhase
		ph, err = h.run(ctx, 1, env.phase(1), false)
		if err == nil {
			recordTurns(env.rec, ph.turns, env.phase(1), hotSample)
		}
	}
	if err != nil {
		return err
	}

	// The contract is over the distinct queries, not weighted by turn: how
	// many turns fit in a pass depends on the machine, the plans do not.
	again := make([]*planner.PlanEval, len(h.qs))
	for i, q := range h.qs {
		res, err := d.sys.ServeContext(ctx, q)
		if err != nil {
			return err
		}
		again[i] = res.Eval
	}
	return recordContract(env.rec, servedSet{h.db, h.plans, again})
}

type hotRun struct {
	env   *runEnv
	d     *doctor
	qs    []*query.Query
	db    *simDB
	plans []*planner.PlanEval // the plan each query is served, fixed at warm-up
	lat   []float64           // its memoized execution latency, ms
}

// warm serves and records every hot query until the plan cache, the loop's
// expert-latency cache and tier-0 memory have settled: four rounds cover the
// default three-win promotion streak. It also fixes the database's answers.
func (h *hotRun) warm(ctx context.Context) error {
	h.plans = make([]*planner.PlanEval, len(h.qs))
	h.lat = make([]float64, len(h.qs))
	for round := 0; round < 4; round++ {
		for i, q := range h.qs {
			res, err := h.d.sys.ServeContext(ctx, q)
			if err != nil {
				return fmt.Errorf("warm %s: %w", q.ID, err)
			}
			if round == 0 {
				h.plans[i] = res.Eval
				h.lat[i] = h.db.latency(res.Eval)
			}
			if err := h.d.sys.Record(q, res.Eval, h.lat[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// hotPhase is what one closed-loop phase measured.
type hotPhase struct {
	count              int       // turns completed
	turnsPerS          float64   // over the whole phase
	turns              []timed   // the timed turns, one in hotSample
	spannedUs          []float64 // timed turns that also carried a span, span included
	recordUs           []float64
	serveNs            []float64
	failed, wrongPlans int
	tr                 *tracer // the client's own spans, merged when it finishes
}

// run drives clients closed-loop clients for dur. Each has its own seeded
// RNG; the shared tables are read-only, so the harness adds no lock of its
// own to the path it measures.
func (h *hotRun) run(ctx context.Context, clients int, dur time.Duration, spans bool) (hotPhase, error) {
	outs := make([]hotPhase, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c], errs[c] = h.client(ctx, c, start, dur, spans)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	var all hotPhase
	for c, o := range outs {
		if errs[c] != nil {
			return all, errs[c]
		}
		all.count += o.count
		all.failed += o.failed
		all.wrongPlans += o.wrongPlans
		all.turns = append(all.turns, o.turns...)
		all.spannedUs = append(all.spannedUs, o.spannedUs...)
		all.recordUs = append(all.recordUs, o.recordUs...)
		all.serveNs = append(all.serveNs, o.serveNs...)
		h.env.tr.merge(o.tr)
	}
	all.turnsPerS = float64(all.count) / wall
	h.env.rec.attempted += all.count
	h.env.rec.failed += all.failed
	if all.wrongPlans > 0 {
		h.env.rec.violate("%d turns were served a plan other than the query's warm-up plan", all.wrongPlans)
	}
	return all, nil
}

// client runs turns until dur has passed. One turn in hotSample is timed;
// with spans on, a seeded coin puts half of the timed turns under a span
// recorded inside the timed section, so the two halves differ by exactly the
// tracing and see the same conditions.
func (h *hotRun) client(ctx context.Context, id int, start time.Time, dur time.Duration, spans bool) (hotPhase, error) {
	rng := rand.New(rand.NewSource(h.env.seed*1000 + int64(id)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(h.qs)-1))
	coin := rand.New(rand.NewSource(h.env.seed*1000 + int64(id) + 500))
	out := hotPhase{tr: h.env.tr.fork()}
	sys, lp := h.d.sys, h.d.sys.Online()
	for n := 0; ; n++ {
		// The deadline is checked on the sampled turns only, keeping the
		// clock off the others.
		sampled := n%hotSample == 0
		if sampled && time.Since(start) >= dur {
			return out, nil
		}
		i := int(zipf.Uint64())
		q := h.qs[i]
		var t0, t1 time.Time
		sp := -1
		if sampled {
			t0 = time.Now()
			if spans && coin.Intn(2) == 1 {
				sp = out.tr.begin("service.turn", -1, id<<32|n)
			}
		}
		res, err := sys.ServeContext(ctx, q)
		if sampled {
			t1 = time.Now()
		}
		if err != nil {
			return out, fmt.Errorf("serve %s: %w", q.ID, err)
		}
		if !lp.Record(q, res.Eval, h.lat[i]) {
			out.failed++
		}
		if sampled {
			out.tr.end(sp)
			t2 := time.Now()
			if sp >= 0 {
				out.spannedUs = append(out.spannedUs, micros(t2.Sub(t0)))
			} else {
				out.serveNs = append(out.serveNs, float64(t1.Sub(t0)))
				out.recordUs = append(out.recordUs, micros(t2.Sub(t1)))
				out.turns = append(out.turns, timed{t2.Sub(start), micros(t2.Sub(t0))})
			}
		}
		if res.Eval != h.plans[i] && !res.Eval.ICP.Equal(h.plans[i].ICP) {
			out.wrongPlans++
		}
		out.count++
	}
}

func (h *hotRun) tracedPass(ctx context.Context) error {
	rec := h.env.rec
	lp := h.d.sys.Online()

	one, err := h.run(ctx, 1, h.env.phase(0.4), false)
	if err != nil {
		return err
	}
	before := lp.Stats()
	two, err := h.run(ctx, hotClients, h.env.phase(0.5), true)
	if err != nil {
		return err
	}
	after := lp.Stats()

	served := float64(after.Served - before.Served)
	rec.set("tier.t0_share", float64(after.Tier0Hits-before.Tier0Hits)/served, int(served))
	rec.set("tier.t2_share", float64(after.Tier2Serves-before.Tier2Serves)/served, int(served))
	rec.set("runtime.cache_hit_share", float64(after.CacheHits-before.CacheHits)/served, int(served))
	rec.set("tier.promotions", float64(after.Promotions), 1)
	rec.set("tier.demotions", float64(after.Demotions), 1)
	_, dropped := lp.AdvisorCounters()
	rec.set("service.advisor_dropped", float64(dropped), 1)

	oneUs, twoUs := latencies(one.turns), latencies(two.turns)
	rec.set("turn_p90_us", quantile(oneUs, 0.9), len(oneUs))
	rec.setTimes("service.serve_hit_ns", "service.serve_hit_p99_ns", 0.99, two.serveNs)
	rec.setTimes("service.record_us", "service.record_p99_us", 0.99, two.recordUs)
	rec.set("service.scale_2c", two.turnsPerS/one.turnsPerS, two.count)
	// What a span costs a turn that carries one; one turn in hotSample does.
	plainUs := quantile(twoUs, 0.5)
	rec.set("trace.overhead_share", (median(two.spannedUs)-plainUs)/plainUs, len(two.spannedUs))

	// Allocations per turn with one client and nothing else running.
	const allocOps = 4096
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for n := 0; n < allocOps; n++ {
		i := n % len(h.qs)
		res, err := h.d.sys.ServeContext(ctx, h.qs[i])
		if err != nil {
			return err
		}
		lp.Record(h.qs[i], res.Eval, h.lat[i])
	}
	runtime.ReadMemStats(&m1)
	rec.attempted += allocOps
	rec.set("service.turn_allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/allocOps, allocOps)

	rec.set("tier.route_ns", routeNs(h.qs[0], h.plans[0]), 1)
	return nil
}

// routeNs times the routing decision on a harness-owned tier.Memory holding
// one pin: one pinned and one unknown lookup per operation, the median over
// batches long enough for the clock not to matter.
func routeNs(q *query.Query, pe *planner.PlanEval) float64 {
	m := tier.NewMemory(tier.Config{Memory: true, PromoteAfter: 1})
	id := fossrt.Identity{Backend: "selinger", Epoch: 1}
	fp := q.Fingerprint()
	m.Observe(id, fp, q, pe, 1, 10)
	const batch, batches = 4096, 64
	var per []float64
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if m.Route(id, fp).Tier != tier.Tier0 || m.Route(id, fp+1).Tier != tier.Tier2 {
				return 0
			}
		}
		per = append(per, float64(time.Since(t0))/batch)
	}
	return median(per)
}
