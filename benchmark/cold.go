package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planenc"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
)

// runColdNovel is the paper's optimization time: one client, closed loop,
// in-process ServeContext only. size.pool distinct fingerprints are cycled in
// a fixed order over a size.planCache-entry LRU, so every serve is a plan-cache
// miss and candidate generation, hinted replanning, plan encoding and the
// AAM do all of the work. Nothing is recorded, so nothing is pinned.
func runColdNovel(ctx context.Context, env *runEnv) error {
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
	c := &coldRun{env: env, d: d, pool: pool,
		first: make([]*planner.PlanEval, len(pool)),
		last:  make([]*planner.PlanEval, len(pool))}
	env.setupDone(d.trainS, 1)

	if env.traced {
		err = c.tracedPass(ctx)
	} else {
		err = c.untracedPass(ctx)
	}
	if err != nil {
		return err
	}

	// Every query needs a served plan for the contract; a pass too short to
	// reach some (a slow machine) serves them here, untimed.
	for c.served < len(pool) {
		if _, _, err := c.serve(ctx, -1); err != nil {
			return err
		}
	}
	st := d.sys.OnlineStats()
	cache := d.sys.CacheStats()
	env.rec.set("runtime.cache_hit_share", float64(st.CacheHits)/float64(st.Served), int(st.Served))
	env.rec.set("runtime.cache_evictions", float64(cache.Evictions), 1)
	return recordContract(env.rec, servedSet{newSimDB(d.sys), c.first, c.last})
}

type coldRun struct {
	env    *runEnv
	d      *doctor
	pool   []*query.Query
	next   int // cursor into the fixed cycle; every phase advances it
	served int // distinct pool queries served so far
	// first and last hold, per pool query, the plan its first and its most
	// recent serve chose. Both serves are misses — full re-derivations by the
	// model — so they must agree.
	first, last []*planner.PlanEval
}

// serve runs the next query of the cycle through the loop — under a span
// when req >= 0 — and checks the served plan.
func (c *coldRun) serve(ctx context.Context, req int) (int, time.Duration, error) {
	qi := c.next % len(c.pool)
	c.next++
	q := c.pool[qi]
	sp := -1
	if req >= 0 {
		sp = c.env.tr.begin("service.serve", -1, req)
	}
	start := time.Now()
	res, err := c.d.sys.ServeContext(ctx, q)
	el := time.Since(start)
	c.env.tr.end(sp)
	c.env.rec.attempted++
	if err != nil {
		c.env.rec.failed++
		return qi, el, fmt.Errorf("serve %s: %w", q.ID, err)
	}
	if res.CacheHit {
		return qi, el, fmt.Errorf("serve %s hit the plan cache: the workload is no longer all misses", q.ID)
	}
	c.checkPlan(qi, res.Eval)
	return qi, el, nil
}

func (c *coldRun) checkPlan(qi int, pe *planner.PlanEval) {
	q := c.pool[qi]
	if !coversAliases(q, pe.ICP.Order) {
		c.env.rec.violate("serve %s: join order %v does not cover the query's aliases", q.ID, pe.ICP.Order)
	}
	if c.first[qi] == nil {
		c.first[qi] = pe
		c.served++
	} else if !c.first[qi].ICP.Equal(pe.ICP) {
		c.env.rec.violate("serve %s: plan %s differs from the first serve's %s", q.ID, pe.ICP.Key(), c.first[qi].ICP.Key())
	}
	c.last[qi] = pe
}

// untracedPass is the end-to-end measurement: a turn of this workload is one
// miss served.
func (c *coldRun) untracedPass(ctx context.Context) error {
	var obs []timed
	dur := c.env.phase(1)
	start := time.Now()
	for time.Since(start) < dur {
		_, el, err := c.serve(ctx, -1)
		if err != nil {
			return err
		}
		obs = append(obs, timed{time.Since(start), micros(el)})
	}
	recordTurns(c.env.rec, obs, dur, 1)
	return nil
}

// tracedPass measures the per-layer numbers. Traced and untraced serves are
// interleaved so both see the same conditions; the stage decomposition then
// replays the serve pipeline from outside, stage by stage, and must choose
// the plan the real serve chose.
func (c *coldRun) tracedPass(ctx context.Context) error {
	rec, tr := c.env.rec, c.env.tr
	var plain, traced []float64
	// A seeded coin decides which serves carry a span, so neither group is a
	// fixed subset of the queries.
	coin := rand.New(rand.NewSource(c.env.seed))
	start := time.Now()
	for n := 0; len(plain) < 8 || len(traced) < 8 || time.Since(start) < c.env.phase(0.4); n++ {
		req := -1
		if coin.Intn(2) == 1 {
			req = n
		}
		_, el, err := c.serve(ctx, req)
		if err != nil {
			return err
		}
		if req >= 0 {
			traced = append(traced, micros(el))
		} else {
			plain = append(plain, micros(el))
		}
	}
	serveUs := median(plain)
	all := append(append([]float64(nil), plain...), traced...)
	sort.Float64s(all)
	rec.set("turn_p90_us", quantile(all, 0.9), len(all))
	rec.set("serve_p99_us", quantile(all, 0.99), len(all))
	rec.set("service.serve_us", median(tr.durations("service.serve")), len(traced))
	rec.set("trace.overhead_share", (median(traced)-serveUs)/serveUs, len(traced))

	// Allocation cost of a miss, from the runtime's own counters.
	const allocOps = 48
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocOps; i++ {
		if _, _, err := c.serve(ctx, -1); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	rec.set("service.serve_allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/allocOps, allocOps)
	rec.set("service.serve_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/allocOps, allocOps)

	if err := c.stages(ctx, c.env.phase(0.4)); err != nil {
		return err
	}
	return c.batches(ctx, c.env.phase(0.2))
}

// spanSteering times the optimizer calls a planner makes, as children of
// whichever span is current.
type spanSteering struct {
	inner  planner.Steering
	tr     *tracer
	parent int
	req    int
}

func (s *spanSteering) Plan(q *query.Query) (*plan.CP, error) {
	sp := s.tr.begin("optimizer.plan", s.parent, s.req)
	defer s.tr.end(sp)
	return s.inner.Plan(q)
}

func (s *spanSteering) HintedPlan(q *query.Query, icp plan.ICP) (*plan.CP, error) {
	sp := s.tr.begin("optimizer.hinted_plan", s.parent, s.req)
	defer s.tr.end(sp)
	return s.inner.HintedPlan(q, icp)
}

// stages decomposes the miss path from outside: it performs, through public
// functions and under spans, the steps learner.Optimize performs for one
// query — fingerprint, expert plan, InferenceRollouts plan-edit episodes on a
// fingerprint-seeded RNG, temporal selection — and requires the result to be
// the plan the loop served. If the internals change so that it is not, the
// decomposition no longer describes the serve and the pass fails.
func (c *coldRun) stages(ctx context.Context, budget time.Duration) error {
	rec, tr, sys := c.env.rec, c.env.tr, c.d.sys
	steer := &spanSteering{inner: sys.Backend, tr: tr}
	pl := *sys.Planners[0] // shares the agent's weights; only forward passes run
	pl.Opt = steer
	maxSteps := pl.Cfg.MaxSteps
	rollouts := max(sys.Learner.Cfg.InferenceRollouts, 1)
	env := &planner.SimEnv{Model: sys.AAM, MaxSteps: maxSteps}

	var generated, kept, requests int
	var encodeUs, batchUs, batchPerCand, selfUs []float64
	start := time.Now()
	for time.Since(start) < budget {
		// The pipeline bypasses the plan cache, so it must not advance the
		// serve cycle: skipped inserts would let a later serve hit.
		qi := (c.next + requests) % len(c.pool)
		q := c.pool[qi]
		req := 1_000_000 + requests
		requests++
		root := tr.begin("pipeline", -1, req)
		steer.parent, steer.req = root, req

		fresh := &query.Query{ID: q.ID, Template: q.Template, Tables: q.Tables, Joins: q.Joins, Filters: q.Filters}
		sp := tr.begin("query.fingerprint", root, req)
		fp := fresh.Fingerprint()
		tr.end(sp)

		sp = tr.begin("planner.original", root, req)
		steer.parent = sp
		orig, err := pl.OriginalEval(q)
		tr.end(sp)
		if err != nil {
			return err
		}

		rng := rand.New(rand.NewSource(int64(fp>>1) ^ sys.Learner.Cfg.Seed))
		cands := []*planner.PlanEval{}
		seen := map[string]bool{}
		for r := 0; r < rollouts; r++ {
			sp = tr.begin("planner.episode", root, req)
			steer.parent = sp
			ep, err := pl.RunEpisodeWithRng(q, orig, env, nil, r > 0, rng)
			tr.end(sp)
			if err != nil {
				return err
			}
			for _, cand := range ep.Candidates {
				generated++
				if !seen[cand.ICP.Key()] {
					seen[cand.ICP.Key()] = true
					cands = append(cands, cand)
				}
			}
		}
		kept += len(cands)

		sp = tr.begin("planner.select_best", root, req)
		best := planner.SelectBest(sys.AAM, cands, maxSteps)
		tr.end(sp)
		tr.end(root)

		if c.first[qi] != nil && !c.first[qi].ICP.Equal(best.ICP) {
			rec.violate("stage decomposition of %s chose %s, the loop served %s", q.ID, best.ICP.Key(), c.first[qi].ICP.Key())
		}

		// The two layers that run inside the stages above, timed on the same
		// inputs outside the pipeline span.
		encs := make([]*planenc.Encoded, len(cands))
		steps := make([]float64, len(cands))
		for i, cand := range cands {
			t0 := time.Now()
			encs[i] = sys.Enc.Encode(cand.CP)
			encodeUs = append(encodeUs, micros(time.Since(t0)))
			steps[i] = cand.StepStatus(maxSteps)
		}
		t0 := time.Now()
		sys.AAM.StatesBatch(encs, steps)
		b := micros(time.Since(t0))
		batchUs = append(batchUs, b)
		batchPerCand = append(batchPerCand, b/float64(len(cands)))
	}
	if requests == 0 {
		return fmt.Errorf("stage decomposition had no time to run")
	}
	n := float64(requests)

	encMed := median(encodeUs)
	hintedSum, hintedCount := tr.perParent("planner.episode", "optimizer.hinted_plan")
	episodes := tr.durations("planner.episode")
	for i, e := range episodes {
		// What is left of an episode once its hinted replans and their
		// encodings are taken out: masks and agent forward passes.
		selfUs = append(selfUs, e-hintedSum[i]-hintedCount[i]*encMed)
	}
	episodeSum, _ := tr.perParent("pipeline", "planner.episode")
	hinted := tr.durations("optimizer.hinted_plan")

	fingerprintUs := median(tr.durations("query.fingerprint"))
	selectUs := median(tr.durations("planner.select_best"))
	rec.set("query.fingerprint_us", fingerprintUs, requests)
	rec.set("optimizer.plan_us", median(tr.durations("optimizer.plan")), requests)
	rec.set("optimizer.hinted_plan_us", median(hinted), len(hinted))
	rec.set("optimizer.hinted_plans_per_serve", float64(len(hinted))/n, requests)
	rec.set("planner.episode_us", median(episodes), len(episodes))
	rec.set("planner.episode_self_us", median(selfUs), len(selfUs))
	rec.set("planner.episodes_per_serve", float64(len(episodes))/n, requests)
	rec.set("planner.candidates_per_serve", float64(kept)/n, requests)
	rec.set("planner.dup_share", float64(generated-kept)/float64(generated), generated)
	rec.set("planenc.encode_us", encMed, len(encodeUs))
	// Every hinted replan and the expert plan are encoded once.
	rec.set("planenc.encodes_per_serve", float64(len(hinted))/n+1, requests)
	rec.set("aam.states_batch_us", median(batchUs), len(batchUs))
	rec.set("aam.states_batch_us_per_cand", median(batchPerCand), len(batchPerCand))
	rec.set("planner.select_best_us", selectUs, requests)

	explained := fingerprintUs + median(tr.durations("planner.original")) + median(episodeSum) + selectUs
	rec.set("trace.coverage", explained/rec.metrics["service.serve_us"].v, requests)
	return nil
}

// batches times ServeBatch of 16 misses beside the sequential serve, and
// requires the batch to choose the plans sequential serves chose.
func (c *coldRun) batches(ctx context.Context, budget time.Duration) error {
	const width = 16
	var perQuery []float64
	start := time.Now()
	for len(perQuery) == 0 || time.Since(start) < budget {
		qs := make([]*query.Query, width)
		idx := make([]int, width)
		for i := range qs {
			idx[i] = c.next % len(c.pool)
			qs[i] = c.pool[idx[i]]
			c.next++
		}
		t0 := time.Now()
		out, err := c.d.sys.ServeBatch(ctx, qs)
		el := time.Since(t0)
		c.env.rec.attempted += width
		if err != nil {
			c.env.rec.failed += width
			return fmt.Errorf("serve batch: %w", err)
		}
		for i, res := range out {
			if res.CacheHit {
				return fmt.Errorf("batched serve of %s hit the plan cache", qs[i].ID)
			}
			c.checkPlan(idx[i], res.Eval)
		}
		perQuery = append(perQuery, micros(el)/width)
	}
	c.env.rec.set("service.batch16_us_per_q", median(perQuery), len(perQuery))
	return nil
}
