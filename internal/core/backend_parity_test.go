package core_test

// Cross-backend contract tests for the Backend redesign:
//
//   - TestSelingerGoldenBitIdentical replays the exact pre-refactor run
//     captured in testdata/golden_selinger.txt and requires bit-identical
//     plans and latencies — the proof that extracting the Backend interface
//     changed nothing for the default engine.
//   - TestCrossBackendParity drives the full train→serve→record doctor loop
//     over every registered backend behind the same interface.
//   - TestServeBatchMatchesServe pins ServeBatch (and the wire surface over
//     it) to the single serve, per backend, with tier 0 on.
//   - TestServeBatchCancellation (-race) proves an in-flight ServeBatch
//     returns promptly once its deadline passes.
//   - TestHTTPRoundTripRealSystem runs the wire surface over a genuinely
//     trained system, as the one tenant of a fleet: optimize → feedback →
//     stats under /v1/t/default/.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/backend"
	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/tier"
	"github.com/foss-db/foss/internal/workload"
)

// tinyConfig is the fast cross-backend training budget.
func tinyConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.StateNet = aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	cfg.Learner.Iterations = 1
	cfg.Learner.RealPerIter = 6
	cfg.Learner.SimPerIter = 20
	cfg.Learner.ValidatePerIter = 6
	cfg.Learner.InferenceRollouts = 2
	return cfg
}

// TestSelingerGoldenBitIdentical reruns the run captured before the Backend
// refactor (same workload, seed, and schedule) and compares every chosen
// plan and latency bit-for-bit against the stored trace.
func TestSelingerGoldenBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay is a full small training run")
	}
	f, err := os.Open("testdata/golden_selinger.txt")
	if err != nil {
		t.Fatalf("golden trace missing: %v", err)
	}
	defer f.Close()

	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Learner.Iterations = 2
	cfg.Learner.RealPerIter = 8
	cfg.Learner.SimPerIter = 40
	cfg.Learner.ValidatePerIter = 8
	sys, err := core.New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sys.TrainContext(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if sys.BackendName() != "selinger" {
		t.Fatalf("default backend is %q", sys.BackendName())
	}

	got := map[string]string{}
	var bufLine string
	for _, q := range w.Test {
		pe, _, _, err := sys.OptimizeEvalContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		ecp, _, err := sys.ExpertPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		got[q.ID] = fmt.Sprintf("%s icp=%q lat=%x expert=%x",
			q.ID, pe.ICP.Key(), sys.Execute(pe.CP), sys.Execute(ecp))
	}
	bufLine = fmt.Sprintf("buffer=%d", sys.Learner.Buf.Size())

	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "workload=") {
			continue
		}
		lines++
		if strings.HasPrefix(line, "buffer=") {
			if bufLine != line {
				t.Errorf("execution buffer diverged: got %s, golden %s", bufLine, line)
			}
			continue
		}
		qid := strings.Fields(line)[0]
		if got[qid] != line {
			t.Errorf("query %s diverged from pre-refactor behavior:\n  got    %s\n  golden %s", qid, got[qid], line)
		}
	}
	if lines < 10 {
		t.Fatalf("golden trace suspiciously short (%d lines)", lines)
	}
}

// TestCrossBackendParity: every registered backend completes the full
// train→serve→record doctor loop behind the same interface, with plausible
// counters and executable plans.
func TestCrossBackendParity(t *testing.T) {
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			be, err := backend.New(name, w.DB, w.Stats)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tinyConfig()
			cfg.PlanCache = 32
			sys, err := core.New(w, cfg, core.WithBackend(be))
			if err != nil {
				t.Fatal(err)
			}
			if sys.BackendName() != name {
				t.Fatalf("BackendName %q, want %q", sys.BackendName(), name)
			}
			if err := sys.TrainContext(ctx, nil); err != nil {
				t.Fatalf("train on %s: %v", name, err)
			}
			if sys.Learner.Buf.Size() == 0 {
				t.Fatal("training filled no execution buffer")
			}
			err = sys.EnableOnline(service.Config{
				Detector:          service.DetectorConfig{Window: 8, Threshold: 1e12, MinSamples: 8},
				Cooldown:          4,
				RetrainIterations: 1,
				Background:        false,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range w.Train[:10] {
				res, lat, err := sys.ServeStepContext(ctx, q)
				if err != nil {
					t.Fatalf("serve %s on %s: %v", q.ID, name, err)
				}
				if res.Eval == nil || res.Eval.CP == nil || lat <= 0 {
					t.Fatalf("implausible serve result on %s: %+v lat=%v", name, res, lat)
				}
			}
			st := sys.OnlineStats()
			if st.Served != 10 || st.Recorded != 10 {
				t.Fatalf("loop counters on %s: %+v", name, st)
			}
			// repeated queries must hit the (backend-keyed) plan cache
			if _, err := sys.ServeContext(ctx, w.Train[0]); err != nil {
				t.Fatal(err)
			}
			if cs := sys.CacheStats(); cs.Hits == 0 {
				t.Fatalf("no cache hits after repeat serving on %s: %+v", name, cs)
			}
		})
	}
}

// TestServeBatchMatchesServe: the path is one. With tier 0 on, a batch row
// equals the single serve of the same query — plan, step, tier, epoch —
// whether the fingerprint is pinned (tier 0), seen but unpinned (tier 2, a
// plan-cache hit) or novel (tier 2, a miss); and the wire surface, which
// sends every request through ServeBatch, answers a seen fingerprint from
// the plan cache and accounts real tier-0 time.
func TestServeBatchMatchesServe(t *testing.T) {
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			be, err := backend.New(name, w.DB, w.Stats)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tinyConfig()
			cfg.PlanCache = 64 // a repeat of an unpinned fingerprint is a cache hit
			sys, err := core.New(w, cfg, core.WithBackend(be))
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.TrainContext(ctx, nil); err != nil {
				t.Fatal(err)
			}
			if err := sys.EnableOnline(service.Config{
				Detector:   service.DetectorConfig{Window: 8, Threshold: 1e12, MinSamples: 8},
				Cooldown:   1 << 30,
				Background: false,
				Tier:       tier.Config{Memory: true, PromoteAfter: 2},
			}); err != nil {
				t.Fatal(err)
			}
			qs := w.Test[:9]
			// First third: two wins pin a plan. Second third: one observation
			// makes the fingerprint repeat traffic without a pin. Rest: novel.
			record := func(q *query.Query, times int) {
				t.Helper()
				for i := 0; i < times; i++ {
					res, err := sys.ServeContext(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					if err := sys.Record(q, res.Eval, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, q := range qs[:3] {
				record(q, 2)
			}
			for _, q := range qs[3:6] {
				record(q, 1)
			}

			singles := make([]service.Result, len(qs))
			for i, q := range qs {
				if singles[i], err = sys.ServeContext(ctx, q); err != nil {
					t.Fatal(err)
				}
			}
			batch, err := sys.ServeBatch(ctx, qs)
			if err != nil {
				t.Fatal(err)
			}
			tiers := map[int]bool{}
			for i, q := range qs {
				s, b := singles[i], batch[i]
				if !s.Eval.ICP.Equal(b.Eval.ICP) || s.Eval.Step != b.Eval.Step || s.Tier != b.Tier || s.Epoch != b.Epoch {
					t.Fatalf("%s: batch row (%q step %d tier %d epoch %d) != single serve (%q step %d tier %d epoch %d)",
						q.ID, b.Eval.ICP.Key(), b.Eval.Step, b.Tier, b.Epoch, s.Eval.ICP.Key(), s.Eval.Step, s.Tier, s.Epoch)
				}
				tiers[b.Tier] = true
			}
			if !tiers[tier.Tier0] || !tiers[tier.Tier2] {
				t.Fatalf("batch did not exercise both tiers: %v", tiers)
			}

			byID := map[string]*query.Query{}
			for _, q := range qs {
				byID[q.ID] = q
			}
			base := serveOneTenant(t, sys, byID)

			// Seen but unpinned: the doctor's own plan is one lookup away — the
			// wire answers tier 2 from the plan cache, with Serve's plan.
			seen := 3
			code, row := postJSONT(t, base+"/optimize", `{"query_id": "`+qs[seen].ID+`"}`)
			if code != http.StatusOK {
				t.Fatalf("optimize %d: %v", code, row)
			}
			plan, _ := row["plan"].(map[string]any)
			if row["tier"] != float64(tier.Tier2) || row["cache_hit"] != true || plan["icp_key"] != singles[seen].Eval.ICP.Key() {
				t.Fatalf("wire serve of a seen fingerprint: tier %v cache_hit %v plan %v, want a tier-2 cache hit on Loop.Serve's plan %q",
					row["tier"], row["cache_hit"], plan["icp_key"], singles[seen].Eval.ICP.Key())
			}

			// Pinned: the wire hit counts, and its time lands in t0Nanos and
			// the tier-0 histogram.
			histBefore := sys.Online().ServeHistograms()[tier.Tier0]
			before := sys.OnlineStats()
			code, row = postJSONT(t, base+"/optimize", `{"query_id": "`+qs[0].ID+`"}`)
			if code != http.StatusOK || row["tier"] != float64(tier.Tier0) {
				t.Fatalf("optimize of a pinned fingerprint %d: %v", code, row)
			}
			after := sys.OnlineStats()
			histAfter := sys.Online().ServeHistograms()[tier.Tier0]
			if after.Tier0Hits != before.Tier0Hits+1 {
				t.Fatalf("Tier0Hits %d -> %d across one wire hit", before.Tier0Hits, after.Tier0Hits)
			}
			if nanos := func(s service.Stats) float64 { return s.Tier0AvgUs * float64(s.Tier0Hits) }; nanos(after) <= nanos(before) {
				t.Fatalf("wire tier-0 hit added no serve time: %v -> %v us", nanos(before), nanos(after))
			}
			if histAfter.Count() != histBefore.Count()+1 || histAfter.SumSeconds <= histBefore.SumSeconds {
				t.Fatalf("tier-0 histogram across one wire hit: count %d -> %d, sum %v -> %v",
					histBefore.Count(), histAfter.Count(), histBefore.SumSeconds, histAfter.SumSeconds)
			}
		})
	}
}

// TestServeBatchCancellation: an in-flight batched serve must return
// promptly once the deadline passes, with the context error surfaced and no
// partial results. Run under -race in CI.
func TestServeBatchCancellation(t *testing.T) {
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Learner.InferenceRollouts = 4 // make the batch genuinely slow
	sys, err := core.New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableOnline(service.Config{
		Detector:   service.DetectorConfig{Window: 8, Threshold: 1e12, MinSamples: 8},
		Cooldown:   1 << 30,
		Background: true,
	}); err != nil {
		t.Fatal(err)
	}

	// Deadline mid-batch: the whole train split, cold cache, several
	// rollouts per query — far more work than 10ms.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := sys.ServeBatch(ctx, w.Train)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ServeBatch ignored its deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatal("partial results returned after cancellation")
	}
	// "promptly": bounded by one in-flight rollout, not the whole batch. A
	// full batch takes many seconds at this scale; allow generous -race
	// headroom.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}

	// an already-expired context short-circuits before any work
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := sys.ServeBatch(done, w.Train); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled err = %v", err)
	}

	// the loop still serves normally afterwards
	if _, err := sys.ServeContext(context.Background(), w.Train[0]); err != nil {
		t.Fatalf("loop wedged after cancellation: %v", err)
	}
}

// TestHTTPRoundTripRealSystem drives the wire surface over a genuinely
// trained system — the curl workflow of fossd -serve-http, in-process.
func TestHTTPRoundTripRealSystem(t *testing.T) {
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.PlanCache = 32
	sys, err := core.New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableOnline(service.Config{
		Detector:   service.DetectorConfig{Window: 8, Threshold: 1e12, MinSamples: 8},
		Cooldown:   1 << 30,
		Background: false,
	}); err != nil {
		t.Fatal(err)
	}
	byID := map[string]*query.Query{}
	for _, q := range w.All() {
		byID[q.ID] = q
	}
	base := serveOneTenant(t, sys, byID)

	qid := w.Test[0].ID
	code, row := postJSONT(t, base+"/optimize", `{"query_id": "`+qid+`", "execute": true}`)
	if code != http.StatusOK {
		t.Fatalf("optimize %d: %v", code, row)
	}
	lat, _ := row["latency_ms"].(float64)
	if lat <= 0 {
		t.Fatalf("server-side execution reported latency %v", row["latency_ms"])
	}
	plan, _ := row["plan"].(map[string]any)
	if plan == nil || plan["icp_key"] == "" {
		t.Fatalf("no plan in %v", row)
	}

	// client-side execution path: optimize, then report feedback
	code, row = postJSONT(t, base+"/optimize", `{"query_id": "`+qid+`"}`)
	if code != http.StatusOK || row["cache_hit"] != true {
		t.Fatalf("repeat optimize %d (cache_hit=%v)", code, row["cache_hit"])
	}
	code, fb := postJSONT(t, base+"/feedback",
		fmt.Sprintf(`{"serve_id": %q, "latency_ms": %v}`, row["serve_id"], lat))
	if code != http.StatusOK || fb["recorded"] != true {
		t.Fatalf("feedback %d: %v", code, fb)
	}

	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	decodeJSONT(t, resp, &st)
	if st["backend"] != "selinger" {
		t.Fatalf("stats backend %v", st["backend"])
	}
	if s, _ := st["stats"].(map[string]any); s["Served"].(float64) < 2 || s["Recorded"].(float64) < 2 {
		t.Fatalf("stats counters %v", s)
	}
}

// oneTenant is a registry holding one system's wire state as "default", the
// one tenant of a fleet.
type oneTenant struct{ h *service.HTTPServer }

func (o oneTenant) TenantServer(name string) (*service.HTTPServer, error) {
	if name != "default" {
		return nil, fosserr.ErrUnknownTenant
	}
	return o.h, nil
}
func (o oneTenant) TenantNames() []string { return []string{"default"} }
func (o oneTenant) CreateTenant(context.Context, service.WireTenantSpec) (*service.HTTPServer, error) {
	return nil, fosserr.ErrBadConfig
}

// serveOneTenant serves sys's online loop as the one tenant of a fleet,
// resolving query ids through byID, and returns the tenant's URL prefix.
func serveOneTenant(t *testing.T, sys *core.System, byID map[string]*query.Query) string {
	t.Helper()
	h := service.NewHTTPServer(sys.Online(), service.HTTPOptions{
		Resolve: func(id string) *query.Query { return byID[id] },
	})
	ts := httptest.NewServer(service.NewMultiHTTPServer(oneTenant{h}))
	t.Cleanup(ts.Close)
	return ts.URL + "/v1/t/default"
}

// postJSONT posts a JSON body and decodes the JSON response.
func postJSONT(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	decodeJSONT(t, resp, &out)
	return resp.StatusCode, out
}

func decodeJSONT(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}
