package shard

// The multi-tenant isolation suite: a fleet's whole value is that tenants
// cannot observe each other. These tests boot small real fleets (actual
// core systems, actual training) and assert structural isolation — per-
// tenant epochs, caches, buffers, and state directories never cross — plus
// the router's lifecycle contract.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/core"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/store"
)

// tinyConfig keeps per-shard training in test time.
func tinyConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.StateNet = aam.StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	cfg.PlanCache = 64
	cfg.Learner.Iterations = 1
	cfg.Learner.RealPerIter = 4
	cfg.Learner.SimPerIter = 12
	cfg.Learner.ValidatePerIter = 4
	cfg.Learner.InferenceRollouts = 1
	return cfg
}

func tinyRouterConfig(stateDir string) Config {
	return Config{
		System: tinyConfig(),
		Loop: service.Config{
			Detector:          service.DetectorConfig{Window: 8, Threshold: 1e12, MinSamples: 8},
			Cooldown:          1 << 30, // isolation tests pin epochs: no retrains
			RetrainIterations: 1,
			Background:        true,
		},
		Defaults:         TenantSpec{Workload: "job", Scale: 0.25, Seed: 1},
		StateDir:         stateDir,
		CheckpointOnBoot: stateDir != "",
	}
}

// TestMultiTenantIsolation boots two shards on different optimizer backends
// and different (name-derived) seeds, hammers both with concurrent
// optimize/feedback traffic, and asserts nothing bled across: per-tenant
// serve/record counters, plan caches, execution buffers, epochs, and — with
// a state dir — checkpoint files all stay tenant-private.
func TestMultiTenantIsolation(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyRouterConfig(dir)
	router, err := NewRouter(context.Background(), cfg, []TenantSpec{
		{Name: "acme", Backend: "selinger"},
		{Name: "globex", Backend: "gaussim"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close(context.Background())

	acme, err := router.Get("acme")
	if err != nil {
		t.Fatal(err)
	}
	globex, err := router.Get("globex")
	if err != nil {
		t.Fatal(err)
	}
	if acme.Sys.BackendName() == globex.Sys.BackendName() {
		t.Fatalf("tenants share a backend: %s", acme.Sys.BackendName())
	}
	if acme.Spec.Seed == globex.Spec.Seed {
		t.Fatalf("name-derived seeds collided: %d", acme.Spec.Seed)
	}

	bufA0 := acme.Sys.Buffer().Size()
	bufG0 := globex.Sys.Buffer().Size()

	// Concurrent full doctor-loop turns on both shards.
	const turns = 24
	var wg sync.WaitGroup
	for _, sh := range []*Shard{acme, globex} {
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			qs := sh.W.Train
			for i := 0; i < turns; i++ {
				if _, _, err := sh.Step(context.Background(), qs[i%len(qs)]); err != nil {
					t.Errorf("tenant %s: %v", sh.Spec.Name, err)
					return
				}
			}
		}(sh)
	}
	wg.Wait()

	for _, sh := range []*Shard{acme, globex} {
		st := sh.Sys.OnlineStats()
		if st.Served != turns || st.Recorded != turns {
			t.Fatalf("tenant %s: served=%d recorded=%d, want %d each (cross-tenant bleed?)",
				sh.Spec.Name, st.Served, st.Recorded, turns)
		}
		if st.Epoch != 1 || st.Swaps != 0 {
			t.Fatalf("tenant %s: epoch=%d swaps=%d, want a quiet epoch 1", sh.Spec.Name, st.Epoch, st.Swaps)
		}
	}
	// Feedback grew each tenant's buffer by its own turns only (distinct
	// queries dedup inside one tenant, so the bound is ≤; the cross-bleed
	// signal is growth beyond one tenant's own traffic).
	if grew := acme.Sys.Buffer().Size() - bufA0; grew > turns {
		t.Fatalf("acme buffer grew %d > its own %d turns", grew, turns)
	}
	if grew := globex.Sys.Buffer().Size() - bufG0; grew > turns {
		t.Fatalf("globex buffer grew %d > its own %d turns", grew, turns)
	}
	// Plan caches are private: each tenant's cache only holds its own
	// fingerprints (sizes reflect per-tenant distinct queries, and a
	// fleet-wide total equals the per-tenant sum).
	csA, csG := acme.Sys.CacheStats(), globex.Sys.CacheStats()
	if csA.Size == 0 || csG.Size == 0 {
		t.Fatalf("plan caches empty after traffic: acme=%d globex=%d", csA.Size, csG.Size)
	}
	if csA.Hits+csA.Misses != turns || csG.Hits+csG.Misses != turns {
		t.Fatalf("cache touch counts crossed tenants: acme=%d globex=%d, want %d each",
			csA.Hits+csA.Misses, csG.Hits+csG.Misses, turns)
	}

	// Per-tenant checkpoints land in separate directories.
	if _, err := router.Get("acme"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"acme", "globex"} {
		ents, err := os.ReadDir(filepath.Join(dir, name, "checkpoints"))
		if err != nil || len(ents) == 0 {
			t.Fatalf("tenant %s has no private checkpoints: %v", name, err)
		}
	}
}

// TestRouterLifecycle: Close drains every shard (final checkpoint each,
// WAL locks released so a successor can take over), refuses routes
// afterwards, is idempotent, and leaves no goroutines behind.
func TestRouterLifecycle(t *testing.T) {
	base := goruntime.NumGoroutine()
	dir := t.TempDir()
	cfg := tinyRouterConfig(dir)
	router, err := NewRouter(context.Background(), cfg, []TenantSpec{
		{Name: "acme"}, {Name: "globex", Backend: "gaussim"},
	})
	if err != nil {
		t.Fatal(err)
	}
	acme, _ := router.Get("acme")
	if _, _, err := acme.Step(context.Background(), acme.W.Train[0]); err != nil {
		t.Fatal(err)
	}
	ckBefore := acme.Sys.OnlineStats().Checkpoints

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := router.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := router.Close(ctx); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if acme.Sys.OnlineStats().Checkpoints != ckBefore+1 {
		t.Fatalf("drain took no final checkpoint: %d → %d", ckBefore, acme.Sys.OnlineStats().Checkpoints)
	}
	if _, err := router.Get("acme"); !errors.Is(err, fosserr.ErrLoopClosed) {
		t.Fatalf("post-close Get error = %v, want ErrLoopClosed", err)
	}
	if _, err := acme.Serve(context.Background(), acme.W.Train[0]); !errors.Is(err, fosserr.ErrLoopClosed) {
		t.Fatalf("post-close Serve error = %v, want ErrLoopClosed", err)
	}
	// The WAL locks are released: a successor fleet can take the state over
	// and warm-starts from the drain's final checkpoints.
	router2, err := NewRouter(context.Background(), cfg, []TenantSpec{
		{Name: "acme"}, {Name: "globex", Backend: "gaussim"},
	})
	if err != nil {
		t.Fatalf("successor fleet refused the state dir: %v", err)
	}
	acme2, _ := router2.Get("acme")
	if !acme2.Recovery.Recovered {
		t.Fatal("successor cold-started; drain checkpoint was not recoverable")
	}
	if err := router2.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Loop goroutines are gone.
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked across router Close: %d > %d\n%s",
				goruntime.NumGoroutine(), base, buf[:goruntime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWarmRestartBitIdentical: drain a fleet, boot a successor over the
// same state dir, and the successor serves the identical plan at the same
// epoch for every tenant — the multi-tenant version of PR 4's kill-9
// guarantee, reached through SIGTERM's drain path instead.
func TestWarmRestartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyRouterConfig(dir)
	specs := []TenantSpec{{Name: "acme"}, {Name: "globex", Backend: "gaussim"}}
	router, err := NewRouter(context.Background(), cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		key   string
		epoch uint64
	}
	probes := map[string]probe{}
	for _, name := range router.Names() {
		sh, _ := router.Get(name)
		res, err := sh.Serve(context.Background(), sh.W.Test[0])
		if err != nil {
			t.Fatal(err)
		}
		probes[name] = probe{key: res.Eval.ICP.Key(), epoch: res.Epoch}
	}
	if err := router.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	router2, err := NewRouter(context.Background(), cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer router2.Close(context.Background())
	for _, name := range router2.Names() {
		sh, _ := router2.Get(name)
		if !sh.Recovery.Recovered {
			t.Fatalf("tenant %s cold-started on restart", name)
		}
		res, err := sh.Serve(context.Background(), sh.W.Test[0])
		if err != nil {
			t.Fatal(err)
		}
		want := probes[name]
		if res.Eval.ICP.Key() != want.key || res.Epoch != want.epoch {
			t.Fatalf("tenant %s: restarted serving (%s, epoch %d) != pre-drain (%s, epoch %d)",
				name, res.Eval.ICP.Key(), res.Epoch, want.key, want.epoch)
		}
	}
}

// TestCreateTenantLive adds a shard to a serving fleet through the wire
// path and checks duplicate and post-close creation are refused.
func TestCreateTenantLive(t *testing.T) {
	cfg := tinyRouterConfig("") // in-memory: live creation is the point here
	router, err := NewRouter(context.Background(), cfg, []TenantSpec{{Name: "acme"}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close(context.Background())

	mux := service.NewMultiHTTPServer(router)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/tenants", "application/json",
		strings.NewReader(`{"tenant": "globex", "backend": "gaussim"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	var created map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if created["backend"] != "gaussim" {
		t.Fatalf("created tenant on backend %v, want gaussim", created["backend"])
	}
	// The new tenant serves through its scoped endpoint.
	sh, err := router.Get("globex")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := http.Post(ts.URL+"/v1/t/globex/optimize", "application/json",
		strings.NewReader(`{"query_id": "`+sh.W.Train[0].ID+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("new tenant optimize status %d", r2.StatusCode)
	}
	// Duplicates are refused.
	if _, err := router.Create(context.Background(), TenantSpec{Name: "acme"}); !errors.Is(err, fosserr.ErrBadConfig) {
		t.Fatalf("duplicate create error = %v, want ErrBadConfig", err)
	}
	// Names that would escape the state dir or break tenant routing are
	// refused before anything touches the filesystem.
	for _, name := range []string{"../evil", "a/b", "a b", ".", "..", ""} {
		if _, err := router.Create(context.Background(), TenantSpec{Name: name}); !errors.Is(err, fosserr.ErrBadConfig) {
			t.Fatalf("name %q: error = %v, want ErrBadConfig", name, err)
		}
	}
	// Unknown tenants 404 on the scoped path.
	r3, err := http.Get(ts.URL + "/v1/t/nobody/stats")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant status %d, want 404", r3.StatusCode)
	}
	// Aggregate stats roll both tenants up.
	r4, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r4.Body.Close()
	var agg struct {
		Tenants map[string]json.RawMessage `json:"tenants"`
		Totals  struct {
			Tenants int    `json:"tenants"`
			Served  uint64 `json:"served"`
		} `json:"totals"`
	}
	if err := json.NewDecoder(r4.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	if agg.Totals.Tenants != 2 || len(agg.Tenants) != 2 || agg.Totals.Served == 0 {
		t.Fatalf("aggregate roll-up wrong: %+v", agg.Totals)
	}
}

// TestDoubleOpenStateDirRefused: two shards misconfigured onto one state
// directory must fail the boot with ErrStoreLocked instead of corrupting a
// shared WAL — the router surfaces the store's lock.
func TestDoubleOpenStateDirRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyRouterConfig(dir)
	router, err := NewRouter(context.Background(), cfg, []TenantSpec{{Name: "acme"}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close(context.Background())
	// A second store on acme's directory — what a misconfigured sibling
	// shard or process would open — is refused while the shard lives.
	if _, err := store.Open(filepath.Join(dir, "acme")); !errors.Is(err, fosserr.ErrStoreLocked) {
		t.Fatalf("double open error = %v, want ErrStoreLocked", err)
	}
	// And a second tenant pointed at the same directory name collides the
	// same way through the router.
	if _, err := router.Create(context.Background(), TenantSpec{Name: "acme", Backend: "gaussim"}); err == nil {
		t.Fatal("duplicate tenant over one state dir was not refused")
	}
}

// TestResolveKeepsExplicitSeed: only a zero seed is derived from the tenant
// name. fossd's implicit "default" tenant carries -seed verbatim, so a
// single-tenant server trains the model its flags describe.
func TestResolveKeepsExplicitSeed(t *testing.T) {
	r := &Router{cfg: Config{Defaults: TenantSpec{Workload: "job", Backend: "selinger", Scale: 0.25, Seed: 1}}}
	if got := r.resolve(TenantSpec{Name: "default", Seed: 1}).Seed; got != 1 {
		t.Fatalf("explicit seed re-derived: %d", got)
	}
	if got := r.resolve(TenantSpec{Name: "default"}).Seed; got == 0 || got == 1 {
		t.Fatalf("zero seed not derived from the name: %d", got)
	}
}
