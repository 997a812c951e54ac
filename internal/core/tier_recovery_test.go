package core

import (
	"context"
	"testing"

	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/tier"
)

// tierLoopConfig is the durable loop with tier-0 plan memory on and a
// one-win promotion threshold, so tests can pin deterministically.
func tierLoopConfig(st *store.Store) service.Config {
	cfg := durableLoopConfig(st)
	cfg.Tier = tier.Config{Memory: true, PromoteAfter: 1}
	return cfg
}

// TestTierMemorySurvivesRestart is the warm-restart guarantee for the plan
// memory: promote a pin, checkpoint, crash, recover a fresh System from disk
// — the pin must be back (rebuilt through the recovered model, not copied as
// bytes) and serve the identical plan at tier 0.
func TestTierMemorySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys := smallSystem(t, recoveryConfig)
	if err := sys.TrainContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RecoverOnline(tierLoopConfig(st), st); err != nil {
		t.Fatal(err)
	}
	q := sys.W.Train[0]
	res, err := sys.ServeContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != tier.Tier2 {
		t.Fatalf("novel query served at tier %d, want 2", res.Tier)
	}
	// Record a latency far below any expert baseline: one win promotes.
	sys.Online().Record(q, res.Eval, 0.001)
	if st := sys.OnlineStats(); st.Promotions != 1 || st.PinnedPlans != 1 {
		t.Fatalf("promotion did not land: %+v", st)
	}
	hit, err := sys.ServeContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Tier != tier.Tier0 {
		t.Fatalf("pinned query served at tier %d, want 0", hit.Tier)
	}
	wantKey := hit.Eval.ICP.Key()
	if wantKey != res.Eval.ICP.Key() {
		t.Fatal("tier-0 hit differs from the tier-2 plan it was promoted from")
	}
	if _, err := sys.Online().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // crash: process state is gone
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	fresh := smallSystem(t, func(c *Config) { recoveryConfig(c); c.Seed = 909 })
	info, err := fresh.RecoverOnline(tierLoopConfig(st2), st2)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recovered {
		t.Fatal("checkpoint on disk not recovered")
	}
	if got := fresh.OnlineStats().PinnedPlans; got != 1 {
		t.Fatalf("recovered plan memory holds %d pins, want 1", got)
	}
	rec, err := fresh.ServeContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Tier != tier.Tier0 {
		t.Fatalf("recovered system serves the pinned query at tier %d, want 0", rec.Tier)
	}
	if rec.Eval.ICP.Key() != wantKey {
		t.Fatalf("recovered pin %s != pre-crash %s", rec.Eval.ICP.Key(), wantKey)
	}
	if rec.Eval.CP == nil {
		t.Fatal("recovered pin was not re-derived into a complete executable plan")
	}
}
