package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/tier"
)

// tierConfig is syncConfig with the drift detector silenced and a tier
// configuration applied, so tests exercise the tier router without swaps
// interfering.
func tierConfig(tc tier.Config) Config {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100 // never drift
	cfg.Tier = tc
	return cfg
}

// TestTierPromotionServesIdenticalPlan: after PromoteAfter wins against the
// expert baseline, the fingerprint is pinned and tier-0 hits return the
// exact promoted plan object — bit-identical to what tier 2 served.
func TestTierPromotionServesIdenticalPlan(t *testing.T) {
	lp := New(tierConfig(tier.Config{Memory: true}), newFake("blue"), nil)
	q := fq(1)
	first, err := lp.Serve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Tier != tier.Tier2 {
		t.Fatalf("novel query served at tier %d, want 2", first.Tier)
	}
	lp.Record(q, first.Eval, 5) // the fake's expert executes at 10 → a win
	for i := 0; i < 2; i++ {
		res, err := lp.Serve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tier != tier.Tier2 {
			t.Fatalf("pre-promotion serve %d at tier %d, want 2", i, res.Tier)
		}
		lp.Record(q, res.Eval, 5)
	}
	st := lp.Stats()
	if st.Promotions != 1 || st.PinnedPlans != 1 {
		t.Fatalf("after 3 wins: promotions=%d pins=%d, want 1/1", st.Promotions, st.PinnedPlans)
	}
	hit, err := lp.Serve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Tier != tier.Tier0 || !hit.CacheHit {
		t.Fatalf("post-promotion serve: tier=%d cacheHit=%v, want tier 0 hit", hit.Tier, hit.CacheHit)
	}
	// The pin is the best (first, lowest-latency) recorded eval — the very
	// object tier 2 produced, so the hit is trivially bit-identical.
	if hit.Eval != first.Eval {
		t.Fatal("tier-0 hit returned a different plan object than the promoted tier-2 eval")
	}
	if st := lp.Stats(); st.Tier0Hits != 1 || st.Tier2Serves != 3 {
		t.Fatalf("tier counters t0=%d t2=%d, want 1/3", st.Tier0Hits, st.Tier2Serves)
	}
}

// TestTier0ServeZeroAllocs pins the tier-0 hit path to zero allocations:
// memoized fingerprint, atomic slot load, read-locked map lookup, atomic
// counters — nothing may escape to the heap.
func TestTier0ServeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	lp := New(tierConfig(tier.Config{Memory: true}), newFake("blue"), nil)
	q := fq(7)
	for i := 0; i < 3; i++ {
		res, err := lp.Serve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		lp.Record(q, res.Eval, 5)
	}
	if lp.Stats().PinnedPlans != 1 {
		t.Fatal("fixture did not promote a pin")
	}
	ctx := context.Background()
	avg := testing.AllocsPerRun(200, func() {
		res, err := lp.Serve(ctx, q)
		if err != nil || res.Tier != tier.Tier0 {
			panic("not a tier-0 hit")
		}
	})
	if avg != 0 {
		t.Fatalf("tier-0 Serve allocates %.1f objects per call, want 0", avg)
	}
}

// TestHotTurnZeroAllocs pins a whole hot turn to zero allocations: a tier-0
// Serve plus the Record of an execution both buffers already hold — the
// catalog checks, the expert-latency cache, the feedback transition, the
// tier router, the drift detector and the advisor all run, and none of them
// may copy or allocate.
func TestHotTurnZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	cfg := tierConfig(tier.Config{Memory: true})
	cfg.Advisor = AdvisorConfig{Enabled: true}
	lp := New(cfg, newFake("blue"), nil)
	q := fq(7)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := lp.Serve(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		lp.Record(q, res.Eval, 5)
	}
	if lp.Stats().PinnedPlans != 1 {
		t.Fatal("fixture did not promote a pin")
	}
	avg := testing.AllocsPerRun(200, func() {
		res, err := lp.Serve(ctx, q)
		if err != nil || res.Tier != tier.Tier0 {
			panic("not a tier-0 hit")
		}
		if !lp.Record(q, res.Eval, 5) {
			panic("record refused")
		}
	})
	if avg != 0 {
		t.Fatalf("hot turn allocates %.1f objects, want 0", avg)
	}
}

// TestTierEscalationDropsPin: a pinned plan regressing past EscalateRatio is
// demoted immediately, and the regression latch blocks re-promotion for the
// rest of the epoch.
func TestTierEscalationDropsPin(t *testing.T) {
	lp := New(tierConfig(tier.Config{Memory: true}), newFake("blue"), nil)
	q := fq(2)
	for i := 0; i < 3; i++ {
		res, err := lp.Serve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		lp.Record(q, res.Eval, 5)
	}
	hit, err := lp.Serve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Tier != tier.Tier0 {
		t.Fatalf("fixture did not promote: tier %d", hit.Tier)
	}
	lp.Record(q, hit.Eval, 100) // 100ms > 1.5 × the expert's 10ms → escalate
	st := lp.Stats()
	if st.Demotions != 1 || st.PinnedPlans != 0 {
		t.Fatalf("after regression: demotions=%d pins=%d, want 1/0", st.Demotions, st.PinnedPlans)
	}
	// Regressed fingerprints stay on tier 2 and never re-pin this epoch,
	// however many wins follow.
	for i := 0; i < 4; i++ {
		res, err := lp.Serve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tier != tier.Tier2 {
			t.Fatalf("regressed fingerprint served at tier %d, want 2", res.Tier)
		}
		lp.Record(q, res.Eval, 5)
	}
	if st := lp.Stats(); st.Promotions != 1 {
		t.Fatalf("regressed fingerprint re-promoted inside the epoch: %d promotions", st.Promotions)
	}
}

// TestHotSwapInvalidatesPlanMemory: a hot-swap must invalidate the tier-0
// plan memory in the same step that bumps the epoch its runtime.Identity
// keys carry (the published replica's plan cache was already emptied by the
// exclusive section that trained it), leaving no window where a stale pin can
// answer for the new model.
func TestHotSwapInvalidatesPlanMemory(t *testing.T) {
	cfg := syncConfig() // threshold 1.2: sustained ratio-10 regressions drift
	cfg.Tier = tier.Config{Memory: true}
	lp := New(cfg, newFake("blue"), nil)
	q := fq(4)
	for i := 0; i < 3; i++ {
		res, err := lp.Serve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		lp.Record(q, res.Eval, 5)
	}
	if st := lp.Stats(); st.PinnedPlans != 1 {
		t.Fatalf("fixture did not promote: %d pins", st.PinnedPlans)
	}
	// Sustained regression on other fingerprints → drift → sync retrain+swap.
	for i := int64(0); i < 4; i++ {
		res, err := lp.Serve(context.Background(), fq(100+i))
		if err != nil {
			t.Fatal(err)
		}
		lp.Record(fq(100+i), res.Eval, 100)
	}
	st := lp.Stats()
	if st.Swaps < 1 {
		t.Fatalf("no hot-swap: %+v", st)
	}
	if st.PinnedPlans != 0 {
		t.Fatalf("hot-swap left %d stale pins in plan memory", st.PinnedPlans)
	}
	res, err := lp.Serve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != tier.Tier0 && res.Epoch != lp.Epoch() {
		t.Fatalf("post-swap serve: tier=%d epoch=%d loop epoch=%d", res.Tier, res.Epoch, lp.Epoch())
	}
	if res.Tier != tier.Tier2 {
		t.Fatalf("post-swap serve at tier %d, want 2 (pins must re-earn trust)", res.Tier)
	}
}

// TestDDLInvalidatesPlanMemory is TestHotSwapInvalidatesPlanMemory's
// schema-evolution sibling: a DDL apply must invalidate tier-0 plan memory in
// the same step that bumps the serving epoch (no weight swap happens, but the
// pinned plans were chosen against the retired schema generation), and the
// surviving fingerprints must re-earn their pins against the evolved catalog.
func TestDDLInvalidatesPlanMemory(t *testing.T) {
	lp := New(tierConfig(tier.Config{Memory: true}), newFake("blue"), nil)
	q := fq(4)
	for i := 0; i < 3; i++ {
		res, err := lp.Serve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		lp.Record(q, res.Eval, 5)
	}
	if st := lp.Stats(); st.PinnedPlans != 1 {
		t.Fatalf("fixture did not promote: %d pins", st.PinnedPlans)
	}
	// An index change on the pinned query's own table: the query stays
	// servable, but every plan chosen against the old physical design is out.
	if _, err := lp.ApplyDDL([]catalog.DDL{{Kind: catalog.DDLAddIndex, Table: "a", Column: "c"}}); err != nil {
		t.Fatal(err)
	}
	st := lp.Stats()
	if st.Swaps != 0 {
		t.Fatalf("DDL must not swap replicas: %+v", st)
	}
	if st.PinnedPlans != 0 {
		t.Fatalf("DDL left %d stale pins in plan memory", st.PinnedPlans)
	}
	res, err := lp.Serve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 2 {
		t.Fatalf("post-DDL serve at epoch %d, want 2", res.Epoch)
	}
	if res.Tier != tier.Tier2 {
		t.Fatalf("post-DDL serve at tier %d, want 2 (pins must re-earn trust)", res.Tier)
	}
}

// TestTierDecisionsDeterministic: identical traffic into two fresh loops
// yields the identical tier decision sequence — the router is a pure
// function of the feedback stream.
func TestTierDecisionsDeterministic(t *testing.T) {
	run := func() []int {
		lp := New(tierConfig(tier.Config{Memory: true, PromoteAfter: 2}),
			newFake("blue"), nil)
		var tiers []int
		for i := 0; i < 40; i++ {
			q := fq(int64(i % 5))
			res, err := lp.Serve(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			tiers = append(tiers, res.Tier)
			lat := 5.0
			if i%7 == 0 {
				lat = 100 // periodic regressions exercise escalation
			}
			lp.Record(q, res.Eval, lat)
		}
		return tiers
	}
	a, b := run(), run()
	seen := map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tier decision diverged at query %d: %d vs %d", i, a[i], b[i])
		}
		seen[a[i]] = true
	}
	if !seen[tier.Tier0] || !seen[tier.Tier2] {
		t.Fatalf("traffic did not exercise both tiers: %v", seen)
	}
}

// TestTierStateRebuiltByReplay: WAL replay re-derives the identical tier
// state from the feedback stream alone — pins, win streaks, and regression
// latches; promotions and demotions are not journaled.
func TestTierStateRebuiltByReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tierConfig(tier.Config{Memory: true})
	cfg.Store = st
	lp := New(cfg, newFake("blue"), nil)
	q := fq(9)
	for i := 0; i < 3; i++ {
		res, err := lp.Serve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		lp.Record(q, res.Eval, 5)
	}
	live := lp.Stats()
	if live.Promotions != 1 || live.PinnedPlans != 1 {
		t.Fatalf("live loop did not promote: %+v", live)
	}
	st.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var entries []store.WALEntry
	if err := st2.WAL().Replay(0, func(e store.WALEntry) error { entries = append(entries, e); return nil }); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Store = st2
	lp2 := New(cfg2, newFake("blue2"), nil)
	if _, err := lp2.Replay(entries); err != nil {
		t.Fatal(err)
	}
	rebuilt := lp2.Stats()
	if rebuilt.PinnedPlans != 1 {
		t.Fatalf("replay rebuilt %d pins, want 1", rebuilt.PinnedPlans)
	}
	res, err := lp2.Serve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != tier.Tier0 {
		t.Fatalf("replayed loop serves the pinned fingerprint at tier %d, want 0", res.Tier)
	}
}

// TestTierHitRatioRepeatTrace is the CI gate for the router's usefulness: a
// repeat-heavy trace (8 fingerprints, 25 sightings each, feedback after
// every serve) must end up served overwhelmingly by the fast tier — tier 2
// until the win streak lands (three sightings), pinned at tier 0 for the
// other 22.
func TestTierHitRatioRepeatTrace(t *testing.T) {
	lp := New(tierConfig(tier.Config{Memory: true, PromoteAfter: 3}),
		newFake("blue"), nil)
	for i := 0; i < 200; i++ {
		q := fq(int64(i % 8))
		res, err := lp.Serve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		lp.Record(q, res.Eval, 5)
	}
	st := lp.Stats()
	ratio := float64(st.Tier0Hits) / float64(st.Served)
	if ratio < 0.85 {
		t.Fatalf("fast-tier hit ratio %.2f (t0=%d of %d served), want >= 0.85",
			ratio, st.Tier0Hits, st.Served)
	}
}

// TestTierPromotionRacesHotSwap is the -race soak: repeat traffic drives
// promotions, tier-0 hits, and escalations while a slow background retrain
// swaps the model and invalidates the plan memory underneath them.
func TestTierPromotionRacesHotSwap(t *testing.T) {
	cfg := syncConfig()
	cfg.Background = true
	cfg.Tier = tier.Config{Memory: true, PromoteAfter: 2}
	blue := newFake("blue")
	blue.trainDelay = 50 * time.Millisecond // inherited by the fork
	lp := New(cfg, blue, nil)

	// Trip the drift detector so a background retrain is in flight.
	for i := int64(0); i < 4; i++ {
		res, err := lp.Serve(context.Background(), fq(i))
		if err != nil {
			t.Fatal(err)
		}
		lp.Record(fq(i), res.Eval, 100)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 100; i++ {
				q := fq(1000 + i%8) // repeat traffic: promotion and tier-0 hits race the swap
				res, err := lp.Serve(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Eval == nil {
					t.Error("nil plan under tier racing")
					return
				}
				lp.Record(q, res.Eval, 5)
			}
		}()
	}
	wg.Wait()
	lp.Wait()
	if st := lp.Stats(); st.RetrainErrors != 0 || st.Swaps < 1 {
		t.Fatalf("swap did not complete cleanly under tier traffic: %+v", st)
	}
}
