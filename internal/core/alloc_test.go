package core

import (
	"context"
	"testing"

	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/tier"
)

// TestServeMissAllocsBounded pins the allocation count of a tier-2 miss, the
// counterpart of service.TestTier0ServeZeroAllocs for the path that runs the
// model: expert plan, InferenceRollouts walks through the agent's frozen
// views sharing one walk memo, one batched frozen scoring pass. It lives here
// because a real miss needs a real System, which package service cannot
// import. The budget is ~1.5× the measured 1805 (2344 before the walk memo
// and the once-per-candidate selection heads, 5863 before nn's fused ops); a
// miss that runs the scoring pass too and forwards through tracked
// parameters, as it did before the split, measured 28980 then.
func TestServeMissAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	serve := missServer(t)
	avg := testing.AllocsPerRun(40, serve)
	const budget = 2700 // at smallSystem's DModel 16, one layer, 4 rollouts
	if avg > budget {
		t.Fatalf("a tier-2 miss allocates %.0f objects, budget %d", avg, budget)
	}
}

// BenchmarkServeMiss times one tier-2 miss per op on the system
// TestServeMissAllocsBounded pins.
func BenchmarkServeMiss(b *testing.B) {
	serve := missServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		serve()
	}
}

// missServer returns a function that serves one tier-2 miss per call, with
// the scratch pools and the expert-plan memo already warm. An untrained
// doctor serves exactly the miss a trained one does; a one-entry plan cache
// under eight distinct queries never hits.
func missServer(tb testing.TB) func() {
	sys := smallSystem(tb, func(c *Config) { c.PlanCache = 1 })
	if err := sys.EnableOnline(service.Config{
		Detector: service.DetectorConfig{Window: 8, Threshold: 1e9, MinSamples: 8},
		Cooldown: 1 << 30,
		Tier:     tier.Config{Memory: true},
	}); err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	qs := sys.W.Train[:8]
	i := 0
	serve := func() {
		res, err := sys.ServeContext(ctx, qs[i%len(qs)])
		i++
		if err != nil || res.CacheHit || res.Tier != tier.Tier2 {
			panic("not a tier-2 miss")
		}
	}
	for range qs {
		serve()
	}
	return serve
}
