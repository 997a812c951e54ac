package core

import (
	"context"
	goruntime "runtime"
	"testing"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/tier"
)

// TestServeMissAllocsBounded pins what a tier-2 miss allocates, the
// counterpart of service.TestTier0ServeZeroAllocs for the path that runs the
// model: expert plan, InferenceRollouts walks through the agent's frozen
// views sharing one walk memo, and the judge's heads, with every activation
// in the two arenas the serve borrows. It lives here because a real miss
// needs a real System, which package service cannot import.
//
// Objects: the budget is ~1.15× the measured 1418 (1482 before frozen
// forwards shared input-stage rows and gathered their six embeddings into one
// tensor, 1805 with activations on the heap, 2344 before the walk memo and
// the once-per-candidate selection heads, 5863 before nn's fused ops); a miss
// that runs the scoring pass too and forwards through tracked parameters, as
// it did before the split, measured 28980 then. AllocsPerRun runs with
// GOMAXPROCS 1, where the judge mostly takes the pool in one batch; on two
// cores it takes more, smaller batches, each with its own Tensor headers
// (~1610 measured).
//
// Bytes: the budget is ~1.5× the measured ~155–190 KB per miss (180–205 KB
// before the shared rows). Activations on the heap measured 730 KB, so a
// forward that stops allocating in its arena fails here first.
func TestServeMissAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	serve := missServer(t, aam.StateNetConfig{})
	avg := testing.AllocsPerRun(40, serve)
	const budget = 1630 // at smallSystem's DModel 16, one layer, 4 rollouts
	if avg > budget {
		t.Fatalf("a tier-2 miss allocates %.0f objects, budget %d", avg, budget)
	}
	const runs, byteBudget = 40, 280 << 10
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for range runs {
		serve()
	}
	goruntime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > byteBudget {
		t.Fatalf("a tier-2 miss allocates %d bytes, budget %d", per, byteBudget)
	}
}

// BenchmarkServeMiss times one tier-2 miss per op at two sizes: small, the
// system TestServeMissAllocsBounded pins, and doctor, DefaultConfig's state
// network — the doctor the benchmark's cold_novel workload serves, whose nn
// share of a miss the small net hides.
func BenchmarkServeMiss(b *testing.B) {
	for _, sz := range []struct {
		name string
		net  aam.StateNetConfig
	}{
		{"small", aam.StateNetConfig{}},
		{"doctor", DefaultConfig().StateNet},
	} {
		b.Run(sz.name, func(b *testing.B) {
			serve := missServer(b, sz.net)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				serve()
			}
		})
	}
}

// missServer returns a function that serves one tier-2 miss per call, with
// the scratch pools, the arenas and the expert-plan memo already warm. An
// untrained doctor serves exactly the miss a trained one does; a one-entry
// plan cache under eight distinct queries never hits. net sizes the state
// networks; the zero value keeps smallSystem's.
func missServer(tb testing.TB, net aam.StateNetConfig) func() {
	sys := smallSystem(tb, func(c *Config) {
		c.PlanCache = 1
		if net != (aam.StateNetConfig{}) {
			c.StateNet = net
		}
	})
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
