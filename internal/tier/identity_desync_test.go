package tier

import (
	"testing"

	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/runtime"
)

// TestIdentityDesync: the tier plan memory and a cache keyed by the same
// runtime.PlanKey agree on hit vs miss for any combination of model-epoch
// bump and backend switch — a stale identity can never hit the memory while
// missing the key, or the other way round.
func TestIdentityDesync(t *testing.T) {
	base := runtime.Identity{Backend: "selinger", Epoch: 1}
	cases := []struct {
		name string
		id   runtime.Identity
		hit  bool
	}{
		{"same identity", base, true},
		{"model epoch bump", runtime.Identity{Backend: "selinger", Epoch: 2}, false},
		{"backend switch", runtime.Identity{Backend: "gaussim", Epoch: 1}, false},
		{"both moved", runtime.Identity{Backend: "gaussim", Epoch: 2}, false},
	}

	q := chainQuery("a")
	fp := q.Fingerprint()
	pe := eval(q, chainICP())

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Seed both structures under the base identity.
			lru := runtime.NewLRU[runtime.PlanKey, *planner.PlanEval](16)
			lru.Put(base.Key(fp), pe)
			mem := NewMemory(Config{Memory: true, PromoteAfter: 1})
			if out := mem.Observe(base, fp, q, pe, 5, 10); !out.Promoted {
				t.Fatal("fixture did not pin")
			}

			_, lruHit := lru.Get(tc.id.Key(fp))
			tierHit := mem.Route(tc.id, fp).Tier == Tier0
			if lruHit != tierHit {
				t.Fatalf("LRU and tier memory desynced: lru=%v tier=%v", lruHit, tierHit)
			}
			if lruHit != tc.hit {
				t.Fatalf("hit = %v, want %v", lruHit, tc.hit)
			}
		})
	}
}
