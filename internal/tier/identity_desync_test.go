package tier

import (
	"testing"

	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/runtime"
)

// TestIdentityDesync is the invariant the runtime.Identity comment promises:
// the plan-cache LRU and the tier plan memory key through the same composite
// identity, so for any combination of model-epoch bump, catalog-epoch bump,
// and backend switch, the two structures always agree on hit vs miss — a
// stale identity can never hit one cache while missing the other.
func TestIdentityDesync(t *testing.T) {
	base := runtime.Identity{Backend: "selinger", Epoch: 1, Catalog: 1}
	cases := []struct {
		name string
		id   runtime.Identity
		hit  bool
	}{
		{"same identity", base, true},
		{"model epoch bump", runtime.Identity{Backend: "selinger", Epoch: 2, Catalog: 1}, false},
		{"catalog epoch bump", runtime.Identity{Backend: "selinger", Epoch: 1, Catalog: 2}, false},
		{"backend switch", runtime.Identity{Backend: "gaussim", Epoch: 1, Catalog: 1}, false},
		{"model+catalog bump", runtime.Identity{Backend: "selinger", Epoch: 2, Catalog: 2}, false},
		{"all three moved", runtime.Identity{Backend: "gaussim", Epoch: 2, Catalog: 2}, false},
		{"catalog rollback", runtime.Identity{Backend: "selinger", Epoch: 1, Catalog: 0}, false},
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
