package runtime

import "testing"

// TestIdentityKeyComposite: PlanKey is the composite identity the tier plan
// memory keys on — equal only when backend, epoch, and fingerprint all
// agree, so an epoch bump (hot-swap or DDL) or a backend switch makes every
// prior key unreachable.
func TestIdentityKeyComposite(t *testing.T) {
	base := Identity{Backend: "selinger", Epoch: 1}
	k := base.Key(42)
	if k != (PlanKey{Identity: base, Fp: 42}) {
		t.Fatalf("key composition broken: %+v", k)
	}
	distinct := []PlanKey{
		Identity{Backend: "selinger", Epoch: 2}.Key(42), // hot-swap
		Identity{Backend: "gaussim", Epoch: 1}.Key(42),  // backend switch
		base.Key(43), // different query
	}
	for i, d := range distinct {
		if d == k {
			t.Fatalf("case %d: stale identity collides with live key", i)
		}
	}
	if base.Key(42) != k {
		t.Fatal("identical identity must reproduce the identical key")
	}
}
