package runtime

// Identity is the composite serving identity every plan-keyed structure is
// scoped by: the optimizer backend that completes plans, the model epoch
// (hot-swap generation) that chooses them, and the catalog epoch (schema
// generation) they were planned against. The runtime LRU and the tier
// router's plan memory both build their keys through Identity.Key, so every
// epoch source feeds both caches from one place and can never desynchronize
// them: a DDL bump makes stale entries unreachable in the LRU and the tier
// memory in the same instant, exactly like a hot-swap. A runtime serves one
// backend for its whole life and leaves Backend empty; the serving loop's
// tier key fills it, so a tier image can never pin plans across backends.
type Identity struct {
	Backend string
	Epoch   uint64
	Catalog uint64
}

// PlanKey scopes one query fingerprint to a serving identity.
type PlanKey struct {
	Identity
	Fp uint64
}

// Key binds a query fingerprint to this identity.
func (id Identity) Key(fp uint64) PlanKey { return PlanKey{Identity: id, Fp: fp} }
