package runtime

// Identity is the serving identity the online loop's plan memory (the tier
// router) is scoped by: the optimizer backend that completes plans and the
// model epoch (hot-swap generation) that chose them. The loop re-publishes
// its serving slot at a new epoch on every swap and every DDL batch, so an
// epoch bump makes every earlier pin unreachable in the same instant; the
// runtime's own plan cache needs no identity, since the exclusive section
// that changes its models or catalog empties it.
type Identity struct {
	Backend string
	Epoch   uint64
}

// PlanKey scopes one query fingerprint to a serving identity.
type PlanKey struct {
	Identity
	Fp uint64
}

// Key binds a query fingerprint to this identity.
func (id Identity) Key(fp uint64) PlanKey { return PlanKey{Identity: id, Fp: fp} }
