package aam

import (
	"math/rand"
	"testing"
)

// TestScoreBatchAllocsBounded pins the tier-2 scoring path's allocation
// count: ScoreBatch runs on the model's frozen view, so a warm call allocates
// one result tensor per op — no gradient buffers, no parent lists, no backward
// closures, and attention is one op, not nine per head and block — and, with
// the sync.Pool scratch, no staging buffers (ids, masks, block descriptors,
// the encs slice). The budget has ~50% headroom over the measured count —
// it's a tripwire for a forward that goes back to tracked parameters or
// per-head ops, or adds per-node or per-pair allocations.
func TestScoreBatchAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	rng := rand.New(rand.NewSource(21))
	cfg := StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	m := NewModel(rng, cfg, 4, 4)

	pairs := make([]Pair, 8)
	for i := range pairs {
		pairs[i] = Pair{
			EncL:  variableEncoded(rng, 4),
			EncR:  variableEncoded(rng, 4),
			StepL: rng.Float64(),
			StepR: rng.Float64(),
		}
	}
	m.ScoreBatch(pairs) // warm the scratch pool

	avg := testing.AllocsPerRun(20, func() { m.ScoreBatch(pairs) })
	const budget = 125 // measured 82 (1614 before the fused nn ops)
	if avg > budget {
		t.Fatalf("ScoreBatch allocates %.0f objects per call, budget %d", avg, budget)
	}
}
