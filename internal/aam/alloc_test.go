package aam

import (
	"math/rand"
	"testing"

	"github.com/foss-db/foss/internal/planenc"
)

// TestJudgeAllocsBounded pins the tier-2 scoring path's allocation count: a
// judge runs on the model's frozen view in a pooled arena, so a warm round
// (borrow, Add the pool, Heads, one Score per pair, Release) allocates one
// tensor header per op — no gradient buffers, no parent lists, no backward
// closures, attention is one op, not nine per head and block — and no
// staging buffers (ids, masks, block descriptors). The budget has ~50%
// headroom over the measured count — it's a tripwire for a forward that goes
// back to tracked parameters or per-head ops, or adds per-node or per-pair
// allocations.
func TestJudgeAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	rng := rand.New(rand.NewSource(21))
	cfg := StateNetConfig{DModel: 16, Heads: 2, Layers: 1, FFDim: 32, StateDim: 16}
	m := NewModel(rng, cfg, 4, 4)

	encs := make([]*planenc.Encoded, 16)
	steps := make([]float64, len(encs))
	for i := range encs {
		encs[i], steps[i] = variableEncoded(rng, 4), rng.Float64()
	}
	round := func() {
		j := m.NewJudge()
		j.Add(encs, steps)
		h := j.Heads()
		for i := 0; i < len(encs); i += 2 {
			h.Score(i, i+1)
		}
		j.Release()
	}
	round() // warm the pools
	avg := testing.AllocsPerRun(20, round)
	const budget = 100 // measured 68
	if avg > budget {
		t.Fatalf("a judged round allocates %.0f objects, budget %d", avg, budget)
	}
}
