// Package tier implements the two-tier serving path that fronts the online
// doctor: a learned router answers a query from plan memory when feedback
// has proven a plan for it, and from the doctor otherwise.
//
//   - Tier 0 — plan memory: a per-tenant map from query fingerprint (scoped
//     by the shared composite serving identity, backend × epoch) to the best
//     observed plan. A plan is pinned only after its observed latency beat
//     the expert baseline over a configurable win streak, so a tier-0 hit is
//     a plan feedback has already proven. Hits cost one map lookup —
//     microseconds, zero allocations.
//   - Tier 2 — full AAM steering: the doctor's complete scoring pass, for
//     everything without a pin. Unchanged by this package.
//
// There is no tier in between (the labels are wire values, so 1 stays
// unused): a doctor's fast path is a plan feedback has proven, and its floor
// is the expert's plan — never one built from scratch without the model.
//
// The router is deterministic: decisions are a pure function of the
// per-fingerprint history, which is itself a pure function of the feedback
// stream — replaying the same traffic yields the same tier choices and the
// same plans. Feedback drives both directions: wins promote a fingerprint
// toward tier 0, a regression past EscalateRatio escalates it back to tier 2
// immediately. Hot-swaps and DDL batches invalidate all pins (the new
// generation must re-earn them) and move the serving epoch pins are keyed
// by (runtime.Identity), so no pin outlives the generation that earned it —
// the rule the runtime plan cache keeps by emptying itself in every
// exclusive section.
package tier

import (
	"sort"
	"sync"

	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/runtime"
	"github.com/foss-db/foss/internal/store"
)

// Tier labels, in escalation order.
const (
	Tier0 = 0 // plan-memory hit
	Tier2 = 2 // full AAM steering
)

// Config tunes the tiered serving path.
type Config struct {
	// Memory enables tier 0: feedback-promoted plan pinning.
	Memory bool
	// PromoteAfter is the consecutive-win streak (observed latency beating
	// the expert baseline) required before a fingerprint's best plan is
	// pinned into tier-0 memory. Default 3.
	PromoteAfter int
	// EscalateRatio is the latency/expert ratio past which a pinned plan
	// is escalated back to tier 2 (pin dropped, fingerprint marked regressed
	// until the next epoch). Default 1.5.
	EscalateRatio float64
}

// Enabled reports whether the fast tier is on.
func (c Config) Enabled() bool { return c.Memory }

func (c Config) withDefaults() Config {
	if c.PromoteAfter < 1 {
		c.PromoteAfter = 3
	}
	if c.EscalateRatio <= 0 {
		c.EscalateRatio = 1.5
	}
	return c
}

// History is one fingerprint's routing state: Wins, the regression latch,
// and the best-candidate tracking are identity-scoped and reset on
// invalidation.
type History struct {
	Wins      int
	Regressed bool

	best    *planner.PlanEval
	bestLat float64
	bestID  runtime.Identity
}

// Decision is one routing outcome.
type Decision struct {
	Tier int
	// Pin is the pinned plan when Tier == Tier0.
	Pin *planner.PlanEval
}

// Outcome reports what one feedback observation changed.
type Outcome struct {
	Promoted bool
	Demoted  bool
}

// Memory is the tier router's state: pinned tier-0 plans and
// per-fingerprint history. Safe for concurrent use; Route is a read-lock
// lookup so the serving fast path never contends with anything but
// promotions.
type Memory struct {
	cfg Config

	mu     sync.RWMutex
	pins   map[runtime.PlanKey]*planner.PlanEval
	pinLat map[runtime.PlanKey]float64
	hist   map[uint64]*History
}

// NewMemory builds an empty router state.
func NewMemory(cfg Config) *Memory {
	return &Memory{
		cfg:    cfg.withDefaults(),
		pins:   map[runtime.PlanKey]*planner.PlanEval{},
		pinLat: map[runtime.PlanKey]float64{},
		hist:   map[uint64]*History{},
	}
}

// Config returns the (defaulted) configuration.
func (m *Memory) Config() Config { return m.cfg }

// Route picks the tier for one fingerprint under the given serving identity.
// Deterministic: the decision depends only on state derived from the
// feedback stream.
func (m *Memory) Route(id runtime.Identity, fp uint64) Decision {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.cfg.Memory {
		if pe, ok := m.pins[id.Key(fp)]; ok {
			return Decision{Tier: Tier0, Pin: pe}
		}
	}
	return Decision{Tier: Tier2}
}

// Observe ingests one executed plan's feedback and drives promotion and
// escalation. The executed plan is classified as fast-path by plan identity
// (ICP + step equality against the pin) rather than by journaled tier labels
// — so WAL replay, which re-feeds the same observations, reconstructs the
// identical state. The query is unread since tier 1 went; benchmark/hot.go
// still passes it, and ROADMAP item 6 (a) drops it from both.
func (m *Memory) Observe(id runtime.Identity, fp uint64, _ *query.Query, pe *planner.PlanEval, latencyMs, expertMs float64) Outcome {
	m.mu.Lock()
	defer m.mu.Unlock()

	h := m.hist[fp]
	if h == nil {
		h = &History{}
		m.hist[fp] = h
	}

	key := id.Key(fp)
	pin, pinned := m.pins[key]
	onPin := pinned && pin.Step == pe.Step && pin.ICP.Equal(pe.ICP)

	// Escalation: a pinned plan that regressed past the ratio goes back to
	// tier 2 until the next epoch re-earns trust.
	if onPin && expertMs > 0 && latencyMs > m.cfg.EscalateRatio*expertMs {
		delete(m.pins, key)
		delete(m.pinLat, key)
		h.Regressed = true
		h.Wins = 0
		h.best = nil
		return Outcome{Demoted: true}
	}

	win := expertMs > 0 && latencyMs <= expertMs
	if win {
		h.Wins++
	} else {
		h.Wins = 0
	}

	// Track the best plan observed under this identity — the promotion
	// candidate. A stale-identity best (pre-swap) never gets pinned.
	if h.bestID != id {
		h.best = nil
	}
	if win && (h.best == nil || latencyMs < h.bestLat) {
		h.best = pe
		h.bestLat = latencyMs
		h.bestID = id
	}

	if m.cfg.Memory && !h.Regressed && !pinned && h.Wins >= m.cfg.PromoteAfter && h.best != nil && h.bestID == id {
		m.pins[key] = h.best
		m.pinLat[key] = h.bestLat
		return Outcome{Promoted: true}
	}
	return Outcome{}
}

// Invalidate drops every pin and resets the identity-scoped history (win
// streaks, regression latches, promotion candidates). Called on hot-swap,
// in the same step that invalidates the runtime plan cache.
func (m *Memory) Invalidate() {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.pins)
	clear(m.pinLat)
	for _, h := range m.hist {
		h.Wins = 0
		h.Regressed = false
		h.best = nil
		h.bestLat = 0
		h.bestID = runtime.Identity{}
	}
}

// Pinned returns the number of live tier-0 pins.
func (m *Memory) Pinned() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pins)
}

// Export snapshots the router state in durable form, sorted by fingerprint
// for deterministic images. Pins carry (query, ICP, step) — the same
// identity WAL feedback records use — so import re-derives the complete
// plan under the recovered model.
func (m *Memory) Export() *store.TierState {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ts := &store.TierState{}
	for key, pe := range m.pins {
		ts.Pins = append(ts.Pins, store.PinnedPlan{
			Fingerprint: key.Fp,
			Query:       pe.Q,
			ICP:         pe.ICP.Clone(),
			Step:        pe.Step,
			LatencyMs:   m.pinLat[key],
			Epoch:       key.Epoch,
		})
	}
	sort.Slice(ts.Pins, func(i, j int) bool { return ts.Pins[i].Fingerprint < ts.Pins[j].Fingerprint })
	for fp, h := range m.hist {
		ts.History = append(ts.History, store.TierHistory{
			Fingerprint: fp,
			Wins:        h.Wins,
			Regressed:   h.Regressed,
		})
	}
	sort.Slice(ts.History, func(i, j int) bool { return ts.History[i].Fingerprint < ts.History[j].Fingerprint })
	return ts
}

// Import restores an exported image: every pin is rebuilt through the
// caller's deterministic re-derivation (hint completion + encoding under
// the recovered model) and re-keyed under the current serving identity.
// nil state is a no-op.
func (m *Memory) Import(ts *store.TierState, id runtime.Identity, rebuild func(q *query.Query, icp plan.ICP, step int) (*planner.PlanEval, error)) error {
	if ts == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range ts.History {
		m.hist[p.Fingerprint] = &History{Wins: p.Wins, Regressed: p.Regressed}
	}
	if !m.cfg.Memory {
		return nil
	}
	for _, p := range ts.Pins {
		pe, err := rebuild(p.Query, p.ICP, p.Step)
		if err != nil {
			return err
		}
		key := id.Key(p.Fingerprint)
		m.pins[key] = pe
		m.pinLat[key] = p.LatencyMs
	}
	return nil
}
