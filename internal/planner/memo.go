package planner

import (
	"slices"

	"github.com/foss-db/foss/internal/aam"
	"github.com/foss-db/foss/internal/nn"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/planenc"
	"github.com/foss-db/foss/internal/query"
)

// Memo is one query's walk memo: the values a walk would recompute when
// rollouts from the same expert plan revisit a state, each computed once and
// shared by every walk that passes the memo. A memo holds
//
//   - Φ forwards, keyed by (agent, ICP key, step), their activations in a
//     per-agent aam.Scratch, whose memo in turn shares input-stage rows
//     between the Φ forwards of states whose plans share nodes;
//   - hinted plans and their encodings, keyed by ICP key — each visit still
//     gets its own PlanEval carrying its own Step;
//   - legality masks, keyed by (ICP key, previous action), the relaxed retry
//     included;
//   - the query's candidate pool: every ICP the walks visit, first visit
//     first, deduplicated by ICP key.
//
// Every entry is exactly what recomputing it would give, so walking with a
// memo changes no output; it only removes repeated work. A memo belongs to
// one query and one goroutine: the planners sharing it must share their
// Steering, Encoder, Space and mask configuration (a learner's planners do),
// and Release ends it once the query's plan is chosen. Nothing in a scratch
// escapes: a pool candidate holds only its hinted plan and encoding, both on
// the heap. A nil *Memo computes everything afresh.
type Memo struct {
	states map[stateKey]*nn.Tensor
	hinted map[string]hinted
	masks  map[maskKey][]bool

	scratch []phiScratch
	pool    []*PlanEval
	keys    []string // keys[i] is pool[i]'s ICP key
	judge   func(*PlanEval)
}

// phiScratch is the scratch of one agent's Φ: a Scratch memoises the rows of
// one network.
type phiScratch struct {
	phi *aam.StateNet
	sc  *aam.Scratch
}

type stateKey struct {
	phi  *aam.StateNet
	icp  string
	step int
}

type hinted struct {
	cp  *plan.CP
	enc *planenc.Encoded
}

type maskKey struct {
	icp  string
	prev int // action id of the previous edit, 0 at the first step
}

// NewMemo returns an empty walk memo for one query. judge, unless nil, is
// handed each candidate the moment a walk adds it to the pool, on the walking
// goroutine.
func NewMemo(judge func(*PlanEval)) *Memo {
	return &Memo{
		states: map[stateKey]*nn.Tensor{}, hinted: map[string]hinted{}, masks: map[maskKey][]bool{},
		judge: judge,
	}
}

// Release returns the memo's scratches to the pool. The memo must not be
// walked again; its pool stays readable.
func (m *Memo) Release() {
	m.states = nil
	for _, ps := range m.scratch {
		ps.sc.Release()
	}
	m.scratch = nil
}

// scratchFor returns the scratch of phi's forwards, borrowing it on first use.
func (m *Memo) scratchFor(phi *aam.StateNet) *aam.Scratch {
	for _, ps := range m.scratch {
		if ps.phi == phi {
			return ps.sc
		}
	}
	sc := aam.NewScratch()
	m.scratch = append(m.scratch, phiScratch{phi, sc})
	return sc
}

// Pool returns the candidate pool the walks built, in first-visit order.
func (m *Memo) Pool() []*PlanEval { return m.pool }

// visit adds pe, whose ICP key is key, to the pool unless an earlier visit
// did, and hands a new candidate to the judge.
func (m *Memo) visit(pe *PlanEval, key string) {
	if m == nil || slices.Contains(m.keys, key) {
		return
	}
	m.pool = append(m.pool, pe)
	m.keys = append(m.keys, key)
	if m.judge != nil {
		m.judge(pe)
	}
}

// state returns Φ(pe) from the agent's frozen view, key being pe's ICP key.
func (m *Memo) state(a *Agent, pe *PlanEval, key string, maxSteps int) *nn.Tensor {
	k := stateKey{a.phi, key, pe.Step}
	var sc *aam.Scratch
	if m != nil {
		if sv, ok := m.states[k]; ok {
			return sv
		}
		sc = m.scratchFor(a.phi)
	}
	a.phiForwards.Add(1)
	sv := a.phi.Forward(pe.Enc, pe.StepStatus(maxSteps), sc)
	if m != nil {
		m.states[k] = sv
	}
	return sv
}

// hint returns the hinted plan of icp (whose key is key) and its encoding.
func (m *Memo) hint(p *Planner, q *query.Query, icp plan.ICP, key string) (*plan.CP, *planenc.Encoded, error) {
	if m != nil {
		if h, ok := m.hinted[key]; ok {
			return h.cp, h.enc, nil
		}
	}
	cp, err := p.Opt.HintedPlan(q, icp)
	if err != nil {
		return nil, nil, err
	}
	enc := p.Enc.Encode(cp)
	if m != nil {
		m.hinted[key] = hinted{cp, enc}
	}
	return cp, enc, nil
}

// mask returns the walk's legality mask at icp (whose key is key) after the
// action prev (nil at the first step). When the restricted mask allows
// nothing — after a swap on a 2-table query whose parent override is a no-op
// — it relaxes to the general mask; nil means that allows nothing either.
func (m *Memo) mask(p *Planner, q *query.Query, icp plan.ICP, key string, prev *plan.Action) []bool {
	k := maskKey{icp: key}
	if prev != nil {
		k.prev = p.Space.Encode(*prev)
	}
	if m != nil {
		if mask, ok := m.masks[k]; ok {
			return mask
		}
	}
	mask := p.Space.Mask(icp, q, prev, p.Cfg.Mask)
	if !slices.Contains(mask, true) {
		mask = p.Space.Mask(icp, q, nil, p.Cfg.Mask)
		if !slices.Contains(mask, true) {
			mask = nil
		}
	}
	if m != nil {
		m.masks[k] = mask
	}
	return mask
}
