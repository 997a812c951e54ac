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
//   - Φ forwards, keyed by (agent, ICP key, step);
//   - hinted plans and their encodings, keyed by ICP key — each visit still
//     gets its own PlanEval carrying its own Step;
//   - legality masks, keyed by (ICP key, previous action), the relaxed retry
//     included.
//
// Every entry is exactly what recomputing it would give, so walking with a
// memo changes no output; it only removes repeated work. A memo belongs to
// one query and one goroutine: the planners sharing it must share their
// Steering, Encoder, Space and mask configuration (a learner's planners do),
// and it is dropped once the query's candidate pool is built. A nil *Memo
// computes everything afresh.
type Memo struct {
	states map[stateKey]*nn.Tensor
	hinted map[string]hinted
	masks  map[maskKey][]bool
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

// NewMemo returns an empty walk memo for one query.
func NewMemo() *Memo {
	return &Memo{states: map[stateKey]*nn.Tensor{}, hinted: map[string]hinted{}, masks: map[maskKey][]bool{}}
}

// state returns Φ(pe) from the agent's frozen view, key being pe's ICP key.
func (m *Memo) state(a *Agent, pe *PlanEval, key string, maxSteps int) *nn.Tensor {
	k := stateKey{a.phi, key, pe.Step}
	if m != nil {
		if sv, ok := m.states[k]; ok {
			return sv
		}
	}
	a.phiForwards.Add(1)
	sv := a.phi.Forward(pe.Enc, pe.StepStatus(maxSteps))
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
