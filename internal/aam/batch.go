package aam

import (
	"github.com/foss-db/foss/internal/nn"
	"github.com/foss-db/foss/internal/planenc"
)

// ForwardBatch produces the state representation vectors [N, StateDim] for N
// encoded plans in one stacked forward pass: embeddings, the input
// projection, layer norms and feed-forward MLPs run over all plans' nodes at
// once, and attention is evaluated per plan block. Row i is bit-identical to
// Forward(encs[i], steps[i], sc), so no row depends on how plans are batched.
//
// On a frozen view the input stage runs once per feature tuple new to sc, and
// the activations and the result are allocated in sc's arena (see Scratch).
// A nil sc allocates on the heap and merges repeated rows within this call
// only. A tracked network ignores sc: it builds the per-row graph that
// training differentiates, on the heap, for merging rows there would sum
// their gradients before back-propagation and move training's bits.
func (s *StateNet) ForwardBatch(encs []*planenc.Encoded, steps []float64, sc *Scratch) *nn.Tensor {
	if len(encs) != len(steps) {
		panic("aam: ForwardBatch length mismatch")
	}
	if s.frozen {
		return s.forwardFrozen(encs, steps, sc)
	}
	// The staging buffers come from a pooled scratch and are dead once the
	// embeddings have copied the ids and the block descriptors hold the mask
	// pointers. lengths and steps are not pooled: the graph retains them
	// (SegmentMean's backward closure, the tensor NewTensor builds over steps).
	st := borrowScratch(nil)
	lengths := make([]int, len(encs))
	masks := st.masks[:0]
	for p := range st.feats {
		st.feats[p] = st.feats[p][:0]
	}
	for i, enc := range encs {
		lengths[i] = enc.N
		masks = append(masks, enc.Mask)
		for p, ids := range features(enc) {
			st.feats[p] = append(st.feats[p], ids...)
		}
	}
	var node [6]*nn.Tensor
	for p, e := range s.embeddings() {
		node[p] = e.Forward(st.feats[p])
	}
	bs := nn.BorrowBlocks(lengths, masks)
	clear(masks)
	st.masks = masks
	st.Release()
	x := s.InProj.Forward(nn.Concat(node[:]...)) // [ΣSeq, DModel]
	for _, b := range s.Blocks {
		x = b.ForwardBlocks(x, bs.Blocks())
	}
	x = s.OutLN.Forward(x)
	bs.Release()
	pooled := nn.SegmentMean(x, lengths)                             // [N, DModel]
	withStep := nn.Concat(pooled, nn.NewTensor(steps, len(encs), 1)) // [N, DModel+1]
	return nn.Tanh(s.Out.Forward(withStep))                          // [N, StateDim]
}

// InputRows reports how many input-stage rows the model's frozen view has
// computed (see StateNet.InputRows).
func (m *Model) InputRows() int64 { return m.frozen.State.InputRows() }

// StatesBatch exposes the batched state vectors [N, StateDim] for a set of
// plans (used by the temporal plan selector, which chains pairwise
// comparisons over a fixed candidate pool).
func (m *Model) StatesBatch(encs []*planenc.Encoded, steps []float64) *nn.Tensor {
	return m.frozen.State.ForwardBatch(encs, steps, nil)
}

// Heads is the pairwise head split at its subtraction, over a fixed pool of
// plans: row i of l is relu(FC1(sv_i + PosL)) and row i of r is
// relu(FC1(sv_i + PosR)), where sv_i is plan i's state vector. Each plan's
// two halves run once, so a comparison costs only FC2(l_i − r_j).
type Heads struct {
	fc2  *nn.Linear
	l, r *nn.Tensor
}

// Heads runs the state network over the pool in one batched pass, then FC1
// once per side over all rows, in sc (nil: the heap; see
// StateNet.ForwardBatch). Linear rows are independent, so Score on the result
// is bit-identical to Score on the same plans.
func (m *Model) Heads(encs []*planenc.Encoded, steps []float64, sc *Scratch) *Heads {
	l, r := m.frozen.halves(encs, steps, sc)
	return &Heads{fc2: m.frozen.FC2, l: l, r: r}
}

// halves computes the head rows [len(encs), StateDim] of both sides.
func (m *Model) halves(encs []*planenc.Encoded, steps []float64, sc *Scratch) (l, r *nn.Tensor) {
	sv := m.State.ForwardBatch(encs, steps, sc)
	return nn.ReLU(m.FC1.Forward(nn.AddRowVector(sv, m.PosL))), nn.ReLU(m.FC1.Forward(nn.AddRowVector(sv, m.PosR)))
}

// Score returns the predicted advantage class of plan r over plan l (indices
// into the pool Heads was built over).
func (h *Heads) Score(l, r int) int { return argmax(h.logits(l, r).Data) }

func (h *Heads) logits(l, r int) *nn.Tensor {
	return h.fc2.Forward(nn.Sub(nn.Rows(h.l, l, 1), nn.Rows(h.r, r, 1)))
}

// Judge builds the selection heads of a pool that grows while it is judged:
// each Add computes the head rows of the plans it is given, in a Scratch the
// judge owns, and Heads assembles every row added so far. Rows do not depend
// on how plans are batched (see StateNet.ForwardBatch), so the result is
// bit-identical to Model.Heads over the whole pool; the scratch's memo only
// spares each Add the input-stage rows of the feature tuples earlier Adds
// computed. A judge belongs to one goroutine at a time (see package nn's
// "Arenas"), and Release ends it.
type Judge struct {
	m    *Model // the frozen view
	sc   *Scratch
	l, r []*nn.Tensor // the head rows of each Add, in order
}

// NewJudge returns a judge over the model's current weights, with a scratch
// borrowed from the pool.
func (m *Model) NewJudge() *Judge { return &Judge{m: m.frozen, sc: NewScratch()} }

// Add computes the head rows of the given plans, after those already added.
func (j *Judge) Add(encs []*planenc.Encoded, steps []float64) {
	l, r := j.m.halves(encs, steps, j.sc)
	j.l, j.r = append(j.l, l), append(j.r, r)
}

// Heads returns the heads over every plan added (at least one), row i being
// the i-th plan added. They live in the judge's arena: valid until Release.
func (j *Judge) Heads() *Heads {
	return &Heads{fc2: j.m.FC2, l: nn.VStack(j.l...), r: nn.VStack(j.r...)}
}

// Release returns the judge's scratch to the pool: nothing the judge
// computed may be read afterwards.
func (j *Judge) Release() {
	j.l, j.r = nil, nil
	j.sc.Release()
}
