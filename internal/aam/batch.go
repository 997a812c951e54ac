package aam

import (
	"sync"

	"github.com/foss-db/foss/internal/nn"
	"github.com/foss-db/foss/internal/planenc"
)

// scoreChunk bounds how many plans are stacked into one batched forward.
// Plans inside a chunk share every dense matmul; attention stays per-plan
// (block-diagonal), so the only cost of a larger chunk is peak memory.
const scoreChunk = 32

// batchScratch pools the staging buffers a batched forward copies encoded
// plans through. Everything pooled here is dead before the borrowing call
// returns: the embedding lookups copy their id slices, the block descriptors
// only borrow mask pointers that each Encoded owns, and the encs slice is
// iterated, never stored. `lengths` and `steps` are not pooled. Every caller
// in this repository runs ForwardBatch on a frozen view, where both are dead
// on return, but on a tracked network the graph retains them (SegmentMean's
// backward closure, the tensor NewTensor builds over steps), the tests compare
// the two, and two small slices per chunk of up to scoreChunk plans do not pay
// for a tracked/untracked branch here.
type batchScratch struct {
	ops, tables, cols, rowBkt, heights, structs []int
	masks                                       [][]bool
	encs                                        []*planenc.Encoded
}

var scratchPool = sync.Pool{New: func() any { return &batchScratch{} }}

// ForwardBatch produces the state representation vectors [N, StateDim] for N
// encoded plans in one stacked forward pass: embeddings, the input
// projection, layer norms and feed-forward MLPs run over all plans' nodes at
// once, and attention is evaluated per plan block. Row i is bit-identical to
// Forward(encs[i], steps[i], a), so no row depends on how plans are batched.
// a is the arena Forward takes.
func (s *StateNet) ForwardBatch(encs []*planenc.Encoded, steps []float64, a *nn.Arena) *nn.Tensor {
	if len(encs) != len(steps) {
		panic("aam: ForwardBatch length mismatch")
	}
	n := len(encs)
	lengths := make([]int, n) // not pooled: see batchScratch
	sc := scratchPool.Get().(*batchScratch)
	masks := sc.masks[:0]
	for i, enc := range encs {
		lengths[i] = enc.N
		masks = append(masks, enc.Mask)
	}
	ops := sc.ops[:0]
	tables := sc.tables[:0]
	cols := sc.cols[:0]
	rowBkt := sc.rowBkt[:0]
	heights := sc.heights[:0]
	structs := sc.structs[:0]
	for _, enc := range encs {
		ops = append(ops, enc.Ops...)
		tables = append(tables, enc.Tables...)
		cols = append(cols, enc.Columns...)
		rowBkt = append(rowBkt, enc.RowBkt...)
		heights = append(heights, enc.Heights...)
		structs = append(structs, enc.Structs...)
	}
	node := nn.Concat(
		s.OpEmb.Forward(ops, a),
		s.TableEmb.Forward(tables, a),
		s.ColEmb.Forward(cols, a),
		s.RowEmb.Forward(rowBkt, a),
		s.HeightEmb.Forward(heights, a),
		s.StructEmb.Forward(structs, a),
	)
	bs := nn.BorrowBlocks(lengths, masks)
	// The embeddings copied the ids and the block descriptors hold the mask
	// pointers; the staging buffers are dead. Clear the mask pointers so the
	// pool never pins an encoding alive, then recycle.
	for i := range masks {
		masks[i] = nil
	}
	sc.ops, sc.tables, sc.cols, sc.rowBkt, sc.heights, sc.structs, sc.masks =
		ops, tables, cols, rowBkt, heights, structs, masks
	scratchPool.Put(sc)
	x := s.InProj.Forward(node) // [ΣSeq, DModel]
	for _, b := range s.Blocks {
		x = b.ForwardBlocks(x, bs.Blocks())
	}
	x = s.OutLN.Forward(x)
	bs.Release()
	pooled := nn.SegmentMean(x, lengths)                     // [N, DModel]
	withStep := nn.Concat(pooled, nn.NewTensor(steps, n, 1)) // [N, DModel+1]
	return nn.Tanh(s.Out.Forward(withStep))                  // [N, StateDim]
}

// Pair is one (left, right) plan comparison for batched scoring.
type Pair struct {
	EncL, EncR   *planenc.Encoded
	StepL, StepR float64
}

// LogitsBatch computes the K advantage logits for every pair in one batched
// forward: all 2N plan states are produced by a single ForwardBatch, then the
// pairwise head runs as two stacked matmuls. Row i is bit-identical to
// Logits(pairs[i]...).
func (m *Model) LogitsBatch(pairs []Pair) *nn.Tensor {
	n := len(pairs)
	sc := scratchPool.Get().(*batchScratch)
	encs := sc.encs
	if cap(encs) < 2*n {
		encs = make([]*planenc.Encoded, 2*n)
	}
	encs = encs[:2*n]
	steps := make([]float64, 2*n) // not pooled: see batchScratch
	for i, p := range pairs {
		encs[i], steps[i] = p.EncL, p.StepL
		encs[n+i], steps[n+i] = p.EncR, p.StepR
	}
	sv := m.State.ForwardBatch(encs, steps, nil)
	// ForwardBatch iterates encs without storing it; clear the pointers so the
	// pool never pins an encoding alive, then recycle.
	for i := range encs {
		encs[i] = nil
	}
	sc.encs = encs
	scratchPool.Put(sc)
	svL := nn.Rows(sv, 0, n)
	svR := nn.Rows(sv, n, n)
	hl := nn.ReLU(m.FC1.Forward(nn.AddRowVector(svL, m.PosL)))
	hr := nn.ReLU(m.FC1.Forward(nn.AddRowVector(svR, m.PosR)))
	return m.FC2.Forward(nn.Sub(hl, hr)) // [N, NumScores]
}

// ScoreBatch returns the predicted advantage class for every pair. It is the
// batched equivalent of calling Score per pair (identical results), with the
// work of 2N state-network forwards collapsed into ⌈2N/scoreChunk⌉ stacked
// passes.
func (m *Model) ScoreBatch(pairs []Pair) []int {
	out := make([]int, len(pairs))
	half := scoreChunk / 2
	if half < 1 {
		half = 1
	}
	for start := 0; start < len(pairs); start += half {
		end := start + half
		if end > len(pairs) {
			end = len(pairs)
		}
		logits := m.frozen.LogitsBatch(pairs[start:end])
		k := logits.Shape[1]
		for i := 0; i < end-start; i++ {
			out[start+i] = argmax(logits.Data[i*k : (i+1)*k])
		}
	}
	return out
}

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
// once per side over all rows, allocating in a (nil: the heap). Linear rows
// are independent, so Score on the result is bit-identical to Score on the
// same plans.
func (m *Model) Heads(encs []*planenc.Encoded, steps []float64, a *nn.Arena) *Heads {
	l, r := m.frozen.halves(encs, steps, a)
	return &Heads{fc2: m.frozen.FC2, l: l, r: r}
}

// halves computes the head rows [len(encs), StateDim] of both sides.
func (m *Model) halves(encs []*planenc.Encoded, steps []float64, a *nn.Arena) (l, r *nn.Tensor) {
	sv := m.State.ForwardBatch(encs, steps, a)
	return nn.ReLU(m.FC1.Forward(nn.AddRowVector(sv, m.PosL))), nn.ReLU(m.FC1.Forward(nn.AddRowVector(sv, m.PosR)))
}

// Score returns the predicted advantage class of plan r over plan l (indices
// into the pool Heads was built over).
func (h *Heads) Score(l, r int) int { return argmax(h.logits(l, r).Data) }

func (h *Heads) logits(l, r int) *nn.Tensor {
	return h.fc2.Forward(nn.Sub(nn.Rows(h.l, l, 1), nn.Rows(h.r, r, 1)))
}

// Judge builds the selection heads of a pool that grows while it is judged:
// each Add computes the head rows of the plans it is given, in an arena the
// judge owns, and Heads assembles every row added so far. Rows do not depend
// on how plans are batched (see StateNet.ForwardBatch), so the result is
// bit-identical to Model.Heads over the whole pool. A judge belongs to one
// goroutine at a time (see package nn's "Arenas"), and Release ends it.
type Judge struct {
	m     *Model // the frozen view
	arena *nn.Arena
	l, r  []*nn.Tensor // the head rows of each Add, in order
}

// NewJudge returns a judge over the model's current weights, with an arena
// borrowed from the pool.
func (m *Model) NewJudge() *Judge { return &Judge{m: m.frozen, arena: nn.BorrowArena()} }

// Add computes the head rows of the given plans, after those already added.
func (j *Judge) Add(encs []*planenc.Encoded, steps []float64) {
	l, r := j.m.halves(encs, steps, j.arena)
	j.l, j.r = append(j.l, l), append(j.r, r)
}

// Heads returns the heads over every plan added (at least one), row i being
// the i-th plan added. They live in the judge's arena: valid until Release.
func (j *Judge) Heads() *Heads {
	return &Heads{fc2: j.m.FC2, l: nn.VStack(j.l...), r: nn.VStack(j.r...)}
}

// Release returns the judge's arena to the pool: nothing the judge computed
// may be read afterwards.
func (j *Judge) Release() {
	j.l, j.r = nil, nil
	j.arena.Release()
}
