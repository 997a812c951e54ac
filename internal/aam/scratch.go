package aam

import (
	"sync"

	"github.com/foss-db/foss/internal/nn"
	"github.com/foss-db/foss/internal/planenc"
)

// Scratch is the working memory one serve's frozen forwards of one state
// network share: the arena their activations live in (see package nn's
// "Arenas") and the memo of input-stage rows.
//
// The input stage is every op before the first attention: the six
// embeddings, InProj, and block 0's LN1 and Q/K/V projections. Each of those
// computes row i from row i alone, so a node's input-stage rows depend on its
// feature tuple (op, table, column, row bucket, height, structure) and
// nothing else. A frozen forward therefore runs the stage once per tuple its
// Scratch has not seen, keeps the rows in the memo, and gathers every node's
// rows from there; attention and everything after it run over the gathered
// rows exactly as before. A gathered row is the recomputed row bit for bit.
//
// An entry is valid only for the weights that computed it, so a Scratch
// memoises the rows of one network (the first it forwards; forwarding another
// panics) and its owner releases it when the serve ends: a published
// replica's weights do not change under a serve. The rows live in the arena
// and die with it at Release. A Scratch belongs to one goroutine at a time,
// under the arena's rule.
type Scratch struct {
	arena *nn.Arena
	net   *StateNet
	index map[tuple]int // a feature tuple's memo entry
	// rows[p][e] is entry e's row of stage output p: InProj's output, then
	// block 0's Q, K and V projections.
	rows [4][][]float64

	// Staging for one forward, dead when it returns.
	ids     []int    // the memo entry of each stacked node row
	feats   [6][]int // the feature ids of the tuples new to the forward
	lengths []int
	masks   [][]bool
	steps   []float64
}

// tuple is a node's feature ids, in the order of StateNet.embeddings.
type tuple [6]int

var scratchPool = sync.Pool{New: func() any { return &Scratch{index: map[tuple]int{}} }}

// NewScratch returns an empty scratch whose arena is borrowed from the pool.
// Release ends it.
func NewScratch() *Scratch { return borrowScratch(nn.BorrowArena()) }

// borrowScratch returns an empty scratch allocating in a (nil: the heap).
func borrowScratch(a *nn.Arena) *Scratch {
	sc := scratchPool.Get().(*Scratch)
	sc.arena = a
	return sc
}

// Release returns the scratch and its arena to their pools: nothing computed
// in it may be read afterwards.
func (sc *Scratch) Release() {
	if sc.arena != nil {
		sc.arena.Release()
	}
	sc.arena, sc.net = nil, nil
	clear(sc.index)
	for p := range sc.rows {
		clear(sc.rows[p])
		sc.rows[p] = sc.rows[p][:0]
	}
	scratchPool.Put(sc)
}

// embeddings lists the network's embedding tables in tuple order.
func (s *StateNet) embeddings() [6]*nn.Embedding {
	return [6]*nn.Embedding{s.OpEmb, s.TableEmb, s.ColEmb, s.RowEmb, s.HeightEmb, s.StructEmb}
}

// features lists an encoding's per-node feature ids in tuple order.
func features(enc *planenc.Encoded) [6][]int {
	return [6][]int{enc.Ops, enc.Tables, enc.Columns, enc.RowBkt, enc.Heights, enc.Structs}
}

// forwardFrozen is ForwardBatch on a frozen view: the input stage from sc's
// memo, computed for the tuples new to it, then the rest of the network over
// the gathered rows. A nil sc merges repeated rows within this call only.
func (s *StateNet) forwardFrozen(encs []*planenc.Encoded, steps []float64, sc *Scratch) *nn.Tensor {
	if sc == nil {
		sc = borrowScratch(nil)
		defer sc.Release()
	}
	switch sc.net {
	case nil:
		sc.net = s
	case s:
	default:
		panic("aam: a Scratch memoises the rows of one network")
	}
	ids, lengths, masks := sc.ids[:0], sc.lengths[:0], sc.masks[:0]
	for p := range sc.feats {
		sc.feats[p] = sc.feats[p][:0]
	}
	for _, enc := range encs {
		lengths, masks = append(lengths, enc.N), append(masks, enc.Mask)
		f := features(enc)
		for r := 0; r < enc.N; r++ {
			var key tuple
			for p := range key {
				key[p] = f[p][r]
			}
			e, ok := sc.index[key]
			if !ok {
				e = len(sc.index)
				sc.index[key] = e
				for p, id := range key {
					sc.feats[p] = append(sc.feats[p], id)
				}
			}
			ids = append(ids, e)
		}
	}
	if len(sc.feats[0]) > 0 {
		s.inputStage(sc)
	}
	gather := func(p int) *nn.Tensor { return nn.Gather(sc.arena, sc.rows[p], ids, s.InProj.Out()) }
	x := gather(0) // [ΣSeq, DModel]
	bs := nn.BorrowBlocks(lengths, masks)
	if len(s.Blocks) > 0 {
		x = s.Blocks[0].ForwardProjected(x, gather(1), gather(2), gather(3), bs.Blocks())
		for _, b := range s.Blocks[1:] {
			x = b.ForwardBlocks(x, bs.Blocks())
		}
	}
	x = s.OutLN.Forward(x)
	bs.Release()
	// The block descriptors are released and the memo entries copied out;
	// clear the mask pointers so the pool never pins an encoding alive.
	clear(masks)
	col := append(sc.steps[:0], steps...)
	sc.ids, sc.lengths, sc.masks, sc.steps = ids, lengths, masks, col
	pooled := nn.SegmentMean(x, lengths)                           // [N, DModel]
	withStep := nn.Concat(pooled, nn.NewTensor(col, len(encs), 1)) // [N, DModel+1]
	return nn.Tanh(s.Out.Forward(withStep))                        // [N, StateDim]
}

// inputStage runs the input stage over the tuples staged in sc.feats and
// appends each one's rows to the memo, in staging order.
func (s *StateNet) inputStage(sc *Scratch) {
	embs := s.embeddings()
	x := s.InProj.Forward(nn.EmbedConcat(sc.arena, embs[:], sc.feats[:]))
	stage := [4]*nn.Tensor{x}
	if len(s.Blocks) > 0 {
		stage[1], stage[2], stage[3] = s.Blocks[0].Project(x)
	}
	n := len(sc.feats[0])
	for p, t := range stage {
		if t == nil {
			continue
		}
		w := t.Shape[1]
		for r := 0; r < n; r++ {
			sc.rows[p] = append(sc.rows[p], t.Data[r*w:(r+1)*w:(r+1)*w])
		}
	}
	s.inputRows.Add(int64(n))
}
