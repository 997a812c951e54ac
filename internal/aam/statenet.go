// Package aam implements the paper's asymmetric advantage model and the
// transformer-based state network that both the AAM and the planner's agent
// use to represent plan states.
//
// A frozen view's forwards share input-stage rows; a tracked network's never
// do. A node's rows up to the first attention depend on its feature tuple
// alone, so a frozen forward computes them once per tuple new to its Scratch
// and gathers the rest (see Scratch): one Scratch per network and per serve,
// never across serves, because an entry is valid only for the weights that
// computed it. Training's tracked forwards keep one graph row per node, so
// their gradients, and with them the trained weights, do not move.
package aam

import (
	"math/rand"
	"sync/atomic"

	"github.com/foss-db/foss/internal/nn"
	"github.com/foss-db/foss/internal/planenc"
)

// StateNetConfig sizes the state network.
type StateNetConfig struct {
	DModel   int // transformer width
	Heads    int
	Layers   int
	FFDim    int
	StateDim int // width of the final state representation vector
}

// DefaultStateNetConfig returns the sizes used throughout the repository.
func DefaultStateNetConfig() StateNetConfig {
	return StateNetConfig{DModel: 64, Heads: 4, Layers: 2, FFDim: 128, StateDim: 64}
}

// StateNet is ϕ: it embeds the four node features plus height and structure
// type, runs reachability-masked multi-head attention, mean-pools the node
// representations, concatenates the step status, and projects to statevec.
type StateNet struct {
	Cfg StateNetConfig

	OpEmb     *nn.Embedding
	TableEmb  *nn.Embedding
	ColEmb    *nn.Embedding
	RowEmb    *nn.Embedding
	HeightEmb *nn.Embedding
	StructEmb *nn.Embedding

	InProj *nn.Linear
	Blocks []*nn.TransformerLayer
	OutLN  *nn.LayerNorm
	Out    *nn.Linear // [DModel+1 (step)] -> StateDim

	frozen    bool         // a frozen view: forwards share input-stage rows (see Scratch)
	inputRows atomic.Int64 // input-stage rows the view computed, read by InputRows
}

// Feature embedding widths. The four node features are concatenated into a
// node vector of width 4*featDim + 2*posDim before projection.
const (
	featDim = 16
	posDim  = 8
)

// NewStateNet creates a state network for a schema with the given vocabulary
// sizes (numTables, numCols from the planenc.Encoder).
func NewStateNet(rng *rand.Rand, cfg StateNetConfig, numTables, numCols int) *StateNet {
	inWidth := 4*featDim + 2*posDim
	s := &StateNet{
		Cfg:       cfg,
		OpEmb:     nn.NewEmbedding(rng, planenc.NumOps, featDim),
		TableEmb:  nn.NewEmbedding(rng, numTables+1, featDim),
		ColEmb:    nn.NewEmbedding(rng, numCols+1, featDim),
		RowEmb:    nn.NewEmbedding(rng, planenc.RowBuckets, featDim),
		HeightEmb: nn.NewEmbedding(rng, planenc.MaxHeight, posDim),
		StructEmb: nn.NewEmbedding(rng, planenc.NumStructs, posDim),
		InProj:    nn.NewLinear(rng, inWidth, cfg.DModel),
		OutLN:     nn.NewLayerNorm(cfg.DModel),
		Out:       nn.NewLinear(rng, cfg.DModel+1, cfg.StateDim),
	}
	for i := 0; i < cfg.Layers; i++ {
		s.Blocks = append(s.Blocks, nn.NewTransformerLayer(rng, cfg.DModel, cfg.Heads, cfg.FFDim))
	}
	return s
}

// Forward produces the state representation vector [1, StateDim] for an
// encoded plan at step status t/maxsteps. On a frozen view it is ForwardBatch
// over the one plan, in sc (see ForwardBatch); a tracked network ignores sc.
func (s *StateNet) Forward(enc *planenc.Encoded, step float64, sc *Scratch) *nn.Tensor {
	if s.frozen {
		return s.forwardFrozen([]*planenc.Encoded{enc}, []float64{step}, sc)
	}
	var node [6]*nn.Tensor
	embs := s.embeddings()
	for p, ids := range features(enc) {
		node[p] = embs[p].Forward(ids)
	}
	x := s.InProj.Forward(nn.Concat(node[:]...))
	for _, b := range s.Blocks {
		x = b.Forward(x, enc.Mask)
	}
	x = s.OutLN.Forward(x)
	pooled := nn.RowsMean(x, nil)                   // [1, DModel]
	withStep := nn.Concat(pooled, stepTensor(step)) // [1, DModel+1]
	return nn.Tanh(s.Out.Forward(withStep))         // [1, StateDim]
}

// InputRows reports how many input-stage rows the frozen view's forwards have
// computed, so a test can check that they compute each feature tuple once per
// Scratch. It is zero on a tracked network.
func (s *StateNet) InputRows() int64 { return s.inputRows.Load() }

// Frozen returns the network's frozen view (see package nn): the same
// weights, forwards that build no autograd graph.
func (s *StateNet) Frozen() *StateNet {
	f := &StateNet{
		Cfg:       s.Cfg,
		OpEmb:     s.OpEmb.Frozen(),
		TableEmb:  s.TableEmb.Frozen(),
		ColEmb:    s.ColEmb.Frozen(),
		RowEmb:    s.RowEmb.Frozen(),
		HeightEmb: s.HeightEmb.Frozen(),
		StructEmb: s.StructEmb.Frozen(),
		InProj:    s.InProj.Frozen(),
		OutLN:     s.OutLN.Frozen(),
		Out:       s.Out.Frozen(),
		frozen:    true,
	}
	for _, b := range s.Blocks {
		f.Blocks = append(f.Blocks, b.Frozen())
	}
	return f
}

func stepTensor(step float64) *nn.Tensor {
	return nn.NewTensor([]float64{step}, 1, 1)
}

// Params implements nn.Module.
func (s *StateNet) Params() []*nn.Tensor {
	var ps []*nn.Tensor
	for _, m := range []nn.Module{s.OpEmb, s.TableEmb, s.ColEmb, s.RowEmb, s.HeightEmb, s.StructEmb, s.InProj} {
		ps = append(ps, m.Params()...)
	}
	for _, b := range s.Blocks {
		ps = append(ps, b.Params()...)
	}
	ps = append(ps, s.OutLN.Params()...)
	ps = append(ps, s.Out.Params()...)
	return ps
}
