package nn

import (
	"math/rand"

	"harpte/internal/autograd"
)

// EncoderLayer is one pre-norm transformer encoder block without positional
// encodings:
//
//	x = x + Attn(LN1(x));  x = x + FFN(LN2(x))
//
// Applied over tunnel segments this is the paper's SETTRANS building block
// (§3.4): a standard transformer whose lack of positional encoding makes it
// equivariant to the order of edges within each tunnel.
type EncoderLayer struct {
	Attn     *SegmentAttention
	Norm1    *LayerNorm
	Norm2    *LayerNorm
	FF1, FF2 *Linear
}

// NewEncoderLayer builds an encoder block over feature dim with the given
// head count and feed-forward width.
func NewEncoderLayer(rng *rand.Rand, dim, heads, ffDim int) *EncoderLayer {
	return &EncoderLayer{
		Attn:  NewSegmentAttention(rng, dim, heads),
		Norm1: NewLayerNorm(rng, dim),
		Norm2: NewLayerNorm(rng, dim),
		FF1:   NewLinear(rng, dim, ffDim),
		FF2:   NewLinear(rng, ffDim, dim),
	}
}

// Forward applies the block to the token rows x[idx[i]] (x itself when idx
// is nil) under the given segmentation. LayerNorm is row-wise, so Norm1
// runs over x's rows and the attention reads the normed rows through idx
// (see SegmentAttention.Forward); only the residual gathers the tokens.
func (e *EncoderLayer) Forward(tp *autograd.Tape, x *autograd.Tensor, idx []int, segs []Segment) *autograd.Tensor {
	a := e.Attn.Forward(tp, e.Norm1.Forward(tp, x), idx, segs)
	if idx != nil {
		x = tp.GatherRowsStable(x, idx)
	}
	x = tp.Add(x, a)
	f := e.FF2.Forward(tp, tp.ReLU(e.FF1.Forward(tp, e.Norm2.Forward(tp, x))))
	return tp.Add(x, f)
}

// Params implements Module.
func (e *EncoderLayer) Params() []*autograd.Tensor {
	return CollectParams(e.Attn, e.Norm1, e.Norm2, e.FF1, e.FF2)
}

// Encoder is a stack of EncoderLayers — the full SETTRANS module.
type Encoder struct {
	Layers []*EncoderLayer
}

// NewEncoder builds depth stacked encoder blocks.
func NewEncoder(rng *rand.Rand, depth, dim, heads, ffDim int) *Encoder {
	enc := &Encoder{}
	for i := 0; i < depth; i++ {
		enc.Layers = append(enc.Layers, NewEncoderLayer(rng, dim, heads, ffDim))
	}
	return enc
}

// Forward applies all blocks in order to the token rows x[idx[i]] (x itself
// when idx is nil): the first block reads its tokens through idx, the rest
// read the block before them.
func (e *Encoder) Forward(tp *autograd.Tape, x *autograd.Tensor, idx []int, segs []Segment) *autograd.Tensor {
	for _, l := range e.Layers {
		x, idx = l.Forward(tp, x, idx, segs), nil
	}
	if idx != nil { // no blocks: the tokens themselves
		x = tp.GatherRowsStable(x, idx)
	}
	return x
}

// Params implements Module.
func (e *Encoder) Params() []*autograd.Tensor {
	var out []*autograd.Tensor
	for _, l := range e.Layers {
		out = append(out, l.Params()...)
	}
	return out
}
