package nn

import (
	"fmt"
	"math"
	"math/rand"

	"harpte/internal/autograd"
	"harpte/internal/tensor"
)

// Segment identifies a contiguous [Start,End) row range of a stacked
// activation matrix. HARP stacks every tunnel's token rows (CLS + one row
// per edge) into one big matrix; each tunnel is one segment and attention
// never crosses segment boundaries, which is what makes the same module both
// batched and per-tunnel.
type Segment struct {
	Start, End int
}

// Len returns the number of rows in the segment.
func (s Segment) Len() int { return s.End - s.Start }

// SegmentAttention is multi-head self-attention applied independently
// within each segment, with no positional encoding. Because softmax
// attention is permutation-equivariant over its input set, this layer is
// equivariant to reordering rows within a segment — Principle 1(c) of the
// paper (invariance to the order of edges within a tunnel).
//
// The whole layer is one fused tape node: forward and backward are written
// directly against the tensor kernels, which keeps tape size independent of
// the number of tunnels.
type SegmentAttention struct {
	Heads          int
	Dim            int
	Wq, Wk, Wv, Wo *autograd.Tensor
}

// NewSegmentAttention returns an attention layer over feature dim with the
// given head count; dim must be divisible by heads.
func NewSegmentAttention(rng *rand.Rand, dim, heads int) *SegmentAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("nn: attention dim %d not divisible by heads %d", dim, heads))
	}
	return &SegmentAttention{
		Heads: heads,
		Dim:   dim,
		Wq:    autograd.XavierParam(rng, dim, dim),
		Wk:    autograd.XavierParam(rng, dim, dim),
		Wv:    autograd.XavierParam(rng, dim, dim),
		Wo:    autograd.XavierParam(rng, dim, dim),
	}
}

// Params implements Module.
func (sa *SegmentAttention) Params() []*autograd.Tensor {
	return []*autograd.Tensor{sa.Wq, sa.Wk, sa.Wv, sa.Wo}
}

// rowOf is the source row token i reads: idx[i], or i itself under the
// identity (nil) index.
func rowOf(idx []int, i int) int {
	if idx == nil {
		return i
	}
	return idx[i]
}

// gatherColBlock copies columns [c0,c0+dst.Cols) of src's row idx[i] — row i
// itself under a nil idx — into row i of dst.
func gatherColBlock(dst, src *tensor.Dense, idx []int, c0 int) {
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Row(i), src.Row(rowOf(idx, i))[c0:c0+dst.Cols])
	}
}

// scatterAddColBlock adds row i of blk into columns [c0,c0+blk.Cols) of
// dst's row rowOf(idx, i), in ascending i.
func scatterAddColBlock(dst, blk *tensor.Dense, idx []int, c0 int) {
	for i := 0; i < blk.Rows; i++ {
		drow := dst.Row(rowOf(idx, i))[c0 : c0+blk.Cols]
		brow := blk.Row(i)
		for j := range drow {
			drow[j] += brow[j]
		}
	}
}

// AttendRow writes to o the multi-head attention output of query row q over
// segment seg, whose key and value rows are rows rowOf(idx, j) of k and v for
// j in seg; each head is dh consecutive columns of q, k, v and o. scores
// (at least len(q)/dh × seg.Len()) receives the softmax weights, head after
// head. It is the one attention kernel: the tape forward, the engine's block
// loop and its query rows all call it, so they compute the same bits. Each
// value is the one the gathered sequence of tensor kernels — the head's
// columns copied out, then MatMulABT, ScaleInto, SoftmaxRow and MatMul —
// computes for it: a score is abtAcc's sum, from zero in ascending k, added
// to a zeroed element and then scaled; the softmax is SoftmaxRow; an output
// element is macRow's sum for a 1×n by n×dh product, from zero in ascending
// k, skipping exactly the zero weights (TestQueryRowBitIdentical).
func AttendRow(o, q []float64, k, v *tensor.Dense, idx []int, seg Segment, dh int, scores []float64) {
	n, heads := seg.Len(), len(q)/dh
	scale := 1 / math.Sqrt(float64(dh))
	for j := 0; j < n; j++ {
		kr := k.Row(rowOf(idx, seg.Start+j))
		for h, c0 := 0, 0; h < heads; h, c0 = h+1, c0+dh {
			qc, kc := q[c0:c0+dh], kr[c0:c0+dh]
			var s float64
			for c, qv := range qc {
				s += qv * kc[c]
			}
			scores[h*n+j] = scale * (0 + s)
		}
	}
	for h := 0; h < heads; h++ {
		att := scores[h*n : (h+1)*n]
		tensor.SoftmaxRow(att, att)
	}
	clear(o)
	for j := 0; j < n; j++ {
		vr := v.Row(rowOf(idx, seg.Start+j))
		for h, c0 := 0, 0; h < heads; h, c0 = h+1, c0+dh {
			if a := scores[h*n+j]; a != 0 {
				oc, vc := o[c0:c0+dh], vr[c0:c0+dh]
				for c := range oc {
					oc[c] += a * vc[c]
				}
			}
		}
	}
}

// Forward applies attention to the N token rows x[idx[0]], x[idx[1]], … —
// x itself (N = x.Rows()) when idx is nil — with the given segmentation of
// those N rows. Segments must tile rows they cover contiguously; rows
// outside every segment pass through untouched (gradient included).
//
// The Q/K/V projections run once over x's rows, not over tokens: the
// kernel accumulates each output row independently in ascending-k order,
// so the product of a row is the same bits wherever and however often idx
// places it, and SETTRANS's 93,670 KDL tokens are 1,809 distinct rows. Each
// covered token's attention row is AttendRow over its segment, reading the
// projected rows through idx where they are, and the output projection is
// one product over the N-row stack. Backward scatter-adds dQ/dK/dV into x's
// rows in ascending token order before the input- and weight-gradient
// products, which therefore run over x's rows too; against projecting
// gathered rows that changes summation order only.
//
// All dense scratch — forward intermediates saved for backward as well as
// the backward pass's own workspace — comes from tp.Buffer, so on a
// reusable tape the layer's steady-state allocations are a handful of
// bookkeeping slices, independent of segment count.
func (sa *SegmentAttention) Forward(tp *autograd.Tape, x *autograd.Tensor, idx []int, segs []Segment) *autograd.Tensor {
	d, h := sa.Dim, sa.Heads
	dh := d / h
	scale := 1 / math.Sqrt(float64(dh))
	if x.Cols() != d {
		panic("nn: SegmentAttention input dim mismatch")
	}
	m, n := x.Rows(), x.Rows()
	if idx != nil {
		n = len(idx)
	}
	val := tp.Buffer(n, d)
	gatherColBlock(val, x.Val, idx, 0) // rows outside segments are identity

	// Projections of x's rows. Buffers are zeroed, so Acc ≡ assign.
	q := tp.Buffer(m, d)
	k := tp.Buffer(m, d)
	v := tp.Buffer(m, d)
	tensor.MatMulAcc(q, x.Val, sa.Wq.Val)
	tensor.MatMulAcc(k, x.Val, sa.Wk.Val)
	tensor.MatMulAcc(v, x.Val, sa.Wv.Val)
	o := tp.Buffer(n, d) // rows outside segments stay zero

	// Every covered token is one query row of the kernel; each head's weights
	// are kept as the L×L matrix of its segment the backward reads.
	maxL := 0
	for _, s := range segs {
		maxL = max(maxL, s.Len())
	}
	scores := tp.Buffer(1, h*maxL).Data
	attnFlat := make([]*tensor.Dense, len(segs)*h) // L×L softmax weights
	for si, s := range segs {
		L := s.Len()
		for hd := 0; hd < h; hd++ {
			attnFlat[si*h+hd] = tp.Buffer(L, L)
		}
		for i := s.Start; i < s.End; i++ {
			AttendRow(o.Row(i), q.Row(rowOf(idx, i)), k, v, idx, s, dh, scores)
			for hd, a := range attnFlat[si*h : (si+1)*h] {
				copy(a.Row(i-s.Start), scores[hd*L:(hd+1)*L])
			}
		}
	}

	// One output projection over the stack; covered rows are then copied
	// into val (uncovered rows keep the identity pass-through).
	proj := tp.Buffer(n, d)
	tensor.MatMulAcc(proj, o, sa.Wo.Val)
	for _, s := range segs {
		copy(val.RowRange(s.Start, s.End).Data, proj.RowRange(s.Start, s.End).Data)
	}

	return tp.Custom(val, func(out *autograd.Tensor) {
		// Identity gradient for rows outside all segments.
		if x.NeedsGrad() {
			covered := tp.Ints(n)
			for i := range covered {
				covered[i] = 0
			}
			for _, s := range segs {
				for i := s.Start; i < s.End; i++ {
					covered[i] = 1
				}
			}
			for i := 0; i < n; i++ {
				if covered[i] == 0 {
					dst := x.Grad.Row(rowOf(idx, i))
					src := out.Grad.Row(i)
					for j := range dst {
						dst[j] += src[j]
					}
				}
			}
		}
		// dY restricted to covered rows (uncovered rows took the identity
		// path above and must not feed the attention adjoints).
		dy := tp.Buffer(n, d)
		for _, s := range segs {
			copy(dy.RowRange(s.Start, s.End).Data, out.Grad.RowRange(s.Start, s.End).Data)
		}

		// dO = dY·Woᵀ ; dWo += Oᵀ·dY — whole-stack, like the forward.
		// Uncovered rows of dy and o are zero, so they contribute nothing.
		do := tp.Buffer(n, d)
		tensor.MatMulABTAcc(do, dy, sa.Wo.Val)
		if sa.Wo.NeedsGrad() {
			tensor.MatMulATBAcc(sa.Wo.Grad, o, dy)
		}

		dq := tp.Buffer(m, d)
		dk := tp.Buffer(m, d)
		dv := tp.Buffer(m, d)
		for hd := 0; hd < h; hd++ {
			c0 := hd * dh
			doh := tp.Buffer(n, dh)
			qh := tp.Buffer(n, dh)
			kh := tp.Buffer(n, dh)
			vh := tp.Buffer(n, dh)
			gatherColBlock(doh, do, nil, c0)
			gatherColBlock(qh, q, idx, c0)
			gatherColBlock(kh, k, idx, c0)
			gatherColBlock(vh, v, idx, c0)
			dqh := tp.Buffer(n, dh)
			dkh := tp.Buffer(n, dh)
			dvh := tp.Buffer(n, dh)
			for si, s := range segs {
				L := s.Len()
				a := attnFlat[si*h+hd]
				dohs, vhs := doh.RowRange(s.Start, s.End), vh.RowRange(s.Start, s.End)
				qhs, khs := qh.RowRange(s.Start, s.End), kh.RowRange(s.Start, s.End)

				// dA = dOh·Vhᵀ ; dVh = Aᵀ·dOh
				da := tp.Buffer(L, L)
				tensor.MatMulABT(da, &dohs, &vhs)
				dvhs := dvh.RowRange(s.Start, s.End)
				tensor.MatMulATBAcc(&dvhs, a, &dohs) // zeroed rows → assign

				// Softmax backward per row: ds = a ⊙ (da - Σ da⊙a)
				ds := tp.Buffer(L, L)
				for i := 0; i < L; i++ {
					ar, dar, dsr := a.Row(i), da.Row(i), ds.Row(i)
					var dot float64
					for j := range ar {
						dot += ar[j] * dar[j]
					}
					for j := range ar {
						dsr[j] = ar[j] * (dar[j] - dot) * scale
					}
				}
				dqhs, dkhs := dqh.RowRange(s.Start, s.End), dkh.RowRange(s.Start, s.End)
				tensor.MatMulAcc(&dqhs, ds, &khs)
				tensor.MatMulATBAcc(&dkhs, ds, &qhs)
			}
			scatterAddColBlock(dq, dqh, idx, c0)
			scatterAddColBlock(dk, dkh, idx, c0)
			scatterAddColBlock(dv, dvh, idx, c0)
		}

		// Input and weight gradients over x's rows. Tokens outside every
		// segment have zero dq/dk/dv, so they add nothing.
		if x.NeedsGrad() {
			tensor.MatMulABTAcc(x.Grad, dq, sa.Wq.Val)
			tensor.MatMulABTAcc(x.Grad, dk, sa.Wk.Val)
			tensor.MatMulABTAcc(x.Grad, dv, sa.Wv.Val)
		}
		if sa.Wq.NeedsGrad() {
			tensor.MatMulATBAcc(sa.Wq.Grad, x.Val, dq)
		}
		if sa.Wk.NeedsGrad() {
			tensor.MatMulATBAcc(sa.Wk.Grad, x.Val, dk)
		}
		if sa.Wv.NeedsGrad() {
			tensor.MatMulATBAcc(sa.Wv.Grad, x.Val, dv)
		}
	}, x, sa.Wq, sa.Wk, sa.Wv, sa.Wo)
}
