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

// GatherColBlock copies columns [c0,c0+dst.Cols) of src's row idx[i] — row i
// itself under a nil idx — into row i of dst.
func GatherColBlock(dst, src *tensor.Dense, idx []int, c0 int) {
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

// bucketSegments returns the indices of segs ordered by ascending length
// (stable within a length) via counting sort on tape scratch. Processing
// same-length segments consecutively is the length-bucketing that kills the
// per-segment shape churn: every segment in a bucket checks out identically
// shaped score scratch, so the arena's shape-keyed pools stay hot and the
// inner loops run over runs of identical trip counts.
func bucketSegments(tp *autograd.Tape, segs []Segment) []int {
	maxL := 0
	for _, s := range segs {
		if s.Len() > maxL {
			maxL = s.Len()
		}
	}
	counts := tp.Ints(maxL + 2)
	for i := range counts {
		counts[i] = 0
	}
	for _, s := range segs {
		counts[s.Len()+1]++
	}
	for l := 1; l < len(counts); l++ {
		counts[l] += counts[l-1]
	}
	order := tp.Ints(len(segs))
	for i, s := range segs {
		order[counts[s.Len()]] = i
		counts[s.Len()]++
	}
	return order
}

// Forward applies attention to the N token rows x[idx[0]], x[idx[1]], … —
// x itself (N = x.Rows()) when idx is nil — with the given segmentation of
// those N rows. Segments must tile rows they cover contiguously; rows
// outside every segment pass through untouched (gradient included).
//
// The Q/K/V projections run once over x's rows, not over tokens: the
// kernel accumulates each output row independently in ascending-k order,
// so the product of a row is the same bits wherever and however often idx
// places it, and SETTRANS's 93,670 KDL tokens are 1,809 distinct rows. The
// projected rows are gathered by idx straight into the per-head column
// blocks (once per head, not once per segment per head), the per-segment
// score loops walk segments in length-bucketed order (see bucketSegments),
// and the output projection is one product over the N-row stack. Backward
// scatter-adds dQ/dK/dV into x's rows in ascending token order before the
// input- and weight-gradient products, which therefore run over x's rows
// too; against projecting gathered rows that changes summation order only.
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
	GatherColBlock(val, x.Val, idx, 0) // rows outside segments are identity

	// Projections of x's rows. Buffers are zeroed, so Acc ≡ assign.
	q := tp.Buffer(m, d)
	k := tp.Buffer(m, d)
	v := tp.Buffer(m, d)
	tensor.MatMulAcc(q, x.Val, sa.Wq.Val)
	tensor.MatMulAcc(k, x.Val, sa.Wk.Val)
	tensor.MatMulAcc(v, x.Val, sa.Wv.Val)
	o := tp.Buffer(n, d) // rows outside segments stay zero

	order := bucketSegments(tp, segs)
	attnFlat := make([]*tensor.Dense, len(segs)*h) // L×L softmax weights
	for hd := 0; hd < h; hd++ {
		c0, c1 := hd*dh, (hd+1)*dh
		qh := tp.Buffer(n, dh)
		kh := tp.Buffer(n, dh)
		vh := tp.Buffer(n, dh)
		oh := tp.Buffer(n, dh)
		GatherColBlock(qh, q, idx, c0)
		GatherColBlock(kh, k, idx, c0)
		GatherColBlock(vh, v, idx, c0)
		for _, si := range order {
			s := segs[si]
			L := s.Len()
			qs, ks := qh.RowRange(s.Start, s.End), kh.RowRange(s.Start, s.End)
			vs, os := vh.RowRange(s.Start, s.End), oh.RowRange(s.Start, s.End)
			sc := tp.Buffer(L, L)
			tensor.MatMulABT(sc, &qs, &ks)
			tensor.ScaleInto(sc, sc, scale)
			for i := 0; i < L; i++ {
				softmaxRowInPlace(sc.Row(i))
			}
			attnFlat[si*h+hd] = sc
			tensor.MatMulAcc(&os, sc, &vs)
		}
		for i := 0; i < n; i++ {
			copy(o.Row(i)[c0:c1], oh.Row(i))
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
			GatherColBlock(doh, do, nil, c0)
			GatherColBlock(qh, q, idx, c0)
			GatherColBlock(kh, k, idx, c0)
			GatherColBlock(vh, v, idx, c0)
			dqh := tp.Buffer(n, dh)
			dkh := tp.Buffer(n, dh)
			dvh := tp.Buffer(n, dh)
			for _, si := range order {
				s := segs[si]
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

// softmaxRowInPlace shares the guarded kernel with autograd.SoftmaxRows so
// masked attention rows (all scores -Inf) zero out instead of going NaN.
func softmaxRowInPlace(row []float64) { tensor.SoftmaxRow(row, row) }
