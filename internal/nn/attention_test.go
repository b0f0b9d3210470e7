package nn

import (
	"math"
	"math/rand"
	"testing"

	"harpte/internal/tensor"
)

// TestQueryRowBitIdentical holds the attention row kernel (AttendRow) to the
// gathered sequence of tensor kernels: per head, the query row's and the
// segment's key and value rows' columns copied out (gatherColBlock), then
// MatMulABT → ScaleInto → SoftmaxRow → MatMul. Every caller of the kernel
// computes the same bits, so this is attention's bit-level reference.
// Segment lengths 1–70 cross the matmul kernel's k-block of 64, head widths
// 1–6 leave every 4-wide dot tile remainder, and the rows are read both ways
// the callers keep them: per token, and through an index into shared rows.
// The segment sits inside its matrices, so a row read past either of its
// ends reads other values. In the second regime Q, K and V carry ±0, ±Inf,
// NaN and subnormals; a NaN equals any NaN. The third pins the zero skip: a
// key row of −Inf gets a weight of exactly 0 over a value row of +Inf, which
// must not enter the sum.
func TestQueryRowBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310}
	finite, outputs := map[int]int{}, map[int]int{}
	for n := 1; n <= 70; n++ {
		for dh := 1; dh <= 6; dh++ {
			for regime := 0; regime < 3; regime++ {
				heads := 1 + (n+dh+regime)%3
				r, tokens := heads*dh, n+4
				// Token rows: the query is token 1, the segment tokens
				// [2, 2+n); through idx they are the distinct rows idx names
				// (not in the third regime, whose rows must be its own).
				var idx []int
				rows := tokens
				if regime < 2 && (n+dh)%2 == 1 {
					rows = 3 + n/2
					idx = make([]int, tokens)
					for i := range idx {
						idx[i] = rng.Intn(rows)
					}
				}
				gen := func() float64 {
					if regime == 1 && rng.Intn(8) == 0 {
						return special[rng.Intn(len(special))]
					}
					return rng.NormFloat64()
				}
				draw := func() *tensor.Dense {
					d := tensor.New(rows, r)
					for i := range d.Data {
						d.Data[i] = gen()
					}
					return d
				}
				q, k, v := draw(), draw(), draw()
				seg := Segment{Start: 2, End: 2 + n}
				if regime == 2 {
					j0 := seg.Start + rng.Intn(n)
					for c := 0; c < r; c++ {
						q.Row(1)[c] = 1
						k.Row(j0)[c] = math.Inf(-1)
						v.Row(j0)[c] = math.Inf(1)
					}
				}
				got := make([]float64, r)
				AttendRow(got, q.Row(rowOf(idx, 1)), k, v, idx, seg, dh, make([]float64, heads*n))

				segRows := make([]int, n)
				for j := range segRows {
					segRows[j] = rowOf(idx, j+seg.Start)
				}
				qRow := []int{rowOf(idx, 1)}
				qh, kh, vh := tensor.New(1, dh), tensor.New(n, dh), tensor.New(n, dh)
				att, oh := tensor.New(1, n), tensor.New(1, dh)
				for c0 := 0; c0 < r; c0 += dh {
					gatherColBlock(qh, q, qRow, c0)
					gatherColBlock(kh, k, segRows, c0)
					gatherColBlock(vh, v, segRows, c0)
					tensor.MatMulABT(att, qh, kh)
					tensor.ScaleInto(att, att, 1/math.Sqrt(float64(dh)))
					tensor.SoftmaxRow(att.Data, att.Data)
					tensor.MatMul(oh, att, vh)
					for c, w := range oh.Data {
						g := got[c0+c]
						if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
							t.Fatalf("length %d, head width %d, %d heads, regime %d, index %v: column %d in place %v != gathered %v",
								n, dh, heads, regime, idx != nil, c0+c, g, w)
						}
						if outputs[regime]++; !math.IsNaN(g) && !math.IsInf(g, 0) {
							finite[regime]++
						}
					}
				}
			}
		}
	}
	// Every output of the plain and the zero-skip regimes is finite, where a
	// 0·Inf that entered a sum would be NaN; with specials most are not, and
	// the ones that are show where a wrong skip or order would.
	if finite[0] != outputs[0] || finite[2] != outputs[2] || finite[1] < outputs[1]/4 {
		t.Fatalf("finite outputs per regime %v of %v — the comparison is vacuous", finite, outputs)
	}
}
