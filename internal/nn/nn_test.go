package nn

import (
	"math"
	"math/rand"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/tensor"
)

// numGrad estimates the gradient of f with respect to every parameter entry.
func numGrad(params []*autograd.Tensor, f func() float64) [][]float64 {
	const h = 1e-6
	out := make([][]float64, len(params))
	for pi, p := range params {
		out[pi] = make([]float64, len(p.Val.Data))
		for i := range p.Val.Data {
			orig := p.Val.Data[i]
			p.Val.Data[i] = orig + h
			fp := f()
			p.Val.Data[i] = orig - h
			fm := f()
			p.Val.Data[i] = orig
			out[pi][i] = (fp - fm) / (2 * h)
		}
	}
	return out
}

func checkGrads(t *testing.T, name string, params []*autograd.Tensor, build func(tp *autograd.Tape) *autograd.Tensor) {
	t.Helper()
	f := func() float64 { return build(autograd.NewTape()).Val.Data[0] }
	num := numGrad(params, f)
	for _, p := range params {
		p.ZeroGrad()
	}
	tp := autograd.NewTape()
	tp.Backward(build(tp))
	for pi, p := range params {
		for i := range p.Val.Data {
			got, want := p.Grad.Data[i], num[pi][i]
			scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
			if math.Abs(got-want)/scale > 2e-4 {
				t.Fatalf("%s: param %d entry %d: analytic %g vs numerical %g", name, pi, i, got, want)
			}
		}
	}
}

func randInput(rng *rand.Rand, rows, cols int) *autograd.Tensor {
	d := tensor.New(rows, cols)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return autograd.NewParam(d) // param so we can gradient-check input too
}

func TestLinearAndMLPGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := randInput(rng, 4, 3)
	mlp := NewMLP(rng, ActReLU, 3, 5, 2)
	params := append([]*autograd.Tensor{x}, mlp.Params()...)
	checkGrads(t, "mlp", params, func(tp *autograd.Tape) *autograd.Tensor {
		y := mlp.Forward(tp, x)
		return tp.SumAll(tp.Mul(y, y))
	})
}

func TestMLPActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, act := range []Activation{ActReLU, ActLeakyReLU, ActTanh} {
		m := NewMLP(rng, act, 2, 4, 1)
		x := randInput(rng, 3, 2)
		tp := autograd.NewTape()
		y := m.Forward(tp, x)
		if y.Rows() != 3 || y.Cols() != 1 {
			t.Fatalf("act %d: wrong output shape %dx%d", act, y.Rows(), y.Cols())
		}
	}
}

func TestLayerNormGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := randInput(rng, 4, 6)
	ln := NewLayerNorm(rng, 6)
	// Perturb gain/bias away from the identity so gradients are generic.
	for i := range ln.Gain.Val.Data {
		ln.Gain.Val.Data[i] = 1 + 0.3*rng.NormFloat64()
		ln.Bias.Val.Data[i] = 0.2 * rng.NormFloat64()
	}
	params := append([]*autograd.Tensor{x}, ln.Params()...)
	checkGrads(t, "layernorm", params, func(tp *autograd.Tape) *autograd.Tensor {
		y := ln.Forward(tp, x)
		return tp.SumAll(tp.Mul(y, y))
	})
}

func TestLayerNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := randInput(rng, 5, 8)
	ln := NewLayerNorm(rng, 8)
	tp := autograd.NewTape()
	y := ln.Forward(tp, x)
	for i := 0; i < 5; i++ {
		row := y.Val.Row(i)
		var mu float64
		for _, v := range row {
			mu += v
		}
		mu /= 8
		if math.Abs(mu) > 1e-9 {
			t.Fatalf("row %d mean %g", i, mu)
		}
	}
}

func TestSegmentAttentionGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	x := randInput(rng, 9, 4)
	segs := []Segment{{0, 3}, {3, 7}} // rows 7,8 uncovered → identity path
	sa := NewSegmentAttention(rng, 4, 2)
	params := append([]*autograd.Tensor{x}, sa.Params()...)
	// The second case reads 9 tokens out of 4 of x's rows: repeats inside a
	// segment, across segments and on the uncovered identity path.
	for name, idx := range map[string][]int{"segattn": nil, "segattn/repeated-rows": {2, 0, 2, 5, 5, 0, 8, 2, 8}} {
		checkGrads(t, name, params, func(tp *autograd.Tape) *autograd.Tensor {
			y := sa.Forward(tp, x, idx, segs)
			return tp.SumAll(tp.Mul(y, y))
		})
	}
}

func TestEncoderLayerGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	x := randInput(rng, 6, 4)
	segs := []Segment{{0, 2}, {2, 6}}
	enc := NewEncoderLayer(rng, 4, 2, 8)
	params := append([]*autograd.Tensor{x}, enc.Params()...)
	for name, idx := range map[string][]int{"encoder": nil, "encoder/repeated-rows": {3, 3, 1, 3, 5, 1}} {
		checkGrads(t, name, params, func(tp *autograd.Tape) *autograd.Tensor {
			y := enc.Forward(tp, x, idx, segs)
			return tp.SumAll(tp.Mul(y, y))
		})
	}
}

// TestAttentionSegmentEquivariance verifies Principle 1(c): permuting rows
// inside a segment permutes the outputs identically.
func TestAttentionSegmentEquivariance(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	sa := NewSegmentAttention(rng, 6, 3)
	x := randInput(rng, 5, 6)
	segs := []Segment{{0, 5}}

	tp := autograd.NewTape()
	y1 := sa.Forward(tp, x, nil, segs).Val.Clone()

	perm := []int{3, 0, 4, 1, 2}
	xp := tensor.New(5, 6)
	for i, p := range perm {
		copy(xp.Row(i), x.Val.Row(p))
	}
	tp2 := autograd.NewTape()
	y2 := sa.Forward(tp2, autograd.NewConst(xp), nil, segs).Val

	for i, p := range perm {
		for j := 0; j < 6; j++ {
			if math.Abs(y2.At(i, j)-y1.At(p, j)) > 1e-9 {
				t.Fatalf("not equivariant at row %d col %d", i, j)
			}
		}
	}
}

// TestAttentionSegmentIsolation checks attention never crosses segments:
// changing rows of one segment must not affect another segment's output.
func TestAttentionSegmentIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	sa := NewSegmentAttention(rng, 4, 2)
	x := randInput(rng, 6, 4)
	segs := []Segment{{0, 3}, {3, 6}}
	tp := autograd.NewTape()
	y1 := sa.Forward(tp, x, nil, segs).Val.Clone()

	// Mutate segment 2.
	for i := 3; i < 6; i++ {
		for j := 0; j < 4; j++ {
			x.Val.Set(i, j, rng.NormFloat64())
		}
	}
	tp2 := autograd.NewTape()
	y2 := sa.Forward(tp2, x, nil, segs).Val
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if y1.At(i, j) != y2.At(i, j) {
				t.Fatalf("segment 1 output changed when segment 2 input changed")
			}
		}
	}
}

// referenceAttention recomputes segment attention with plain loops to
// cross-check the fused forward: the token rows are x's rows idx names (x's
// own under a nil idx), attention runs within each segment, and a row outside
// every segment is its token row unchanged.
func referenceAttention(sa *SegmentAttention, x *tensor.Dense, idx []int, segs []Segment) *tensor.Dense {
	n, d, h := x.Rows, sa.Dim, sa.Heads
	if idx != nil {
		n = len(idx)
	}
	dh := d / h
	tok := tensor.New(n, d)
	for i := 0; i < n; i++ {
		copy(tok.Row(i), x.Row(rowOf(idx, i)))
	}
	q, k, v := tensor.New(n, d), tensor.New(n, d), tensor.New(n, d)
	tensor.MatMul(q, tok, sa.Wq.Val)
	tensor.MatMul(k, tok, sa.Wk.Val)
	tensor.MatMul(v, tok, sa.Wv.Val)
	o := tensor.New(n, d)
	for _, sg := range segs {
		for hd := 0; hd < h; hd++ {
			c0 := hd * dh
			for i := sg.Start; i < sg.End; i++ {
				scores := make([]float64, sg.Len())
				for j := range scores {
					var s float64
					for c := 0; c < dh; c++ {
						s += q.At(i, c0+c) * k.At(sg.Start+j, c0+c)
					}
					scores[j] = s / math.Sqrt(float64(dh))
				}
				tensor.SoftmaxRow(scores, scores)
				for c := 0; c < dh; c++ {
					var s float64
					for j, a := range scores {
						s += a * v.At(sg.Start+j, c0+c)
					}
					o.Set(i, c0+c, s)
				}
			}
		}
	}
	proj := tensor.New(n, d)
	tensor.MatMul(proj, o, sa.Wo.Val)
	for _, sg := range segs {
		copy(tok.RowRange(sg.Start, sg.End).Data, proj.RowRange(sg.Start, sg.End).Data)
	}
	return tok
}

// TestAttentionMatchesReference: one 4-row segment; several segments of
// different lengths with a row outside all of them; the same read through an
// index that repeats rows; and three heads.
func TestAttentionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	cases := []struct {
		name             string
		dim, heads, rows int
		idx              []int
		segs             []Segment
	}{
		{"one-segment", 8, 2, 4, nil, []Segment{{0, 4}}},
		{"segments+uncovered", 8, 2, 10, nil, []Segment{{0, 1}, {1, 5}, {6, 8}, {8, 10}}},
		{"repeated-rows", 8, 2, 4, []int{3, 0, 3, 1, 1, 2, 0, 3, 3}, []Segment{{0, 2}, {2, 3}, {4, 9}}},
		{"three-heads", 9, 3, 5, []int{4, 4, 0, 2, 1, 3, 0}, []Segment{{0, 3}, {3, 4}, {4, 7}}},
	}
	for _, c := range cases {
		sa := NewSegmentAttention(rng, c.dim, c.heads)
		x := randInput(rng, c.rows, c.dim)
		tp := autograd.NewTape()
		got := sa.Forward(tp, x, c.idx, c.segs).Val
		want := referenceAttention(sa, x.Val, c.idx, c.segs)
		if !tensor.Equal(got, want, 1e-9) {
			t.Fatalf("%s: fused attention disagrees with reference", c.name)
		}
	}
}

func TestGCNGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	// Tiny 4-node graph, normalized adjacency with self-loops (values arbitrary).
	aHat := tensor.NewCSR(4, 4, []tensor.COO{
		tensor.E(0, 0, 0.5), tensor.E(0, 1, 0.4), tensor.E(1, 0, 0.4), tensor.E(1, 1, 0.5),
		tensor.E(2, 2, 0.6), tensor.E(2, 3, 0.3), tensor.E(3, 2, 0.3), tensor.E(3, 3, 0.6),
		tensor.E(1, 2, 0.2), tensor.E(2, 1, 0.2),
	})
	x := randInput(rng, 4, 2)
	g := NewGCN(rng, 2, 2, 3)
	if g.OutDim() != 6 {
		t.Fatalf("OutDim got %d want 6", g.OutDim())
	}
	params := append([]*autograd.Tensor{x}, g.Params()...)
	checkGrads(t, "gcn", params, func(tp *autograd.Tape) *autograd.Tensor {
		y := g.Forward(tp, aHat, x)
		return tp.SumAll(tp.Mul(y, y))
	})
}

func TestEncoderDepthStacking(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	enc := NewEncoder(rng, 3, 4, 2, 8)
	if len(enc.Params()) != 3*len(NewEncoderLayer(rng, 4, 2, 8).Params()) {
		t.Fatal("unexpected param count")
	}
	x := randInput(rng, 5, 4)
	tp := autograd.NewTape()
	y := enc.Forward(tp, x, nil, []Segment{{0, 5}})
	if y.Rows() != 5 || y.Cols() != 4 {
		t.Fatalf("bad shape %dx%d", y.Rows(), y.Cols())
	}
}

func TestCollectParams(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := NewLinear(rng, 2, 3)
	b := NewLinear(rng, 3, 1)
	if got := len(CollectParams(a, b)); got != 4 {
		t.Fatalf("CollectParams got %d want 4", got)
	}
}
