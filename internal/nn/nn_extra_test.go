package nn

import (
	"math"
	"math/rand"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/tensor"
)

func TestMLPRequiresTwoDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP(rand.New(rand.NewSource(1)), ActReLU, 4)
}

func TestUnknownActivationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := autograd.NewTape()
	applyAct(tp, Activation(99), autograd.NewConst(tensor.New(1, 1)))
}

func TestAttentionDimHeadsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSegmentAttention(rand.New(rand.NewSource(1)), 7, 2)
}

func TestAttentionInputDimMismatchPanics(t *testing.T) {
	sa := NewSegmentAttention(rand.New(rand.NewSource(1)), 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := autograd.NewTape()
	sa.Forward(tp, autograd.NewConst(tensor.New(3, 6)), nil, []Segment{{0, 3}})
}

// Single-token segments must be well defined (attention over one element
// is the identity mixing): output equals Wo·(Wv·x) path.
func TestAttentionSingleTokenSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	sa := NewSegmentAttention(rng, 4, 2)
	x := randInput(rng, 1, 4)
	tp := autograd.NewTape()
	y := sa.Forward(tp, x, nil, []Segment{{0, 1}})
	// Reference: softmax over a single score is 1, so O = V = xWv; out = OWo.
	v := tensor.New(1, 4)
	tensor.MatMul(v, x.Val, sa.Wv.Val)
	want := tensor.New(1, 4)
	tensor.MatMul(want, v, sa.Wo.Val)
	if !tensor.Equal(y.Val, want, 1e-9) {
		t.Fatal("single-token attention mismatch")
	}
}

// Heads must differ: a 2-head layer is not equivalent to averaging.
func TestAttentionHeadsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sa := NewSegmentAttention(rng, 4, 2)
	x := randInput(rng, 3, 4)
	tp := autograd.NewTape()
	y2 := sa.Forward(tp, x, nil, []Segment{{0, 3}}).Val.Clone()

	one := &SegmentAttention{Heads: 1, Dim: 4, Wq: sa.Wq, Wk: sa.Wk, Wv: sa.Wv, Wo: sa.Wo}
	tp2 := autograd.NewTape()
	y1 := one.Forward(tp2, x, nil, []Segment{{0, 3}}).Val
	if tensor.Equal(y1, y2, 1e-9) {
		t.Fatal("1-head and 2-head attention identical — heads not independent")
	}
}

func TestLayerNormGainBiasApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	ln := NewLayerNorm(rng, 3)
	ln.Gain.Val.Data[1] = 2
	ln.Bias.Val.Data[2] = 5
	x := randInput(rng, 2, 3)
	tp := autograd.NewTape()
	y := ln.Forward(tp, x)
	// Column 2's mean across rows should be ~5 (bias) since normalized
	// values have zero mean per row but not per column in general; check
	// instead a direct reconstruction.
	for i := 0; i < 2; i++ {
		row := x.Val.Row(i)
		mu := (row[0] + row[1] + row[2]) / 3
		va := ((row[0]-mu)*(row[0]-mu) + (row[1]-mu)*(row[1]-mu) + (row[2]-mu)*(row[2]-mu)) / 3
		is := 1 / math.Sqrt(va+ln.Eps)
		want1 := (row[1] - mu) * is * 2
		want2 := (row[2]-mu)*is + 5
		if math.Abs(y.Val.At(i, 1)-want1) > 1e-9 || math.Abs(y.Val.At(i, 2)-want2) > 1e-9 {
			t.Fatalf("row %d gain/bias not applied", i)
		}
	}
}

func TestGCNUsesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	g := NewGCN(rng, 1, 2, 3)
	x := randInput(rng, 3, 2)
	// Two different adjacencies must give different outputs.
	a1 := tensor.NewCSR(3, 3, []tensor.COO{
		tensor.E(0, 0, 1), tensor.E(1, 1, 1), tensor.E(2, 2, 1),
	})
	a2 := tensor.NewCSR(3, 3, []tensor.COO{
		tensor.E(0, 0, 0.5), tensor.E(0, 1, 0.5), tensor.E(1, 0, 0.5),
		tensor.E(1, 1, 0.5), tensor.E(2, 2, 1),
	})
	tp := autograd.NewTape()
	y1 := g.Forward(tp, a1, x).Val.Clone()
	tp2 := autograd.NewTape()
	y2 := g.Forward(tp2, a2, x).Val
	if tensor.Equal(y1, y2, 1e-12) {
		t.Fatal("GCN ignored the adjacency")
	}
}

// GCN equivariance: permuting nodes (rows of features + adjacency) permutes
// the output rows — the property HARP's Principle 1(b) builds on.
func TestGCNPermutationEquivariance(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	g := NewGCN(rng, 2, 2, 4)
	n := 5
	x := randInput(rng, n, 2)
	var entries []tensor.COO
	for i := 0; i < n; i++ {
		entries = append(entries, tensor.E(i, i, 0.5))
		j := (i + 1) % n
		entries = append(entries, tensor.E(i, j, 0.25), tensor.E(j, i, 0.25))
	}
	aHat := tensor.NewCSR(n, n, entries)
	tp := autograd.NewTape()
	y := g.Forward(tp, aHat, x).Val.Clone()

	perm := rng.Perm(n)
	xp := tensor.New(n, 2)
	var permEntries []tensor.COO
	for i := 0; i < n; i++ {
		copy(xp.Row(perm[i]), x.Val.Row(i))
	}
	for r := 0; r < n; r++ {
		for p := aHat.RowPtr[r]; p < aHat.RowPtr[r+1]; p++ {
			permEntries = append(permEntries, tensor.E(perm[r], perm[aHat.ColIdx[p]], aHat.Val[p]))
		}
	}
	aPerm := tensor.NewCSR(n, n, permEntries)
	tp2 := autograd.NewTape()
	yp := g.Forward(tp2, aPerm, autograd.NewConst(xp)).Val
	for i := 0; i < n; i++ {
		for j := 0; j < 8; j++ {
			if math.Abs(yp.At(perm[i], j)-y.At(i, j)) > 1e-9 {
				t.Fatalf("GCN not equivariant at node %d", i)
			}
		}
	}
}

func TestEncoderPreservesShapeAcrossDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for _, depth := range []int{1, 2, 4} {
		enc := NewEncoder(rng, depth, 6, 3, 12)
		x := randInput(rng, 7, 6)
		tp := autograd.NewTape()
		y := enc.Forward(tp, x, nil, []Segment{{0, 4}, {4, 7}})
		if y.Rows() != 7 || y.Cols() != 6 {
			t.Fatalf("depth %d: shape %dx%d", depth, y.Rows(), y.Cols())
		}
	}
}

// TestForwardThroughIndexEqualsForwardOfGather: Forward(tp, src, idx, segs)
// is Forward(tp, Gather(src, idx), nil, segs) — the form SETTRANS ran
// before its first layer projected src's rows instead of the tokens — bit
// for bit in value, and to summation order (1e-12 relative) in every
// parameter's and src's gradient.
func TestForwardThroughIndexEqualsForwardOfGather(t *testing.T) {
	cases := []struct {
		name              string
		depth, dim, heads int
		rows              int
		idx               []int
		segs              []Segment
	}{
		{"repeats/1-layer", 1, 12, 2, 5, []int{4, 0, 1, 4, 2, 2, 4, 3, 0, 0}, []Segment{{0, 3}, {3, 7}, {7, 10}}},
		{"repeats/2-layer", 2, 12, 2, 5, []int{4, 0, 1, 4, 2, 2, 4, 3, 0, 0}, []Segment{{0, 3}, {3, 7}, {7, 10}}},
		{"permutation", 1, 8, 2, 6, []int{5, 2, 0, 3, 1, 4}, []Segment{{0, 2}, {2, 6}}},
		{"odd width 7", 2, 7, 1, 4, []int{3, 3, 0, 1, 2, 1, 3}, []Segment{{0, 4}, {4, 7}}},
		{"odd width 15, head width 5", 1, 15, 3, 3, []int{2, 0, 2, 1, 1}, []Segment{{0, 5}}},
		{"single-token segment and an uncovered token", 1, 6, 3, 3, []int{1, 2, 2, 0, 1}, []Segment{{0, 1}, {1, 4}}},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(77))
		enc := NewEncoder(rng, c.depth, c.dim, c.heads, 2*c.dim+1)
		src := randInput(rng, c.rows, c.dim)
		params := append([]*autograd.Tensor{src}, enc.Params()...)
		run := func(through bool) (*tensor.Dense, [][]float64) {
			for _, p := range params {
				p.ZeroGrad()
			}
			tp := autograd.NewTape()
			var y *autograd.Tensor
			if through {
				y = enc.Forward(tp, src, c.idx, c.segs)
			} else {
				y = enc.Forward(tp, tp.GatherRowsStable(src, c.idx), nil, c.segs)
			}
			tp.Backward(tp.SumAll(tp.Mul(y, y)))
			grads := make([][]float64, len(params))
			for i, p := range params {
				grads[i] = append([]float64(nil), p.Grad.Data...)
			}
			return y.Val.Clone(), grads
		}
		want, wantGrads := run(false)
		got, gotGrads := run(true)
		if got.Rows != len(c.idx) || got.Cols != c.dim {
			t.Fatalf("%s: shape %dx%d, want %dx%d", c.name, got.Rows, got.Cols, len(c.idx), c.dim)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: output %d is %v through the index, %v on gathered rows", c.name, i, got.Data[i], want.Data[i])
			}
		}
		for pi := range params {
			for i, w := range wantGrads[pi] {
				if g := gotGrads[pi][i]; math.Abs(g-w) > 1e-12*math.Max(1, math.Abs(w)) {
					t.Fatalf("%s: param %d grad %d is %v through the index, %v on gathered rows", c.name, pi, i, g, w)
				}
			}
		}
	}
}

// TestEncoderWithoutLayersGathers: zero blocks is a valid configuration
// (core.Config.SetTransLayers = 0), and its tokens are still src's rows
// read through idx.
func TestEncoderWithoutLayersGathers(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	src := randInput(rng, 3, 4)
	y := NewEncoder(rng, 0, 4, 2, 8).Forward(autograd.NewTape(), src, []int{2, 2, 0}, []Segment{{0, 3}})
	for i, r := range []int{2, 2, 0} {
		for j := 0; j < 4; j++ {
			if y.Val.At(i, j) != src.Val.At(r, j) {
				t.Fatalf("token %d is not row %d of src", i, r)
			}
		}
	}
}
