package autograd

import (
	"math"
	"math/rand"
	"testing"

	"harpte/internal/tensor"
)

func TestTapeResetAndLen(t *testing.T) {
	tp := NewTape()
	a := NewParam(tensor.FromSlice(1, 1, []float64{2}))
	tp.Mul(a, a)
	tp.Add(a, a)
	if tp.Len() != 2 {
		t.Fatalf("Len = %d", tp.Len())
	}
	tp.Reset()
	if tp.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	// The tape is reusable after Reset.
	loss := tp.Mul(a, a)
	a.ZeroGrad()
	tp.Backward(loss)
	if a.Grad.Data[0] != 4 {
		t.Fatalf("grad after reuse %v", a.Grad.Data[0])
	}
}

func TestConstHasNoGradient(t *testing.T) {
	c := NewConst(tensor.FromSlice(1, 1, []float64{3}))
	if c.NeedsGrad() || c.Grad != nil {
		t.Fatal("constants must not track gradients")
	}
	tp := NewTape()
	out := tp.Mul(c, c)
	if out.NeedsGrad() {
		t.Fatal("op over constants must not need gradients")
	}
}

func TestNeedGradPropagation(t *testing.T) {
	tp := NewTape()
	p := NewParam(tensor.New(2, 2))
	c := NewConst(tensor.New(2, 2))
	if !tp.Add(p, c).NeedsGrad() {
		t.Fatal("param+const must need grad")
	}
	if tp.Add(c, c).NeedsGrad() {
		t.Fatal("const+const must not need grad")
	}
}

func TestBackwardPanicsWithoutParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := NewTape()
	c := NewConst(tensor.FromSlice(1, 1, []float64{1}))
	tp.Backward(tp.Mul(c, c))
}

func TestReshapePanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := NewTape()
	tp.Reshape(NewConst(tensor.New(2, 3)), 4, 2)
}

func TestSliceColsPanicsOnBadRange(t *testing.T) {
	for i, r := range [][2]int{{-1, 1}, {1, 1}, {2, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			tp := NewTape()
			tp.SliceCols(NewConst(tensor.New(2, 3)), r[0], r[1])
		}()
	}
}

func TestGatherRowsImmuneToCallerMutation(t *testing.T) {
	tp := NewTape()
	a := NewParam(tensor.FromSlice(2, 1, []float64{1, 2}))
	idx := []int{1, 0}
	out := tp.GatherRows(a, idx)
	idx[0] = 0 // caller mutates after the op
	loss := tp.SumAll(tp.Mul(out, out))
	tp.Backward(loss)
	// d/da of (a1² + a0²) = [2a0, 2a1] = [2, 4]; mutation must not corrupt.
	if a.Grad.Data[0] != 2 || a.Grad.Data[1] != 4 {
		t.Fatalf("grads %v", a.Grad.Data)
	}
}

func TestSoftmaxRowsSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	tp := NewTape()
	a := randParam(rng, 4, 6)
	// Include extreme logits for numerical stability coverage.
	a.Val.Data[0] = 500
	a.Val.Data[1] = -500
	y := tp.SoftmaxRows(a)
	for i := 0; i < 4; i++ {
		var s float64
		for _, v := range y.Val.Row(i) {
			if v < 0 || math.IsNaN(v) {
				t.Fatal("invalid probability")
			}
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSmoothMaxUpperBoundsMax(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		tp := NewTape()
		a := randParam(rng, 3, 3)
		hard, _ := a.Val.Max()
		soft := tp.SmoothMax(a, 0.1).Val.Data[0]
		if soft < hard-1e-12 {
			t.Fatalf("smoothmax %v below max %v", soft, hard)
		}
		if soft > hard+0.1*math.Log(9)+1e-12 {
			t.Fatalf("smoothmax %v exceeds bound", soft)
		}
	}
}

func TestAdamLRSchedulesIndependentStates(t *testing.T) {
	// Two parameters must keep independent moment estimates.
	a := NewParam(tensor.FromSlice(1, 1, []float64{0}))
	b := NewParam(tensor.FromSlice(1, 1, []float64{0}))
	opt := NewAdam(0.1)
	a.Grad.Data[0] = 1
	b.Grad.Data[0] = -1
	opt.Step([]*Tensor{a, b}, 0)
	if !(a.Val.Data[0] < 0 && b.Val.Data[0] > 0) {
		t.Fatalf("steps wrong: a=%v b=%v", a.Val.Data[0], b.Val.Data[0])
	}
	if math.Abs(a.Val.Data[0]+b.Val.Data[0]) > 1e-12 {
		t.Fatal("symmetric gradients must give symmetric steps")
	}
}

// TestAdamStepWithholdsNonFinite: a NaN or Inf loss or gradient leaves the
// parameters, the moments and the step count as they were, zeroes the
// gradients and reports stepped=false.
func TestAdamStepWithholdsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		loss float64
		grad float64
	}{
		{"NaN loss", math.NaN(), 1},
		{"Inf loss", math.Inf(1), 1},
		{"NaN gradient", 1, math.NaN()},
		{"-Inf gradient", 1, math.Inf(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewParam(tensor.FromSlice(1, 2, []float64{1, 2}))
			b := NewParam(tensor.FromSlice(1, 1, []float64{3}))
			params := []*Tensor{a, b}
			opt := NewAdam(0.1)
			opt.GradClip = 5
			a.Grad.Fill(0.5)
			b.Grad.Fill(-0.25)
			if !opt.Step(params, 1) {
				t.Fatal("a healthy step was withheld")
			}
			vals, state := Snapshot(params), opt.State(params)

			a.Grad.Fill(0.5)
			b.Grad.Data[0] = tc.grad
			if opt.Step(params, tc.loss) {
				t.Fatal("a non-finite step was taken")
			}
			for i, p := range params {
				for j, v := range p.Val.Data {
					if math.Float64bits(v) != math.Float64bits(vals[i][j]) {
						t.Fatalf("param %d[%d] moved %v -> %v", i, j, vals[i][j], v)
					}
				}
				for j, g := range p.Grad.Data {
					if g != 0 {
						t.Fatalf("grad %d[%d] = %v, want 0", i, j, g)
					}
				}
			}
			after := opt.State(params)
			if after.Step != state.Step {
				t.Fatalf("step count %d -> %d", state.Step, after.Step)
			}
			for i := range params {
				for j := range state.M[i] {
					if after.M[i][j] != state.M[i][j] || after.V[i][j] != state.V[i][j] {
						t.Fatalf("moments of param %d[%d] moved", i, j)
					}
				}
			}
		})
	}
}

// TestFitBestRestoresBestEpoch: FitBest visits every sample once per epoch
// in batches of at most batch, and ends on the parameters of the epoch val
// scored lowest.
func TestFitBestRestoresBestEpoch(t *testing.T) {
	a := NewParam(tensor.FromSlice(1, 1, []float64{0}))
	scores := []float64{3, 1, math.NaN(), 2}
	epoch := 0
	seen := make([]int, 5)
	best := FitBest([]*Tensor{a}, rand.New(rand.NewSource(1)), 5, 2, len(scores),
		func(idx []int) {
			if len(idx) == 0 || len(idx) > 2 {
				t.Fatalf("batch of %d", len(idx))
			}
			for _, i := range idx {
				seen[i]++
			}
		},
		func() float64 {
			epoch++
			a.Val.Data[0] = float64(epoch)
			return scores[epoch-1]
		})
	if best != 1 || a.Val.Data[0] != 2 {
		t.Fatalf("best %v with a = %v, want 1 with a = 2 (epoch 2's)", best, a.Val.Data[0])
	}
	for i, n := range seen {
		if n != len(scores) {
			t.Fatalf("sample %d visited %d times in %d epochs", i, n, len(scores))
		}
	}
}

func TestXavierParamBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	p := XavierParam(rng, 30, 20)
	bound := math.Sqrt(6.0 / 50.0)
	for _, v := range p.Val.Data {
		if v < -bound || v > bound {
			t.Fatalf("value %v outside Glorot bound %v", v, bound)
		}
	}
	if !p.NeedsGrad() {
		t.Fatal("XavierParam must be trainable")
	}
}

func TestOnesAndZeroParams(t *testing.T) {
	o := OnesParam(1, 3)
	z := ZeroParam(2, 2)
	if o.Val.Data[2] != 1 || z.Val.Data[3] != 0 {
		t.Fatal("init values wrong")
	}
}

func TestRepeatRowPanicsOnMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := NewTape()
	tp.RepeatRow(NewConst(tensor.New(2, 2)), 3)
}

func TestConcatColsPanicsOnRowMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := NewTape()
	tp.ConcatCols(NewConst(tensor.New(2, 2)), NewConst(tensor.New(3, 2)))
}

func TestLog1pDomain(t *testing.T) {
	tp := NewTape()
	x := NewConst(tensor.FromSlice(1, 3, []float64{0, 1, math.E - 1}))
	y := tp.Log1p(x, 1)
	if y.Val.Data[0] != 0 {
		t.Fatal("log1p(0) != 0")
	}
	if math.Abs(y.Val.Data[2]-1) > 1e-12 {
		t.Fatalf("log1p(e-1) = %v want 1", y.Val.Data[2])
	}
}
