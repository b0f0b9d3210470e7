package autograd

import (
	"math"
	"math/rand"
	"testing"

	"harpte/internal/tensor"
)

// numericalGrad estimates d f / d p.Val[i] by central differences for every
// entry of every parameter, where f rebuilds the graph from scratch.
func numericalGrad(params []*Tensor, f func() float64) [][]float64 {
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

// checkGrads runs forward+backward once and compares analytic gradients with
// numerical ones.
func checkGrads(t *testing.T, name string, params []*Tensor, build func(tp *Tape) *Tensor) {
	t.Helper()
	f := func() float64 {
		tp := NewTape()
		return build(tp).Val.Data[0]
	}
	num := numericalGrad(params, f)

	for _, p := range params {
		p.ZeroGrad()
	}
	tp := NewTape()
	loss := build(tp)
	tp.Backward(loss)

	for pi, p := range params {
		for i := range p.Val.Data {
			got, want := p.Grad.Data[i], num[pi][i]
			scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
			if math.Abs(got-want)/scale > 1e-4 {
				t.Fatalf("%s: param %d entry %d: analytic %g vs numerical %g", name, pi, i, got, want)
			}
		}
	}
}

func randParam(rng *rand.Rand, rows, cols int) *Tensor {
	d := tensor.New(rows, cols)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return NewParam(d)
}

func TestGradMatMulChain(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 4, 2)
	c := randParam(rng, 1, 2)
	checkGrads(t, "matmul-chain", []*Tensor{a, b, c}, func(tp *Tape) *Tensor {
		h := tp.MatMul(a, b) // 3x2
		h = tp.AddRow(h, c)  // bias broadcast
		h = tp.Tanh(h)       //
		return tp.SumAll(tp.Mul(h, h))
	})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randParam(rng, 2, 3)
	for name, act := range map[string]func(*Tape, *Tensor) *Tensor{
		"relu":    func(tp *Tape, x *Tensor) *Tensor { return tp.ReLU(x) },
		"leaky":   func(tp *Tape, x *Tensor) *Tensor { return tp.LeakyReLU(x, 0.1) },
		"tanh":    func(tp *Tape, x *Tensor) *Tensor { return tp.Tanh(x) },
		"sigmoid": func(tp *Tape, x *Tensor) *Tensor { return tp.Sigmoid(x) },
	} {
		act := act
		checkGrads(t, name, []*Tensor{a}, func(tp *Tape) *Tensor {
			return tp.SumAll(tp.Mul(act(tp, a), act(tp, a)))
		})
	}
}

func TestGradSoftmaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randParam(rng, 3, 4)
	w := randParam(rng, 3, 4)
	checkGrads(t, "softmax-rows", []*Tensor{a, w}, func(tp *Tape) *Tensor {
		return tp.SumAll(tp.Mul(tp.SoftmaxRows(a), w))
	})
}

func TestGradConcatGatherReshape(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randParam(rng, 3, 2)
	b := randParam(rng, 3, 3)
	checkGrads(t, "concat-gather", []*Tensor{a, b}, func(tp *Tape) *Tensor {
		cat := tp.ConcatCols(a, b)                    // 3x5
		g := tp.GatherRows(cat, []int{2, 0, 2, 1, 2}) // repeated index 2
		r := tp.Reshape(g, 5, 5)
		return tp.MeanAll(tp.Mul(r, r))
	})
}

func TestGradConcatRows(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randParam(rng, 2, 3)
	b := randParam(rng, 4, 3)
	checkGrads(t, "concat-rows", []*Tensor{a, b}, func(tp *Tape) *Tensor {
		cat := tp.ConcatRows(a, b)
		return tp.SumAll(tp.Mul(cat, cat))
	})
}

func TestGradMaxAndSmoothMax(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randParam(rng, 2, 3)
	// Keep entries well separated so the argmax is stable under the FD step.
	for i := range a.Val.Data {
		a.Val.Data[i] = float64(i) * 0.37
	}
	checkGrads(t, "max", []*Tensor{a}, func(tp *Tape) *Tensor {
		return tp.Max(tp.Mul(a, a))
	})
	checkGrads(t, "smoothmax", []*Tensor{a}, func(tp *Tape) *Tensor {
		return tp.SmoothMax(a, 0.3)
	})
}

func TestGradRepeatRowAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randParam(rng, 1, 4)
	checkGrads(t, "repeat-row", []*Tensor{a}, func(tp *Tape) *Tensor {
		r := tp.RepeatRow(a, 5)
		r = tp.Scale(r, 0.5)
		r = tp.AddScalar(r, 1.0)
		return tp.SumAll(tp.Mul(r, r))
	})
}

func TestGradCSRMul(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := tensor.NewCSR(3, 4, []tensor.COO{
		tensor.E(0, 0, 1.5), tensor.E(0, 3, -2), tensor.E(1, 1, 0.7), tensor.E(2, 0, 0.3), tensor.E(2, 2, 1.1),
	})
	x := randParam(rng, 4, 2)
	checkGrads(t, "csrmul", []*Tensor{x}, func(tp *Tape) *Tensor {
		y := tp.CSRMul(c, x)
		return tp.SumAll(tp.Mul(y, y))
	})
}

func TestGradCSRMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := tensor.NewCSR(3, 4, []tensor.COO{
		tensor.E(0, 0, 1.5), tensor.E(0, 3, -2), tensor.E(1, 1, 0.7), tensor.E(2, 0, 0.3), tensor.E(2, 2, 1.1),
	})
	x := randParam(rng, 3, 2)
	checkGrads(t, "csrmult", []*Tensor{x}, func(tp *Tape) *Tensor {
		y := tp.CSRMulT(c, x) // 4x2
		return tp.SumAll(tp.Mul(y, y))
	})
}

// TestGradCSRIncidenceRoundTrip composes both incidence directions the way
// the RAU does: tunnel traffic → edge loads (CSRMul) → per-tunnel
// bottleneck signal (CSRMulT), and checks the chained gradient.
func TestGradCSRIncidenceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	inc := tensor.NewCSR(4, 6, []tensor.COO{ // 4 edges, 6 tunnels
		tensor.E(0, 0, 1), tensor.E(1, 0, 1), tensor.E(1, 1, 1),
		tensor.E(2, 2, 1), tensor.E(2, 3, 1), tensor.E(3, 4, 1), tensor.E(0, 5, 1),
	})
	x := randParam(rng, 6, 1)
	checkGrads(t, "csr-roundtrip", []*Tensor{x}, func(tp *Tape) *Tensor {
		loads := tp.CSRMul(inc, x)     // edge loads
		back := tp.CSRMulT(inc, loads) // per-tunnel sum of its edge loads
		return tp.SumAll(tp.Mul(back, back))
	})
}

func TestGradSubDivLikePipeline(t *testing.T) {
	// A miniature of the RAU arithmetic: softmax → weighted loads → max.
	rng := rand.New(rand.NewSource(18))
	logits := randParam(rng, 2, 3) // 2 flows, 3 tunnels
	demand := NewConst(tensor.FromSlice(2, 1, []float64{1.0, 2.0}))
	inc := tensor.NewCSR(4, 6, []tensor.COO{ // 4 edges, 6 tunnels
		tensor.E(0, 0, 1), tensor.E(1, 0, 1), tensor.E(1, 1, 1), tensor.E(2, 2, 1), tensor.E(2, 3, 1), tensor.E(3, 4, 1), tensor.E(0, 5, 1),
	})
	checkGrads(t, "rau-mini", []*Tensor{logits}, func(tp *Tape) *Tensor {
		w := tp.SoftmaxRows(logits) // 2x3
		flat := tp.Reshape(w, 6, 1) // tunnel order: flow-major
		d := tp.GatherRows(demand, []int{0, 0, 0, 1, 1, 1})
		x := tp.Mul(flat, d)       // traffic per tunnel
		loads := tp.CSRMul(inc, x) // 4x1
		return tp.SmoothMax(loads, 0.2)
	})
}

func TestBackwardPanicsOnNonScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := NewTape()
	a := NewParam(tensor.New(2, 2))
	tp.Backward(tp.ReLU(a))
}

func TestGradAccumulatesAcrossBackward(t *testing.T) {
	a := NewParam(tensor.FromSlice(1, 1, []float64{2}))
	for i := 0; i < 2; i++ {
		tp := NewTape()
		loss := tp.Mul(a, a)
		tp.Backward(loss)
	}
	if math.Abs(a.Grad.Data[0]-8) > 1e-12 { // d(a^2)/da = 4 per pass, two passes
		t.Fatalf("grad accumulation broken: %v", a.Grad.Data[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (a-3)^2 + (b+1)^2.
	a := NewParam(tensor.FromSlice(1, 1, []float64{10}))
	b := NewParam(tensor.FromSlice(1, 1, []float64{-7}))
	target := NewConst(tensor.FromSlice(1, 1, []float64{3}))
	targetB := NewConst(tensor.FromSlice(1, 1, []float64{-1}))
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		tp := NewTape()
		da := tp.Sub(a, target)
		db := tp.Sub(b, targetB)
		loss := tp.Add(tp.Mul(da, da), tp.Mul(db, db))
		tp.Backward(loss)
		opt.Step([]*Tensor{a, b}, loss.Val.Data[0])
	}
	if math.Abs(a.Val.Data[0]-3) > 1e-3 || math.Abs(b.Val.Data[0]+1) > 1e-3 {
		t.Fatalf("Adam failed to converge: a=%v b=%v", a.Val.Data[0], b.Val.Data[0])
	}
}

func TestAdamGradClip(t *testing.T) {
	a := NewParam(tensor.FromSlice(1, 1, []float64{0}))
	a.Grad.Data[0] = 1e6
	opt := NewAdam(0.01)
	opt.GradClip = 1
	if !opt.Step([]*Tensor{a}, 0) {
		t.Fatal("a finite gradient must step")
	}
	// After clipping the gradient magnitude is 1; Adam's first step is ~lr.
	if math.Abs(a.Val.Data[0]) > 0.011 {
		t.Fatalf("clip ineffective: %v", a.Val.Data[0])
	}
	if a.Grad.Data[0] != 0 {
		t.Fatal("Step must zero gradients")
	}
}

func TestCustomOp(t *testing.T) {
	// Define y = x^3 via Custom and gradient-check it.
	rng := rand.New(rand.NewSource(19))
	x := randParam(rng, 2, 2)
	cube := func(tp *Tape, in *Tensor) *Tensor {
		val := in.Val.Clone()
		for i, v := range val.Data {
			val.Data[i] = v * v * v
		}
		return tp.Custom(val, func(out *Tensor) {
			if in.NeedsGrad() {
				for i := range in.Grad.Data {
					in.Grad.Data[i] += out.Grad.Data[i] * 3 * in.Val.Data[i] * in.Val.Data[i]
				}
			}
		}, in)
	}
	checkGrads(t, "custom-cube", []*Tensor{x}, func(tp *Tape) *Tensor {
		return tp.SumAll(cube(tp, x))
	})
}

func TestGradDivAndSquash(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randParam(rng, 2, 3)
	b := randParam(rng, 2, 3)
	for i := range b.Val.Data {
		b.Val.Data[i] = 1.5 + rng.Float64() // keep denominators positive
		a.Val.Data[i] = rng.Float64()
	}
	checkGrads(t, "div", []*Tensor{a, b}, func(tp *Tape) *Tensor {
		return tp.SumAll(tp.Div(a, b))
	})
	checkGrads(t, "squash", []*Tensor{a}, func(tp *Tape) *Tensor {
		return tp.SumAll(tp.Squash(a))
	})
}

func TestGradLog1p(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a := randParam(rng, 2, 3)
	for i := range a.Val.Data {
		a.Val.Data[i] = rng.Float64() * 3 // non-negative domain
	}
	checkGrads(t, "log1p", []*Tensor{a}, func(tp *Tape) *Tensor {
		return tp.SumAll(tp.Log1p(a, 0.5))
	})
}

func TestGradSliceCols(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	a := randParam(rng, 3, 5)
	checkGrads(t, "slicecols", []*Tensor{a}, func(tp *Tape) *Tensor {
		s := tp.SliceCols(a, 1, 4)
		return tp.SumAll(tp.Mul(s, s))
	})
}
