package autograd

import (
	"math/rand"
	"testing"

	"harpte/internal/tensor"
)

// buildGraph records a small MLP-like graph on tp and returns the 1×1 loss.
func buildGraph(tp *Tape, x *Tensor, w, b *Tensor) *Tensor {
	h := tp.Tanh(tp.AddRow(tp.MatMul(x, w), b))
	return tp.MeanAll(tp.Mul(h, h))
}

func arenaFixture() (x, w, b *Tensor) {
	rng := rand.New(rand.NewSource(5))
	xd := tensor.New(32, 16)
	for i := range xd.Data {
		xd.Data[i] = rng.NormFloat64()
	}
	return NewConst(xd), XavierParam(rng, 16, 8), ZeroParam(1, 8)
}

// TestReusableTapeZeroSteadyStateAllocs: once the arena is warm, a
// forward+backward+reset over fixed-shape ops allocates nothing at all.
func TestReusableTapeZeroSteadyStateAllocs(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold without -race")
	}
	x, w, b := arenaFixture()
	tp := NewReusableTape()
	run := func() {
		loss := buildGraph(tp, x, w, b)
		tp.Backward(loss)
		w.ZeroGrad()
		b.ZeroGrad()
		tp.Reset()
	}
	run()
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Errorf("steady-state tape reuse allocates %v times per run, want 0", n)
	}
}

// TestReusableTapeMatchesPlainTape: identical arithmetic on pooled and
// non-pooled tapes, across repeated reuse.
func TestReusableTapeMatchesPlainTape(t *testing.T) {
	x, w, b := arenaFixture()

	plain := NewTape()
	loss := buildGraph(plain, x, w, b)
	plain.Backward(loss)
	wantLoss := loss.Val.Data[0]
	wantGrad := append([]float64(nil), w.Grad.Data...)
	w.ZeroGrad()
	b.ZeroGrad()

	tp := NewReusableTape()
	for pass := 0; pass < 3; pass++ {
		l := buildGraph(tp, x, w, b)
		tp.Backward(l)
		if l.Val.Data[0] != wantLoss {
			t.Fatalf("pass %d: loss %v != %v", pass, l.Val.Data[0], wantLoss)
		}
		for i := range wantGrad {
			if w.Grad.Data[i] != wantGrad[i] {
				t.Fatalf("pass %d: grad[%d] %v != %v", pass, i, w.Grad.Data[i], wantGrad[i])
			}
		}
		w.ZeroGrad()
		b.ZeroGrad()
		tp.Reset()
	}
}

// TestBufferZeroedOnCheckout: recycled buffers may hold stale garbage
// internally, but Tape.Buffer promises zeroed contents.
func TestBufferZeroedOnCheckout(t *testing.T) {
	tp := NewReusableTape()
	d := tp.Buffer(4, 4)
	d.Fill(7)
	tp.Reset()
	d2 := tp.Buffer(4, 4)
	for i, v := range d2.Data {
		if v != 0 {
			t.Fatalf("recycled buffer element %d = %v, want 0", i, v)
		}
	}
}

// TestGatherRowsCopiesIndices: mutating the caller's index slice after
// recording must not corrupt the backward scatter (GatherRows' contract;
// GatherRowsStable explicitly waives the copy).
func TestGatherRowsCopiesIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := XavierParam(rng, 4, 3)
	idx := []int{2, 0, 2}

	tp := NewReusableTape()
	g := tp.GatherRows(w, idx)
	loss := tp.SumAll(g)
	idx[0], idx[1], idx[2] = 1, 1, 1 // caller reuses its scratch
	tp.Backward(loss)

	// Row 2 gathered twice, row 0 once, rows 1 and 3 never.
	wantRow := []float64{1, 0, 2, 0} // grad multiplicity per row
	for r := 0; r < 4; r++ {
		var s float64
		for c := 0; c < 3; c++ {
			s += w.Grad.Data[r*3+c]
		}
		if s != wantRow[r]*3 {
			t.Fatalf("row %d grad sum %v, want %v", r, s, wantRow[r]*3)
		}
	}
}

// TestShareParamAliasesValues: ShareParam clones must see weight updates
// but keep gradients private.
func TestShareParamAliasesValues(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := XavierParam(rng, 2, 2)
	q := ShareParam(p)
	p.Val.Data[0] = 42
	if q.Val.Data[0] != 42 {
		t.Fatal("ShareParam does not alias value storage")
	}
	q.Grad.Data[0] = 1
	if p.Grad.Data[0] == 1 {
		t.Fatal("ShareParam shares gradient storage; must be private")
	}
	if !q.NeedsGrad() {
		t.Fatal("ShareParam clone must require gradients")
	}
}

// BenchmarkTapeReuse measures a forward+backward+reset cycle on a reused
// arena tape versus fresh plain tapes — the micro-scale version of the
// train-step benchmarks in internal/core — on arenaFixture's 32×16 input
// and 16×8 weight.
func BenchmarkTapeReuse(b *testing.B) {
	x, w, bias := arenaFixture()
	b.Run("32x16x8/reusable", func(b *testing.B) {
		tp := NewReusableTape()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			loss := buildGraph(tp, x, w, bias)
			tp.Backward(loss)
			tp.Reset()
		}
	})
	b.Run("32x16x8/fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tp := NewTape()
			loss := buildGraph(tp, x, w, bias)
			tp.Backward(loss)
		}
	})
}
