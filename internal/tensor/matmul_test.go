package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveMatMulAcc is the reference (i,k,j) triple loop the blocked kernels
// must match bit-for-bit (same ascending-k summation order per element).
func naiveMatMulAcc(dst, a, b *Dense) {
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				dst.Data[i*dst.Cols+j] += aik * b.At(k, j)
			}
		}
	}
}

func naiveATBAcc(dst, a, b *Dense) {
	for k := 0; k < a.Rows; k++ {
		for i := 0; i < a.Cols; i++ {
			aki := a.At(k, i)
			if aki == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				dst.Data[i*dst.Cols+j] += aki * b.At(k, j)
			}
		}
	}
}

func naiveABTAcc(dst, a, b *Dense) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			dst.Data[i*dst.Cols+j] += s
		}
	}
}

func bitIdentical(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if !SameShape(got, want) {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		g, w := got.Data[i], want.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, g, w)
		}
	}
}

// checkKernelsAgainstNaive runs all four kernels on an m×k·k×n problem and
// compares each with its naive reference bit for bit. a gets zeros of both
// signs so the zero-skip branch is covered; with nonFinite, the second
// operands also get ±0, ±Inf and NaN, which land under zero and non-zero
// multiplicands alike — the skip decides whether 0·Inf poisons a sum.
func checkKernelsAgainstNaive(t *testing.T, rng *rand.Rand, m, k, n int, nonFinite bool) {
	t.Helper()
	operand := func(rows, cols int) *Dense {
		d := benchDense(rng, rows, cols)
		if nonFinite {
			special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
			for i := 0; i < len(d.Data); i += 3 {
				d.Data[i] = special[rng.Intn(len(special))]
			}
		}
		return d
	}
	a := benchDense(rng, m, k)
	for i := 0; i < len(a.Data); i += 7 {
		a.Data[i] = 0
	}
	for i := 3; i < len(a.Data); i += 11 {
		a.Data[i] = math.Copysign(0, -1)
	}
	name := func(kernel string) string {
		return fmt.Sprintf("%s %dx%dx%d nonFinite=%v", kernel, m, k, n, nonFinite)
	}

	b := operand(k, n)
	got, want := New(m, n), New(m, n)
	MatMul(got, a, b)
	naiveMatMulAcc(want, a, b)
	bitIdentical(t, name("MatMul"), got, want)

	got.Fill(0.5)
	want.Fill(0.5)
	MatMulAcc(got, a, b)
	naiveMatMulAcc(want, a, b)
	bitIdentical(t, name("MatMulAcc"), got, want)

	b2 := operand(m, n)
	gotT, wantT := New(k, n), New(k, n)
	gotT.Fill(0.25)
	wantT.Fill(0.25)
	MatMulATBAcc(gotT, a, b2)
	naiveATBAcc(wantT, a, b2)
	bitIdentical(t, name("MatMulATBAcc"), gotT, wantT)

	b3 := operand(n, k)
	gotB, wantB := New(m, n), New(m, n)
	gotB.Fill(-0.25)
	wantB.Fill(-0.25)
	MatMulABTAcc(gotB, a, b3)
	naiveABTAcc(wantB, a, b3)
	bitIdentical(t, name("MatMulABTAcc"), gotB, wantB)
}

// TestBlockedKernelsBitIdenticalToNaive checks the blocked, register-tiled
// kernels reproduce the naive loops exactly — not just within tolerance — at
// shapes spanning the block boundaries, at every column-tile remainder
// (8/4/1) and degenerate shape.
func TestBlockedKernelsBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 2}, {7, 64, 9}, {65, 63, 67}, {130, 200, 130},
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 24, 36} {
		for _, k := range []int{0, 1, 12, 29, 65} {
			shapes = append(shapes, [3]int{5, k, n}, [3]int{0, k, n})
		}
	}
	for _, s := range shapes {
		checkKernelsAgainstNaive(t, rng, s[0], s[1], s[2], false)
		checkKernelsAgainstNaive(t, rng, s[0], s[1], s[2], true)
	}
}

// TestMatMulZeroAllocs pins the kernels' allocation-free contract, and that
// none keeps a pointer to an argument: a row view taken as a local and passed
// by address stays on the caller's stack, which is what lets nn and core cut
// a view per segment.
func TestMatMulZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold without -race")
	}
	rng := rand.New(rand.NewSource(12))
	a := benchDense(rng, 32, 24)
	b := benchDense(rng, 24, 16)
	bt := benchDense(rng, 16, 24)
	dst := New(32, 16)
	dstT := New(24, 16)
	for name, fn := range map[string]func(){
		"MatMul":       func() { MatMul(dst, a, b) },
		"MatMulAcc":    func() { MatMulAcc(dst, a, b) },
		"MatMulATBAcc": func() { MatMulATBAcc(dstT, a, dst) },
		"MatMulABTAcc": func() { MatMulABTAcc(dst, a, bt) },
		"MatMul/views": func() {
			d, x, w := dst.RowRange(8, 24), a.RowRange(8, 24), b.RowRange(0, 24)
			MatMul(&d, &x, &w)
		},
		"MatMulAcc/views": func() {
			d, x, w := dst.RowRange(8, 24), a.RowRange(8, 24), b.RowRange(0, 24)
			MatMulAcc(&d, &x, &w)
		},
		"MatMulABT/views": func() {
			d, x, y := dst.RowRange(0, 16), a.RowRange(0, 16), bt.RowRange(0, 16)
			MatMulABT(&d, &x, &y)
		},
		"MatMulATBAcc/views": func() {
			d, x, y := dstT.RowRange(0, 24), a.RowRange(8, 24), dst.RowRange(8, 24)
			MatMulATBAcc(&d, &x, &y)
		},
	} {
		if n := testing.AllocsPerRun(10, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}
