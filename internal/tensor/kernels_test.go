package tensor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulAccAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	a, b := randDense(rng, 3, 4), randDense(rng, 4, 2)
	dst := New(3, 2)
	dst.Fill(1)
	MatMulAcc(dst, a, b)
	want := New(3, 2)
	MatMul(want, a, b)
	for i := range want.Data {
		want.Data[i]++
	}
	if !Equal(dst, want, 1e-12) {
		t.Fatal("MatMulAcc did not accumulate onto existing values")
	}
}

func TestMatMulATBAccMatchesZeroedVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a, b := randDense(rng, 5, 3), randDense(rng, 5, 4)
	acc := New(3, 4)
	MatMulATBAcc(acc, a, b)
	want := New(3, 4)
	MatMulATB(want, a, b)
	if !Equal(acc, want, 1e-12) {
		t.Fatal("ATBAcc on zeroed dst must equal ATB")
	}
}

func TestMatMulABTAccMatchesZeroedVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a, b := randDense(rng, 4, 6), randDense(rng, 3, 6)
	acc := New(4, 3)
	MatMulABTAcc(acc, a, b)
	want := New(4, 3)
	MatMulABT(want, a, b)
	if !Equal(acc, want, 1e-12) {
		t.Fatal("ABTAcc on zeroed dst must equal ABT")
	}
}

func TestAccKernelShapePanics(t *testing.T) {
	for i, f := range []func(){
		func() { MatMulAcc(New(2, 2), New(2, 3), New(2, 2)) },
		func() { MatMulATBAcc(New(2, 2), New(3, 2), New(4, 2)) },
		func() { MatMulABTAcc(New(2, 2), New(2, 3), New(2, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// Distributivity: (A+B)×C == A×C + B×C.
func TestMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a1, a2 := randDense(rng, m, k), randDense(rng, m, k)
		c := randDense(rng, k, n)
		sum := New(m, k)
		AddInto(sum, a1, a2)
		left := New(m, n)
		MatMul(left, sum, c)
		r1, r2 := New(m, n), New(m, n)
		MatMul(r1, a1, c)
		MatMul(r2, a2, c)
		right := New(m, n)
		AddInto(right, r1, r2)
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Transpose identity: (A×B)ᵀ == Bᵀ×Aᵀ, exercised through the ABT/ATB kernels.
func TestMatMulTransposeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a, b := randDense(rng, 3, 5), randDense(rng, 5, 4)
	ab := New(3, 4)
	MatMul(ab, a, b)
	// Bᵀ×Aᵀ via MatMulABT on transposed operands.
	bt, at := Transpose(b), Transpose(a)
	btat := New(4, 3)
	MatMul(btat, bt, at)
	if !Equal(Transpose(ab), btat, 1e-9) {
		t.Fatal("(AB)^T != B^T A^T")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 2)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestRowIsView(t *testing.T) {
	a := New(2, 3)
	a.Row(1)[2] = 7
	if a.At(1, 2) != 7 {
		t.Fatal("Row must be a view")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if Equal(New(1, 2), New(2, 1), 1) {
		t.Fatal("different shapes must not be Equal")
	}
}

func TestMaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 0).Max()
}

func TestCSRMulDenseTAccAccumulates(t *testing.T) {
	c := NewCSR(2, 3, []COO{E(0, 0, 2), E(1, 2, 3)})
	x := FromSlice(2, 1, []float64{1, 1})
	dst := New(3, 1)
	dst.Fill(10)
	c.MulDenseTAcc(dst, x)
	if dst.Data[0] != 12 || dst.Data[2] != 13 || dst.Data[1] != 10 {
		t.Fatalf("got %v", dst.Data)
	}
}

func TestCSREmptyRows(t *testing.T) {
	c := NewCSR(3, 3, nil)
	if c.NNZ() != 0 {
		t.Fatal("empty CSR should have no entries")
	}
	dst := New(3, 1)
	c.MulDense(dst, New(3, 1))
	if dst.Sum() != 0 {
		t.Fatal("empty CSR must produce zeros")
	}
}

func TestCSROutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCSR(2, 2, []COO{E(2, 0, 1)})
}

func TestScaleIntoAliasSafe(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	ScaleInto(a, a, 2)
	if a.Data[2] != 6 {
		t.Fatal("in-place scale broken")
	}
}

func TestNormZero(t *testing.T) {
	if New(2, 2).Norm2() != 0 {
		t.Fatal("zero matrix norm")
	}
	if math.IsNaN(New(0, 0).Norm2()) {
		t.Fatal("empty norm NaN")
	}
}

func TestCSRCheckedTypedErrors(t *testing.T) {
	cases := []struct {
		rows, cols int
		entries    []COO
	}{
		{-1, 3, nil},
		{3, -2, nil},
		{3, 3, []COO{E(3, 0, 1)}},
		{3, 3, []COO{E(0, 3, 1)}},
		{3, 3, []COO{E(-1, 0, 1)}},
		{0, 0, []COO{E(0, 0, 1)}},
	}
	for _, tc := range cases {
		_, err := NewCSRChecked(tc.rows, tc.cols, tc.entries)
		var be *CSRBoundsError
		if !errors.As(err, &be) {
			t.Fatalf("NewCSRChecked(%d,%d,%v) err=%v, want *CSRBoundsError", tc.rows, tc.cols, tc.entries, err)
		}
	}
	// Empty matrix with no entries is legal.
	c, err := NewCSRChecked(0, 0, nil)
	if err != nil || c.NNZ() != 0 {
		t.Fatalf("empty CSR rejected: %v", err)
	}
}

func TestCSRValidateCatchesCorruption(t *testing.T) {
	good := NewCSR(2, 3, []COO{E(0, 0, 1), E(0, 2, 2), E(1, 1, 3)})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid CSR rejected: %v", err)
	}
	corrupt := []func(*CSR){
		func(c *CSR) { c.RowPtr = c.RowPtr[:len(c.RowPtr)-1] },
		func(c *CSR) { c.RowPtr[1] = 5 },
		func(c *CSR) { c.ColIdx[1] = 0 }, // duplicates column 0 in row 0
		func(c *CSR) { c.ColIdx[2] = 9 },
		func(c *CSR) { c.Val = c.Val[:2] },
	}
	for i, mut := range corrupt {
		c := NewCSR(2, 3, []COO{E(0, 0, 1), E(0, 2, 2), E(1, 1, 3)})
		mut(c)
		if err := c.Validate(); err == nil {
			t.Fatalf("corruption %d not caught", i)
		}
	}
}

func TestMulDenseAccAccumulates(t *testing.T) {
	c := NewCSR(2, 3, []COO{E(0, 0, 2), E(1, 2, -1)})
	x := New(3, 2)
	for i := range x.Data {
		x.Data[i] = float64(i + 1)
	}
	base := New(2, 2)
	for i := range base.Data {
		base.Data[i] = 10
	}
	dst := New(2, 2)
	copy(dst.Data, base.Data)
	c.MulDenseAcc(dst, x)
	prod := New(2, 2)
	c.MulDense(prod, x)
	for i := range dst.Data {
		if dst.Data[i] != base.Data[i]+prod.Data[i] {
			t.Fatalf("MulDenseAcc wrong at %d: %v, want %v", i, dst.Data[i], base.Data[i]+prod.Data[i])
		}
	}
}
