// Package tensor provides dense, row-major 2-D float64 matrices and the
// numeric kernels used by the autograd engine and neural layers.
//
// The package is intentionally minimal: HARP and the baseline models only
// need 2-D algebra (vectors are 1×n or n×1 matrices). All kernels are
// allocation-free when the caller supplies the destination, which keeps the
// training loops garbage-friendly.
package tensor

import (
	"fmt"
	"math"
)

// Dense is a row-major matrix with Rows×Cols entries.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zero-initialized Rows×Cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a Rows×Cols matrix.
func FromSlice(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// RowRange returns rows [lo, hi) of m as a view (shared backing array, no
// copy). It returns the header by value: no kernel keeps a pointer to an
// argument, so a caller that takes its address at a call allocates nothing.
func (m *Dense) RowRange(lo, hi int) Dense {
	return Dense{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether a and b have identical dimensions.
func SameShape(a, b *Dense) bool { return a.Rows == b.Rows && a.Cols == b.Cols }

// MatMul computes dst = a × b. dst must be a.Rows×b.Cols and must not alias
// a or b. The kernel is k-blocked and register-tiled but accumulates each
// element's terms in ascending-k order, so results are bit-identical to the
// naive triple loop. It runs on the calling goroutine and keeps no pointer
// to its arguments: a view header passed by address stays on the caller's
// stack.
func MatMul(dst, a, b *Dense) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)x(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	matMulAcc(dst, a, b)
}

// MatMulATB computes dst = aᵀ × b (dst is a.Cols×b.Cols).
func MatMulATB(dst, a, b *Dense) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: MatMulATB shape mismatch")
	}
	dst.Zero()
	atbAcc(dst, a, b)
}

// MatMulABT computes dst = a × bᵀ (dst is a.Rows×b.Rows).
func MatMulABT(dst, a, b *Dense) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulABT shape mismatch")
	}
	dst.Zero()
	abtAcc(dst, a, b)
}

// AddInto computes dst = a + b elementwise. dst may alias a or b.
func AddInto(dst, a, b *Dense) {
	checkSame3(dst, a, b, "AddInto")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// SubInto computes dst = a - b elementwise. dst may alias a or b.
func SubInto(dst, a, b *Dense) {
	checkSame3(dst, a, b, "SubInto")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// MulInto computes dst = a ⊙ b (Hadamard). dst may alias a or b.
func MulInto(dst, a, b *Dense) {
	checkSame3(dst, a, b, "MulInto")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

// ScaleInto computes dst = s·a. dst may alias a.
func ScaleInto(dst, a *Dense, s float64) {
	if !SameShape(dst, a) {
		panic("tensor: ScaleInto shape mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] = s * a.Data[i]
	}
}

// ReLUInto computes dst = max(a, 0) elementwise. dst may alias a. The test
// is v < 0, so -0 and NaN pass through unchanged.
func ReLUInto(dst, a *Dense) {
	if !SameShape(dst, a) {
		panic("tensor: ReLUInto shape mismatch")
	}
	out := dst.Data[:len(a.Data)]
	for i, v := range a.Data {
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
}

// AxpyInto computes dst += s·a.
func AxpyInto(dst, a *Dense, s float64) {
	if !SameShape(dst, a) {
		panic("tensor: AxpyInto shape mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] += s * a.Data[i]
	}
}

// AddRowVecInto computes dst = a + 1·vᵀ, broadcasting the 1×Cols row vector v
// over every row of a.
func AddRowVecInto(dst, a, v *Dense) {
	if v.Rows != 1 || v.Cols != a.Cols || !SameShape(dst, a) {
		panic("tensor: AddRowVecInto shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = arow[j] + v.Data[j]
		}
	}
}

// Transpose returns aᵀ as a new matrix.
func Transpose(a *Dense) *Dense {
	out := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j*out.Cols+i] = a.Data[i*a.Cols+j]
		}
	}
	return out
}

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Max returns the maximum element and its flat index. It panics on an empty
// matrix.
func (m *Dense) Max() (float64, int) {
	if len(m.Data) == 0 {
		panic("tensor: Max of empty matrix")
	}
	best, idx := m.Data[0], 0
	for i, v := range m.Data {
		if v > best {
			best, idx = v, i
		}
	}
	return best, idx
}

// Norm2 returns the Frobenius norm.
func (m *Dense) Norm2() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports whether a and b have the same shape and all entries within
// tol of one another.
func Equal(a, b *Dense, tol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func checkSame3(a, b, c *Dense, op string) {
	if !SameShape(a, b) || !SameShape(b, c) {
		panic("tensor: " + op + " shape mismatch")
	}
}

// MatMulAcc computes dst += a × b without zeroing dst first.
func MatMulAcc(dst, a, b *Dense) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMulAcc shape mismatch")
	}
	matMulAcc(dst, a, b)
}

// MatMulATBAcc computes dst += aᵀ × b without zeroing dst first.
func MatMulATBAcc(dst, a, b *Dense) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: MatMulATBAcc shape mismatch")
	}
	atbAcc(dst, a, b)
}

// MatMulABTAcc computes dst += a × bᵀ without zeroing dst first.
func MatMulABTAcc(dst, a, b *Dense) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulABTAcc shape mismatch")
	}
	abtAcc(dst, a, b)
}
