package tensor

import (
	"fmt"
	"math"
)

// This file is the float32 half of the serving-precision split: training and
// the differentiable path stay float64 end to end, while inference can run
// on float32 storage and arithmetic (half the memory traffic, which is what
// dominates KDL-scale forward passes). Float32 values never flow back into
// training state.
//
// Conversion discipline: float64 → float32 narrowing can silently overflow
// to ±Inf (any finite |v| ≥ 3.4028235677973366e38, the round-to-nearest
// boundary past MaxFloat32). Convert32 rejects that with a typed error —
// model weights are small and an overflow means the checkpoint is corrupt —
// while Clamp32 saturates to ±MaxFloat32 for request-path quantities
// (demands, capacities) where serving must not fail on an extreme but legal
// input. Non-finite inputs are passed through unchanged in both: NaN/Inf
// detection is the health guards' job, not the converter's.

// Dense32 is a row-major float32 matrix, the inference-precision mirror of
// Dense. It supports only the forward kernels the float32 serving path
// needs; nothing in this type participates in autograd.
type Dense32 struct {
	Rows, Cols int
	Data       []float32
}

// New32 returns a zero-initialized Rows×Cols float32 matrix.
func New32(rows, cols int) *Dense32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Dense32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns a view (not a copy) of row i.
func (m *Dense32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// At returns the element at row i, column j.
func (m *Dense32) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Zero sets every element to 0.
func (m *Dense32) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// ToDense widens into a fresh float64 matrix. Widening is exact, so the
// result round-trips bit-for-bit through ConvertDense32.
func (m *Dense32) ToDense() *Dense {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// WidenInto writes float64(m) into dst (same shape).
func (m *Dense32) WidenInto(dst *Dense) {
	if dst.Rows != m.Rows || dst.Cols != m.Cols {
		panic("tensor: WidenInto shape mismatch")
	}
	for i, v := range m.Data {
		dst.Data[i] = float64(v)
	}
}

// Float32OverflowError reports a finite float64 that narrows to ±Inf in
// float32. Index is the flat position in the source slice.
type Float32OverflowError struct {
	Index int
	Value float64
}

func (e *Float32OverflowError) Error() string {
	return fmt.Sprintf("tensor: float64 value %g at index %d overflows float32", e.Value, e.Index)
}

// Convert32 narrows src into dst (equal length), returning a typed
// *Float32OverflowError for the first finite value that would narrow to
// ±Inf. Non-finite inputs (NaN, ±Inf) pass through unchanged — rejecting
// them is the caller's health-guard policy, not a conversion concern.
func Convert32(dst []float32, src []float64) error {
	if len(dst) != len(src) {
		panic("tensor: Convert32 length mismatch")
	}
	for i, v := range src {
		f := float32(v)
		if math.IsInf(float64(f), 0) && !math.IsInf(v, 0) {
			return &Float32OverflowError{Index: i, Value: v}
		}
		dst[i] = f
	}
	return nil
}

// Clamp32 narrows src into dst, saturating finite overflow to
// ±MaxFloat32 instead of failing. Non-finite inputs pass through.
func Clamp32(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: Clamp32 length mismatch")
	}
	for i, v := range src {
		f := float32(v)
		if math.IsInf(float64(f), 0) && !math.IsInf(v, 0) {
			if v > 0 {
				f = math.MaxFloat32
			} else {
				f = -math.MaxFloat32
			}
		}
		dst[i] = f
	}
}

// ConvertDense32 narrows a float64 matrix with overflow rejection.
func ConvertDense32(src *Dense) (*Dense32, error) {
	out := New32(src.Rows, src.Cols)
	if err := Convert32(out.Data, src.Data); err != nil {
		return nil, err
	}
	return out, nil
}

// ClampDense32 narrows a float64 matrix, saturating finite overflow.
func ClampDense32(src *Dense) *Dense32 {
	out := New32(src.Rows, src.Cols)
	Clamp32(out.Data, src.Data)
	return out
}

// ---- float32 forward kernels ----
//
// The float32 kernels accumulate in float32 on purpose: the point of the
// precision mode is to measure and bound what half-width arithmetic does to
// the model's answers (the verify precision oracle), not to hide it behind
// float64 accumulators.

// MatMulAcc32 computes dst += a × b without zeroing dst, on the same
// register-tiled kernel as Dense (ascending-k accumulation, zero-skip).
func MatMulAcc32(dst, a, b *Dense32) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulAcc32 shape mismatch (%dx%d)x(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	matMulAccRange(dst.Data, a.Data, b.Data, a.Cols, b.Cols, 0, a.Rows)
}

// MatMul32 computes dst = a × b.
func MatMul32(dst, a, b *Dense32) {
	dst.Zero()
	MatMulAcc32(dst, a, b)
}

// MatMulABT32 computes dst = a × bᵀ (dst is a.Rows×b.Rows) — the attention
// score kernel.
func MatMulABT32(dst, a, b *Dense32) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulABT32 shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float32
			for k := range arow {
				s += arow[k] * brow[k]
			}
			drow[j] = s
		}
	}
}

// AddRowVecInto32 computes dst = a + v broadcast over rows (v is 1×Cols).
// dst may alias a.
func AddRowVecInto32(dst, a, v *Dense32) {
	if v.Rows != 1 || v.Cols != a.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("tensor: AddRowVecInto32 shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = arow[j] + v.Data[j]
		}
	}
}

// SoftmaxRow32 is the float32 mirror of SoftmaxRow, preserving the guarded
// masked-row semantics exactly: empty rows are a no-op, all-(-Inf) rows
// become all-zero rows (never NaN), +Inf logits split mass uniformly over
// the +Inf entries, and NaN propagates. dst and src may alias.
func SoftmaxRow32(dst, src []float32) {
	if len(src) == 0 {
		return
	}
	m := src[0]
	for _, v := range src[1:] {
		if v > m {
			m = v
		}
	}
	if math.IsInf(float64(m), -1) {
		for j := range dst {
			dst[j] = 0
		}
		return
	}
	if math.IsInf(float64(m), 1) {
		n := 0
		for _, v := range src {
			if math.IsInf(float64(v), 1) {
				n++
			}
		}
		w := 1 / float32(n)
		for j, v := range src {
			if math.IsInf(float64(v), 1) {
				dst[j] = w
			} else {
				dst[j] = 0
			}
		}
		return
	}
	var s float32
	for j, v := range src {
		e := float32(math.Exp(float64(v - m)))
		dst[j] = e
		s += e
	}
	for j := range dst {
		dst[j] /= s
	}
}

// ---- scratch arena ----

// Arena32 is a shape-keyed checkout pool for Dense32 scratch, the float32
// mirror of the autograd tape arena's buffer pooling: Get hands out a
// possibly dirty buffer (callers fully overwrite or GetZeroed), Reset makes
// every buffer available again. Steady-state use allocates nothing. Not
// safe for concurrent use; serving pools whole engines, one per goroutine.
type Arena32 struct {
	pools map[int64][]*Dense32
	next  map[int64]int
	ints  map[int][][]int
	intN  map[int]int
}

// NewArena32 returns an empty arena.
func NewArena32() *Arena32 {
	return &Arena32{
		pools: make(map[int64][]*Dense32),
		next:  make(map[int64]int),
		ints:  make(map[int][][]int),
		intN:  make(map[int]int),
	}
}

func shapeKey32(rows, cols int) int64 { return int64(rows)<<32 | int64(uint32(cols)) }

// Get returns a rows×cols buffer with unspecified contents, valid until
// Reset.
func (a *Arena32) Get(rows, cols int) *Dense32 {
	k := shapeKey32(rows, cols)
	n := a.next[k]
	pool := a.pools[k]
	if n < len(pool) {
		a.next[k] = n + 1
		return pool[n]
	}
	d := New32(rows, cols)
	a.pools[k] = append(pool, d)
	a.next[k] = n + 1
	return d
}

// GetZeroed returns a zeroed rows×cols buffer, valid until Reset.
func (a *Arena32) GetZeroed(rows, cols int) *Dense32 {
	d := a.Get(rows, cols)
	d.Zero()
	return d
}

// Ints returns a length-n scratch int slice with unspecified contents,
// valid until Reset.
func (a *Arena32) Ints(n int) []int {
	i := a.intN[n]
	pool := a.ints[n]
	if i < len(pool) {
		a.intN[n] = i + 1
		return pool[i]
	}
	s := make([]int, n)
	a.ints[n] = append(pool, s)
	a.intN[n] = i + 1
	return s
}

// Reset recycles every buffer the arena has handed out. Outstanding
// references become invalid.
func (a *Arena32) Reset() {
	for k := range a.next {
		a.next[k] = 0
	}
	for k := range a.intN {
		a.intN[k] = 0
	}
}
