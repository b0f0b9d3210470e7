package tensor

import "fmt"

// CSR is a compressed-sparse-row matrix used for constant structural
// operators: GCN-normalized adjacency, tunnel-edge incidence, and the like.
// CSR matrices never carry gradients; they multiply dense activations.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	ColIdx     []int
	Val        []float64
}

// COO is a coordinate-format triple used to build CSR matrices.
type COO struct {
	Row, Col int
	Val      float64
}

// CSRBoundsError is the typed error NewCSRChecked returns for an entry
// outside the declared shape (or a negative shape). Carrying the offending
// coordinates lets parsers attribute the failure to their input instead of
// panicking deep inside a kernel.
type CSRBoundsError struct {
	Row, Col   int // offending entry (-1,-1 for a bad shape)
	Rows, Cols int // declared shape
}

func (e *CSRBoundsError) Error() string {
	if e.Row < 0 && e.Col < 0 {
		return fmt.Sprintf("tensor: invalid CSR shape %dx%d", e.Rows, e.Cols)
	}
	return fmt.Sprintf("tensor: CSR entry (%d,%d) out of bounds %dx%d", e.Row, e.Col, e.Rows, e.Cols)
}

// NewCSR builds a CSR matrix from coordinate entries. Duplicate (row,col)
// entries are summed and unsorted entries are normalized (each row ends up
// with strictly increasing column indices) — COO input is never trusted to
// be canonical. Out-of-bounds entries panic; use NewCSRChecked when the
// entries come from untrusted input.
func NewCSR(rows, cols int, entries []COO) *CSR {
	c, err := NewCSRChecked(rows, cols, entries)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// NewCSRChecked is NewCSR with a typed error instead of a panic for
// out-of-bounds entries or a negative shape. The same normalization
// applies: duplicates summed, columns sorted per row, empty rows valid.
func NewCSRChecked(rows, cols int, entries []COO) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, &CSRBoundsError{Row: -1, Col: -1, Rows: rows, Cols: cols}
	}
	counts := make([]int, rows+1)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, &CSRBoundsError{Row: e.Row, Col: e.Col, Rows: rows, Cols: cols}
		}
		counts[e.Row+1]++
	}
	for i := 0; i < rows; i++ {
		counts[i+1] += counts[i]
	}
	colIdx := make([]int, len(entries))
	val := make([]float64, len(entries))
	next := make([]int, rows)
	copy(next, counts[:rows])
	for _, e := range entries {
		p := next[e.Row]
		colIdx[p] = e.Col
		val[p] = e.Val
		next[e.Row]++
	}
	c := &CSR{Rows: rows, Cols: cols, RowPtr: counts, ColIdx: colIdx, Val: val}
	c.sumDuplicates()
	return c, nil
}

// Validate checks the structural invariants every kernel in this file
// assumes: RowPtr has Rows+1 monotone entries bracketing ColIdx/Val, and
// each row's column indices are strictly increasing and in range. NewCSR
// output always validates; this is the defense for CSR values assembled by
// hand or deserialized.
func (c *CSR) Validate() error {
	if c.Rows < 0 || c.Cols < 0 {
		return &CSRBoundsError{Row: -1, Col: -1, Rows: c.Rows, Cols: c.Cols}
	}
	if len(c.RowPtr) != c.Rows+1 {
		return fmt.Errorf("tensor: CSR RowPtr length %d, want %d", len(c.RowPtr), c.Rows+1)
	}
	if len(c.ColIdx) != len(c.Val) {
		return fmt.Errorf("tensor: CSR ColIdx/Val length mismatch %d vs %d", len(c.ColIdx), len(c.Val))
	}
	if c.RowPtr[0] != 0 || c.RowPtr[c.Rows] != len(c.ColIdx) {
		return fmt.Errorf("tensor: CSR RowPtr bounds [%d,%d], want [0,%d]", c.RowPtr[0], c.RowPtr[c.Rows], len(c.ColIdx))
	}
	for i := 0; i < c.Rows; i++ {
		if c.RowPtr[i] > c.RowPtr[i+1] {
			return fmt.Errorf("tensor: CSR RowPtr not monotone at row %d", i)
		}
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			if c.ColIdx[p] < 0 || c.ColIdx[p] >= c.Cols {
				return &CSRBoundsError{Row: i, Col: c.ColIdx[p], Rows: c.Rows, Cols: c.Cols}
			}
			if p > c.RowPtr[i] && c.ColIdx[p] <= c.ColIdx[p-1] {
				return fmt.Errorf("tensor: CSR row %d columns not strictly increasing", i)
			}
		}
	}
	return nil
}

// sumDuplicates sorts each row by column and merges repeated column indices
// (rows are short in our graphs, so insertion sort is fine).
func (c *CSR) sumDuplicates() {
	outPtr := make([]int, c.Rows+1)
	outCol := make([]int, 0, len(c.ColIdx))
	outVal := make([]float64, 0, len(c.Val))
	for i := 0; i < c.Rows; i++ {
		start, end := c.RowPtr[i], c.RowPtr[i+1]
		cols := c.ColIdx[start:end]
		vals := c.Val[start:end]
		for a := 1; a < len(cols); a++ {
			for b := a; b > 0 && cols[b] < cols[b-1]; b-- {
				cols[b], cols[b-1] = cols[b-1], cols[b]
				vals[b], vals[b-1] = vals[b-1], vals[b]
			}
		}
		for a := 0; a < len(cols); {
			col, v := cols[a], vals[a]
			a++
			for a < len(cols) && cols[a] == col {
				v += vals[a]
				a++
			}
			outCol = append(outCol, col)
			outVal = append(outVal, v)
		}
		outPtr[i+1] = len(outCol)
	}
	c.RowPtr = outPtr
	c.ColIdx = outCol
	c.Val = outVal
}

// MulDense computes dst = C × x for dense x. dst must be C.Rows×x.Cols and
// must not alias x.
func (c *CSR) MulDense(dst, x *Dense) {
	if c.Cols != x.Rows || dst.Rows != c.Rows || dst.Cols != x.Cols {
		panic("tensor: CSR MulDense shape mismatch")
	}
	dst.Zero()
	for i := 0; i < c.Rows; i++ {
		drow := dst.Row(i)
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			v := c.Val[p]
			xrow := x.Row(c.ColIdx[p])
			for j := range drow {
				drow[j] += v * xrow[j]
			}
		}
	}
}

// MulDenseT computes dst = Cᵀ × x. dst must be C.Cols×x.Cols and must not
// alias x. This is the adjoint used in backward passes.
func (c *CSR) MulDenseT(dst, x *Dense) {
	if c.Rows != x.Rows || dst.Rows != c.Cols || dst.Cols != x.Cols {
		panic("tensor: CSR MulDenseT shape mismatch")
	}
	dst.Zero()
	for i := 0; i < c.Rows; i++ {
		xrow := x.Row(i)
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			v := c.Val[p]
			drow := dst.Row(c.ColIdx[p])
			for j := range xrow {
				drow[j] += v * xrow[j]
			}
		}
	}
}

// NNZ returns the number of stored entries.
func (c *CSR) NNZ() int { return len(c.Val) }

// E is a convenience constructor for a COO entry.
func E(row, col int, val float64) COO { return COO{Row: row, Col: col, Val: val} }

// MulDenseAcc computes dst += C × x without zeroing dst first — the
// adjoint of MulDenseT, used by the CSRMulT backward.
func (c *CSR) MulDenseAcc(dst, x *Dense) {
	if c.Cols != x.Rows || dst.Rows != c.Rows || dst.Cols != x.Cols {
		panic("tensor: CSR MulDenseAcc shape mismatch")
	}
	for i := 0; i < c.Rows; i++ {
		drow := dst.Row(i)
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			v := c.Val[p]
			xrow := x.Row(c.ColIdx[p])
			for j := range drow {
				drow[j] += v * xrow[j]
			}
		}
	}
}

// MulDenseTAcc computes dst += Cᵀ × x without zeroing dst first.
func (c *CSR) MulDenseTAcc(dst, x *Dense) {
	if c.Rows != x.Rows || dst.Rows != c.Cols || dst.Cols != x.Cols {
		panic("tensor: CSR MulDenseTAcc shape mismatch")
	}
	for i := 0; i < c.Rows; i++ {
		xrow := x.Row(i)
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			v := c.Val[p]
			drow := dst.Row(c.ColIdx[p])
			for j := range xrow {
				drow[j] += v * xrow[j]
			}
		}
	}
}
