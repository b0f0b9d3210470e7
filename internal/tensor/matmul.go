package tensor

// Cache-blocking factors for the matmul kernels. Blocks are chosen so the
// streamed panel of the second operand (matmulKBlock rows of B, or
// matmulJBlock rows of B for the ABᵀ kernel) stays resident in L1/L2 while
// an output row panel is swept. Blocking never reorders the per-element
// summation: every output element still accumulates its k-terms in
// ascending order, so blocked results are bit-identical to the naive
// triple loop — a property the checkpoint/resume determinism tests rely on.
const (
	matmulKBlock = 64
	matmulJBlock = 64
)

// matMulAcc is dst += a × b; k-blocked, (k-block, i, j-tile, k) order.
func matMulAcc(dst, a, b *Dense) {
	d, ad, bd := dst.Data, a.Data, b.Data
	rows, kd, n := a.Rows, a.Cols, b.Cols
	for k0 := 0; k0 < kd; k0 += matmulKBlock {
		k1 := min(k0+matmulKBlock, kd)
		for i := 0; i < rows; i++ {
			macRow(d[i*n:(i+1)*n], ad[i*kd+k0:i*kd+k1], bd[k0*n:], n)
		}
	}
}

// macRow computes drow += arow × b for one output row, where b holds
// len(arow) rows of stride n. The row is swept in register tiles of 8, then
// 4, then single columns: a tile's accumulators are loaded from drow once,
// live in locals across the whole k loop and are stored once, so the inner
// loop is one load of a, one test and a run of multiply-adds with no store
// and no bounds check on the tile. Every accumulator starts from drow, adds
// its k-terms in ascending order and skips exactly the terms with
// arow[k] == 0 (so 0·Inf never enters a sum the naive loop keeps finite):
// bit-identical to the naive triple loop.
func macRow(drow, arow, b []float64, n int) {
	j := 0
	for ; j+8 <= n; j += 8 {
		mac8((*[8]float64)(drow[j:]), arow, b[j:], n)
	}
	if j+4 <= n {
		mac4((*[4]float64)(drow[j:]), arow, b[j:], n)
		j += 4
	}
	if j < n {
		mac1(drow[j:n], arow, b[j:], n)
	}
}

// mac8 is the 8-column tile. The tile of b is taken as two 4-wide 3-index
// slices: each pins its length for the compiler (no per-element bounds
// checks), and the second slice's check splits the body into two basic
// blocks, which keeps 8 accumulators + 4 products inside amd64's 15 usable
// XMM registers — as one block the scheduler hoists all 8 products and
// spills two accumulators to the stack on every k.
func mac8(d *[8]float64, arow, b []float64, n int) {
	c0, c1, c2, c3, c4, c5, c6, c7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
	off := 0
	for _, aik := range arow {
		if aik != 0 {
			bt := b[off : off+4 : off+4]
			c0 += aik * bt[0]
			c1 += aik * bt[1]
			c2 += aik * bt[2]
			c3 += aik * bt[3]
			bt = b[off+4 : off+8 : off+8]
			c4 += aik * bt[0]
			c5 += aik * bt[1]
			c6 += aik * bt[2]
			c7 += aik * bt[3]
		}
		off += n
	}
	d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = c0, c1, c2, c3, c4, c5, c6, c7
}

func mac4(d *[4]float64, arow, b []float64, n int) {
	c0, c1, c2, c3 := d[0], d[1], d[2], d[3]
	off := 0
	for _, aik := range arow {
		if aik != 0 {
			bt := b[off : off+4 : off+4]
			c0 += aik * bt[0]
			c1 += aik * bt[1]
			c2 += aik * bt[2]
			c3 += aik * bt[3]
		}
		off += n
	}
	d[0], d[1], d[2], d[3] = c0, c1, c2, c3
}

// mac1 finishes the last len(d) < 4 columns of a row one at a time.
func mac1(d, arow, b []float64, n int) {
	for j := range d {
		c := d[j]
		off := j
		for _, aik := range arow {
			if aik != 0 {
				c += aik * b[off]
			}
			off += n
		}
		d[j] = c
	}
}

// atbAcc is dst += aᵀ × b: matMulAcc with a read transposed. The summation
// index is a's row k; per k-block, column i of a is gathered into a stack
// buffer and swept with the same tiles, in ascending k.
func atbAcc(dst, a, b *Dense) {
	var col [matmulKBlock]float64
	n := b.Cols
	for k0 := 0; k0 < a.Rows; k0 += matmulKBlock {
		acol := col[:min(matmulKBlock, a.Rows-k0)]
		for i := 0; i < a.Cols; i++ {
			for k := range acol {
				acol[k] = a.Data[(k0+k)*a.Cols+i]
			}
			macRow(dst.Data[i*n:(i+1)*n], acol, b.Data[k0*n:], n)
		}
	}
}

// abtAcc is dst += a × bᵀ, j-blocked so a panel of b rows stays cached while
// the output rows sweep. Each dot product accumulates in a register over the
// full k range before the single add into dst, as the naive loop rounds. It
// tiles 4 dot products at a time (then singles): four independent
// ascending-k chains instead of one hide the add latency, and four is what
// fits the register file next to their products (8 measured slower). No
// zero-skip here, as in the naive loop.
func abtAcc(dst, a, b *Dense) {
	kd := a.Cols
	for j0 := 0; j0 < b.Rows; j0 += matmulJBlock {
		j1 := min(j0+matmulJBlock, b.Rows)
		for i := 0; i < a.Rows; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			j := j0
			for ; j+4 <= j1; j += 4 {
				dot4((*[4]float64)(drow[j:]), arow, b.Data[j*kd:(j+4)*kd])
			}
			for ; j < j1; j++ {
				brow := b.Row(j)
				var s float64
				for k, av := range arow {
					s += av * brow[k]
				}
				drow[j] += s
			}
		}
	}
}

// dot4 adds arow · (4 consecutive rows of b) into d.
func dot4(d *[4]float64, arow, b []float64) {
	kd := len(arow)
	b0, b1, b2, b3 := b[:kd], b[kd:2*kd], b[2*kd:3*kd], b[3*kd:4*kd]
	var s0, s1, s2, s3 float64
	for k, av := range arow {
		s0 += av * b0[k]
		s1 += av * b1[k]
		s2 += av * b2[k]
		s3 += av * b3[k]
	}
	d[0] += s0
	d[1] += s1
	d[2] += s2
	d[3] += s3
}
