// Package autograd implements a tape-based reverse-mode automatic
// differentiation engine over dense 2-D tensors.
//
// The design is define-by-run: every operation computes its value eagerly
// and appends a node to the Tape. Calling Tape.Backward walks the tape in
// reverse, dispatching on each node's operation kind to add its adjoint
// contribution into the parents' gradients. Because nodes are appended in
// execution order, the tape order is already a valid reverse topological
// order for backpropagation.
//
// Parameters (NewParam) and constants (NewConst) are leaves and never appear
// on the tape; their gradients (for parameters) accumulate across Backward
// calls until an optimizer consumes and zeroes them. This mirrors the
// PyTorch training loop HARP's reference implementation uses, which keeps
// the model code in internal/core close to the paper's description.
//
// Values are computed eagerly, so model code may inspect intermediate
// numeric values mid-forward (HARP's recurrent adjustment unit does this to
// locate per-tunnel bottleneck links) and use them to choose gather indices;
// gradients then flow through the chosen indices, which is exactly the
// subgradient semantics the paper's PyTorch implementation gets from
// advanced indexing.
//
// # Reusable tapes
//
// NewTape returns a plain tape: every recorded node and every value/gradient
// buffer is a fresh heap allocation, and Reset merely truncates the record.
// NewReusableTape returns a tape backed by an arena: Reset recycles all
// nodes and buffers, so the steady state of a train/serve loop that reuses
// one tape per worker allocates (almost) nothing. The two kinds are
// numerically bit-identical; the only behavioral difference is lifetime —
// values and gradients produced on a reusable tape are invalid after Reset,
// so callers must copy anything they keep (Model.Splits clones its output
// for exactly this reason).
package autograd

import (
	"fmt"
	"math"

	"harpte/internal/tensor"
)

// opKind identifies the operation a tape node performs. Backward is a
// switch on opKind rather than a stored closure so that recording a node
// costs no closure allocation and nodes can be pooled.
type opKind uint8

const (
	opLeaf opKind = iota
	opMatMul
	opAdd
	opSub
	opMul
	opDiv
	opScale
	opAddScalar
	opAddRow
	opReLU
	opLeakyReLU
	opTanh
	opSigmoid
	opConcatCols
	opConcatRows
	opGatherRows
	opReshape
	opRepeatRow
	opSumAll
	opMeanAll
	opMax
	opSmoothMax
	opSoftmaxRows
	opCSRMul
	opCSRMulT
	opSquash
	opLog1p
	opSliceCols
	opCustom
)

// Tensor is a node in the computation graph: a value, an optional gradient
// buffer, and (for non-leaf nodes) the operands its backward step needs.
type Tensor struct {
	Val      *tensor.Dense
	Grad     *tensor.Dense // allocated iff needGrad
	needGrad bool

	op      opKind
	a, b    *Tensor           // unary/binary parents
	parents []*Tensor         // variadic parents (concat, custom)
	s       float64           // scalar operand (scale factor, alpha, temp)
	f1, f2  float64           // saved forward statistics (smoothmax)
	i0, i1  int               // integer operands (slice bounds, argmax)
	idx     []int             // index operand (gather)
	csr     *tensor.CSR       // sparse operand
	backFn  func(out *Tensor) // opCustom adjoint
}

// Rows returns the number of rows of the value.
func (t *Tensor) Rows() int { return t.Val.Rows }

// Cols returns the number of columns of the value.
func (t *Tensor) Cols() int { return t.Val.Cols }

// NeedsGrad reports whether this tensor participates in differentiation.
func (t *Tensor) NeedsGrad() bool { return t.needGrad }

// ZeroGrad clears the accumulated gradient (no-op for non-grad tensors).
func (t *Tensor) ZeroGrad() {
	if t.Grad != nil {
		t.Grad.Zero()
	}
}

// NewParam wraps v as a trainable leaf. The caller retains ownership of v.
func NewParam(v *tensor.Dense) *Tensor {
	return &Tensor{Val: v, Grad: tensor.New(v.Rows, v.Cols), needGrad: true}
}

// NewConst wraps v as a non-trainable leaf.
func NewConst(v *tensor.Dense) *Tensor {
	return &Tensor{Val: v}
}

// ShareParam returns a trainable leaf that aliases p's value storage but
// owns a fresh gradient buffer — the building block of data-parallel shadow
// replicas and reduced-depth serving clones.
func ShareParam(p *Tensor) *Tensor {
	return &Tensor{Val: p.Val, Grad: tensor.New(p.Val.Rows, p.Val.Cols), needGrad: true}
}

// Tape records operations for reverse-mode differentiation. The zero value
// is ready to use. A Tape is not safe for concurrent use; run independent
// samples on independent tapes.
type Tape struct {
	nodes []*Tensor
	ar    *arena // nil for plain tapes

	// inference disables gradient bookkeeping: recorded nodes never mark
	// needGrad and never check out gradient buffers, so a forward pass
	// skips one zeroed buffer per node. Values are bit-identical to a
	// gradient-tracking pass (the forward kernels are untouched); only
	// Backward is off the table until the mode is switched off again.
	inference bool
}

// NewTape returns an empty, non-pooling tape.
func NewTape() *Tape { return &Tape{} }

// NewReusableTape returns a tape whose Reset recycles node and buffer
// storage. Use one long-lived reusable tape per worker in hot loops; see
// the package comment for the lifetime contract.
func NewReusableTape() *Tape { return &Tape{ar: newArena()} }

// SetInference toggles inference mode. While on, recorded nodes carry no
// gradient buffers (forward values are unchanged bit for bit), which
// removes the dominant per-node cost of a pure-inference pass: checking
// out and zeroing one arena buffer per operation. Backward panics on a
// graph recorded in inference mode (the loss node has no gradient), so
// hot serving paths own dedicated inference tapes rather than flipping a
// shared training tape back and forth.
func (tp *Tape) SetInference(on bool) { tp.inference = on }

// Reset discards all recorded nodes so the tape can be reused. Leaf tensors
// (parameters, constants) are unaffected. On a reusable tape this also
// recycles every node, value buffer, gradient buffer and index slice the
// tape handed out, so those must no longer be referenced.
func (tp *Tape) Reset() {
	tp.nodes = tp.nodes[:0]
	if tp.ar != nil {
		tp.ar.reset()
	}
}

// Len returns the number of recorded operations, exposed for tests.
func (tp *Tape) Len() int { return len(tp.nodes) }

// Buffer returns a zeroed rows×cols scratch buffer drawn from the tape's
// arena (plain allocation on non-reusable tapes). Fused layers use it for
// forward intermediates and backward scratch; on reusable tapes the buffer
// is recycled at Reset and must not be referenced afterwards. Buffers
// remain valid through Backward, which always precedes Reset.
func (tp *Tape) Buffer(rows, cols int) *tensor.Dense {
	d := tp.buf(rows, cols)
	d.Zero()
	return d
}

// Ints returns a length-n scratch int slice with unspecified contents,
// drawn from the tape's arena. Same lifetime contract as Buffer.
func (tp *Tape) Ints(n int) []int {
	if tp.ar != nil {
		return tp.ar.getInts(n)
	}
	return make([]int, n)
}

// Const wraps v as a non-trainable leaf allocated from the tape's arena, so
// per-sample constants (demand columns and the like) cost nothing in steady
// state. The node is recycled at Reset.
func (tp *Tape) Const(v *tensor.Dense) *Tensor {
	t := tp.newNode()
	t.Val = v
	return t
}

// buf returns a possibly dirty buffer; internal ops fully overwrite it.
func (tp *Tape) buf(rows, cols int) *tensor.Dense {
	if tp.ar != nil {
		return tp.ar.getDense(rows, cols)
	}
	return tensor.New(rows, cols)
}

// gradBuf returns a zeroed gradient buffer.
func (tp *Tape) gradBuf(rows, cols int) *tensor.Dense {
	if tp.ar != nil {
		d := tp.ar.getDense(rows, cols)
		d.Zero()
		return d
	}
	return tensor.New(rows, cols)
}

func (tp *Tape) newNode() *Tensor {
	if tp.ar != nil {
		return tp.ar.getNode()
	}
	return &Tensor{}
}

// node1 records a unary operation.
func (tp *Tape) node1(op opKind, val *tensor.Dense, a *Tensor) *Tensor {
	t := tp.newNode()
	t.Val, t.op, t.a = val, op, a
	if a.needGrad && !tp.inference {
		t.needGrad = true
		t.Grad = tp.gradBuf(val.Rows, val.Cols)
	}
	tp.nodes = append(tp.nodes, t)
	return t
}

// node2 records a binary operation.
func (tp *Tape) node2(op opKind, val *tensor.Dense, a, b *Tensor) *Tensor {
	t := tp.newNode()
	t.Val, t.op, t.a, t.b = val, op, a, b
	if (a.needGrad || b.needGrad) && !tp.inference {
		t.needGrad = true
		t.Grad = tp.gradBuf(val.Rows, val.Cols)
	}
	tp.nodes = append(tp.nodes, t)
	return t
}

// nodeN records a variadic operation. The parents slice is retained until
// Reset.
func (tp *Tape) nodeN(op opKind, val *tensor.Dense, parents []*Tensor) *Tensor {
	t := tp.newNode()
	t.Val, t.op, t.parents = val, op, parents
	if !tp.inference {
		for _, p := range parents {
			if p.needGrad {
				t.needGrad = true
				t.Grad = tp.gradBuf(val.Rows, val.Cols)
				break
			}
		}
	}
	tp.nodes = append(tp.nodes, t)
	return t
}

// Custom registers an externally computed operation. val is the forward
// result; back must add the adjoint contribution of the output gradient into
// each parent's Grad. This is the extension point fused layers (attention,
// layer norm) use.
func (tp *Tape) Custom(val *tensor.Dense, back func(out *Tensor), parents ...*Tensor) *Tensor {
	t := tp.nodeN(opCustom, val, parents)
	t.backFn = back
	return t
}

// Backward seeds d(loss)/d(loss) = 1 and propagates gradients through every
// node recorded since the last Reset. loss must be a 1×1 tensor produced on
// this tape.
func (tp *Tape) Backward(loss *Tensor) {
	if loss.Val.Rows != 1 || loss.Val.Cols != 1 {
		panic(fmt.Sprintf("autograd: Backward expects 1x1 loss, got %dx%d", loss.Val.Rows, loss.Val.Cols))
	}
	if !loss.needGrad {
		panic("autograd: loss does not depend on any parameter")
	}
	loss.Grad.Data[0] = 1
	for i := len(tp.nodes) - 1; i >= 0; i-- {
		n := tp.nodes[i]
		if n.needGrad {
			n.backstep()
		}
	}
}

// backstep adds this node's adjoint contribution into its parents' Grad.
// Each case mirrors the forward operation of the same name below.
func (t *Tensor) backstep() {
	switch t.op {
	case opMatMul:
		if t.a.needGrad { // dA += dOut x B^T
			tensor.MatMulABTAcc(t.a.Grad, t.Grad, t.b.Val)
		}
		if t.b.needGrad { // dB += A^T x dOut
			tensor.MatMulATBAcc(t.b.Grad, t.a.Val, t.Grad)
		}
	case opAdd:
		if t.a.needGrad {
			tensor.AxpyInto(t.a.Grad, t.Grad, 1)
		}
		if t.b.needGrad {
			tensor.AxpyInto(t.b.Grad, t.Grad, 1)
		}
	case opSub:
		if t.a.needGrad {
			tensor.AxpyInto(t.a.Grad, t.Grad, 1)
		}
		if t.b.needGrad {
			tensor.AxpyInto(t.b.Grad, t.Grad, -1)
		}
	case opMul:
		if t.a.needGrad {
			for i := range t.a.Grad.Data {
				t.a.Grad.Data[i] += t.Grad.Data[i] * t.b.Val.Data[i]
			}
		}
		if t.b.needGrad {
			for i := range t.b.Grad.Data {
				t.b.Grad.Data[i] += t.Grad.Data[i] * t.a.Val.Data[i]
			}
		}
	case opDiv:
		if t.a.needGrad {
			for i := range t.a.Grad.Data {
				t.a.Grad.Data[i] += t.Grad.Data[i] / t.b.Val.Data[i]
			}
		}
		if t.b.needGrad {
			for i := range t.b.Grad.Data {
				bv := t.b.Val.Data[i]
				t.b.Grad.Data[i] -= t.Grad.Data[i] * t.a.Val.Data[i] / (bv * bv)
			}
		}
	case opScale:
		tensor.AxpyInto(t.a.Grad, t.Grad, t.s)
	case opAddScalar:
		tensor.AxpyInto(t.a.Grad, t.Grad, 1)
	case opAddRow:
		if t.a.needGrad {
			tensor.AxpyInto(t.a.Grad, t.Grad, 1)
		}
		if t.b.needGrad {
			for i := 0; i < t.Grad.Rows; i++ {
				row := t.Grad.Row(i)
				for j := range row {
					t.b.Grad.Data[j] += row[j]
				}
			}
		}
	case opReLU:
		for i := range t.a.Grad.Data {
			if t.a.Val.Data[i] > 0 {
				t.a.Grad.Data[i] += t.Grad.Data[i]
			}
		}
	case opLeakyReLU:
		for i := range t.a.Grad.Data {
			g := t.Grad.Data[i]
			if t.a.Val.Data[i] <= 0 {
				g *= t.s
			}
			t.a.Grad.Data[i] += g
		}
	case opTanh:
		for i := range t.a.Grad.Data {
			y := t.Val.Data[i]
			t.a.Grad.Data[i] += t.Grad.Data[i] * (1 - y*y)
		}
	case opSigmoid:
		for i := range t.a.Grad.Data {
			y := t.Val.Data[i]
			t.a.Grad.Data[i] += t.Grad.Data[i] * y * (1 - y)
		}
	case opConcatCols:
		rows := t.Val.Rows
		off := 0
		for _, p := range t.parents {
			if p.needGrad {
				for i := 0; i < rows; i++ {
					src := t.Grad.Row(i)[off : off+p.Cols()]
					dst := p.Grad.Row(i)
					for j := range dst {
						dst[j] += src[j]
					}
				}
			}
			off += p.Cols()
		}
	case opConcatRows:
		cols := t.Val.Cols
		off := 0
		for _, p := range t.parents {
			if p.needGrad {
				src := t.Grad.Data[off*cols : (off+p.Rows())*cols]
				for j := range p.Grad.Data {
					p.Grad.Data[j] += src[j]
				}
			}
			off += p.Rows()
		}
	case opGatherRows:
		for i, src := range t.idx {
			dst := t.a.Grad.Row(src)
			g := t.Grad.Row(i)
			for j := range dst {
				dst[j] += g[j]
			}
		}
	case opReshape:
		for i := range t.a.Grad.Data {
			t.a.Grad.Data[i] += t.Grad.Data[i]
		}
	case opRepeatRow:
		for i := 0; i < t.Val.Rows; i++ {
			row := t.Grad.Row(i)
			for j := range row {
				t.a.Grad.Data[j] += row[j]
			}
		}
	case opSumAll:
		g := t.Grad.Data[0]
		for i := range t.a.Grad.Data {
			t.a.Grad.Data[i] += g
		}
	case opMeanAll:
		g := t.Grad.Data[0] / float64(len(t.a.Val.Data))
		for i := range t.a.Grad.Data {
			t.a.Grad.Data[i] += g
		}
	case opMax:
		t.a.Grad.Data[t.i0] += t.Grad.Data[0]
	case opSmoothMax:
		g := t.Grad.Data[0]
		for i, v := range t.a.Val.Data {
			t.a.Grad.Data[i] += g * math.Exp((v-t.f1)/t.s) / t.f2
		}
	case opSoftmaxRows:
		for i := 0; i < t.Val.Rows; i++ {
			y := t.Val.Row(i)
			g := t.Grad.Row(i)
			da := t.a.Grad.Row(i)
			var dot float64
			for j := range y {
				dot += y[j] * g[j]
			}
			for j := range y {
				da[j] += y[j] * (g[j] - dot)
			}
		}
	case opCSRMul:
		t.csr.MulDenseTAcc(t.a.Grad, t.Grad)
	case opCSRMulT:
		t.csr.MulDenseAcc(t.a.Grad, t.Grad)
	case opSquash:
		for i := range t.a.Grad.Data {
			d := 1 + t.a.Val.Data[i]
			t.a.Grad.Data[i] += t.Grad.Data[i] / (d * d)
		}
	case opLog1p:
		for i := range t.a.Grad.Data {
			t.a.Grad.Data[i] += t.Grad.Data[i] * t.s / (1 + t.a.Val.Data[i])
		}
	case opSliceCols:
		for i := 0; i < t.Val.Rows; i++ {
			dst := t.a.Grad.Row(i)[t.i0:t.i1]
			src := t.Grad.Row(i)
			for j := range src {
				dst[j] += src[j]
			}
		}
	case opCustom:
		t.backFn(t)
	default:
		panic(fmt.Sprintf("autograd: backstep on op %d", t.op))
	}
}

// ---- elementwise and linear-algebra operations ----

// MatMul returns a × b.
func (tp *Tape) MatMul(a, b *Tensor) *Tensor {
	out := tp.buf(a.Rows(), b.Cols())
	tensor.MatMul(out, a.Val, b.Val)
	return tp.node2(opMatMul, out, a, b)
}

// Add returns a + b (same shape).
func (tp *Tape) Add(a, b *Tensor) *Tensor {
	out := tp.buf(a.Rows(), a.Cols())
	tensor.AddInto(out, a.Val, b.Val)
	return tp.node2(opAdd, out, a, b)
}

// Sub returns a - b (same shape).
func (tp *Tape) Sub(a, b *Tensor) *Tensor {
	out := tp.buf(a.Rows(), a.Cols())
	tensor.SubInto(out, a.Val, b.Val)
	return tp.node2(opSub, out, a, b)
}

// Mul returns the Hadamard product a ⊙ b.
func (tp *Tape) Mul(a, b *Tensor) *Tensor {
	out := tp.buf(a.Rows(), a.Cols())
	tensor.MulInto(out, a.Val, b.Val)
	return tp.node2(opMul, out, a, b)
}

// Scale returns s·a.
func (tp *Tape) Scale(a *Tensor, s float64) *Tensor {
	out := tp.buf(a.Rows(), a.Cols())
	tensor.ScaleInto(out, a.Val, s)
	t := tp.node1(opScale, out, a)
	t.s = s
	return t
}

// AddScalar returns a + s (broadcast).
func (tp *Tape) AddScalar(a *Tensor, s float64) *Tensor {
	out := tp.buf(a.Rows(), a.Cols())
	for i, v := range a.Val.Data {
		out.Data[i] = v + s
	}
	t := tp.node1(opAddScalar, out, a)
	t.s = s
	return t
}

// AddRow returns a + v broadcast over rows; v must be 1×a.Cols (a bias row).
func (tp *Tape) AddRow(a, v *Tensor) *Tensor {
	out := tp.buf(a.Rows(), a.Cols())
	tensor.AddRowVecInto(out, a.Val, v.Val)
	return tp.node2(opAddRow, out, a, v)
}

// ---- activations ----

// ReLU returns max(a, 0) elementwise.
func (tp *Tape) ReLU(a *Tensor) *Tensor {
	out := tp.buf(a.Rows(), a.Cols())
	tensor.ReLUInto(out, a.Val)
	return tp.node1(opReLU, out, a)
}

// LeakyReLU returns a for a>0 and alpha·a otherwise.
func (tp *Tape) LeakyReLU(a *Tensor, alpha float64) *Tensor {
	out := tp.buf(a.Rows(), a.Cols())
	for i, v := range a.Val.Data {
		if v < 0 {
			v = alpha * v
		}
		out.Data[i] = v
	}
	t := tp.node1(opLeakyReLU, out, a)
	t.s = alpha
	return t
}

// Tanh returns tanh(a) elementwise.
func (tp *Tape) Tanh(a *Tensor) *Tensor {
	out := tp.buf(a.Rows(), a.Cols())
	for i, v := range a.Val.Data {
		out.Data[i] = math.Tanh(v)
	}
	return tp.node1(opTanh, out, a)
}

// Sigmoid returns 1/(1+exp(-a)) elementwise.
func (tp *Tape) Sigmoid(a *Tensor) *Tensor {
	out := tp.buf(a.Rows(), a.Cols())
	for i, v := range a.Val.Data {
		out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	return tp.node1(opSigmoid, out, a)
}

// ---- shape operations ----

// ConcatCols concatenates tensors with equal row counts side by side. The
// parts slice is retained until the tape is reset.
func (tp *Tape) ConcatCols(parts ...*Tensor) *Tensor {
	rows := parts[0].Rows()
	total := 0
	for _, p := range parts {
		if p.Rows() != rows {
			panic("autograd: ConcatCols row mismatch")
		}
		total += p.Cols()
	}
	out := tp.buf(rows, total)
	off := 0
	for _, p := range parts {
		for i := 0; i < rows; i++ {
			copy(out.Row(i)[off:off+p.Cols()], p.Val.Row(i))
		}
		off += p.Cols()
	}
	return tp.nodeN(opConcatCols, out, parts)
}

// ConcatRows stacks tensors with equal column counts vertically. The parts
// slice is retained until the tape is reset.
func (tp *Tape) ConcatRows(parts ...*Tensor) *Tensor {
	cols := parts[0].Cols()
	total := 0
	for _, p := range parts {
		if p.Cols() != cols {
			panic("autograd: ConcatRows column mismatch")
		}
		total += p.Rows()
	}
	out := tp.buf(total, cols)
	off := 0
	for _, p := range parts {
		copy(out.Data[off*cols:(off+p.Rows())*cols], p.Val.Data)
		off += p.Rows()
	}
	return tp.nodeN(opConcatRows, out, parts)
}

// GatherRows returns the matrix whose i-th row is a's idx[i]-th row.
// Backward scatter-adds, so repeated indices accumulate gradient — this is
// what makes bottleneck-link selection differentiable in the RAU. idx is
// copied (into the arena on reusable tapes), so later mutation by the
// caller cannot corrupt backward.
func (tp *Tape) GatherRows(a *Tensor, idx []int) *Tensor {
	own := tp.Ints(len(idx))
	copy(own, idx)
	return tp.gatherRows(a, own)
}

// GatherRowsStable is GatherRows without the defensive index copy: the
// caller promises idx will not be mutated before the tape is reset. Model
// code uses it for the structural index slices cached on the problem
// context and for scratch slices already owned by this tape.
func (tp *Tape) GatherRowsStable(a *Tensor, idx []int) *Tensor {
	return tp.gatherRows(a, idx)
}

func (tp *Tape) gatherRows(a *Tensor, idx []int) *Tensor {
	out := tp.buf(len(idx), a.Cols())
	for i, src := range idx {
		copy(out.Row(i), a.Val.Row(src))
	}
	t := tp.node1(opGatherRows, out, a)
	t.idx = idx
	return t
}

// Reshape returns a tensor with the same data viewed as rows×cols.
func (tp *Tape) Reshape(a *Tensor, rows, cols int) *Tensor {
	if rows*cols != a.Rows()*a.Cols() {
		panic("autograd: Reshape size mismatch")
	}
	out := tp.buf(rows, cols)
	copy(out.Data, a.Val.Data)
	return tp.node1(opReshape, out, a)
}

// RepeatRow tiles the 1×c tensor a into an n×c tensor; backward sums rows.
func (tp *Tape) RepeatRow(a *Tensor, n int) *Tensor {
	if a.Rows() != 1 {
		panic("autograd: RepeatRow expects a row vector")
	}
	out := tp.buf(n, a.Cols())
	for i := 0; i < n; i++ {
		copy(out.Row(i), a.Val.Data)
	}
	return tp.node1(opRepeatRow, out, a)
}

// ---- reductions ----

// SumAll returns the 1×1 sum of all entries.
func (tp *Tape) SumAll(a *Tensor) *Tensor {
	out := tp.buf(1, 1)
	out.Data[0] = a.Val.Sum()
	return tp.node1(opSumAll, out, a)
}

// MeanAll returns the 1×1 mean of all entries.
func (tp *Tape) MeanAll(a *Tensor) *Tensor {
	out := tp.buf(1, 1)
	out.Data[0] = a.Val.Sum() / float64(len(a.Val.Data))
	return tp.node1(opMeanAll, out, a)
}

// Max returns the 1×1 maximum entry; the gradient flows to the (first)
// argmax, the standard subgradient used when training directly on MLU.
func (tp *Tape) Max(a *Tensor) *Tensor {
	v, idx := a.Val.Max()
	out := tp.buf(1, 1)
	out.Data[0] = v
	t := tp.node1(opMax, out, a)
	t.i0 = idx
	return t
}

// SmoothMax returns temp·log Σ exp(a/temp), a differentiable upper bound on
// max(a) that spreads gradient over near-maximal entries. Used as an
// optional training objective variant (ablation).
func (tp *Tape) SmoothMax(a *Tensor, temp float64) *Tensor {
	// Stabilized log-sum-exp.
	m, _ := a.Val.Max()
	var s float64
	for _, v := range a.Val.Data {
		s += math.Exp((v - m) / temp)
	}
	out := tp.buf(1, 1)
	out.Data[0] = m + temp*math.Log(s)
	t := tp.node1(opSmoothMax, out, a)
	t.s, t.f1, t.f2 = temp, m, s
	return t
}

// ---- softmax ----

// SoftmaxRows applies a numerically stable softmax independently to each
// row. HARP/DOTE lay out unnormalized splits as a flows×tunnels matrix so a
// row softmax implements the per-flow normalization of Figure 2.
func (tp *Tape) SoftmaxRows(a *Tensor) *Tensor {
	out := tp.buf(a.Rows(), a.Cols())
	for i := 0; i < a.Rows(); i++ {
		softmaxRow(out.Row(i), a.Val.Row(i))
	}
	return tp.node1(opSoftmaxRows, out, a)
}

// softmaxRow delegates to the shared guarded kernel: all-masked (-Inf) rows
// become zero rows rather than NaN, and the opSoftmaxRows backward is exact
// for them (y = 0 ⇒ dx = 0).
func softmaxRow(dst, src []float64) { tensor.SoftmaxRow(dst, src) }

// ---- sparse structural operators ----

// CSRMul returns c × x for a constant sparse matrix c (e.g. normalized
// adjacency, tunnel-edge incidence). Backward: dx += cᵀ·dout.
func (tp *Tape) CSRMul(c *tensor.CSR, x *Tensor) *Tensor {
	out := tp.buf(c.Rows, x.Cols())
	c.MulDense(out, x.Val)
	t := tp.node1(opCSRMul, out, x)
	t.csr = c
	return t
}

// CSRMulT returns cᵀ × x for a constant sparse matrix c — the transpose
// direction of the edge↔tunnel incidence product (tunnel scatter → edge
// gather and back) without materializing a transposed CSR. Backward:
// dx += c·dout.
func (tp *Tape) CSRMulT(c *tensor.CSR, x *Tensor) *Tensor {
	out := tp.buf(c.Cols, x.Cols())
	c.MulDenseT(out, x.Val)
	t := tp.node1(opCSRMulT, out, x)
	t.csr = c
	return t
}

// Div returns the elementwise quotient a / b (same shape). The caller must
// ensure b stays away from zero; the RAU uses it only with positive
// denominators (utilizations).
func (tp *Tape) Div(a, b *Tensor) *Tensor {
	out := tp.buf(a.Rows(), a.Cols())
	for i := range out.Data {
		out.Data[i] = a.Val.Data[i] / b.Val.Data[i]
	}
	return tp.node2(opDiv, out, a, b)
}

// Squash returns x/(1+x) elementwise, a bounded monotone feature map for
// potentially huge non-negative quantities (utilizations on failed links).
func (tp *Tape) Squash(a *Tensor) *Tensor {
	out := tp.buf(a.Rows(), a.Cols())
	for i, v := range a.Val.Data {
		out.Data[i] = v / (1 + v)
	}
	return tp.node1(opSquash, out, a)
}

// Log1p returns scale·ln(1+x) elementwise (x must be ≥ 0), a monotone
// feature map that stays informative across many orders of magnitude —
// HARP's RAU uses it for utilizations that can reach 1e5 on failed links.
func (tp *Tape) Log1p(a *Tensor, scale float64) *Tensor {
	out := tp.buf(a.Rows(), a.Cols())
	for i, v := range a.Val.Data {
		out.Data[i] = scale * math.Log1p(v)
	}
	t := tp.node1(opLog1p, out, a)
	t.s = scale
	return t
}

// SliceCols returns columns [start, end) of a as a new tensor.
func (tp *Tape) SliceCols(a *Tensor, start, end int) *Tensor {
	if start < 0 || end > a.Cols() || start >= end {
		panic("autograd: SliceCols range invalid")
	}
	out := tp.buf(a.Rows(), end-start)
	for i := 0; i < a.Rows(); i++ {
		copy(out.Row(i), a.Val.Row(i)[start:end])
	}
	t := tp.node1(opSliceCols, out, a)
	t.i0, t.i1 = start, end
	return t
}
