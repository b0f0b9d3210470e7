package nn

import (
	"math"
	"math/rand"

	"harpte/internal/autograd"
	"harpte/internal/tensor"
)

// LayerNorm normalizes each row to zero mean and unit variance, then applies
// a learned per-feature gain and bias. Implemented as a fused custom op so a
// transformer layer over thousands of tunnel rows costs one tape node.
type LayerNorm struct {
	Gain, Bias *autograd.Tensor
	Eps        float64
}

// NewLayerNorm returns a LayerNorm over feature dimension dim.
func NewLayerNorm(_ *rand.Rand, dim int) *LayerNorm {
	return &LayerNorm{
		Gain: autograd.OnesParam(1, dim),
		Bias: autograd.ZeroParam(1, dim),
		Eps:  1e-5,
	}
}

// Apply writes the normalization of each row of src into dst — the row
// kernel of Forward, and of the inference engine, which records no tape.
// xhat and invStd, when non-nil, receive what backward reads: the normalized
// rows before gain and bias, and each row's 1/σ. With no sink x̂ passes
// through dst itself, so both callers run one loop and agree bit for bit.
func (ln *LayerNorm) Apply(dst, src, xhat *tensor.Dense, invStd []float64) {
	d := src.Cols
	g := ln.Gain.Val.Data
	b := ln.Bias.Val.Data
	for i := 0; i < src.Rows; i++ {
		row := src.Row(i)
		var mu float64
		for _, v := range row {
			mu += v
		}
		mu /= float64(d)
		var va float64
		for _, v := range row {
			va += (v - mu) * (v - mu)
		}
		va /= float64(d)
		is := 1 / math.Sqrt(va+ln.Eps)
		out := dst.Row(i)
		xh := out
		if xhat != nil {
			xh, invStd[i] = xhat.Row(i), is
		}
		for j, v := range row {
			xh[j] = (v - mu) * is
			out[j] = xh[j]*g[j] + b[j]
		}
	}
}

// Forward applies the normalization to an N×dim matrix. All scratch is
// drawn from the tape (recycled on Reset for reusable tapes), so the layer
// allocates nothing in steady state beyond its one tape node.
func (ln *LayerNorm) Forward(tp *autograd.Tape, x *autograd.Tensor) *autograd.Tensor {
	n, d := x.Rows(), x.Cols()
	val := tp.Buffer(n, d)
	xhat := tp.Buffer(n, d)        // saved for backward
	invStd := tp.Buffer(1, n).Data // saved for backward
	g := ln.Gain.Val.Data
	ln.Apply(val, x.Val, xhat, invStd)
	return tp.Custom(val, func(out *autograd.Tensor) {
		df := float64(d)
		for i := 0; i < n; i++ {
			dy := out.Grad.Row(i)
			xh := xhat.Row(i)
			if ln.Gain.NeedsGrad() {
				gg := ln.Gain.Grad.Data
				bg := ln.Bias.Grad.Data
				for j := range dy {
					gg[j] += dy[j] * xh[j]
					bg[j] += dy[j]
				}
			}
			if x.NeedsGrad() {
				// dxhat = dy * g; dx = invStd*(dxhat - mean(dxhat) - xhat*mean(dxhat*xhat))
				var m1, m2 float64
				for j := range dy {
					dxh := dy[j] * g[j]
					m1 += dxh
					m2 += dxh * xh[j]
				}
				m1 /= df
				m2 /= df
				dx := x.Grad.Row(i)
				for j := range dy {
					dxh := dy[j] * g[j]
					dx[j] += invStd[i] * (dxh - m1 - xh[j]*m2)
				}
			}
		}
	}, x, ln.Gain, ln.Bias)
}

// Params implements Module.
func (ln *LayerNorm) Params() []*autograd.Tensor {
	return []*autograd.Tensor{ln.Gain, ln.Bias}
}
