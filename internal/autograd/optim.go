package autograd

import (
	"fmt"
	"math"
	"math/rand"

	"harpte/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba), the optimizer the paper trains
// HARP with. The zero value is not usable; construct with NewAdam.
type Adam struct {
	LR           float64
	Beta1, Beta2 float64
	Eps          float64
	GradClip     float64 // global-norm clip; 0 disables

	step int
	m, v map[*Tensor]*tensor.Dense
}

// NewAdam returns an Adam optimizer with the standard defaults
// (β1=0.9, β2=0.999, ε=1e-8) and the given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Tensor]*tensor.Dense),
		v: make(map[*Tensor]*tensor.Dense),
	}
}

// Step applies one Adam update to every parameter from its accumulated
// gradient, with loss the value that gradient came from, and zeroes the
// gradients. It is guarded: when loss or the gradient norm is NaN or ±Inf
// the update is withheld — parameters, moments and step count stay as they
// were — and Step reports stepped=false. A poisoned batch never reaches the
// weights.
func (o *Adam) Step(params []*Tensor, loss float64) (stepped bool) {
	var norm float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			norm += g * g
		}
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) || math.IsNaN(norm) || math.IsInf(norm, 0) {
		for _, p := range params {
			p.Grad.Zero()
		}
		return false
	}
	o.step++
	if o.GradClip > 0 {
		norm = math.Sqrt(norm)
		if norm > o.GradClip {
			scale := o.GradClip / norm
			for _, p := range params {
				tensor.ScaleInto(p.Grad, p.Grad, scale)
			}
		}
	}
	bc1 := 1 - math.Pow(o.Beta1, float64(o.step))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.step))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = tensor.New(p.Rows(), p.Cols())
			o.m[p] = m
			o.v[p] = tensor.New(p.Rows(), p.Cols())
		}
		v := o.v[p]
		for i, g := range p.Grad.Data {
			m.Data[i] = o.Beta1*m.Data[i] + (1-o.Beta1)*g
			v.Data[i] = o.Beta2*v.Data[i] + (1-o.Beta2)*g*g
			mh := m.Data[i] / bc1
			vh := v.Data[i] / bc2
			p.Val.Data[i] -= o.LR * mh / (math.Sqrt(vh) + o.Eps)
		}
		p.Grad.Zero()
	}
	return true
}

// Snapshot copies every parameter's values, in order.
func Snapshot(params []*Tensor) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Val.Data...)
	}
	return out
}

// Restore copies a Snapshot of the same parameters back into them.
func Restore(params []*Tensor, snap [][]float64) {
	for i, p := range params {
		copy(p.Val.Data, snap[i])
	}
}

// EachBatch draws one permutation of the n sample indices from rng and calls
// step on its consecutive runs of batch indices (the last may be shorter).
func EachBatch(rng *rand.Rand, n, batch int, step func(idx []int)) {
	order := rng.Perm(n)
	for at := 0; at < n; at += batch {
		step(order[at:min(at+batch, n)])
	}
}

// FitBest is the epoch loop of a model trained with validation-best
// selection: each epoch is one EachBatch pass over n samples, then val
// scores the parameters and a snapshot of the lowest score is kept. At the
// end that snapshot is restored and its score returned (+Inf, parameters
// as the last epoch left them, when no epoch scored a finite value).
func FitBest(params []*Tensor, rng *rand.Rand, n, batch, epochs int, step func(idx []int), val func() float64) float64 {
	best := math.Inf(1)
	var snap [][]float64
	for epoch := 0; epoch < epochs; epoch++ {
		EachBatch(rng, n, batch, step)
		if v := val(); v < best {
			best, snap = v, Snapshot(params)
		}
	}
	if snap != nil {
		Restore(params, snap)
	}
	return best
}

// AdamState is a serializable snapshot of an Adam optimizer's internal
// state: the step counter plus the first and second moment estimates,
// aligned index-by-index with the parameter slice passed to State/SetState.
// Together with the parameter values it is everything needed to resume
// training bit-identically after a crash.
type AdamState struct {
	Step int
	M    [][]float64
	V    [][]float64
}

// State exports the optimizer state for params. Parameters the optimizer
// has never stepped export zero moments, which is exactly the state a
// fresh optimizer would lazily create for them.
func (o *Adam) State(params []*Tensor) AdamState {
	st := AdamState{Step: o.step, M: make([][]float64, len(params)), V: make([][]float64, len(params))}
	for i, p := range params {
		n := len(p.Val.Data)
		st.M[i] = make([]float64, n)
		st.V[i] = make([]float64, n)
		if m, ok := o.m[p]; ok {
			copy(st.M[i], m.Data)
			copy(st.V[i], o.v[p].Data)
		}
	}
	return st
}

// SetState restores optimizer state previously captured by State. The
// params slice must match the one used at capture time in length and
// per-parameter size.
func (o *Adam) SetState(params []*Tensor, st AdamState) error {
	if len(st.M) != len(params) || len(st.V) != len(params) {
		return fmt.Errorf("autograd: Adam state has %d/%d moment slices, want %d",
			len(st.M), len(st.V), len(params))
	}
	for i, p := range params {
		if len(st.M[i]) != len(p.Val.Data) || len(st.V[i]) != len(p.Val.Data) {
			return fmt.Errorf("autograd: Adam state moment %d has %d/%d values, want %d",
				i, len(st.M[i]), len(st.V[i]), len(p.Val.Data))
		}
	}
	o.step = st.Step
	o.m = make(map[*Tensor]*tensor.Dense, len(params))
	o.v = make(map[*Tensor]*tensor.Dense, len(params))
	for i, p := range params {
		m := tensor.New(p.Rows(), p.Cols())
		v := tensor.New(p.Rows(), p.Cols())
		copy(m.Data, st.M[i])
		copy(v.Data, st.V[i])
		o.m[p] = m
		o.v[p] = v
	}
	return nil
}

// XavierParam returns a trainable rows×cols parameter initialized with
// Glorot-uniform values drawn from rng.
func XavierParam(rng *rand.Rand, rows, cols int) *Tensor {
	bound := math.Sqrt(6.0 / float64(rows+cols))
	d := tensor.New(rows, cols)
	for i := range d.Data {
		d.Data[i] = (rng.Float64()*2 - 1) * bound
	}
	return NewParam(d)
}

// ZeroParam returns a trainable rows×cols parameter initialized to zero
// (typical for biases).
func ZeroParam(rows, cols int) *Tensor { return NewParam(tensor.New(rows, cols)) }

// OnesParam returns a trainable rows×cols parameter initialized to one
// (typical for layer-norm gains).
func OnesParam(rows, cols int) *Tensor {
	d := tensor.New(rows, cols)
	d.Fill(1)
	return NewParam(d)
}
