// Package dote implements the DOTE baseline (Perry et al., NSDI '23) as
// the paper evaluates it (§4): a plain feed-forward network (MLP) mapping
// the traffic-demand vector directly to per-tunnel split logits, trained to
// minimize MLU. DOTE models neither nodes, edges, capacities, nor
// tunnel-edge associations — its input and output sizes are frozen at
// construction, so it cannot be applied when topology, tunnel sets or even
// matrix dimensions change. Under complete link failures the paper applies
// local rescaling (te.Rescale) to DOTE's output.
//
// Both modes train under HARP's protocol, on the pieces every model here
// shares: the loss is te.LossMLU, each step is autograd's guarded Adam step,
// and autograd.FitBest runs the epochs and keeps the best validation epoch.
package dote

import (
	"fmt"
	"math/rand"

	"harpte/internal/autograd"
	"harpte/internal/nn"
	"harpte/internal/te"
	"harpte/internal/tensor"
)

// Config holds DOTE's hyperparameters. The paper's DOTE searches only
// learning rate and batch size; the architecture is a wide MLP.
type Config struct {
	Hidden   []int   // hidden layer widths
	LossTemp float64 // smooth-max temperature (0 = hard max)
	Seed     int64
}

// DefaultConfig mirrors the reference implementation's shape scaled to CPU.
func DefaultConfig() Config {
	return Config{Hidden: []int{128, 128}, LossTemp: 0.03, Seed: 1}
}

// Model is a DOTE instance bound to a fixed problem shape: F flows × K
// tunnels. It deliberately keeps no reference to the topology.
type Model struct {
	Cfg    Config
	Flows  int
	K      int
	mlp    *nn.MLP
	params []*autograd.Tensor
}

// New builds a DOTE model for a problem with the given flow count and
// tunnels per flow.
func New(cfg Config, flows, k int) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	dims := append([]int{flows}, cfg.Hidden...)
	dims = append(dims, flows*k)
	m := &Model{Cfg: cfg, Flows: flows, K: k}
	m.mlp = nn.NewMLP(rng, nn.ActReLU, dims...)
	m.params = m.mlp.Params()
	return m
}

// Params returns the trainable parameters.
func (m *Model) Params() []*autograd.Tensor { return m.params }

// NumParams returns the scalar parameter count (≈1M in the paper's AnonNet
// configuration — DOTE's positional design needs a parameter per
// input×output pair).
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params {
		n += len(p.Val.Data)
	}
	return n
}

// normalizeDemand maps the demand vector to an O(1) feature row, the same
// normalization the reference implementation applies.
func (m *Model) normalizeDemand(demand *tensor.Dense) *tensor.Dense {
	mean := 0.0
	for _, v := range demand.Data {
		mean += v
	}
	mean /= float64(len(demand.Data))
	if mean <= 0 {
		mean = 1
	}
	row := tensor.New(1, m.Flows)
	for i, v := range demand.Data {
		row.Data[i] = v / mean
	}
	return row
}

// Forward maps a demand vector (F×1) to the F×K split matrix node.
func (m *Model) Forward(tp *autograd.Tape, demand *tensor.Dense) *autograd.Tensor {
	if demand.Rows != m.Flows {
		panic(fmt.Sprintf("dote: demand has %d flows, model expects %d", demand.Rows, m.Flows))
	}
	in := autograd.NewConst(m.normalizeDemand(demand))
	logits := m.mlp.Forward(tp, in) // 1×(F·K)
	return tp.SoftmaxRows(tp.Reshape(logits, m.Flows, m.K))
}

// Splits runs inference.
func (m *Model) Splits(demand *tensor.Dense) *tensor.Dense {
	tp := autograd.NewTape()
	return m.Forward(tp, demand).Val.Clone()
}

// Sample is one training instance: the problem supplies capacities and
// incidence for the loss; Demand feeds the network; LossDemand (nil =
// Demand) is the matrix the loss is computed against.
type Sample struct {
	Problem    *te.Problem
	Demand     *tensor.Dense
	LossDemand *tensor.Dense
}

func (s Sample) lossDemand() *tensor.Dense {
	if s.LossDemand != nil {
		return s.LossDemand
	}
	return s.Demand
}

// lossMLU is the training objective: the (smooth, at temp) MLU of the F×K
// splits node under demand, with traffic in units of p's largest capacity.
func lossMLU(tp *autograd.Tape, p *te.Problem, splits *autograd.Tensor, demand *tensor.Dense, temp float64) *autograd.Tensor {
	numTunnels, k := splits.Rows()*splits.Cols(), splits.Cols()
	maxCap := p.Graph.MaxCapacity()
	if maxCap <= 0 {
		maxCap = 1
	}
	load := tensor.New(numTunnels, 1)
	invCap := tensor.New(p.Graph.NumEdges(), 1)
	for i, e := range p.Graph.Edges {
		invCap.Data[i] = maxCap / e.Capacity
	}
	for t := range load.Data {
		load.Data[t] = demand.Data[t/k] / maxCap
	}
	x := tp.Mul(tp.Reshape(splits, numTunnels, 1), autograd.NewConst(load))
	return te.LossMLU(tp, p, x, autograd.NewConst(invCap), temp)
}

// TrainStep accumulates the gradient of the batch's mean loss and takes one
// guarded optimizer step (autograd.Adam.Step: a NaN/Inf loss or gradient
// leaves the weights as they were). It returns the mean loss.
func (m *Model) TrainStep(opt *autograd.Adam, batch []Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	var total float64
	scale := 1 / float64(len(batch))
	for _, s := range batch {
		tp := autograd.NewTape()
		splits := m.Forward(tp, s.Demand)
		loss := tp.Scale(lossMLU(tp, s.Problem, splits, s.lossDemand(), m.Cfg.LossTemp), scale)
		tp.Backward(loss)
		total += loss.Val.Data[0]
	}
	opt.Step(m.params, total)
	return total
}

// Fit trains with validation-best parameter selection under the protocol
// HARP's Fit follows, so comparisons are apples to apples: Adam with the
// gradient clipped at norm 5, every step guarded, batches from one shuffle
// per epoch, the epoch with the lowest mean validation MLU kept
// (autograd.FitBest). An empty val selects on train. It returns that MLU.
func (m *Model) Fit(train, val []Sample, epochs int, lr float64, batchSize int, seed int64) float64 {
	if batchSize <= 0 {
		batchSize = 8
	}
	if len(val) == 0 {
		val = train
	}
	opt := autograd.NewAdam(lr)
	opt.GradClip = 5
	return autograd.FitBest(m.params, rand.New(rand.NewSource(seed)), len(train), batchSize, epochs,
		func(idx []int) {
			batch := make([]Sample, len(idx))
			for j, i := range idx {
				batch[j] = train[i]
			}
			m.TrainStep(opt, batch)
		},
		func() float64 { return m.MeanMLU(val) })
}

// MeanMLU evaluates mean hard MLU over samples (against the loss demand).
func (m *Model) MeanMLU(samples []Sample) float64 {
	if len(samples) == 0 {
		return 1e300
	}
	var total float64
	for _, s := range samples {
		total += s.Problem.MLU(m.Splits(s.Demand), s.lossDemand())
	}
	return total / float64(len(samples))
}

// ---- original DOTE mode: predict routing from a TM history ----
//
// DOTE as published (Perry et al.) is "predictive": it consumes the h most
// recent traffic matrices and outputs the routing for the NEXT (unseen)
// interval, folding prediction and optimization into one network. §4 of the
// HARP paper modifies it to take a single TM; both modes are provided here.

// HistoryModel is the original DOTE: an MLP over the concatenated demand
// vectors of the last Window intervals, trained against the next interval's
// true matrix.
type HistoryModel struct {
	Cfg    Config
	Flows  int
	K      int
	Window int
	mlp    *nn.MLP
	params []*autograd.Tensor
}

// NewHistory builds the history-input DOTE for a fixed problem shape.
func NewHistory(cfg Config, flows, k, window int) *HistoryModel {
	if window < 1 {
		window = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dims := append([]int{flows * window}, cfg.Hidden...)
	dims = append(dims, flows*k)
	m := &HistoryModel{Cfg: cfg, Flows: flows, K: k, Window: window}
	m.mlp = nn.NewMLP(rng, nn.ActReLU, dims...)
	m.params = m.mlp.Params()
	return m
}

// Params returns the trainable parameters.
func (m *HistoryModel) Params() []*autograd.Tensor { return m.params }

// Forward maps a demand-vector history (oldest first, exactly Window
// entries of F×1 each) to the F×K split matrix for the next interval.
func (m *HistoryModel) Forward(tp *autograd.Tape, history []*tensor.Dense) *autograd.Tensor {
	if len(history) != m.Window {
		panic(fmt.Sprintf("dote: history length %d, model expects %d", len(history), m.Window))
	}
	in := tensor.New(1, m.Flows*m.Window)
	for w, d := range history {
		if d.Rows != m.Flows {
			panic(fmt.Sprintf("dote: history entry has %d flows, want %d", d.Rows, m.Flows))
		}
		mean := 0.0
		for _, v := range d.Data {
			mean += v
		}
		mean /= float64(m.Flows)
		if mean <= 0 {
			mean = 1
		}
		for i, v := range d.Data {
			in.Data[w*m.Flows+i] = v / mean
		}
	}
	logits := m.mlp.Forward(tp, autograd.NewConst(in))
	return tp.SoftmaxRows(tp.Reshape(logits, m.Flows, m.K))
}

// Splits runs inference on a history window.
func (m *HistoryModel) Splits(history []*tensor.Dense) *tensor.Dense {
	tp := autograd.NewTape()
	return m.Forward(tp, history).Val.Clone()
}

// FitSeries trains on a chronologically ordered demand series: for each t,
// the input is demands[t-Window:t] and the loss is the MLU on demands[t]
// (the future matrix — DOTE's joint prediction+optimization objective).
// The last valFraction of usable steps is the validation set.
func (m *HistoryModel) FitSeries(p *te.Problem, demands []*tensor.Dense, epochs int, lr float64, seed int64) float64 {
	if len(demands) <= m.Window {
		return 1e300
	}
	type step struct {
		history []*tensor.Dense
		next    *tensor.Dense
	}
	var steps []step
	for t := m.Window; t < len(demands); t++ {
		steps = append(steps, step{history: demands[t-m.Window : t], next: demands[t]})
	}
	split := len(steps) * 7 / 8
	if split == len(steps) {
		split = len(steps) - 1
	}
	train, val := steps[:split], steps[split:]

	opt := autograd.NewAdam(lr)
	opt.GradClip = 5
	return autograd.FitBest(m.params, rand.New(rand.NewSource(seed)), len(train), 1, epochs,
		func(idx []int) {
			s := train[idx[0]]
			tp := autograd.NewTape()
			loss := lossMLU(tp, p, m.Forward(tp, s.history), s.next, m.Cfg.LossTemp)
			tp.Backward(loss)
			opt.Step(m.params, loss.Val.Data[0])
		},
		func() float64 {
			var v float64
			for _, s := range val {
				v += p.MLU(m.Splits(s.history), s.next)
			}
			return v / float64(len(val))
		})
}
