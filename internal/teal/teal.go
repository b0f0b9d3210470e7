// Package teal implements the TEAL baseline (Xu et al., SIGCOMM '23) as
// the paper characterizes it (§2.1, §2.3): alternating FlowGNN layers —
// message passing over the bipartite edge↔tunnel graph — and per-flow DNN
// layers that CONCATENATE the embeddings of a flow's tunnels. The
// concatenation is what makes TEAL sensitive to tunnel ordering: relabeling
// tunnels between training and testing presents the DNN with inputs it has
// never seen. The allocation policy likewise concatenates per-flow tunnel
// embeddings into split logits.
//
// TEAL trains with deep reinforcement learning. We provide both a
// REINFORCE-style stochastic policy gradient (Gaussian perturbation of the
// logits, reward = −MLU, mean-reward baseline; a simplification of COMA
// that preserves the high gradient variance responsible for the AnonNet
// convergence failures in the paper's Figure 18) and a deterministic
// direct-loss mode used where the paper's observations do not depend on RL
// (DESIGN.md documents this substitution). Both train under HARP's
// protocol: autograd's guarded Adam step, autograd.FitBest's epoch loop and
// validation-best selection, and (direct mode) te.LossMLU as the loss.
package teal

import (
	"math/rand"

	"harpte/internal/autograd"
	"harpte/internal/nn"
	"harpte/internal/te"
	"harpte/internal/tensor"
)

// Config holds TEAL's hyperparameters.
type Config struct {
	EmbedDim      int
	FlowGNNLayers int
	Hidden        int // per-flow DNN hidden width
	LossTemp      float64
	Seed          int64
	// RL switches on REINFORCE training; RLSamples estimates the reward
	// gradient, RLSigma is the exploration noise.
	RL        bool
	RLSamples int
	RLSigma   float64
}

// DefaultConfig returns a CPU-sized configuration.
func DefaultConfig() Config {
	return Config{
		EmbedDim: 8, FlowGNNLayers: 2, Hidden: 32,
		LossTemp: 0.03, Seed: 1,
		RL: false, RLSamples: 6, RLSigma: 0.3,
	}
}

// Model is a TEAL instance for a fixed tunnels-per-flow count K. Flow and
// edge counts may vary across problems (the GNN handles them), but K is
// baked into the per-flow DNN and policy shapes.
type Model struct {
	Cfg Config
	K   int

	edgeInit   *nn.Linear // edge features → d
	tunnelInit *nn.Linear // tunnel features → d
	edgeUpd    []*nn.Linear
	tunnelUpd  []*nn.Linear
	flowDNN    []*nn.MLP // per-flow: (K·d) → (K·d)
	policy     *nn.MLP   // per-flow: (K·d) → K logits

	params []*autograd.Tensor
}

// New builds a TEAL model for K tunnels per flow.
func New(cfg Config, k int) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := cfg.EmbedDim
	m := &Model{Cfg: cfg, K: k}
	m.edgeInit = nn.NewLinear(rng, 2, d)
	m.tunnelInit = nn.NewLinear(rng, 2, d)
	for i := 0; i < cfg.FlowGNNLayers; i++ {
		m.edgeUpd = append(m.edgeUpd, nn.NewLinear(rng, 2*d, d))
		m.tunnelUpd = append(m.tunnelUpd, nn.NewLinear(rng, 2*d, d))
		m.flowDNN = append(m.flowDNN, nn.NewMLP(rng, nn.ActReLU, k*d, cfg.Hidden, k*d))
	}
	m.policy = nn.NewMLP(rng, nn.ActReLU, k*d, cfg.Hidden, k)
	mods := []nn.Module{m.edgeInit, m.tunnelInit, m.policy}
	for i := range m.edgeUpd {
		mods = append(mods, m.edgeUpd[i], m.tunnelUpd[i], m.flowDNN[i])
	}
	m.params = nn.CollectParams(mods...)
	return m
}

// Params returns the trainable parameters.
func (m *Model) Params() []*autograd.Tensor { return m.params }

// NumParams returns the scalar parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params {
		n += len(p.Val.Data)
	}
	return n
}

// Context caches the per-problem structural constants.
type Context struct {
	p          *te.Problem
	edgeFeat   *tensor.Dense // E×2
	tunnelLen  []int
	edgeAggT   *tensor.CSR // E×T row-normalized (edge ← its tunnels)
	tunnelAggE *tensor.CSR // T×E row-normalized (tunnel ← its edges)
	maxCap     float64
	invCapNorm *tensor.Dense // E×1, maxCap/c_e
	numFlows   int
	numTunnels int
}

// NewContext precomputes the bipartite incidence operators for a problem.
func (m *Model) NewContext(p *te.Problem) *Context {
	g := p.Graph
	set := p.Tunnels
	numFlows := len(set.Flows)
	numTunnels := numFlows * set.K
	ctx := &Context{p: p, numFlows: numFlows, numTunnels: numTunnels, maxCap: g.MaxCapacity()}
	if ctx.maxCap <= 0 {
		ctx.maxCap = 1
	}

	inc := p.Incidence() // E×T counts
	// Row-normalize E×T for edge aggregation.
	var eEntries, tEntries []tensor.COO
	edgeDeg := make([]float64, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		edgeDeg[e] = float64(inc.RowPtr[e+1] - inc.RowPtr[e])
	}
	tunnelDeg := make([]float64, numTunnels)
	for e := 0; e < g.NumEdges(); e++ {
		for ptr := inc.RowPtr[e]; ptr < inc.RowPtr[e+1]; ptr++ {
			tunnelDeg[inc.ColIdx[ptr]] += inc.Val[ptr]
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		for ptr := inc.RowPtr[e]; ptr < inc.RowPtr[e+1]; ptr++ {
			t := inc.ColIdx[ptr]
			if edgeDeg[e] > 0 {
				eEntries = append(eEntries, tensor.E(e, t, inc.Val[ptr]/edgeDeg[e]))
			}
			if tunnelDeg[t] > 0 {
				tEntries = append(tEntries, tensor.E(t, e, inc.Val[ptr]/tunnelDeg[t]))
			}
		}
	}
	ctx.edgeAggT = tensor.NewCSR(g.NumEdges(), numTunnels, eEntries)
	ctx.tunnelAggE = tensor.NewCSR(numTunnels, g.NumEdges(), tEntries)

	ctx.edgeFeat = tensor.New(g.NumEdges(), 2)
	maxDeg := 1.0
	for _, d := range edgeDeg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		ctx.edgeFeat.Set(e, 0, g.Edges[e].Capacity/ctx.maxCap)
		ctx.edgeFeat.Set(e, 1, edgeDeg[e]/maxDeg)
	}
	ctx.tunnelLen = make([]int, numTunnels)
	for f := 0; f < numFlows; f++ {
		for k := 0; k < set.K; k++ {
			ctx.tunnelLen[f*set.K+k] = len(set.Tunnel(f, k).Edges)
		}
	}
	ctx.invCapNorm = tensor.New(g.NumEdges(), 1)
	for e := 0; e < g.NumEdges(); e++ {
		ctx.invCapNorm.Data[e] = ctx.maxCap / g.Edges[e].Capacity
	}
	return ctx
}

// logits computes per-flow split logits (F×K node).
func (m *Model) logits(tp *autograd.Tape, ctx *Context, demand *tensor.Dense) *autograd.Tensor {
	k, d := m.K, m.Cfg.EmbedDim
	mean := 0.0
	for _, v := range demand.Data {
		mean += v
	}
	mean /= float64(ctx.numFlows)
	if mean <= 0 {
		mean = 1
	}
	tunnelFeat := tensor.New(ctx.numTunnels, 2)
	maxLen := 1
	for _, l := range ctx.tunnelLen {
		if l > maxLen {
			maxLen = l
		}
	}
	for f := 0; f < ctx.numFlows; f++ {
		for j := 0; j < k; j++ {
			tunnelFeat.Set(f*k+j, 0, demand.Data[f]/mean)
			tunnelFeat.Set(f*k+j, 1, float64(ctx.tunnelLen[f*k+j])/float64(maxLen))
		}
	}

	edgeEmb := tp.ReLU(m.edgeInit.Forward(tp, autograd.NewConst(ctx.edgeFeat)))
	tunEmb := tp.ReLU(m.tunnelInit.Forward(tp, autograd.NewConst(tunnelFeat)))
	for i := 0; i < m.Cfg.FlowGNNLayers; i++ {
		// Bipartite message passing.
		aggE := tp.CSRMul(ctx.tunnelAggE, edgeEmb) // T×d
		tunEmb = tp.ReLU(m.tunnelUpd[i].Forward(tp, tp.ConcatCols(tunEmb, aggE)))
		aggT := tp.CSRMul(ctx.edgeAggT, tunEmb) // E×d
		edgeEmb = tp.ReLU(m.edgeUpd[i].Forward(tp, tp.ConcatCols(edgeEmb, aggT)))
		// Per-flow DNN over the CONCATENATED tunnel embeddings — the
		// order-sensitive step.
		flowIn := tp.Reshape(tunEmb, ctx.numFlows, k*d)
		tunEmb = tp.Reshape(m.flowDNN[i].Forward(tp, flowIn), ctx.numTunnels, d)
	}
	return m.policy.Forward(tp, tp.Reshape(tunEmb, ctx.numFlows, k*d)) // F×K
}

// Forward maps a demand vector to the F×K split matrix node.
func (m *Model) Forward(tp *autograd.Tape, ctx *Context, demand *tensor.Dense) *autograd.Tensor {
	return tp.SoftmaxRows(m.logits(tp, ctx, demand))
}

// Splits runs inference.
func (m *Model) Splits(ctx *Context, demand *tensor.Dense) *tensor.Dense {
	tp := autograd.NewTape()
	return m.Forward(tp, ctx, demand).Val.Clone()
}

// Sample is a training instance (LossDemand nil = Demand).
type Sample struct {
	Ctx        *Context
	Demand     *tensor.Dense
	LossDemand *tensor.Dense
}

func (s Sample) lossDemand() *tensor.Dense {
	if s.LossDemand != nil {
		return s.LossDemand
	}
	return s.Demand
}

// lossMLU is the direct-mode training objective: the (smooth) MLU of the
// splits node under demand, with traffic in units of the largest capacity.
func (m *Model) lossMLU(tp *autograd.Tape, ctx *Context, splits *autograd.Tensor, demand *tensor.Dense) *autograd.Tensor {
	load := tensor.New(ctx.numTunnels, 1)
	for f := 0; f < ctx.numFlows; f++ {
		for j := 0; j < m.K; j++ {
			load.Data[f*m.K+j] = demand.Data[f] / ctx.maxCap
		}
	}
	x := tp.Mul(tp.Reshape(splits, ctx.numTunnels, 1), autograd.NewConst(load))
	return te.LossMLU(tp, ctx.p, x, autograd.NewConst(ctx.invCapNorm), m.Cfg.LossTemp)
}

// TrainStep performs one guarded optimizer step on the batch
// (autograd.Adam.Step: a NaN/Inf MLU or gradient leaves the weights as they
// were) using either direct differentiation or REINFORCE (Cfg.RL). Returns
// the mean achieved MLU on the batch (hard, for logging).
func (m *Model) TrainStep(opt *autograd.Adam, batch []Sample, rng *rand.Rand) float64 {
	if len(batch) == 0 {
		return 0
	}
	var meanMLU float64
	scale := 1 / float64(len(batch))
	for _, s := range batch {
		if m.Cfg.RL {
			meanMLU += m.reinforceStep(s, rng, scale)
		} else {
			tp := autograd.NewTape()
			splits := m.Forward(tp, s.Ctx, s.Demand)
			loss := tp.Scale(m.lossMLU(tp, s.Ctx, splits, s.lossDemand()), scale)
			tp.Backward(loss)
			meanMLU += s.Ctx.p.MLU(splits.Val, s.lossDemand()) * scale
		}
	}
	opt.Step(m.params, meanMLU)
	return meanMLU
}

// reinforceStep estimates ∇E[MLU] with Gaussian logit perturbations and a
// mean-reward baseline, then accumulates it through the logit network.
func (m *Model) reinforceStep(s Sample, rng *rand.Rand, scale float64) float64 {
	tp := autograd.NewTape()
	logits := m.logits(tp, s.Ctx, s.Demand)
	n := m.Cfg.RLSamples
	if n < 2 {
		n = 2
	}
	sigma := m.Cfg.RLSigma
	noises := make([]*tensor.Dense, n)
	rewards := make([]float64, n)
	var baseline float64
	for i := 0; i < n; i++ {
		noise := tensor.New(logits.Rows(), logits.Cols())
		for j := range noise.Data {
			noise.Data[j] = rng.NormFloat64() * sigma
		}
		noises[i] = noise
		perturbed := logits.Val.Clone()
		tensor.AxpyInto(perturbed, noise, 1)
		mlu := s.Ctx.p.MLU(softmaxRows(perturbed), s.lossDemand())
		rewards[i] = -mlu
		baseline += rewards[i]
	}
	baseline /= float64(n)

	// d(-E[reward])/d(logits) ≈ -Σ (R_i - b)·noise_i / (σ²·n)
	grad := tensor.New(logits.Rows(), logits.Cols())
	for i := 0; i < n; i++ {
		tensor.AxpyInto(grad, noises[i], -(rewards[i]-baseline)/(sigma*sigma*float64(n)))
	}
	// Pseudo-loss <logits, grad> has d/dlogits = grad.
	pseudo := tp.Scale(tp.SumAll(tp.Mul(logits, autograd.NewConst(grad))), scale)
	tp.Backward(pseudo)

	// Deterministic policy's achieved MLU for logging.
	return s.Ctx.p.MLU(softmaxRows(logits.Val.Clone()), s.lossDemand()) * scale
}

// softmaxRows applies the row-softmax kernel to every row of d in place
// and returns d.
func softmaxRows(d *tensor.Dense) *tensor.Dense {
	for i := 0; i < d.Rows; i++ {
		tensor.SoftmaxRow(d.Row(i), d.Row(i))
	}
	return d
}

// Fit trains with validation-best selection under the protocol HARP's Fit
// follows (autograd.FitBest: one shuffle per epoch, every step guarded, the
// epoch with the lowest mean validation MLU kept; an empty val selects on
// train). REINFORCE draws its noise from the shuffle's rng. Returns the
// per-epoch median training MLU curve (the quantity Figure 18 plots) and
// the best val MLU.
func (m *Model) Fit(train, val []Sample, epochs int, lr float64, batchSize int, seed int64) (curve []float64, bestVal float64) {
	if batchSize <= 0 {
		batchSize = 8
	}
	if len(val) == 0 {
		val = train
	}
	opt := autograd.NewAdam(lr)
	opt.GradClip = 5
	rng := rand.New(rand.NewSource(seed))
	var mlus []float64
	bestVal = autograd.FitBest(m.params, rng, len(train), batchSize, epochs,
		func(idx []int) {
			batch := make([]Sample, len(idx))
			for j, i := range idx {
				batch[j] = train[i]
			}
			mlus = append(mlus, m.TrainStep(opt, batch, rng))
		},
		func() float64 {
			curve = append(curve, median(mlus))
			mlus = mlus[:0]
			return m.MeanMLU(val)
		})
	return curve, bestVal
}

// MeanMLU evaluates mean hard MLU over the samples.
func (m *Model) MeanMLU(samples []Sample) float64 {
	if len(samples) == 0 {
		return 1e300
	}
	var total float64
	for _, s := range samples {
		total += s.Ctx.p.MLU(m.Splits(s.Ctx, s.Demand), s.lossDemand())
	}
	return total / float64(len(samples))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	if len(cp)%2 == 1 {
		return cp[len(cp)/2]
	}
	return (cp[len(cp)/2-1] + cp[len(cp)/2]) / 2
}
