// Package core implements HARP, the paper's contribution: a
// topology-transferable neural traffic-engineering model built from four
// shared modules (Figure 2):
//
//  1. a GNN producing permutation-equivariant edge embeddings (§3.3);
//  2. SETTRANS, a transformer encoder without positional encodings applied
//     to each tunnel's multiset of edge embeddings (§3.4);
//  3. MLP1, predicting an initial unnormalized split ratio per tunnel; and
//  4. the Recurrent Adjustment Unit (RAU), which — like the iterations of
//     an optimization solver — repeatedly inspects the network-wide MLU and
//     each tunnel's bottleneck link and proposes additive corrections to
//     the split ratios (§3.5).
//
// All modules are shared across tunnels and flows, so the model has a
// small, topology-independent parameter count and transfers to topologies,
// tunnel sets and capacity configurations never seen in training.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"harpte/internal/autograd"
	"harpte/internal/nn"
	"harpte/internal/te"
	"harpte/internal/tensor"
)

// Config collects HARP's hyperparameters (Appendix A.2 lists the grid the
// paper searches; defaults here are the small end of that grid, which keeps
// CPU training practical).
type Config struct {
	// EmbedDim is r, the edge/tunnel embedding width (divisible by Heads).
	EmbedDim int
	// GNNLayers and GNNHidden shape the topology encoder.
	GNNLayers, GNNHidden int
	// SetTransLayers and Heads shape SETTRANS; FFDim is its feed-forward
	// width.
	SetTransLayers, Heads, FFDim int
	// MLP1Hidden is the hidden width of the initial split predictor.
	MLP1Hidden int
	// RAUHidden is the hidden width of the recurrent adjustment unit.
	RAUHidden int
	// RAUIterations is the recursion depth (the paper uses 3–14; 0 yields
	// the HARP-NoRAU ablation of §5.3).
	RAUIterations int
	// LossTemp smooths the max in the training objective (0 = hard max).
	LossTemp float64
	// MeanPoolTunnels replaces SETTRANS with mean pooling of each tunnel's
	// edge embeddings — the tunnel-embedding ablation benchmarked in
	// bench_test.go (the paper's §3.4 argues SETTRANS is needed for
	// edge-conditioned tunnel context).
	MeanPoolTunnels bool
	// Seed initializes parameters deterministically.
	Seed int64
}

// maxConfigDim caps every Config width/depth field. New() allocates O(dim²)
// parameter storage, so an unvalidated Config deserialized from a model
// file could request multi-GiB allocations (or panic on a negative or
// non-divisible dimension) before any weight is read.
const maxConfigDim = 1 << 14

// Validate rejects configurations New cannot construct a sane model from:
// non-positive or absurd widths, negative depths, a head count that does
// not divide the embedding width, or a non-finite loss temperature. Load
// calls it before instantiating a model from a deserialized Config — the
// legacy version-0 format has no checksum, so a crafted or corrupted file
// would otherwise drive New into a panic or an allocation bomb (found by
// FuzzModelLoad).
func (c Config) Validate() error {
	dims := []struct {
		name string
		v    int
		min  int
	}{
		{"EmbedDim", c.EmbedDim, 1},
		{"GNNLayers", c.GNNLayers, 1}, // the edge embedding concatenates the GCN layers' outputs
		{"GNNHidden", c.GNNHidden, 1},
		{"SetTransLayers", c.SetTransLayers, 0},
		{"Heads", c.Heads, 1},
		{"FFDim", c.FFDim, 1},
		{"MLP1Hidden", c.MLP1Hidden, 1},
		{"RAUHidden", c.RAUHidden, 1},
		{"RAUIterations", c.RAUIterations, 0},
	}
	for _, d := range dims {
		if d.v < d.min || d.v > maxConfigDim {
			return fmt.Errorf("core: Config.%s = %d out of range [%d, %d]", d.name, d.v, d.min, maxConfigDim)
		}
	}
	if c.EmbedDim%c.Heads != 0 {
		return fmt.Errorf("core: Config.EmbedDim (%d) must be divisible by Heads (%d)", c.EmbedDim, c.Heads)
	}
	if math.IsNaN(c.LossTemp) || math.IsInf(c.LossTemp, 0) || c.LossTemp < 0 {
		return fmt.Errorf("core: Config.LossTemp must be finite and >= 0, got %v", c.LossTemp)
	}
	return nil
}

// DefaultConfig returns a compact configuration suitable for CPU training.
func DefaultConfig() Config {
	return Config{
		EmbedDim:       12,
		GNNLayers:      2,
		GNNHidden:      8,
		SetTransLayers: 1,
		Heads:          2,
		FFDim:          24,
		MLP1Hidden:     16,
		RAUHidden:      24,
		RAUIterations:  8,
		LossTemp:       0.03,
		Seed:           1,
	}
}

// Model is a trained or trainable HARP instance.
type Model struct {
	Cfg Config

	gnn      *nn.GCN
	edgeProj *nn.Linear
	cls      *autograd.Tensor
	settrans *nn.Encoder
	mlp1     *nn.MLP
	rau      *nn.MLP

	params []*autograd.Tensor

	// trainTape is the model's persistent reusable training tape, built
	// lazily by trainingTape(). TrainStep is not safe for concurrent use on
	// one model (it accumulates into shared gradients), so a single tape
	// per model is safe; each data-parallel replica owns its own.
	trainTape *autograd.Tape

	// repMu guards reps, the cached data-parallel shadow replicas.
	repMu sync.Mutex
	reps  []*Model

	// lossHook, when set (TrainConfig.lossHook, a test seam), observes and
	// may replace each batch loss before the guarded step.
	lossHook func(float64) float64
}

// New constructs a HARP model with freshly initialized parameters.
func New(cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg}
	m.gnn = nn.NewGCN(rng, cfg.GNNLayers, 2, cfg.GNNHidden)
	// Edge embedding: sum of endpoint node embeddings ‖ capacity, projected
	// to the shared width r.
	m.edgeProj = nn.NewLinear(rng, m.gnn.OutDim()+1, cfg.EmbedDim)
	m.cls = autograd.XavierParam(rng, 1, cfg.EmbedDim)
	m.settrans = nn.NewEncoder(rng, cfg.SetTransLayers, cfg.EmbedDim, cfg.Heads, cfg.FFDim)
	m.mlp1 = nn.NewMLP(rng, nn.ActReLU, cfg.EmbedDim+1, cfg.MLP1Hidden, 1)
	// RAU input: tunnel embedding ‖ bottleneck edge-tunnel embedding ‖
	// [U(l)/MLU, log-scaled MLU, log-scaled U(l), demand, current u].
	// Two output channels: a base adjustment plus a term proportional to the
	// log-scaled bottleneck utilization, so the correction magnitude scales
	// with how overloaded the bottleneck is — the neural analogue of a
	// gradient step whose size is proportional to the violated constraint,
	// and what lets the RAU drive traffic fully off failed links it has
	// never seen (§4: HARP needs no rescaling).
	m.rau = nn.NewMLP(rng, nn.ActReLU, 2*cfg.EmbedDim+5, cfg.RAUHidden, 2)
	m.params = append(m.params, m.cls)
	m.params = append(m.params, nn.CollectParams(m.gnn, m.edgeProj, m.settrans, m.mlp1, m.rau)...)
	return m
}

// Params returns the trainable parameters.
func (m *Model) Params() []*autograd.Tensor { return m.params }

// NumParams returns the scalar parameter count (the paper reports 21K for
// the AnonNet model, vs 1M for DOTE).
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params {
		n += len(p.Val.Data)
	}
	return n
}

// probContext caches everything about a te.Problem that does not depend on
// the traffic matrix or the parameters: structural indices and normalized
// constants. Building it is cheap but rebuilding per epoch is wasteful.
type probContext struct {
	p *te.Problem

	aHat     *tensor.CSR
	feats    *autograd.Tensor // V×2 normalized node features
	srcIdx   []int            // per edge: source node
	dstIdx   []int            // per edge: destination node
	capCol   *autograd.Tensor // E×1 normalized capacity
	invCap   *autograd.Tensor // E×1 reciprocal normalized capacity
	tokenIdx []int            // rows into [edgeEmb ; cls] per token
	segs     []nn.Segment     // one per tunnel
	clsPos   []int            // token row of each tunnel's CLS; its i-th edge token is row clsPos[t]+1+i
	maxSeg   int              // tokens of the longest tunnel
	maxCap   float64

	// avgPool is the T×numTokens mean over each tunnel's edge tokens, read
	// only by the MeanPoolTunnels ablation: built from segs on first use
	// (meanPool), so a serving context does not retain it.
	avgPool     *tensor.CSR
	avgPoolOnce sync.Once
}

// Context precomputes the structural encoding of a problem. Contexts are
// immutable and safe to share across goroutines.
func (m *Model) Context(p *te.Problem) *Context { return &Context{inner: buildContext(p)} }

// Context is an opaque cached encoding of a te.Problem.
type Context struct {
	inner *probContext
}

func buildContext(p *te.Problem) *probContext {
	g := p.Graph
	ctx := &probContext{p: p, maxCap: g.MaxCapacity()}
	if ctx.maxCap <= 0 {
		ctx.maxCap = 1
	}
	ctx.aHat = g.NormalizedAdjacency()

	featRaw := g.NodeFeatures()
	maxDeg := 1.0
	for i := 0; i < featRaw.Rows; i++ {
		if d := featRaw.At(i, 1); d > maxDeg {
			maxDeg = d
		}
	}
	feats := tensor.New(featRaw.Rows, 2)
	for i := 0; i < featRaw.Rows; i++ {
		feats.Set(i, 0, featRaw.At(i, 0)/ctx.maxCap)
		feats.Set(i, 1, featRaw.At(i, 1)/maxDeg)
	}
	ctx.feats = autograd.NewConst(feats)

	numEdges := g.NumEdges()
	ctx.srcIdx = make([]int, numEdges)
	ctx.dstIdx = make([]int, numEdges)
	capCol := tensor.New(numEdges, 1)
	invCap := tensor.New(numEdges, 1)
	for i, e := range g.Edges {
		ctx.srcIdx[i] = e.Src
		ctx.dstIdx[i] = e.Dst
		c := e.Capacity / ctx.maxCap
		capCol.Data[i] = c
		invCap.Data[i] = 1 / c
	}
	ctx.capCol = autograd.NewConst(capCol)
	ctx.invCap = autograd.NewConst(invCap)

	// Token layout: for each tunnel, [CLS, edge tokens...]. The CLS row in
	// the gather source is row numEdges (the projected edge embedding matrix
	// is extended with the CLS embedding as its last row).
	set := p.Tunnels
	pos := 0
	for f := range set.PerFlow {
		for k := 0; k < set.K; k++ {
			tun := set.Tunnel(f, k)
			end := pos + 1 + len(tun.Edges)
			ctx.clsPos = append(ctx.clsPos, pos)
			ctx.tokenIdx = append(ctx.tokenIdx, numEdges) // CLS sentinel row
			ctx.tokenIdx = append(ctx.tokenIdx, tun.Edges...)
			ctx.segs = append(ctx.segs, nn.Segment{Start: pos, End: end})
			ctx.maxSeg = max(ctx.maxSeg, end-pos)
			pos = end
		}
	}
	return ctx
}

// meanPool returns the mean-pooling matrix of the MeanPoolTunnels ablation,
// building it on first use.
func (ctx *probContext) meanPool() *tensor.CSR {
	ctx.avgPoolOnce.Do(func() {
		avg := make([]tensor.COO, 0, len(ctx.tokenIdx)-len(ctx.segs))
		for t, seg := range ctx.segs {
			w := 1 / float64(seg.End-seg.Start-1)
			for r := seg.Start + 1; r < seg.End; r++ {
				avg = append(avg, tensor.E(t, r, w))
			}
		}
		ctx.avgPool = tensor.NewCSR(len(ctx.segs), len(ctx.tokenIdx), avg)
	})
	return ctx.avgPool
}

// ForwardResult carries the differentiable outputs of one forward pass.
type ForwardResult struct {
	// Splits is the F×K split-ratio node (rows sum to 1).
	Splits *autograd.Tensor
	// Util is the E×1 utilization node under the *input* demand.
	Util *autograd.Tensor
	// MLU is the hard maximum of Util (1×1).
	MLU *autograd.Tensor
}

// embed runs stages 1–2 of the architecture (GNN topology encoder,
// SETTRANS tunnel encoder) — everything that depends on the topology and
// parameters but not on the traffic matrix — and returns the token matrix h
// (numTokens×r edge-tunnel embeddings) and the T×r tunnel embeddings. It is
// the training forward and the reference inferScratch.buildPlan is held to,
// which runs stage 2 one block of tunnels at a time and keeps no token
// matrix, only what adjust's first layers make of it.
func (m *Model) embed(tp *autograd.Tape, ctx *probContext) (h, tunnelEmb *autograd.Tensor) {
	edgeEmb := m.embedEdges(tp, ctx)

	// ---- 2. tunnel embeddings (SETTRANS over hyperedge tokens) ----
	withCLS := tp.ConcatRows(edgeEmb, m.cls) // (E+1)×r
	if m.Cfg.MeanPoolTunnels {
		// Ablation: skip SETTRANS; tunnel embedding = mean of its edge
		// embeddings, edge-tunnel embeddings = the raw edge embeddings.
		h = tp.GatherRowsStable(withCLS, ctx.tokenIdx)
		return h, tp.CSRMul(ctx.meanPool(), h)
	}
	// Every token is one of withCLS's E+1 rows: SETTRANS projects those and
	// gathers the products (nn.SegmentAttention.Forward).
	h = m.settrans.Forward(tp, withCLS, ctx.tokenIdx, ctx.segs)
	return h, tp.GatherRowsStable(h, ctx.clsPos)
}

// embedEdges is stage 1, the topology embedding: the GNN's node
// embeddings, summed over each edge's endpoints, joined with its capacity
// and projected to the shared width (E×r). It is all of a capacity change
// that SETTRANS sees.
func (m *Model) embedEdges(tp *autograd.Tape, ctx *probContext) *autograd.Tensor {
	// Gathers over Context-owned index slices use the Stable variant:
	// contexts are immutable, so the defensive copy GatherRows makes is
	// wasted work on the hot path.
	nodeEmb := m.gnn.Forward(tp, ctx.aHat, ctx.feats) // V×gnnOut
	srcEmb := tp.GatherRowsStable(nodeEmb, ctx.srcIdx)
	dstEmb := tp.GatherRowsStable(nodeEmb, ctx.dstIdx)
	// Sum of endpoints makes h_ij == h_ji unless capacities differ (§3.3).
	edgeRaw := tp.ConcatCols(tp.Add(srcEmb, dstEmb), ctx.capCol) // E×(gnnOut+1)
	return tp.Tanh(m.edgeProj.Forward(tp, edgeRaw))              // E×r
}

// Forward runs HARP on a problem context and an F×1 demand vector,
// recording every operation on tp. The same demand is used both as a model
// input and for the RAU's internal MLU computations; HARP-Pred feeds a
// predicted demand here and computes the loss against the true demand via
// LossMLU.
//
// Forward is the training path and the reference the inference engine
// (infer.go) is held to bit for bit; requests never reach it.
func (m *Model) Forward(tp *autograd.Tape, c *Context, demand *tensor.Dense) ForwardResult {
	h, tunnelEmb := m.embed(tp, c.inner)
	return m.adjust(tp, c.inner, h, tunnelEmb, demand)
}

// adjust runs stages 3–4 (MLP1 initial splits, RAU refinement) for one
// demand matrix on top of embed's token matrix and tunnel embeddings: the
// demand-dependent half of Forward, which inferScratch.adjustInfer mirrors
// on scratch buffers.
func (m *Model) adjust(tp *autograd.Tape, ctx *probContext, h, tunnelEmb *autograd.Tensor, demand *tensor.Dense) ForwardResult {
	p := ctx.p
	set := p.Tunnels
	numFlows := len(set.Flows)
	k := set.K
	numTunnels := numFlows * k

	// ---- demand features and constants ----
	demandFeat, demandTunnel := m.demandInputs(tp, ctx, demand)

	// ---- 3. initial split predictor (MLP1) ----
	// The initial guess is soft-capped: an over-confident first proposal
	// (logit gaps ≫ 1) would take the RAU many iterations to walk back when
	// conditions change, which is exactly when the initial guess is least
	// trustworthy.
	u := m.mlp1.Forward(tp, tp.ConcatCols(tunnelEmb, demandFeat)) // T×1
	u = tp.Scale(tp.Tanh(tp.Scale(u, 1.0/3)), 3)

	// ---- 4. recurrent adjustment unit ----
	var util, mlu *autograd.Tensor
	computeUtil := func(u *autograd.Tensor) (*autograd.Tensor, *autograd.Tensor, *autograd.Tensor) {
		w := tp.SoftmaxRows(tp.Reshape(u, numFlows, k))
		x := tp.Mul(tp.Reshape(w, numTunnels, 1), demandTunnel)
		loads := tp.CSRMul(p.Incidence(), x)
		util := tp.Mul(loads, ctx.invCap)
		return w, util, tp.Max(util)
	}
	var w *autograd.Tensor
	w, util, mlu = computeUtil(u)
	for it := 0; it < m.Cfg.RAUIterations; it++ {
		// Bottleneck edge of every tunnel under the current utilizations
		// (numeric inspection of the eagerly computed forward values). The
		// index scratch comes from the tape arena — valid until Reset, which
		// is all the Stable gathers below need.
		btok := tp.Ints(numTunnels)
		bedge := tp.Ints(numTunnels)
		for t := 0; t < numTunnels; t++ {
			f := t / k
			tun := set.Tunnel(f, t%k)
			// Ties broken by smallest edge id, not position: edges in
			// series carry the same tunnel set, so equal-capacity chains
			// produce exactly equal utilizations, and a position-order
			// tie-break would make the bottleneck choice — and hence the
			// splits — depend on the edge order inside the tunnel.
			best, bestU := 0, math.Inf(-1)
			for pi, e := range tun.Edges {
				uu := util.Val.Data[e]
				if uu > bestU || (uu == bestU && e < tun.Edges[best]) {
					bestU = uu
					best = pi
				}
			}
			btok[t] = ctx.clsPos[t] + 1 + best
			bedge[t] = tun.Edges[best]
		}
		bottleneckEmb := tp.GatherRowsStable(h, btok) // T×r (edge-tunnel embedding)
		bu := tp.GatherRowsStable(util, bedge)        // T×1
		mluRep := tp.RepeatRow(mlu, numTunnels)       // T×1
		// ε guards the all-zero-demand case (MLU = 0).
		ratio := tp.Div(bu, tp.AddScalar(mluRep, 1e-12)) // U(l)/MLU ∈ [0,1]
		// Log-scaled utilization features stay informative across the many
		// orders of magnitude a failed link (near-zero capacity) produces, where
		// a squashing like x/(1+x) would saturate.
		mluFeat := tp.Log1p(mluRep, 1.0/6)
		buFeat := tp.Log1p(bu, 1.0/6)
		// The raw logit u grows without bound as the RAU drives traffic off
		// dead tunnels; feeding it back bounded keeps the MLP in its trained
		// operating range on out-of-distribution snapshots.
		uFeat := tp.Tanh(tp.Scale(u, 1.0/8))
		rauIn := tp.ConcatCols(tunnelEmb, bottleneckEmb, ratio, mluFeat, buFeat, demandFeat, uFeat)
		rauOut := m.rau.Forward(tp, rauIn) // T×2
		// The base channel is a bounded free-form adjustment: capping it
		// keeps any learned per-tunnel prior (e.g. "short tunnels are good")
		// from overpowering the capacity-overrun response below when
		// conditions leave the training distribution.
		base := tp.Scale(tp.Tanh(tp.SliceCols(rauOut, 0, 1)), 0.5)
		gate := tp.Sigmoid(tp.SliceCols(rauOut, 1, 2))
		// Capacity-overrun penalty — the §3.5 description ("a sequence of
		// RAUs penalizes capacity overruns") made structural. The sigmoid
		// activates once the tunnel's bottleneck utilization exceeds 1
		// (traffic physically cannot fit), and the magnitude grows with the
		// log-scaled overload, so the response extrapolates to complete
		// failures never seen in training and vanishes as soon as the
		// overrun clears — the fixed point an iterative solver converges
		// to. The learnable gate can deepen but never flip the penalty.
		overrun := tp.Sigmoid(tp.Scale(tp.AddScalar(bu, -1), 6))
		atMax := tp.Sigmoid(tp.Scale(tp.AddScalar(ratio, -0.85), 10))
		// Probabilistic OR: the penalty fires when the tunnel's bottleneck
		// is overrun (util > 1) OR is the network bottleneck (U(l) ≈ MLU) —
		// the two conditions §3.5 reduces splits for.
		fire := tp.Sub(tp.Add(overrun, atMax), tp.Mul(overrun, atMax))
		gatedBu := tp.Mul(fire, buFeat)
		penalty := tp.Add(tp.Scale(gatedBu, 6), tp.Scale(tp.Mul(gate, gatedBu), 4))
		adjust := tp.Sub(base, penalty)
		u = tp.Add(u, adjust)
		w, util, mlu = computeUtil(u)
	}
	return ForwardResult{Splits: w, Util: util, MLU: mlu}
}

// demandInputs returns (feature column, load column): the feature column is
// demand normalized to O(1) scale for the MLPs, the load column is demand
// in capacity-normalized units replicated per tunnel for utilization math.
func (m *Model) demandInputs(tp *autograd.Tape, ctx *probContext, demand *tensor.Dense) (*autograd.Tensor, *autograd.Tensor) {
	set := ctx.p.Tunnels
	numFlows := len(set.Flows)
	k := set.K
	mean := 0.0
	for _, v := range demand.Data {
		mean += v
	}
	mean /= float64(numFlows)
	if mean <= 0 {
		mean = 1
	}
	// Scratch and leaf nodes come from the tape so repeated forwards on a
	// reused tape don't reallocate per sample.
	feat := tp.Buffer(numFlows*k, 1)
	load := tp.Buffer(numFlows*k, 1)
	for f := 0; f < numFlows; f++ {
		for j := 0; j < k; j++ {
			feat.Data[f*k+j] = demand.Data[f] / mean
			load.Data[f*k+j] = demand.Data[f] / ctx.maxCap
		}
	}
	return tp.Const(feat), tp.Const(load)
}

// LossMLU builds the training objective for splits produced by Forward,
// evaluated against (possibly different) demand — the HARP-Pred training
// trick of §5.7: split ratios from the predicted matrix, loss on the true
// matrix. With Cfg.LossTemp > 0 the max is smoothed for denser gradients.
func (m *Model) LossMLU(tp *autograd.Tape, c *Context, splits *autograd.Tensor, demand *tensor.Dense) *autograd.Tensor {
	ctx := c.inner
	set := ctx.p.Tunnels
	numTunnels := len(set.Flows) * set.K
	_, load := m.demandInputs(tp, ctx, demand)
	x := tp.Mul(tp.Reshape(splits, numTunnels, 1), load)
	return te.LossMLU(tp, ctx.p, x, ctx.invCap, m.Cfg.LossTemp)
}
