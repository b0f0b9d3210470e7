package core

// The inference engine — the one path every Splits call runs. The
// demand-independent half of a forward pass (embed: GNN + SETTRANS, plus
// the first-layer partial sums over the tunnel embeddings) is the plan: it
// is recorded on a pooled inference-mode tape, copied into the pooled
// scratch, and kept there between calls, so a call that finds a plan built
// for its (Context, weights) runs only the demand-dependent half (MLP1 +
// RAU), hand-scheduled on the same scratch. The tape forward (Forward →
// embed + adjust) is for training, and is the reference this engine is held
// to.
//
// The plan is soft state: it lives in the sync.Pool the buffers live in, so
// an idle process gives it back at GC, and it is valid by content — the
// stamp is the Context's identity plus a hash of every parameter's bits —
// so no writer of the weights (optimizer step, snapshot restore, reload, a
// test poking Params()) has to tell the engine anything.
//
// Bit-exactness contract: every value this file computes is bit-identical
// to the tape-based adjust() path. That holds by construction, not by
// tolerance:
//
//   - The matmul kernel (tensor.matMulAccRange) accumulates each output
//     element's terms in ascending-k order starting from a zeroed
//     accumulator, with the bias row added after the full sum. tunnelEmb
//     forms the LEADING columns of both the MLP1 and RAU first-layer
//     inputs, so "first layer restricted to the tunnelEmb columns" is
//     exactly the kernel's per-element accumulator state after those
//     columns — precomputing it per plan and then accumulating the
//     remaining columns with the same kernel reproduces the original
//     left-to-right sum bit for bit.
//   - Every elementwise op mirrors the corresponding autograd op's formula
//     verbatim (including ReLU's `v < 0` comparison, which preserves -0,
//     and the kernel's skip of zero multiplicands).
//
//   - A plan hit reads the very values a build computed: the same embed,
//     the same kernels, a copy.
//
// TestSplitsBatchBitIdentical enforces the contract — Splits on a fresh
// Context and on a cached plan against Forward on a gradient tape — and
// TestPlanNeverStale that no write to the weights survives in a plan.
//
// Every RAU iteration ends in the per-flow softmax, so every iterate is a
// routable answer: SplitsCtx returns the one it has when its context is
// done, bit-identical to the tape forward at RAUIterations = k
// (TestSplitsCtxBitIdenticalAtEveryStop).

import (
	"context"
	"math"
	"sync"
	"time"

	"harpte/internal/autograd"
	"harpte/internal/obs"
	"harpte/internal/obs/reqtrace"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/verify"
)

// headRows and tailRows return contiguous row-range views of a Dense
// (shared backing array, no copy). Callers must treat views as read-only.
func headRows(d *tensor.Dense, n int) *tensor.Dense {
	return &tensor.Dense{Rows: n, Cols: d.Cols, Data: d.Data[:n*d.Cols]}
}

func tailRows(d *tensor.Dense, n int) *tensor.Dense {
	return &tensor.Dense{Rows: d.Rows - n, Cols: d.Cols, Data: d.Data[n*d.Cols:]}
}

// inferScratchKey captures every dimension the scratch buffers depend on.
type inferScratchKey struct {
	t, f, k, e, r, h1, hr int
}

// inferScratch is the pooled state of the inference engine: the plan (the
// embedding and first-layer prefixes — functions of the Context and the
// weights only — with the stamp saying which) plus the per-call working
// buffers.
type inferScratch struct {
	key inferScratchKey

	// The plan, valid for exactly the (planCtx, planWeights) it was built
	// from; planCtx is nil while there is none, or one is half-built.
	planCtx     *probContext
	planWeights uint64
	h           *tensor.Dense // numTokens×r edge-tunnel embeddings, copied off the tape
	rauPrefix   *tensor.Dense // T×HR: RAU first layer after the tunnelEmb columns
	mlp1Prefix  *tensor.Dense // T×H1: MLP1 first layer after the tunnelEmb columns

	// Per-call working buffers.
	feat, load *tensor.Dense // T×1 demand feature / capacity-normalized load
	mlp1Hidden *tensor.Dense // T×H1
	u          *tensor.Dense // T×1 split logits
	w          *tensor.Dense // F×K split ratios
	x          *tensor.Dense // T×1 per-tunnel traffic
	loads      *tensor.Dense // E×1 link loads
	util       *tensor.Dense // E×1 link utilizations
	rest       *tensor.Dense // T×(r+5): RAU input minus the tunnelEmb prefix
	rauHidden  *tensor.Dense // T×HR
	rauOut     *tensor.Dense // T×2
	btok       []int         // bottleneck token row per tunnel
	bedge      []int         // bottleneck edge per tunnel
	mlu        float64       // max of util, refreshed by computeUtil
	// Per-edge RAU features of the current utilizations, gathered by
	// every tunnel the edge is the bottleneck of.
	edgeRatio, edgeBuFeat, edgeGatedBu []float64
}

var inferScratches = sync.Pool{New: func() any { return new(inferScratch) }}

// ensure sizes the working buffers for one (model, context) pair,
// reallocating only when a dimension changed since the scratch was last
// used — on a hot serving shard this is a no-op.
func (sc *inferScratch) ensure(m *Model, ctx *probContext) {
	set := ctx.p.Tunnels
	key := inferScratchKey{
		t:  len(set.Flows) * set.K,
		f:  len(set.Flows),
		k:  set.K,
		e:  ctx.p.Graph.NumEdges(),
		r:  m.Cfg.EmbedDim,
		h1: m.Cfg.MLP1Hidden,
		hr: m.Cfg.RAUHidden,
	}
	if sc.key == key {
		return
	}
	sc.key = key
	sc.planCtx = nil
	sc.rauPrefix = tensor.New(key.t, key.hr)
	sc.mlp1Prefix = tensor.New(key.t, key.h1)
	sc.feat = tensor.New(key.t, 1)
	sc.load = tensor.New(key.t, 1)
	sc.mlp1Hidden = tensor.New(key.t, key.h1)
	sc.u = tensor.New(key.t, 1)
	sc.w = tensor.New(key.f, key.k)
	sc.x = tensor.New(key.t, 1)
	sc.loads = tensor.New(key.e, 1)
	sc.util = tensor.New(key.e, 1)
	sc.rest = tensor.New(key.t, key.r+5)
	sc.rauHidden = tensor.New(key.t, key.hr)
	sc.rauOut = tensor.New(key.t, 2)
	sc.btok = make([]int, key.t)
	sc.bedge = make([]int, key.t)
	sc.edgeRatio = make([]float64, key.e)
	sc.edgeBuFeat = make([]float64, key.e)
	sc.edgeGatedBu = make([]float64, key.e)
}

// weightsStamp hashes everything embed and buildPlan read from the model:
// every parameter's shape and bits, and the Config fields that steer embed
// — not RAUIterations, which only the RAU loop reads. Each step is a
// bijection of the running state, so two weight sets that differ in one
// element never collide.
func (m *Model) weightsStamp() uint64 {
	mix := func(h, v uint64) uint64 {
		h = (h ^ v) * 0x9e3779b97f4a7c15
		return h ^ h>>32
	}
	h := mix(0, uint64(m.Cfg.Heads))
	h = mix(h, uint64(m.Cfg.GNNLayers))
	h = mix(h, uint64(m.Cfg.SetTransLayers))
	if m.Cfg.MeanPoolTunnels {
		h = mix(h, 1)
	}
	for _, p := range m.params {
		h = mix(h, uint64(p.Val.Rows))
		h = mix(h, uint64(p.Val.Cols))
		for _, v := range p.Val.Data {
			h = mix(h, math.Float64bits(v))
		}
	}
	return h
}

// buildPlan runs the demand-independent half of the forward for (m, ctx)
// and keeps it: the embedding copied off the tape, and the RAU and MLP1
// first layers restricted to their leading tunnelEmb columns. The stamp is
// cleared first and set last, so a build that panics leaves no plan behind
// rather than half of one. It takes no context on purpose: a build is
// bounded and every later request reads it, and cancelling one would turn
// any deadline shorter than a build into "no plan, ever" on a changed
// topology.
func (sc *inferScratch) buildPlan(m *Model, ctx *probContext, weights uint64, sp *reqtrace.Span) {
	sc.planCtx = nil
	tp := embedTapes.Get().(*autograd.Tape)
	emb := m.embed(tp, ctx, sp)
	if hv := emb.h.Val; sc.h == nil || len(sc.h.Data) != len(hv.Data) {
		sc.h = hv.Clone()
	} else {
		sc.h.Rows, sc.h.Cols = hv.Rows, hv.Cols
		copy(sc.h.Data, hv.Data)
	}
	r := m.Cfg.EmbedDim
	tensor.MatMul(sc.rauPrefix, emb.tunnelEmb.Val, headRows(m.rau.Layers[0].W.Val, r))
	tensor.MatMul(sc.mlp1Prefix, emb.tunnelEmb.Val, headRows(m.mlp1.Layers[0].W.Val, r))
	tp.Reset()
	embedTapes.Put(tp)
	sc.planCtx, sc.planWeights = ctx, weights
}

// reluInPlace mirrors autograd.Tape.ReLU's elementwise branch exactly.
func reluInPlace(d []float64) {
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
}

// accColumn accumulates one input column's contribution into a first-layer
// output, mirroring matMulAccRange's inner loop (including the zero skip):
// dst.Row(i) += col[i] * wrow.
func accColumn(dst *tensor.Dense, col, wrow []float64) {
	for i := 0; i < dst.Rows; i++ {
		aik := col[i]
		if aik == 0 {
			continue
		}
		drow := dst.Row(i)
		for j := range drow {
			drow[j] += aik * wrow[j]
		}
	}
}

// computeUtil mirrors adjust's computeUtil closure: softmax the logits per
// flow, spread capacity-normalized demand over the tunnels, and push it
// through the edge-tunnel incidence to per-link utilizations.
func (sc *inferScratch) computeUtil(p *te.Problem, invCap *tensor.Dense) {
	for f := 0; f < sc.key.f; f++ {
		tensor.SoftmaxRow(sc.w.Row(f), sc.u.Data[f*sc.key.k:(f+1)*sc.key.k])
	}
	for i := range sc.x.Data {
		sc.x.Data[i] = sc.w.Data[i] * sc.load.Data[i]
	}
	p.Incidence().MulDense(sc.loads, sc.x)
	for i := range sc.util.Data {
		sc.util.Data[i] = sc.loads.Data[i] * invCap.Data[i]
	}
	sc.mlu, _ = sc.util.Max()
}

// expired reports whether ctx is done or its deadline has passed — by the
// clock, not the context's timer: on two busy cores polling Err alone let a
// median 4 iterations run under a 300 µs timeout, the clock 1.
func expired(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	deadline, ok := ctx.Deadline()
	return ok && !time.Now().Before(deadline)
}

// adjustInfer runs stages 3–4 (MLP1 + RAU) for one demand on the scratch's
// plan, returning the F×K split matrix and how many RAU iterations produced
// it: ctx is polled once before each iteration, never inside the per-tunnel
// loops. The returned matrix is scratch memory: the caller must clone it
// before releasing the scratch. Values are bit-identical to the tape-based
// adjust at that many iterations (see the file comment). sp, when non-nil,
// gains one forward.mlp1 and one forward.rau child span.
func (sc *inferScratch) adjustInfer(ctx context.Context, m *Model, pc *probContext, demand *tensor.Dense, sp *reqtrace.Span) (*tensor.Dense, int) {
	p := pc.p
	set := p.Tunnels
	numFlows, k := sc.key.f, sc.key.k
	numTunnels := sc.key.t
	r := sc.key.r
	invCap := pc.invCap.Val

	tel := m.tele
	var span obs.Span
	msp := sp.StartChild("forward.mlp1")
	if tel != nil {
		span = tel.mlp1.Start()
	}

	// ---- demand features (mirrors demandInputs) ----
	mean := 0.0
	for _, v := range demand.Data {
		mean += v
	}
	mean /= float64(numFlows)
	if mean <= 0 {
		mean = 1
	}
	for f := 0; f < numFlows; f++ {
		for j := 0; j < k; j++ {
			sc.feat.Data[f*k+j] = demand.Data[f] / mean
			sc.load.Data[f*k+j] = demand.Data[f] / pc.maxCap
		}
	}

	// ---- 3. initial split predictor (MLP1) ----
	// First layer = the plan's prefix + the demand column + bias.
	l0, l1 := m.mlp1.Layers[0], m.mlp1.Layers[1]
	copy(sc.mlp1Hidden.Data, sc.mlp1Prefix.Data)
	accColumn(sc.mlp1Hidden, sc.feat.Data, l0.W.Val.Row(r))
	tensor.AddRowVecInto(sc.mlp1Hidden, sc.mlp1Hidden, l0.B.Val)
	reluInPlace(sc.mlp1Hidden.Data)
	tensor.MatMul(sc.u, sc.mlp1Hidden, l1.W.Val)
	tensor.AddRowVecInto(sc.u, sc.u, l1.B.Val)
	for i, v := range sc.u.Data {
		sc.u.Data[i] = 3 * math.Tanh((1.0/3)*v)
	}
	sc.computeUtil(p, invCap)
	if tel != nil {
		span.End()
	}
	msp.End()

	// ---- 4. recurrent adjustment unit ----
	// One span covers the whole RAU loop — per-iteration spans would put
	// tens of clock reads on the hot path; the count of iterations that ran
	// is an attribute instead (the per-iteration histogram is the obs stage
	// timer below).
	rsp := sp.StartChild("forward.rau")
	r0, r1 := m.rau.Layers[0], m.rau.Layers[1]
	rauW0Tail := tailRows(r0.W.Val, r)
	it := 0
	for ; it < m.Cfg.RAUIterations && !expired(ctx); it++ {
		if tel != nil {
			span = tel.rauIter.Start()
		}
		for t := 0; t < numTunnels; t++ {
			f := t / k
			tun := set.Tunnel(f, t%k)
			// Same smallest-edge-id tie-break as adjust: series edges tie
			// exactly on equal-capacity chains.
			best, bestU := 0, math.Inf(-1)
			for pi, e := range tun.Edges {
				uu := sc.util.Data[e]
				if uu > bestU || (uu == bestU && e < tun.Edges[best]) {
					bestU = uu
					best = pi
				}
			}
			sc.btok[t] = pc.clsPos[t] + 1 + best
			sc.bedge[t] = tun.Edges[best]
		}
		denom := sc.mlu + 1e-12
		mluFeat := (1.0 / 6) * math.Log1p(sc.mlu)
		// adjust's ratio, buFeat and penalty trigger are functions of the
		// bottleneck edge's utilization alone: evaluated once per edge, not
		// once per tunnel sharing it, by the same expressions.
		for e, bu := range sc.util.Data {
			ratio := bu / denom
			buFeat := (1.0 / 6) * math.Log1p(bu)
			overrun := 1 / (1 + math.Exp(-(6 * (bu + -1))))
			atMax := 1 / (1 + math.Exp(-(10 * (ratio + -0.85))))
			fire := (overrun + atMax) - overrun*atMax
			sc.edgeRatio[e], sc.edgeBuFeat[e], sc.edgeGatedBu[e] = ratio, buFeat, fire*buFeat
		}
		// RAU input tail: [bottleneckEmb | ratio | mluFeat | buFeat |
		// demandFeat | uFeat] — the columns after the tunnelEmb prefix, in
		// the exact order adjust's ConcatCols lays them out.
		for t := 0; t < numTunnels; t++ {
			row := sc.rest.Row(t)
			copy(row[:r], sc.h.Row(sc.btok[t]))
			row[r] = sc.edgeRatio[sc.bedge[t]]
			row[r+1] = mluFeat
			row[r+2] = sc.edgeBuFeat[sc.bedge[t]]
			row[r+3] = sc.feat.Data[t]
			row[r+4] = math.Tanh((1.0 / 8) * sc.u.Data[t])
		}
		copy(sc.rauHidden.Data, sc.rauPrefix.Data)
		tensor.MatMulAcc(sc.rauHidden, sc.rest, rauW0Tail)
		tensor.AddRowVecInto(sc.rauHidden, sc.rauHidden, r0.B.Val)
		reluInPlace(sc.rauHidden.Data)
		tensor.MatMul(sc.rauOut, sc.rauHidden, r1.W.Val)
		tensor.AddRowVecInto(sc.rauOut, sc.rauOut, r1.B.Val)
		for t := 0; t < numTunnels; t++ {
			base := 0.5 * math.Tanh(sc.rauOut.Data[2*t])
			gate := 1 / (1 + math.Exp(-sc.rauOut.Data[2*t+1]))
			gatedBu := sc.edgeGatedBu[sc.bedge[t]]
			penalty := 6*gatedBu + 4*(gate*gatedBu)
			sc.u.Data[t] = sc.u.Data[t] + (base - penalty)
		}
		sc.computeUtil(p, invCap)
		if tel != nil {
			span.End()
		}
	}
	rsp.AnnotateInt("iterations", int64(it))
	rsp.End()
	if tel != nil {
		tel.passes.Inc()
	}
	return sc.w, it
}

// embedTapes pools the reusable tapes that record the embedding pass. They
// live in inference mode permanently: inference never calls Backward, so
// skipping the per-node gradient buffer (and its zeroing) is free speed with
// bit-identical values. Pooled rather than hung off the Model because
// inference must stay safe for concurrent use: each goroutine owns its tape
// until it Puts it back, and a panicking forward simply never returns its
// tape — the pool regenerates.
var embedTapes = sync.Pool{New: func() any {
	tp := autograd.NewReusableTape()
	tp.SetInference(true)
	return tp
}}

// Splits runs inference to full RAU depth and returns the F×K split-ratio
// matrix, freshly allocated and owned by the caller. It is bit-identical to
// the training forward's (Forward) for the same (Context, demand) pair.
func (m *Model) Splits(c *Context, demand *tensor.Dense) *tensor.Dense {
	splits, _ := m.SplitsCtx(context.Background(), c, demand)
	return splits
}

// SplitsCtx is Splits under a context, and the engine's one entry point. It
// takes a scratch from the pool; if the plan in it was built for this
// Context and these weights the call runs MLP1 and the RAU only, otherwise
// it rebuilds the plan first. Once ctx is done the RAU stops before its next
// iteration and SplitsCtx returns the iterate it has and how many iterations
// are behind it — or nil if none finished: MLP1's guess alone measures worse
// than ECMP on an unseen topology (testdata/anytime_curve.csv), so it is an
// answer only for a model with no RAU. The span ctx carries, if any, gains a
// plan=hit|build annotation, the forward.gnn and forward.settrans stage spans
// on a build, and forward.mlp1 and forward.rau always; a verify-gate failure
// is recorded on it (which pins the trace in the flight recorder).
//
// When the verify gate is on (verify.SetEnabled) the answer's routing
// invariants — rows sum to 1, nonnegative link loads, per-flow conservation
// — are re-checked; when off the gate is a single atomic load, preserving
// the inference allocation pin.
func (m *Model) SplitsCtx(ctx context.Context, c *Context, demand *tensor.Dense) (splits *tensor.Dense, iterations int) {
	sp := reqtrace.FromContext(ctx)
	pc := c.inner
	sc := inferScratches.Get().(*inferScratch)
	sc.ensure(m, pc)
	if weights := m.weightsStamp(); sc.planCtx == pc && sc.planWeights == weights {
		sp.Annotate("plan", "hit")
	} else {
		sp.Annotate("plan", "build")
		sc.buildPlan(m, pc, weights, sp)
	}
	w, iterations := sc.adjustInfer(ctx, m, pc, demand, sp)
	if iterations > 0 || m.Cfg.RAUIterations == 0 {
		splits = w.Clone()
	}
	inferScratches.Put(sc)
	if splits != nil && verify.Enabled() {
		if err := verify.CheckRouting(pc.p, splits, demand); err != nil {
			sp.SetError(err)
			verify.Fail(err)
		}
	}
	return splits, iterations
}

// MLU runs inference and evaluates the achieved MLU exactly on the problem.
func (m *Model) MLU(c *Context, demand *tensor.Dense) float64 {
	return c.inner.p.MLU(m.Splits(c, demand), demand)
}
