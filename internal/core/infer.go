package core

// The inference engine — the one path every Splits/SplitsBatch call runs.
// The demand-independent half of a forward pass (embed: GNN + SETTRANS) is
// recorded once per call on a pooled inference-mode tape; the
// demand-dependent half (MLP1 + RAU) is hand-scheduled on reusable scratch
// buffers, once per snapshot, with the topology-dependent first-layer
// partial sums hoisted out of the per-snapshot loop. The tape forward
// (Forward → embed + adjust) is for training, and is the reference this
// engine is held to.
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
//     columns — precomputing it per batch and then accumulating the
//     remaining columns with the same kernel reproduces the original
//     left-to-right sum bit for bit.
//   - Every elementwise op mirrors the corresponding autograd op's formula
//     verbatim (including ReLU's `v < 0` comparison, which preserves -0,
//     and the kernel's skip of zero multiplicands).
//
// TestSplitsBatchBitIdentical enforces the contract: Splits and SplitsBatch
// against Forward on a gradient tape.

import (
	"math"
	"sync"

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

// inferScratch holds the per-batch state of the scratch inference engine:
// the shared embedding references and first-layer prefixes (topology-
// dependent, computed once per batch) plus the per-snapshot working
// buffers (reused across every snapshot of the batch).
type inferScratch struct {
	key inferScratchKey

	// Batch-lifetime state. h lives on the tape that recorded the embedding
	// and is cleared on release.
	h          *tensor.Dense // numTokens×r edge-tunnel embeddings
	rauPrefix  *tensor.Dense // T×HR: RAU first layer after the tunnelEmb columns
	mlp1Prefix *tensor.Dense // T×H1: MLP1 first layer after the tunnelEmb columns

	// Per-snapshot working buffers.
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
	bu         []float64     // bottleneck utilization per tunnel
	mlu        float64       // max of util, refreshed by computeUtil
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
	sc.bu = make([]float64, key.t)
}

// precompute hoists the topology-dependent first-layer partial sums out of
// the per-snapshot loop: the RAU and MLP1 first layers restricted to their
// leading tunnelEmb columns, shared by every snapshot of the batch.
func (sc *inferScratch) precompute(m *Model, emb embedding) {
	sc.h = emb.h.Val
	r := m.Cfg.EmbedDim
	tensor.MatMul(sc.rauPrefix, emb.tunnelEmb.Val, headRows(m.rau.Layers[0].W.Val, r))
	tensor.MatMul(sc.mlp1Prefix, emb.tunnelEmb.Val, headRows(m.mlp1.Layers[0].W.Val, r))
}

// release drops tape-owned references (invalid after the tape resets) and
// returns the scratch to the pool.
func (sc *inferScratch) release() {
	sc.h = nil
	inferScratches.Put(sc)
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

// adjustInfer runs stages 3–4 (MLP1 + RAU) for one demand on the scratch
// engine, returning the F×K split matrix. The returned matrix is scratch
// memory: the caller must clone it before the next snapshot. Values are
// bit-identical to the tape-based adjust (see the file comment). sp, when
// non-nil, gains one forward.mlp1 and one forward.rau child span.
func (sc *inferScratch) adjustInfer(m *Model, ctx *probContext, demand *tensor.Dense, sp *reqtrace.Span) *tensor.Dense {
	p := ctx.p
	set := p.Tunnels
	numFlows, k := sc.key.f, sc.key.k
	numTunnels := sc.key.t
	r := sc.key.r
	invCap := ctx.invCap.Val

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
			sc.load.Data[f*k+j] = demand.Data[f] / ctx.maxCap
		}
	}

	// ---- 3. initial split predictor (MLP1) ----
	// First layer = per-batch prefix + the demand column + bias.
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
	// tens of clock reads on the hot path; the iteration count is an
	// attribute instead (the per-iteration histogram is the obs stage
	// timer below).
	rsp := sp.StartChild("forward.rau")
	rsp.AnnotateInt("iterations", int64(m.Cfg.RAUIterations))
	r0, r1 := m.rau.Layers[0], m.rau.Layers[1]
	rauW0Tail := tailRows(r0.W.Val, r)
	for it := 0; it < m.Cfg.RAUIterations; it++ {
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
			sc.btok[t] = ctx.clsPos[t] + 1 + best
			sc.bedge[t] = tun.Edges[best]
		}
		denom := sc.mlu + 1e-12
		mluFeat := (1.0 / 6) * math.Log1p(sc.mlu)
		// RAU input tail: [bottleneckEmb | ratio | mluFeat | buFeat |
		// demandFeat | uFeat] — the columns after the tunnelEmb prefix, in
		// the exact order adjust's ConcatCols lays them out.
		for t := 0; t < numTunnels; t++ {
			bu := sc.util.Data[sc.bedge[t]]
			sc.bu[t] = bu
			row := sc.rest.Row(t)
			copy(row[:r], sc.h.Row(sc.btok[t]))
			row[r] = bu / denom
			row[r+1] = mluFeat
			row[r+2] = (1.0 / 6) * math.Log1p(bu)
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
			row := sc.rest.Row(t)
			base := 0.5 * math.Tanh(sc.rauOut.Data[2*t])
			gate := 1 / (1 + math.Exp(-sc.rauOut.Data[2*t+1]))
			overrun := 1 / (1 + math.Exp(-(6 * (sc.bu[t] + -1))))
			atMax := 1 / (1 + math.Exp(-(10 * (row[r] + -0.85))))
			fire := (overrun + atMax) - overrun*atMax
			gatedBu := fire * row[r+2]
			penalty := 6*gatedBu + 4*(gate*gatedBu)
			sc.u.Data[t] = sc.u.Data[t] + (base - penalty)
		}
		sc.computeUtil(p, invCap)
		if tel != nil {
			span.End()
		}
	}
	rsp.End()
	if tel != nil {
		tel.passes.Inc()
	}
	return sc.w
}

// embedTapes pools the reusable tapes that record the embedding pass. They
// live in inference mode permanently: inference never calls Backward, so
// skipping the per-node gradient buffer (and its zeroing) is free speed with
// bit-identical values. Pooled rather than hung off the Model because
// inference must stay safe for concurrent use (the resilience server races
// inference goroutines against deadlines and may abandon them mid-forward):
// each goroutine owns its tape until it Puts it back, and a panicking or
// abandoned forward simply never returns its tape — the pool regenerates.
var embedTapes = sync.Pool{New: func() any {
	tp := autograd.NewReusableTape()
	tp.SetInference(true)
	return tp
}}

// Splits runs inference and returns the F×K split-ratio matrix: the
// one-snapshot case of SplitsBatch.
func (m *Model) Splits(c *Context, demand *tensor.Dense) *tensor.Dense {
	return m.SplitsSpan(nil, c, demand)
}

// SplitsSpan is Splits with request-trace propagation; see SplitsBatchSpan.
func (m *Model) SplitsSpan(sp *reqtrace.Span, c *Context, demand *tensor.Dense) *tensor.Dense {
	return m.SplitsBatchSpan(nil, c, []*tensor.Dense{demand}, sp)[0]
}

// MLU runs inference and evaluates the achieved MLU exactly on the problem.
func (m *Model) MLU(c *Context, demand *tensor.Dense) float64 {
	return c.inner.p.MLU(m.Splits(c, demand), demand)
}

// SplitsBatch runs inference for B demand matrices that share one Context,
// amortizing the demand-independent work: the GNN and SETTRANS embeddings
// — and the first-layer partial sums over them — are computed once for the
// whole batch, and only the demand-dependent MLP1/RAU stages run per
// snapshot, on reusable scratch. Each output is bit-identical to the
// training forward's (Forward) for the same (Context, demand) pair.
//
// Results are appended to dst (which may be nil) and also returned; each
// returned matrix is freshly cloned and owned by the caller. When the
// verify gate is on (verify.SetEnabled), every snapshot's routing
// invariants — rows sum to 1, nonnegative link loads, per-flow
// conservation — are re-checked; when off the gate is a single atomic load,
// preserving the inference allocation pin.
func (m *Model) SplitsBatch(dst []*tensor.Dense, c *Context, demands []*tensor.Dense) []*tensor.Dense {
	return m.SplitsBatchSpan(dst, c, demands, nil)
}

// SplitsBatchSpan is SplitsBatch with request-trace propagation: a
// non-nil sp (a request span, or a batch-dispatch root span) gains the
// shared forward.gnn and forward.settrans stage spans plus one
// forward.mlp1 and one forward.rau span per snapshot, and a verify-gate
// failure is recorded on it (which pins the trace in the flight recorder).
// With a nil sp it is exactly SplitsBatch.
func (m *Model) SplitsBatchSpan(dst []*tensor.Dense, c *Context, demands []*tensor.Dense, sp *reqtrace.Span) []*tensor.Dense {
	if len(demands) == 0 {
		return dst
	}
	ctx := c.inner
	tp := embedTapes.Get().(*autograd.Tape)
	emb := m.embed(tp, ctx, sp)
	sc := inferScratches.Get().(*inferScratch)
	sc.ensure(m, ctx)
	sc.precompute(m, emb)
	for _, d := range demands {
		dst = append(dst, sc.adjustInfer(m, ctx, d, sp).Clone())
	}
	sc.release()
	tp.Reset()
	embedTapes.Put(tp)
	if verify.Enabled() {
		for i, d := range demands {
			if err := verify.CheckRouting(ctx.p, dst[len(dst)-len(demands)+i], d); err != nil {
				sp.SetError(err)
				verify.Fail(err)
			}
		}
	}
	return dst
}
