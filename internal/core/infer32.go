package core

import (
	"math"
	"sync"

	"harpte/internal/nn"
	"harpte/internal/obs/reqtrace"
	"harpte/internal/tensor"
	"harpte/internal/verify"
)

// This file is the float32 inference engine: the serving half of the
// train-in-float64 / serve-in-float32 precision split. It mirrors embed()
// and adjust() from harp.go exactly — same formulas, same argmax rules,
// same guarded softmax semantics — on float32 storage and arithmetic, which
// halves the memory traffic that dominates KDL-scale (754-node) forward
// passes. The float64 tape path stays the source of truth: training, the
// batch engine, and the verify oracles all run against it, and
// verify.CheckPrecisionDivergence bounds how far this engine may drift.

// model32 is the immutable float32 mirror of a Model's weights. Built once
// (strict overflow-rejecting conversion — an unrepresentable weight means
// the checkpoint cannot serve in 32-bit) and shared by every goroutine.
type model32 struct {
	gnn      *nn.GCN32
	edgeProj *nn.Linear32
	cls      *tensor.Dense32
	settrans *nn.Encoder32
	mlp1     *nn.MLP32
	rau      *nn.MLP32

	meanPool bool
	rauIters int
	embedDim int
}

// ctxConsts32 is the float32 mirror of a probContext's structural
// constants. Conversion clamps (capacities are request-path data: serving
// must not fail on an extreme but legal topology), and the CSR mirrors
// alias the float64 index structure, so a sparse-path serve sees the exact
// same sparsity pattern as the dense-path one.
type ctxConsts32 struct {
	aHat   *tensor.CSR32
	inc    *tensor.CSR32
	feats  *tensor.Dense32
	capCol *tensor.Dense32
	invCap *tensor.Dense32

	// avgPool mirrors probContext.avgPool: mean-pool ablation only, built
	// on its first float32 forward.
	avgPool     *tensor.CSR32
	avgPoolOnce sync.Once
}

func (c32 *ctxConsts32) meanPool(ctx *probContext) *tensor.CSR32 {
	c32.avgPoolOnce.Do(func() { c32.avgPool = ctx.meanPool().Clamp32() })
	return c32.avgPool
}

// float32Consts lazily builds (once) and returns the context's float32
// constant mirrors.
func (ctx *probContext) float32Consts() *ctxConsts32 {
	ctx.c32Once.Do(func() {
		ctx.c32 = &ctxConsts32{
			aHat:   ctx.aHat.Clamp32(),
			inc:    ctx.p.Incidence().Clamp32(),
			feats:  tensor.ClampDense32(ctx.feats.Val),
			capCol: tensor.ClampDense32(ctx.capCol.Val),
			invCap: tensor.ClampDense32(ctx.invCap.Val),
		}
	})
	return ctx.c32
}

// EnableFloat32Inference builds the float32 weight mirror and routes Splits
// through it. Weights are narrowed with strict overflow rejection; a typed
// *tensor.Float32OverflowError means the checkpoint cannot serve in 32-bit
// and the serving default stays float64. The mirror snapshots the weights:
// re-enable after training steps or a hot reload to pick up new values.
func (m *Model) EnableFloat32Inference() error {
	mm, err := m.buildMirror32()
	if err != nil {
		return err
	}
	m.mirror32.Store(mm)
	m.use32.Store(true)
	return nil
}

// DisableFloat32Inference restores the float64 serving default. The cached
// mirror is kept for SplitsFloat32 callers.
func (m *Model) DisableFloat32Inference() { m.use32.Store(false) }

// Float32InferenceEnabled reports whether Splits routes through the
// float32 engine.
func (m *Model) Float32InferenceEnabled() bool { return m.use32.Load() }

// SplitsFloat32 runs one float32-path inference regardless of the serving
// default, building and caching the weight mirror on first use. It is how
// the verify precision oracle and the benches compare the two paths.
func (m *Model) SplitsFloat32(c *Context, demand *tensor.Dense) (*tensor.Dense, error) {
	mm := m.mirror32.Load()
	if mm == nil {
		var err error
		if mm, err = m.buildMirror32(); err != nil {
			return nil, err
		}
		m.mirror32.Store(mm)
	}
	return m.runFloat32(nil, mm, c, demand), nil
}

func (m *Model) buildMirror32() (*model32, error) {
	mm := &model32{
		meanPool: m.Cfg.MeanPoolTunnels,
		rauIters: m.Cfg.RAUIterations,
		embedDim: m.Cfg.EmbedDim,
	}
	var err error
	if mm.gnn, err = nn.NewGCN32(m.gnn); err != nil {
		return nil, err
	}
	if mm.edgeProj, err = nn.NewLinear32(m.edgeProj); err != nil {
		return nil, err
	}
	if mm.cls, err = tensor.ConvertDense32(m.cls.Val); err != nil {
		return nil, err
	}
	if mm.settrans, err = nn.NewEncoder32(m.settrans); err != nil {
		return nil, err
	}
	if mm.mlp1, err = nn.NewMLP32(m.mlp1); err != nil {
		return nil, err
	}
	if mm.rau, err = nn.NewMLP32(m.rau); err != nil {
		return nil, err
	}
	return mm, nil
}

// infer32Arenas pools the per-goroutine float32 scratch arenas, mirroring
// inferTapes: an abandoned forward simply never returns its arena.
var infer32Arenas = sync.Pool{New: func() any { return tensor.NewArena32() }}

func sigmoid32(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

func tanh32(v float32) float32 { return float32(math.Tanh(float64(v))) }

// runFloat32 is the full float32 forward: embed + adjust mirrored from
// harp.go, then widen, verify-gate, and return. The returned matrix is
// freshly allocated (it outlives the arena).
func (m *Model) runFloat32(sp *reqtrace.Span, mm *model32, c *Context, demand *tensor.Dense) *tensor.Dense {
	ctx := c.inner
	fsp := sp.StartChild("forward.float32")
	ar := infer32Arenas.Get().(*tensor.Arena32)
	w := m.forward32(ar, mm, ctx, demand)
	out := w.ToDense()
	ar.Reset()
	infer32Arenas.Put(ar)
	fsp.End()
	if verify.Enabled() {
		if err := verify.CheckRouting(ctx.p, out, demand); err != nil {
			sp.SetError(err)
			verify.Fail(err)
		}
	}
	return out
}

// forward32 computes the F×K split ratios into arena scratch.
func (m *Model) forward32(ar *tensor.Arena32, mm *model32, ctx *probContext, demand *tensor.Dense) *tensor.Dense32 {
	c32 := ctx.float32Consts()
	p := ctx.p
	set := p.Tunnels
	numFlows := len(set.Flows)
	k := set.K
	numTunnels := numFlows * k
	r := mm.embedDim

	// ---- 1. topology embedding (GNN) ----
	nodeEmb := mm.gnn.Forward(ar, c32.aHat, c32.feats) // V×gnnOut
	gout := nodeEmb.Cols
	numEdges := len(ctx.srcIdx)
	edgeRaw := ar.Get(numEdges, gout+1)
	for i := 0; i < numEdges; i++ {
		srow := nodeEmb.Row(ctx.srcIdx[i])
		drow := nodeEmb.Row(ctx.dstIdx[i])
		erow := edgeRaw.Row(i)
		for j := 0; j < gout; j++ {
			erow[j] = srow[j] + drow[j]
		}
		erow[gout] = c32.capCol.Data[i]
	}
	edgeEmb := mm.edgeProj.Forward(ar, edgeRaw) // E×r
	for i, v := range edgeEmb.Data {
		edgeEmb.Data[i] = tanh32(v)
	}

	// ---- 2. tunnel embeddings (SETTRANS over hyperedge tokens) ----
	withCLS := ar.Get(numEdges+1, r)
	copy(withCLS.Data[:numEdges*r], edgeEmb.Data)
	copy(withCLS.Row(numEdges), mm.cls.Data)
	tokens := ar.Get(len(ctx.tokenIdx), r)
	for i, row := range ctx.tokenIdx {
		copy(tokens.Row(i), withCLS.Row(row))
	}
	var h, tunnelEmb *tensor.Dense32
	if mm.meanPool {
		h = tokens
		tunnelEmb = ar.GetZeroed(numTunnels, r)
		c32.meanPool(ctx).MulDense32(tunnelEmb, h)
	} else {
		h = mm.settrans.Forward(ar, tokens, ctx.segs)
		tunnelEmb = ar.Get(numTunnels, r)
		for t, row := range ctx.clsPos {
			copy(tunnelEmb.Row(t), h.Row(row))
		}
	}

	// ---- demand features and constants ----
	// Demand statistics are computed in float64 (they come from the float64
	// request) and narrowed with clamping per entry.
	mean := 0.0
	for _, v := range demand.Data {
		mean += v
	}
	mean /= float64(numFlows)
	if mean <= 0 {
		mean = 1
	}
	feat := ar.Get(numTunnels, 1)
	load := ar.Get(numTunnels, 1)
	for f := 0; f < numFlows; f++ {
		fv := clamp32(demand.Data[f] / mean)
		lv := clamp32(demand.Data[f] / ctx.maxCap)
		for j := 0; j < k; j++ {
			feat.Data[f*k+j] = fv
			load.Data[f*k+j] = lv
		}
	}

	// ---- 3. initial split predictor (MLP1) ----
	mlpIn := ar.Get(numTunnels, r+1)
	concatCols32(mlpIn, tunnelEmb, feat)
	u := mm.mlp1.Forward(ar, mlpIn) // T×1
	for i, v := range u.Data {
		u.Data[i] = 3 * tanh32(v/3)
	}

	// ---- 4. recurrent adjustment unit ----
	w := ar.Get(numFlows, k)
	util := ar.GetZeroed(numEdges, 1)
	x := ar.Get(numTunnels, 1)
	var mlu float32
	computeUtil := func() {
		for f := 0; f < numFlows; f++ {
			row := w.Row(f)
			copy(row, u.Data[f*k:(f+1)*k])
			tensor.SoftmaxRow32(row, row)
		}
		for t := 0; t < numTunnels; t++ {
			x.Data[t] = w.Data[t] * load.Data[t]
		}
		c32.inc.MulDense32(util, x)
		mlu = 0
		for i, v := range util.Data {
			v *= c32.invCap.Data[i]
			util.Data[i] = v
			if v > mlu {
				mlu = v
			}
		}
	}
	computeUtil()

	if mm.rauIters > 0 {
		bottleneckEmb := ar.Get(numTunnels, r)
		rauIn := ar.Get(numTunnels, 2*r+5)
		buCol := ar.Get(numTunnels, 1)
		for it := 0; it < mm.rauIters; it++ {
			mluFeat := float32(math.Log1p(float64(mlu))) / 6
			for t := 0; t < numTunnels; t++ {
				f := t / k
				tun := set.Tunnel(f, t%k)
				// Smallest-edge-id tie-break, mirroring the float64 path:
				// series edges tie exactly, and the bottleneck choice must
				// not depend on edge order inside the tunnel.
				best, bestU := 0, float32(math.Inf(-1))
				for pi, e := range tun.Edges {
					uu := util.Data[e]
					if uu > bestU || (uu == bestU && e < tun.Edges[best]) {
						bestU = uu
						best = pi
					}
				}
				copy(bottleneckEmb.Row(t), h.Row(ctx.clsPos[t]+1+best))
				bu := util.Data[tun.Edges[best]]
				buCol.Data[t] = bu

				row := rauIn.Row(t)
				copy(row[:r], tunnelEmb.Row(t))
				copy(row[r:2*r], bottleneckEmb.Row(t))
				row[2*r] = bu / (mlu + 1e-12)                     // ratio
				row[2*r+1] = mluFeat                              // log-scaled MLU
				row[2*r+2] = float32(math.Log1p(float64(bu))) / 6 // log-scaled U(l)
				row[2*r+3] = feat.Data[t]                         // demand
				row[2*r+4] = tanh32(u.Data[t] / 8)                // bounded u
			}
			rauOut := mm.rau.Forward(ar, rauIn) // T×2
			for t := 0; t < numTunnels; t++ {
				base := 0.5 * tanh32(rauOut.At(t, 0))
				gate := sigmoid32(rauOut.At(t, 1))
				bu := buCol.Data[t]
				buFeat := rauIn.Row(t)[2*r+2]
				overrun := sigmoid32(6 * (bu - 1))
				atMax := sigmoid32(10 * (rauIn.Row(t)[2*r] - 0.85))
				fire := overrun + atMax - overrun*atMax
				gatedBu := fire * buFeat
				penalty := 6*gatedBu + 4*gate*gatedBu
				u.Data[t] += base - penalty
			}
			computeUtil()
		}
	}
	return w
}

func clamp32(v float64) float32 {
	f := float32(v)
	if math.IsInf(float64(f), 0) && !math.IsInf(v, 0) {
		if v > 0 {
			return math.MaxFloat32
		}
		return -math.MaxFloat32
	}
	return f
}

// concatCols32 writes [a ‖ b] into dst (same rows, dst.Cols = a.Cols+b.Cols).
func concatCols32(dst, a, b *tensor.Dense32) {
	for i := 0; i < dst.Rows; i++ {
		drow := dst.Row(i)
		copy(drow[:a.Cols], a.Row(i))
		copy(drow[a.Cols:], b.Row(i))
	}
}

// MLUFloat32 runs float32-path inference and evaluates the achieved MLU
// exactly (in float64) on the problem — the quantity the precision oracle
// compares against the float64 path.
func (m *Model) MLUFloat32(c *Context, demand *tensor.Dense) (float64, error) {
	s, err := m.SplitsFloat32(c, demand)
	if err != nil {
		return 0, err
	}
	return c.inner.p.MLU(s, demand), nil
}
