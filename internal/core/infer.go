package core

// The inference engine — the one path every Splits call runs. The
// demand-independent half of a forward pass (GNN + SETTRANS) is buildPlan's:
// stage 1 on a pooled inference-mode tape, over E+1 rows, the encoder layers
// before the last one block of whole tunnels at a time on buffers of the
// pooled scratch, and the last layer for each tunnel's CLS row only, so that
// no token matrix exists but the plan's own. The plan is what the other half
// reads of the embedding: the first-layer partial sums it determines —
// MLP1's per tunnel, the RAU's per token — kept in the pooled scratch
// between calls, so a call that finds a plan built for its (Context,
// weights) runs only the demand-dependent half (MLP1 + RAU), hand-scheduled
// on the same scratch. A token's RAU row is computed (fill) the first time
// the RAU picks the token as its tunnel's bottleneck, from the last layer's
// inputs the plan keeps, and kept: every row at most once per plan, and
// only the rows some answer reads — for a first answer 14–32 % of the edge
// tokens of the benchmark's problems. The tape forward (Forward → embed +
// adjust) is for training, and is the reference this engine is held to.
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
//   - The matmul kernel (tensor.matMulAcc) accumulates each output
//     element's terms in ascending-k order starting from a zeroed
//     accumulator, with the bias row added after the full sum. tunnelEmb
//     forms the LEADING columns of both the MLP1 and RAU first-layer
//     inputs, so "first layer restricted to the tunnelEmb columns" is
//     exactly the kernel's per-element accumulator state after those
//     columns — precomputing it per plan and then accumulating the
//     remaining columns in the same order reproduces the original
//     left-to-right sum bit for bit.
//   - The RAU's next r columns are bottleneckEmb, a row of the embedding h
//     chosen per iteration — but every row of h is a token of exactly one
//     tunnel, so the accumulator state after those columns too is known per
//     token at build time: the tunnel's prefix row continued, by the same
//     kernel, through h[token]·W0[r:2r] (rauTok). It is the state that is
//     kept, never the product h·W0[r:2r] to be added to the prefix later:
//     (prefix + a₁) + a₂ is not prefix + (a₁ + a₂).
//   - The row kernel (rauRow) picks the bottleneck token's accumulator up
//     where the build left it: the five scalar columns in ConcatCols order,
//     the bias, ReLU, then the two output sums from zero over the hidden
//     units in ascending order and the output bias — each sum the sequence
//     of additions the matmul kernel would make, zero multiplicands skipped
//     exactly where it skips them.
//   - Every other step is the tape's kernel, not a copy of it: LayerNorm
//     is nn.LayerNorm.Apply, the per-head gathers nn.GatherColBlock, ReLU
//     tensor.ReLUInto (whose `v < 0` preserves -0) — the loops the tape
//     ops themselves run. What is written here alone is the demand column
//     (accColumn: macRow's inner loop, zero skip included) and rauRow.
//   - SETTRANS never lets two tunnels interact: attention is per segment,
//     and LayerNorm, the matmul kernel (macRow: one output row at a time),
//     bias, ReLU and the residual adds are per row. Run over any run of
//     whole tunnels, the tape forward's own kernels therefore compute for
//     each row what they compute for it over all tokens at once: the block
//     loop is the tape's arithmetic by row independence, not by a re-derived
//     summation order, and the block size cannot show in a bit.
//   - The same argument holds within a tunnel for the last layer, down to
//     one query row: the attention row of a query reads only its segment's
//     key and value rows; MatMulABT sums each element from zero in
//     ascending k (abtAcc, dot4), however many rows its first operand has;
//     and ScaleInto, SoftmaxRow, LayerNorm.Apply, macRow, the bias, ReLU and
//     the residual adds all work per row. So a query row run alone through
//     the same kernels, against its segment's keys and values, equals its
//     row of the pass over all tokens (hRows), whether it runs with the
//     other CLS rows of a block at build time or alone in a fill. No kernel
//     and no summation order is written for it. A filled rauTok row is the
//     tunnel's prefix, kept in its CLS token's row (which no bottleneck
//     reads: the RAU picks an edge token), continued through h[tok]·W0[r:2r]
//     by MatMulAcc on that one row — the accumulation the pass over all
//     tokens makes for it. A build clears the fill markers before the stamp,
//     and a fill sets its marker only after the row is written.
//   - A plan hit reads the very values a build computed: the same kernels,
//     a continued accumulation.
//   - The RAU reads a tunnel's accumulator from that tunnel's own row of
//     rauAcc, which is a byte copy of the plan's rauTok row for the
//     bottleneck token, re-copied whenever the token differs from the one
//     it holds (that pass reads the rauTok row itself) and forgotten by
//     every build: the values are rauTok's, so the contract is unchanged;
//     only where they are read from moved.
//
// TestSplitsBatchBitIdentical enforces the contract — Splits on a fresh
// Context and on a cached plan against Forward on a gradient tape, tunnels
// laid across every kind of block edge among them, and tunnels that list an
// edge twice — and so does FuzzSplitsMatchForward on problems and models the
// fuzzer makes up; TestRAURowBitIdentical holds the row kernel alone to the
// generic kernels, non-finite operands included, TestPlanNeverStale that no
// write to the weights survives in a plan, and TestRAUAccumulatorCarriesOver
// that no per-tunnel row or filled plan row survives its plan or its
// bottleneck token.
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
	"harpte/internal/nn"
	"harpte/internal/obs/reqtrace"
	"harpte/internal/te"
	"harpte/internal/tensor"
)

// planBlockTokens bounds the token rows of one block of buildPlan's loop. A
// block is whole tunnels, so a longer tunnel is a block by itself. GEANT's
// build is flat within its spread from 16 to 256; 64 keeps the block's dozen
// buffers in L2 beside the weights.
const planBlockTokens = 64

// inferScratchKey captures every dimension the scratch buffers depend on.
// tokens is among them: two Contexts of one graph whose tunnels differ in
// length (recomputed around a failure) agree on every other field. The last
// four shape the build's block only: max(planBlockTokens, longest tunnel) rows.
type inferScratchKey struct {
	t, f, k, e, tokens, h1, hr int
	r, ff, heads, blockRows    int
}

// inferScratch is the pooled state of the inference engine: the plan (the
// first-layer accumulators the embedding determines — functions of the
// Context and the weights only — with the stamp saying which, and the last
// encoder layer's inputs its rows are filled from) plus the per-call working
// buffers and the block the build and the fills run on.
type inferScratch struct {
	key inferScratchKey

	// The plan, valid for exactly the (planCtx, planWeights) it was built
	// from; planCtx is nil while there is none, or one is half-built.
	planCtx     *probContext
	planWeights uint64
	// rauTok's row of an edge token is the RAU first layer after the
	// tunnelEmb and bottleneckEmb columns, were that token the bottleneck,
	// once filled says so; a CLS token's row is its tunnel's prefix, the
	// first layer after the tunnelEmb columns, which the fills continue.
	rauTok     *tensor.Dense // numTokens×HR
	filled     []bool        // per token: rauTok's row is computed
	enc        planEnc
	mlp1Prefix *tensor.Dense // T×H1: MLP1 first layer after the tunnelEmb columns
	// rauAcc row t is a copy of the rauTok row of token rauAccTok[t] (−1:
	// none yet), the one the RAU last read for tunnel t. The RAU reads it
	// as a stream in tunnel order and copies a row in only when the
	// tunnel's bottleneck token moves: a few percent of the rows it reads
	// on a plan hit (the forward.rau span's refills).
	rauAcc    *tensor.Dense // T×HR
	rauAccTok []int32

	blk planBlock

	// Per-call working buffers.
	feat, load *tensor.Dense // T×1 demand feature / capacity-normalized load
	mlp1Hidden *tensor.Dense // T×H1
	u          *tensor.Dense // T×1 split logits
	w          *tensor.Dense // F×K split ratios
	x          *tensor.Dense // T×1 per-tunnel traffic
	loads      *tensor.Dense // E×1 link loads
	util       *tensor.Dense // E×1 link utilizations
	mlu        float64       // max of util, refreshed by computeUtil
	// Per-edge RAU features of the current utilizations, gathered by
	// every tunnel the edge is the bottleneck of.
	edgeRatio, edgeBuFeat, edgeGatedBu []float64
}

// planEnc is what the plan keeps of the last encoder layer's input, from
// which a token's row of h is computed when it is first read: the residual
// rows x and their Q/K/V projections. Token tok's row is row idx[tok] — idx
// is the Context's tokenIdx when the rows are the E+1 distinct rows of
// [edgeEmb ; cls] (an encoder of one layer; with none, or the mean-pool
// ablation, x alone, and h is its rows) — and row tok itself when idx is nil
// (a deeper encoder, whose last layer reads per-token rows).
type planEnc struct {
	x, q, k, v *tensor.Dense
	idx        []int
}

// row is token tok's row of d, one of e's matrices.
func (e *planEnc) row(d *tensor.Dense, tok int) []float64 {
	if e.idx != nil {
		tok = e.idx[tok]
	}
	return d.Row(tok)
}

// fit returns d as a rows×cols matrix, on d's own storage when it is large
// enough: the plan's encoder rows are E+1 or token rows deep by the depth of
// the encoder, which the scratch key does not hold.
func fit(d *tensor.Dense, rows, cols int) *tensor.Dense {
	if d == nil || cap(d.Data) < rows*cols {
		return tensor.New(rows, cols)
	}
	d.Rows, d.Cols, d.Data = rows, cols, d.Data[:rows*cols]
	return d
}

// planBlock is the working set of SETTRANS in the engine: for a build, the
// intermediates of one block of consecutive whole tunnels; for the last
// layer, those of a few query rows and one segment's keys and values at a
// time. Every buffer is blockRows rows deep and cut to what is in hand by
// cut; nothing in it outlives the call that uses it.
type planBlock struct {
	// Per token or query row; x is the residual stream, h once the layers
	// have run.
	x, norm, q, k, v, o, proj *tensor.Dense // ×r
	qh, kh, vh, oh            *tensor.Dense // ×r/Heads: one head's columns
	ff                        *tensor.Dense // ×FFDim
	rauPrefix                 *tensor.Dense // per tunnel ×HR: RAU first layer after the tunnelEmb columns
	scores                    []float64     // one segment's L×L attention weights
}

func newPlanBlock(key inferScratchKey) planBlock {
	n, r, dh := key.blockRows, key.r, key.r/key.heads
	mk := func(cols int) *tensor.Dense { return tensor.New(n, cols) }
	return planBlock{
		x: mk(r), norm: mk(r), q: mk(r), k: mk(r), v: mk(r), o: mk(r), proj: mk(r),
		qh: mk(dh), kh: mk(dh), vh: mk(dh), oh: mk(dh), ff: mk(key.ff),
		rauPrefix: mk(key.hr), scores: make([]float64, n*n),
	}
}

// cut sets the row count of each of the block's buffers ds to rows, no more
// than blockRows.
func cut(rows int, ds ...*tensor.Dense) {
	for _, d := range ds {
		d.Rows, d.Data = rows, d.Data[:rows*d.Cols]
	}
}

var inferScratches = sync.Pool{New: func() any { return new(inferScratch) }}

// ensure sizes the working buffers for one (model, context) pair,
// reallocating only when a dimension changed since the scratch was last
// used — on a hot serving shard this is a no-op.
func (sc *inferScratch) ensure(m *Model, ctx *probContext) {
	set := ctx.p.Tunnels
	key := inferScratchKey{
		t:         len(set.Flows) * set.K,
		f:         len(set.Flows),
		k:         set.K,
		e:         ctx.p.Graph.NumEdges(),
		tokens:    len(ctx.tokenIdx),
		h1:        m.Cfg.MLP1Hidden,
		hr:        m.Cfg.RAUHidden,
		r:         m.Cfg.EmbedDim,
		ff:        m.Cfg.FFDim,
		heads:     m.Cfg.Heads,
		blockRows: max(planBlockTokens, ctx.maxSeg),
	}
	if sc.key == key {
		return
	}
	sc.key = key
	sc.planCtx = nil
	sc.rauTok = tensor.New(key.tokens, key.hr)
	sc.filled = make([]bool, key.tokens)
	sc.enc = planEnc{}
	sc.mlp1Prefix = tensor.New(key.t, key.h1)
	sc.rauAcc = tensor.New(key.t, key.hr)
	sc.rauAccTok = make([]int32, key.t)
	sc.blk = newPlanBlock(key)
	sc.feat = tensor.New(key.t, 1)
	sc.load = tensor.New(key.t, 1)
	sc.mlp1Hidden = tensor.New(key.t, key.h1)
	sc.u = tensor.New(key.t, 1)
	sc.w = tensor.New(key.f, key.k)
	sc.x = tensor.New(key.t, 1)
	sc.loads = tensor.New(key.e, 1)
	sc.util = tensor.New(key.e, 1)
	sc.edgeRatio = make([]float64, key.e)
	sc.edgeBuFeat = make([]float64, key.e)
	sc.edgeGatedBu = make([]float64, key.e)
}

// weightsStamp hashes everything buildPlan reads from the model:
// every parameter's shape and bits, and the Config fields that steer it
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

// encLayers is the SETTRANS stack the engine runs: none for the mean-pool
// ablation, whose tunnel embedding pools the edge tokens' rows instead.
func (m *Model) encLayers() []*nn.EncoderLayer {
	if m.Cfg.MeanPoolTunnels {
		return nil
	}
	return m.settrans.Layers
}

// buildPlan runs the demand-independent half of the forward for (m, ctx) as
// far as the first answer reads it: the tunnel embeddings, and from them the
// MLP1 first layer after its leading tunnelEmb columns (mlp1Prefix) and the
// RAU's after the same columns, kept in each tunnel's CLS row of rauTok. An
// edge token's row of rauTok — the tunnel's prefix continued through
// h[token]·W0[r:2r], one accumulation in ascending k because a token belongs
// to exactly one tunnel, where h·W0[r:2r] computed alone and added to the
// prefix would be a different sum — is left to fill, which computes it the
// first time the RAU picks the token as its tunnel's bottleneck from what
// the build keeps in sc.enc, the last encoder layer's inputs.
//
// Stage 1 and the first layer's Norm1 and Q/K/V products, which are per
// distinct row of [edgeEmb ; cls], run on a pooled tape, over E+1 rows. The
// layers before the last, if any, run one block of whole tunnels at a time
// (encode); the last runs for the CLS rows only, a block of tunnels at a
// time, and h never exists as a matrix. The fill markers and the RAU's
// per-tunnel rows are forgotten and the stamp cleared first, and the stamp
// set last, so a build that panics leaves no plan behind rather than half of
// one, nor a row of an older plan. It takes no context on purpose: a build
// is bounded and every later request reads it, and cancelling one would turn
// any deadline shorter than a build into "no plan, ever" on a changed
// topology.
func (sc *inferScratch) buildPlan(m *Model, ctx *probContext, weights uint64, sp *reqtrace.Span) {
	clear(sc.filled) // no row outlives the plan it was computed for
	for t := range sc.rauAccTok {
		sc.rauAccTok[t] = -1 // nor one the plan it was copied from
	}
	sc.planCtx = nil
	tp := embedTapes.Get().(*autograd.Tape)
	gsp := sp.StartChild("forward.gnn")
	edgeEmb := m.embedEdges(tp, ctx)
	gsp.End()

	ssp := sp.StartChild("forward.settrans")
	withCLS := tp.ConcatRows(edgeEmb, m.cls) // (E+1)×r: every token is one of these rows
	src, layers, r := withCLS.Val, m.encLayers(), m.Cfg.EmbedDim
	var q0, k0, v0 *tensor.Dense
	if len(layers) > 0 {
		att, norm := layers[0].Attn, layers[0].Norm1.Forward(tp, withCLS)
		q0, k0, v0 = tp.MatMul(norm, att.Wq).Val, tp.MatMul(norm, att.Wk).Val, tp.MatMul(norm, att.Wv).Val
	}
	// The last layer's inputs: per token, written by the block loop below,
	// when layers run before it; else [edgeEmb ; cls] and its projections.
	e, last := &sc.enc, len(layers)-1
	if last > 0 {
		n := len(ctx.tokenIdx)
		e.idx, e.x, e.q, e.k, e.v = nil, fit(e.x, n, r), fit(e.q, n, r), fit(e.k, n, r), fit(e.v, n, r)
	} else {
		e.idx, e.x = ctx.tokenIdx, keep(e.x, src)
		if last == 0 {
			e.q, e.k, e.v = keep(e.q, q0), keep(e.k, k0), keep(e.v, v0)
		}
	}
	rauW0 := m.rau.Layers[0].W.Val
	mlp1Emb, rauEmb := m.mlp1.Layers[0].W.Val.RowRange(0, r), rauW0.RowRange(0, r)
	b := &sc.blk
	for t0 := 0; t0 < len(ctx.segs); {
		t1 := t0 + 1
		for t1 < len(ctx.segs) && ctx.segs[t1].End-ctx.segs[t0].Start <= planBlockTokens {
			t1++
		}
		lo, hi, segs := ctx.segs[t0].Start, ctx.segs[t1-1].End, ctx.segs[t0:t1]
		if last > 0 {
			cut(hi-lo, b.x, b.norm, b.q, b.k, b.v, b.o, b.proj, b.qh, b.kh, b.vh, b.oh, b.ff)
			b.encode(layers[:last], src, q0, k0, v0, ctx.tokenIdx[lo:hi], segs)
			l := layers[last]
			x, q, k, v := e.x.RowRange(lo, hi), e.q.RowRange(lo, hi), e.k.RowRange(lo, hi), e.v.RowRange(lo, hi)
			copy(x.Data, b.x.Data)
			l.Norm1.Apply(b.norm, b.x, nil, nil)
			tensor.MatMul(&q, b.norm, l.Attn.Wq.Val)
			tensor.MatMul(&k, b.norm, l.Attn.Wk.Val)
			tensor.MatMul(&v, b.norm, l.Attn.Wv.Val)
		}

		// The block's tunnel embeddings, as rows of b.x: each CLS token's row
		// of h, or under the ablation row t0+i of the pooling matrix times h,
		// as CSR.MulDense takes it.
		if m.Cfg.MeanPoolTunnels {
			pool := ctx.meanPool()
			cut(t1-t0, b.x)
			for i := range segs {
				row := b.x.Row(i)
				clear(row)
				for p := pool.RowPtr[t0+i]; p < pool.RowPtr[t0+i+1]; p++ {
					for j, v := range e.row(e.x, pool.ColIdx[p]) {
						row[j] += pool.Val[p] * v
					}
				}
			}
		} else {
			sc.hRows(layers, segs, 0)
		}
		cut(t1-t0, b.rauPrefix)
		mlp1Rows := sc.mlp1Prefix.RowRange(t0, t1)
		tensor.MatMul(&mlp1Rows, b.x, &mlp1Emb)
		tensor.MatMul(b.rauPrefix, b.x, &rauEmb)
		for i, seg := range segs {
			copy(sc.rauTok.Row(seg.Start), b.rauPrefix.Row(i))
		}
		t0 = t1
	}
	if m.Cfg.MeanPoolTunnels { // its embedding read every edge row: fill them all
		for t, seg := range ctx.segs {
			for tok := seg.Start + 1; tok < seg.End; tok++ {
				sc.fill(m, ctx, t, tok)
			}
		}
	}
	ssp.End()
	tp.Reset()
	embedTapes.Put(tp)
	sc.planCtx, sc.planWeights = ctx, weights
}

// keep copies src, a matrix on the pooled tape, into the plan's dst.
func keep(dst, src *tensor.Dense) *tensor.Dense {
	dst = fit(dst, src.Rows, src.Cols)
	copy(dst.Data, src.Data)
	return dst
}

// fill computes token tok's rows of the plan, which tunnel t's RAU is about
// to read for the first time: its row of h (hRows), and from it rauTok's —
// the tunnel's prefix, kept in its CLS token's row, continued through
// h[tok]·W0[r:2r] by the kernel a pass over all the tunnel's tokens runs.
// The marker is set once the row is written, so a panic leaves no half row
// marked.
func (sc *inferScratch) fill(m *Model, pc *probContext, t, tok int) {
	seg, r := pc.segs[t], m.Cfg.EmbedDim
	sc.hRows(m.encLayers(), pc.segs[t:t+1], tok-seg.Start)
	row, w := sc.rauTok.RowRange(tok, tok+1), m.rau.Layers[0].W.Val.RowRange(r, 2*r)
	copy(row.Data, sc.rauTok.Row(seg.Start))
	tensor.MatMulAcc(&row, sc.blk.x, &w)
	sc.filled[tok] = true
}

// hRows writes to b.x the rows of h of one token per segment of segs, off
// rows into it (0: the CLS token): its residual input from sc.enc, run
// through the last encoder layer with the query row alone. The attention
// row of a query reads its own segment's key and value rows only, and every
// other step works per row, so each row is the one the layer computes over
// all the tokens at once (see the file comment).
func (sc *inferScratch) hRows(layers []*nn.EncoderLayer, segs []nn.Segment, off int) {
	b, e := &sc.blk, &sc.enc
	cut(len(segs), b.x)
	for i, seg := range segs {
		copy(b.x.Row(i), e.row(e.x, seg.Start+off))
	}
	if len(layers) == 0 {
		return
	}
	cut(len(segs), b.norm, b.o, b.proj, b.ff)
	cut(1, b.qh)
	dh := b.qh.Cols
	scale := 1 / math.Sqrt(float64(dh))
	for i, seg := range segs {
		n := seg.Len()
		cut(n, b.kh, b.vh)
		att := tensor.Dense{Rows: 1, Cols: n, Data: b.scores[:n]}
		for c0 := 0; c0 < b.o.Cols; c0 += dh {
			e.gather(b.qh, e.q, seg.Start+off, c0)
			e.gather(b.kh, e.k, seg.Start, c0)
			e.gather(b.vh, e.v, seg.Start, c0)
			tensor.MatMulABT(&att, b.qh, b.kh)
			tensor.ScaleInto(&att, &att, scale)
			tensor.SoftmaxRow(att.Data, att.Data)
			oh := tensor.Dense{Rows: 1, Cols: dh, Data: b.o.Row(i)[c0 : c0+dh]}
			tensor.MatMul(&oh, &att, b.vh)
		}
	}
	b.finish(layers[len(layers)-1])
}

// gather copies columns [c0, c0+dst.Cols) of the rows of d of dst.Rows
// consecutive tokens from tok into dst: nn.GatherColBlock on e's layout.
func (e *planEnc) gather(dst, d *tensor.Dense, tok, c0 int) {
	if e.idx != nil {
		nn.GatherColBlock(dst, d, e.idx[tok:tok+dst.Rows], c0)
		return
	}
	rows := d.RowRange(tok, tok+dst.Rows)
	nn.GatherColBlock(dst, &rows, nil, c0)
}

// encode runs the layers over the block: b.x becomes the rows idx names of src
// and then, layer by layer, the block's rows of those layers' output. segs
// tile the block in order; q0, k0 and v0 are the first layer's projections of
// src's rows. Every step is nn.EncoderLayer.Forward's and
// nn.SegmentAttention's own kernel on the block's rows.
func (b *planBlock) encode(layers []*nn.EncoderLayer, src, q0, k0, v0 *tensor.Dense, idx []int, segs []nn.Segment) {
	nn.GatherColBlock(b.x, src, idx, 0)
	lo := segs[0].Start
	dh := b.qh.Cols
	scale := 1 / math.Sqrt(float64(dh))
	for li, l := range layers {
		// x += Attn(Norm1(x)), attention within each segment.
		q, k, v := q0, k0, v0
		if li > 0 {
			l.Norm1.Apply(b.norm, b.x, nil, nil)
			q, k, v, idx = b.q, b.k, b.v, nil
			tensor.MatMul(q, b.norm, l.Attn.Wq.Val)
			tensor.MatMul(k, b.norm, l.Attn.Wk.Val)
			tensor.MatMul(v, b.norm, l.Attn.Wv.Val)
		}
		for c0 := 0; c0 < b.o.Cols; c0 += dh {
			nn.GatherColBlock(b.qh, q, idx, c0)
			nn.GatherColBlock(b.kh, k, idx, c0)
			nn.GatherColBlock(b.vh, v, idx, c0)
			for _, seg := range segs {
				n, s0, s1 := seg.Len(), seg.Start-lo, seg.End-lo
				qs, ks := b.qh.RowRange(s0, s1), b.kh.RowRange(s0, s1)
				vs, os := b.vh.RowRange(s0, s1), b.oh.RowRange(s0, s1)
				att := tensor.Dense{Rows: n, Cols: n, Data: b.scores[:n*n]}
				tensor.MatMulABT(&att, &qs, &ks)
				tensor.ScaleInto(&att, &att, scale)
				for i := 0; i < n; i++ {
					tensor.SoftmaxRow(att.Row(i), att.Row(i))
				}
				tensor.MatMul(&os, &att, &vs)
			}
			for i := 0; i < b.o.Rows; i++ {
				copy(b.o.Row(i)[c0:c0+dh], b.oh.Row(i))
			}
		}
		b.finish(l)
	}
}

// finish ends layer l on the rows in hand, whose attention outputs are in
// b.o: the residual stream b.x gains their output projection and then the
// feed-forward block, x += o·Wo; x += FF2(ReLU(FF1(Norm2(x)))).
func (b *planBlock) finish(l *nn.EncoderLayer) {
	tensor.MatMul(b.proj, b.o, l.Attn.Wo.Val)
	tensor.AddInto(b.x, b.x, b.proj)
	l.Norm2.Apply(b.norm, b.x, nil, nil)
	tensor.MatMul(b.ff, b.norm, l.FF1.W.Val)
	tensor.AddRowVecInto(b.ff, b.ff, l.FF1.B.Val)
	tensor.ReLUInto(b.ff, b.ff)
	tensor.MatMul(b.proj, b.ff, l.FF2.W.Val)
	tensor.AddRowVecInto(b.proj, b.proj, l.FF2.B.Val)
	tensor.AddInto(b.x, b.x, b.proj)
}

// accColumn accumulates one input column's contribution into a first-layer
// output, mirroring macRow's inner loop (including the zero skip):
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

// rauRow runs one tunnel through the rest of the RAU's two-layer MLP. acc is
// the tunnel's first-layer accumulator after the embedding columns (a copy
// of a row of the plan's rauTok, read-only), in the five scalar inputs that
// follow them, w0 the five rows of the first layer's weights those inputs
// meet (stride len(acc)), b0 its bias, w1 (len(acc)×2) and b1 the output
// layer. It returns the two outputs, bit-identical to running the row through
// MatMulAcc → AddRowVecInto → ReLU → MatMul → AddRowVecInto: every hidden
// unit continues acc's sum through the scalars in order, skipping exactly
// the zero ones as macRow does, then adds its bias; the two output sums
// start at zero and take the hidden units in ascending order (rauFeed).
// Hidden units are swept in register tiles of 8, then 4, then singly, like
// macRow; none is stored.
func rauRow(acc []float64, in *[5]float64, w0, b0, w1, b1 []float64) (o0, o1 float64) {
	n := len(acc)
	j := 0
	for ; j+8 <= n; j += 8 {
		o0, o1 = rau8(o0, o1, (*[8]float64)(acc[j:]), in, w0[j:], n, (*[8]float64)(b0[j:]), (*[16]float64)(w1[2*j:]))
	}
	if j+4 <= n {
		o0, o1 = rau4(o0, o1, (*[4]float64)(acc[j:]), in, w0[j:], n, (*[4]float64)(b0[j:]), (*[8]float64)(w1[2*j:]))
		j += 4
	}
	for ; j < n; j++ {
		c := acc[j]
		for k, a := range in {
			if a != 0 {
				c += a * w0[k*n+j]
			}
		}
		c += b0[j]
		o0, o1 = rauFeed(o0, o1, c, w1[2*j], w1[2*j+1])
	}
	return o0 + b1[0], o1 + b1[1]
}

// rauFeed adds hidden unit c, before its ReLU, to the two output sums. The
// generic path clips c with `v < 0` and MatMul then skips a multiplicand
// that is ±0; `!(c <= 0)` is both tests in one: a negative or zero unit
// contributes nothing, a NaN does.
func rauFeed(o0, o1, c, w0, w1 float64) (float64, float64) {
	if !(c <= 0) {
		o0 += c * w0
		o1 += c * w1
	}
	return o0, o1
}

// rau8 is rauRow's 8-unit tile: the accumulators live in locals from acc to
// the output sums. The weights are taken 4 at a time for the reason mac8
// gives.
func rau8(o0, o1 float64, acc *[8]float64, in *[5]float64, w0 []float64, n int, b0 *[8]float64, w1 *[16]float64) (float64, float64) {
	c0, c1, c2, c3, c4, c5, c6, c7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	off := 0
	for _, a := range in {
		if a != 0 {
			wt := w0[off : off+4 : off+4]
			c0 += a * wt[0]
			c1 += a * wt[1]
			c2 += a * wt[2]
			c3 += a * wt[3]
			wt = w0[off+4 : off+8 : off+8]
			c4 += a * wt[0]
			c5 += a * wt[1]
			c6 += a * wt[2]
			c7 += a * wt[3]
		}
		off += n
	}
	c0 += b0[0]
	c1 += b0[1]
	c2 += b0[2]
	c3 += b0[3]
	c4 += b0[4]
	c5 += b0[5]
	c6 += b0[6]
	c7 += b0[7]
	o0, o1 = rauFeed(o0, o1, c0, w1[0], w1[1])
	o0, o1 = rauFeed(o0, o1, c1, w1[2], w1[3])
	o0, o1 = rauFeed(o0, o1, c2, w1[4], w1[5])
	o0, o1 = rauFeed(o0, o1, c3, w1[6], w1[7])
	o0, o1 = rauFeed(o0, o1, c4, w1[8], w1[9])
	o0, o1 = rauFeed(o0, o1, c5, w1[10], w1[11])
	o0, o1 = rauFeed(o0, o1, c6, w1[12], w1[13])
	o0, o1 = rauFeed(o0, o1, c7, w1[14], w1[15])
	return o0, o1
}

// rau4 is rauRow's 4-unit tile: the accumulators live in locals from acc to
// the output sums.
func rau4(o0, o1 float64, acc *[4]float64, in *[5]float64, w0 []float64, n int, b0 *[4]float64, w1 *[8]float64) (float64, float64) {
	c0, c1, c2, c3 := acc[0], acc[1], acc[2], acc[3]
	off := 0
	for _, a := range in {
		if a != 0 {
			wt := w0[off : off+4 : off+4]
			c0 += a * wt[0]
			c1 += a * wt[1]
			c2 += a * wt[2]
			c3 += a * wt[3]
		}
		off += n
	}
	c0 += b0[0]
	c1 += b0[1]
	c2 += b0[2]
	c3 += b0[3]
	o0, o1 = rauFeed(o0, o1, c0, w1[0], w1[1])
	o0, o1 = rauFeed(o0, o1, c1, w1[2], w1[3])
	o0, o1 = rauFeed(o0, o1, c2, w1[4], w1[5])
	o0, o1 = rauFeed(o0, o1, c3, w1[6], w1[7])
	return o0, o1
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
	invCap := pc.invCap.Val

	msp := sp.StartChild("forward.mlp1")

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
	accColumn(sc.mlp1Hidden, sc.feat.Data, l0.W.Val.Row(m.Cfg.EmbedDim))
	tensor.AddRowVecInto(sc.mlp1Hidden, sc.mlp1Hidden, l0.B.Val)
	tensor.ReLUInto(sc.mlp1Hidden, sc.mlp1Hidden)
	tensor.MatMul(sc.u, sc.mlp1Hidden, l1.W.Val)
	tensor.AddRowVecInto(sc.u, sc.u, l1.B.Val)
	for i, v := range sc.u.Data {
		sc.u.Data[i] = 3 * math.Tanh((1.0/3)*v)
	}
	sc.computeUtil(p, invCap)
	msp.End()

	// ---- 4. recurrent adjustment unit ----
	// One span covers the whole RAU loop — per-iteration spans would put
	// tens of clock reads on the hot path; the count of iterations that ran
	// is an attribute instead.
	rsp := sp.StartChild("forward.rau")
	r0, r1 := m.rau.Layers[0], m.rau.Layers[1]
	hr := sc.key.hr
	// W0's last five rows: the scalar columns that follow bottleneckEmb.
	w0s := r0.W.Val.Data[2*m.Cfg.EmbedDim*hr:]
	b0, w1, b1 := r0.B.Val.Data, r1.W.Val.Data, r1.B.Val.Data
	it, refills, filled := 0, 0, 0
	for ; it < m.Cfg.RAUIterations && !expired(ctx); it++ {
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
		// One pass per tunnel, reading util and writing only u[t]: sc.w and
		// sc.util stay the previous iterate until computeUtil below.
		for t := 0; t < numTunnels; t++ {
			tun := set.Tunnel(t/k, t%k)
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
			bedge := tun.Edges[best]
			// The scalar columns after [tunnelEmb | bottleneckEmb], in the
			// order adjust's ConcatCols lays them out: ratio, mluFeat,
			// buFeat, demandFeat, uFeat.
			in := [5]float64{sc.edgeRatio[bedge], mluFeat, sc.edgeBuFeat[bedge], sc.feat.Data[t], math.Tanh((1.0 / 8) * sc.u.Data[t])}
			acc := sc.rauAcc.Row(t)
			if tok := int32(pc.clsPos[t] + 1 + best); sc.rauAccTok[t] != tok {
				if !sc.filled[tok] {
					sc.fill(m, pc, t, int(tok))
					filled++
				}
				// This pass reads the plan's row, the next ones the copy:
				// reading the copy straight back, behind its own stores,
				// cost abilene_steady 8–13 %, where the plan fits in L2.
				row := sc.rauTok.Row(int(tok))
				copy(acc, row)
				acc = row
				sc.rauAccTok[t] = tok
				refills++
			}
			o0, o1 := rauRow(acc, &in, w0s, b0, w1, b1)
			base := 0.5 * math.Tanh(o0)
			gate := 1 / (1 + math.Exp(-o1))
			gatedBu := sc.edgeGatedBu[bedge]
			penalty := 6*gatedBu + 4*(gate*gatedBu)
			sc.u.Data[t] = sc.u.Data[t] + (base - penalty)
		}
		sc.computeUtil(p, invCap)
	}
	rsp.AnnotateInt("iterations", int64(it))
	rsp.AnnotateInt("refills", int64(refills))
	rsp.AnnotateInt("filled", int64(filled))
	rsp.End()
	return sc.w, it
}

// embedTapes pools the reusable tapes that record stage 1 of a build. They
// live in inference mode permanently: inference never calls Backward, so
// skipping the per-node gradient buffer (and its zeroing) is free speed with
// bit-identical values. Pooled rather than hung off the Model because
// inference must stay safe for concurrent use: each goroutine owns its tape
// until it Puts it back, and a panicking build simply never returns its
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
// on a build, and forward.mlp1 and forward.rau always.
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
	return splits, iterations
}

// MLU runs inference and evaluates the achieved MLU exactly on the problem.
func (m *Model) MLU(c *Context, demand *tensor.Dense) float64 {
	return c.inner.p.MLU(m.Splits(c, demand), demand)
}
