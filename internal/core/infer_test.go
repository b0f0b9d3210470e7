package core

// Tests for the inference engine: Splits must be bit-identical to the tape
// forward whether it builds its plan or finds it (neither the scratch
// scheduling nor the kept embedding may ever change arithmetic), and so must
// the iterate SplitsCtx returns wherever its context stops the RAU; no write
// to the weights may survive in a kept plan, and concurrent callers on
// several Contexts and models must each get their serial answer.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

// TestSplitsBatchBitIdentical holds inference to the tape: Splits must come
// out bit for bit equal to the training forward (Forward on a fresh gradient
// tape) for the same (Context, demand), both across consecutive calls on one
// Context — after the first, the plan-hit path — and on a fresh Context, the
// build path. The cases cover each branch the engine has: Abilene and
// GEANT, a KDL-scale graph whose equal-capacity series chains tie exactly on
// utilization (the RAU bottleneck tie-break, smallest edge id), the
// mean-pool ablation, no RAU at all, the all-zero demand Server.canary
// sends (mean and MLU both 0) between two real ones, layer widths that
// leave every kernel a 4-wide and a 1-wide remainder tile, an encoder of two
// layers (the second projects block rows, which the default config never
// does) and of none, and tunnels laid across every edge a build's block can
// have (blockEdgeProblem).
func TestSplitsBatchBitIdentical(t *testing.T) {
	m, ctx, samples := abileneBench(16)
	demands := make([]*tensor.Dense, len(samples))
	for i, s := range samples {
		demands[i] = s.Demand
	}
	t.Run("abilene", func(t *testing.T) { checkInferenceMatchesTape(t, m, ctx, demands) })
	t.Run("zero-demand", func(t *testing.T) {
		zero := tensor.New(demands[0].Rows, 1)
		checkInferenceMatchesTape(t, m, ctx, []*tensor.Dense{zero, demands[0], zero})
	})

	cfg := DefaultConfig()
	cfg.RAUIterations = 0
	t.Run("no-rau", func(t *testing.T) { checkInferenceMatchesTape(t, New(cfg), ctx, demands[:4]) })
	pool := DefaultConfig()
	pool.MeanPoolTunnels = true
	t.Run("mean-pool", func(t *testing.T) { checkInferenceMatchesTape(t, New(pool), ctx, demands[:4]) })
	cfg = DefaultConfig()
	cfg.EmbedDim, cfg.Heads, cfg.MLP1Hidden, cfg.RAUHidden = 6, 2, 7, 13
	t.Run("odd-widths", func(t *testing.T) { checkInferenceMatchesTape(t, New(cfg), ctx, demands[:4]) })
	two := DefaultConfig()
	two.SetTransLayers = 2
	t.Run("two-layer", func(t *testing.T) { checkInferenceMatchesTape(t, New(two), ctx, demands[:4]) })
	none := DefaultConfig()
	none.SetTransLayers = 0
	t.Run("no-settrans", func(t *testing.T) { checkInferenceMatchesTape(t, New(none), ctx, demands[:4]) })

	bp := blockEdgeProblem(t)
	bd := tensor.New(bp.NumFlows(), 1)
	for i := range bd.Data {
		bd.Data[i] = float64(3 + 2*i)
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"two-layer", two}, {"no-settrans", none}, {"mean-pool", pool}} {
		bm := New(c.cfg)
		t.Run("block-edges/"+c.name, func(t *testing.T) { checkInferenceMatchesTape(t, bm, bm.Context(bp), []*tensor.Dense{bd}) })
	}

	gm, gctx, gd := largeBench(allPairsProblem(topology.Geant()), 7)
	t.Run("geant", func(t *testing.T) { checkInferenceMatchesTape(t, gm, gctx, []*tensor.Dense{gd}) })

	km, kctx, kd := largeBench(kdlProblem(60, 4, 301), 302)
	kd2 := kd.Clone()
	for i := range kd2.Data {
		kd2.Data[i] = 51 - kd2.Data[i]
	}
	t.Run("kdl-ties", func(t *testing.T) { checkInferenceMatchesTape(t, km, kctx, []*tensor.Dense{kd, kd2}) })
}

// ringProblem lays flows on a bidirectional ring of n nodes by hand: flow i
// runs hops[i] links clockwise from node 3i, and its two tunnels are the
// clockwise path (hops+1 tokens) and the counter-clockwise one (n-hops+1),
// in that order unless flip[i]. Any one flow is n+2 tokens.
func ringProblem(n int, hops []int, flip []bool) *te.Problem {
	g := topology.New("ring", n)
	for i := 0; i < n; i++ {
		g.AddBidirectional(i, (i+1)%n, float64(5+i%7))
	}
	walk := func(from, steps, dir int) tunnels.Tunnel {
		var tun tunnels.Tunnel
		for ; steps > 0; steps-- {
			next := (from + dir + n) % n
			e, _ := g.EdgeID(from, next)
			tun.Edges = append(tun.Edges, e)
			from = next
		}
		return tun
	}
	set := &tunnels.Set{K: 2}
	for i, h := range hops {
		src := 3 * i % n
		set.Flows = append(set.Flows, tunnels.Flow{Src: src, Dst: (src + h) % n})
		pair := []tunnels.Tunnel{walk(src, h, 1), walk(src, n-h, -1)}
		if flip[i] {
			pair[0], pair[1] = pair[1], pair[0]
		}
		set.PerFlow = append(set.PerFlow, pair)
	}
	g.EdgeNodes = []int{0}
	return te.NewProblem(g, set)
}

// blockEdgeProblem is a ring whose tunnels meet every edge a block of
// buildPlan's loop can have, with B = planBlockTokens: a tunnel longer than B
// (a block by itself), a single-edge tunnel, a block of several tunnels that
// ends exactly on B, blocks that stop short because the next tunnel would
// not fit, and a short last block. The layout is checked here, by the loop's
// own rule, so a change of B that loses a case fails instead of passing on
// less.
func blockEdgeProblem(t *testing.T) *te.Problem {
	t.Helper()
	const B = planBlockTokens
	n := B + 40
	//                 tokens: n, 2 | B-2, 44 | 2, n | 6, n-4 | n/2+1, n-n/2+1
	p := ringProblem(n, []int{1, B - 3, 1, 5, n / 2}, []bool{true, false, false, false, false})
	ctx := buildContext(p)
	var long, single, exact, short bool
	for t0 := 0; t0 < len(ctx.segs); {
		t1 := t0 + 1
		for t1 < len(ctx.segs) && ctx.segs[t1].End-ctx.segs[t0].Start <= B {
			t1++
		}
		tokens := ctx.segs[t1-1].End - ctx.segs[t0].Start
		long = long || tokens > B
		exact = exact || (tokens == B && t1-t0 > 1)
		short = short || (tokens < B && t1 < len(ctx.segs))
		for _, seg := range ctx.segs[t0:t1] {
			single = single || seg.Len() == 2
		}
		if t1 == len(ctx.segs) && (tokens >= B || t0 == 0) {
			t.Fatalf("last block has %d tokens, want a short one after others", tokens)
		}
		t0 = t1
	}
	if !long || !single || !exact || !short {
		t.Fatalf("block layout lost a case: long tunnel %v, single-edge tunnel %v, block exactly on its limit %v, block cut short %v", long, single, exact, short)
	}
	return p
}

// tapeSplits is the reference: the training forward on a fresh gradient tape.
func tapeSplits(m *Model, ctx *Context, d *tensor.Dense) *tensor.Dense {
	return m.Forward(autograd.NewTape(), ctx, d).Splits.Val
}

func assertSameBits(t *testing.T, what string, got, want *tensor.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, tape %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for j := range want.Data {
		if math.Float64bits(got.Data[j]) != math.Float64bits(want.Data[j]) {
			t.Fatalf("%s entry %d: engine %v != tape %v", what, j, got.Data[j], want.Data[j])
		}
	}
}

func checkInferenceMatchesTape(t *testing.T, m *Model, ctx *Context, demands []*tensor.Dense) {
	t.Helper()
	want := make([]*tensor.Dense, len(demands))
	for i, d := range demands {
		want[i] = tapeSplits(m, ctx, d)
	}
	// Consecutive calls on one Context: every call after the first finds
	// the plan the first one built.
	for i, d := range demands {
		assertSameBits(t, "cached plan, snapshot "+string(rune('a'+i)), m.Splits(ctx, d), want[i])
	}
	// A Context the engine has never seen: every call builds.
	for i, d := range demands {
		assertSameBits(t, "fresh context, snapshot "+string(rune('a'+i)), m.Splits(m.Context(ctx.inner.p), d), want[i])
	}
}

// TestRAURowBitIdentical holds the fused row kernel, and the per-token
// accumulator buildPlan feeds it, to the generic sequence they replace: the
// gathered [bottleneckEmb | 5 scalars] row through MatMulAcc on the tunnel's
// prefix → AddRowVecInto → ReLU → MatMul → AddRowVecInto. Hidden widths 1…33
// cover every 8/4/1 tile remainder. The inputs carry zeros of both signs; in
// the second regime every operand also carries ±0, ±Inf and NaN, which land
// under zero and non-zero multiplicands alike — the skips decide whether
// 0·Inf poisons a sum the generic loops keep finite; the third is the row
// that is nothing but skips: all-zero inputs and hidden units that are ±0 or
// clipped, against all-infinite weights, whose answer is the output bias.
func TestRAURowBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	const rows, r = 8, 5
	// draw fills a rows×cols matrix from gen.
	draw := func(rows, cols int, gen func(i int) float64) *tensor.Dense {
		d := tensor.New(rows, cols)
		for i := range d.Data {
			d.Data[i] = gen(i)
		}
		return d
	}
	// check runs in's rows through both sequences and reports how many of
	// the outputs came out finite.
	check := func(what string, prefix, in, w0, b0, w1, b1 *tensor.Dense) (finite int) {
		t.Helper()
		hr := prefix.Cols
		hidden, want := prefix.Clone(), tensor.New(in.Rows, 2)
		tensor.MatMulAcc(hidden, in, w0)
		tensor.AddRowVecInto(hidden, hidden, b0)
		tensor.ReLUInto(hidden, hidden)
		tensor.MatMul(want, hidden, w1)
		tensor.AddRowVecInto(want, want, b1)

		// What buildPlan keeps per token, then what the RAU does per tunnel.
		acc, w0Emb := prefix.Clone(), w0.RowRange(0, r)
		tensor.MatMulAcc(acc, draw(in.Rows, r, func(i int) float64 { return in.Row(i / r)[i%r] }), &w0Emb)
		for i := 0; i < in.Rows; i++ {
			o0, o1 := rauRow(acc.Row(i), (*[5]float64)(in.Row(i)[r:]), w0.Data[r*hr:], b0.Data, w1.Data, b1.Data)
			for j, g := range []float64{o0, o1} {
				w := want.Row(i)[j]
				if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("%s, row %d output %d: fused %v != generic %v", what, i, j, g, w)
				}
				if !math.IsNaN(g) && !math.IsInf(g, 0) {
					finite++
				}
			}
		}
		return finite
	}

	finite := map[bool]int{}
	for hr := 1; hr <= 33; hr++ {
		for _, nonFinite := range []bool{false, true} {
			what := fmt.Sprintf("width %d nonFinite=%v", hr, nonFinite)
			weight := func(int) float64 {
				if nonFinite && rng.Intn(60) == 0 {
					return special[rng.Intn(len(special))]
				}
				return rng.NormFloat64()
			}
			input := func(i int) float64 {
				if rng.Intn(4) == 0 {
					return special[rng.Intn(2)]
				}
				return weight(i)
			}
			finite[nonFinite] += check(what, draw(rows, hr, weight), draw(rows, r+5, input),
				draw(r+5, hr, weight), draw(1, hr, weight), draw(hr, 2, weight), draw(1, 2, weight))
		}
		signedZero := func(i int) float64 { return special[i%2] }
		inf := func(i int) float64 { return special[2+i%2] }
		b0 := draw(1, hr, signedZero)
		b0.Data[hr/2] = -1.5
		if check(fmt.Sprintf("width %d all skips", hr), draw(1, hr, signedZero), draw(1, r+5, signedZero),
			draw(r+5, hr, inf), b0, draw(hr, 2, inf), draw(1, 2, func(int) float64 { return rng.NormFloat64() })) != 2 {
			t.Fatalf("width %d: a skipped term reached the all-skips row's sums", hr)
		}
	}
	// With specials in the operands most outputs are NaN on both sides; the
	// ones that are not are where a wrong skip would show.
	if finite[false] != 33*rows*2 || finite[true] < 100 {
		t.Fatalf("finite outputs: %d without specials, %d with — the comparison is vacuous", finite[false], finite[true])
	}
}

// TestScratchSizedByTokens: the pooled scratch is one per process, so every
// dimension a buffer of it is shaped by has to be in its key. Two Contexts on
// one graph that agree on tunnels, flows, K and edges but not on tunnel
// lengths — what recomputing tunnels around a failure produces — must not
// share a token-shaped buffer; two that agree on the token count too and
// differ only in their longest tunnel must not share a block; and models
// that agree on everything the per-call buffers see must not share a block
// shaped by EmbedDim, FFDim or Heads. Each set alternates on one goroutine,
// so each call is handed the scratch the other just returned, and every
// answer is held to the tape.
func TestScratchSizedByTokens(t *testing.T) {
	alternate := func(t *testing.T, models []*Model, ctxs []*Context, d *tensor.Dense) {
		t.Helper()
		for round := 0; round < 4; round++ {
			for mi, m := range models {
				for ci, ctx := range ctxs {
					assertSameBits(t, fmt.Sprintf("round %d model %d context %d", round, mi, ci), m.Splits(ctx, d), tapeSplits(m, ctx, d))
				}
			}
		}
	}
	m := New(tinyConfig())
	p := twoPathProblem()
	d := demandVec(p, map[[2]int]float64{{0, 1}: 6, {1, 0}: 2})

	t.Run("tokens", func(t *testing.T) {
		long := *p.Tunnels
		long.PerFlow = append([][]tunnels.Tunnel(nil), long.PerFlow...)
		detour := long.PerFlow[0][1]
		long.PerFlow[0] = []tunnels.Tunnel{detour, detour} // the direct link's tunnel re-routed
		q := te.NewProblem(p.Graph, &long)
		ctxs := []*Context{m.Context(p), m.Context(q)}
		if a, b := ctxs[0].inner, ctxs[1].inner; len(a.tokenIdx) == len(b.tokenIdx) || len(a.segs) != len(b.segs) {
			t.Fatalf("want equal tunnel counts and different token counts, got %d/%d tunnels, %d/%d tokens",
				len(a.segs), len(b.segs), len(a.tokenIdx), len(b.tokenIdx))
		}
		alternate(t, []*Model{m}, ctxs, d)
	})

	t.Run("longest-tunnel", func(t *testing.T) {
		// One flow on a ring is n+2 tokens however far it goes; only the
		// split between its two tunnels moves.
		n := planBlockTokens + 40
		ctxs := []*Context{m.Context(ringProblem(n, []int{n / 2}, []bool{false})), m.Context(ringProblem(n, []int{1}, []bool{false}))}
		a, b := ctxs[0].inner, ctxs[1].inner
		if len(a.tokenIdx) != len(b.tokenIdx) || a.maxSeg > planBlockTokens || b.maxSeg <= planBlockTokens {
			t.Fatalf("want equal token counts and a longest tunnel on either side of a block, got %d/%d tokens, longest %d/%d",
				len(a.tokenIdx), len(b.tokenIdx), a.maxSeg, b.maxSeg)
		}
		alternate(t, []*Model{m}, ctxs, tensor.FromSlice(1, 1, []float64{4}))
	})

	t.Run("widths", func(t *testing.T) {
		for _, edit := range []func(*Config){
			func(c *Config) { c.FFDim = 24 },
			func(c *Config) { c.EmbedDim = 12 },
			func(c *Config) { c.Heads = 4 },
		} {
			c := tinyConfig()
			edit(&c)
			alternate(t, []*Model{m, New(c)}, []*Context{m.Context(p)}, d)
		}
	})
}

// TestSplitsBatchReusedAcrossBatches: the pooled engine state must keep
// producing identical answers across passes over a set of demands (neither
// recycled buffers nor the kept plan may leak state between calls).
func TestSplitsBatchReusedAcrossBatches(t *testing.T) {
	m, ctx, samples := abileneBench(4)
	first := make([]*tensor.Dense, len(samples))
	for i, s := range samples {
		first[i] = m.Splits(ctx, s.Demand)
	}
	for pass := 0; pass < 3; pass++ {
		for i, s := range samples {
			again := m.Splits(ctx, s.Demand)
			for j := range first[i].Data {
				if first[i].Data[j] != again.Data[j] {
					t.Fatalf("pass %d snapshot %d entry %d: %v != %v",
						pass, i, j, again.Data[j], first[i].Data[j])
				}
			}
		}
	}
}

// stopAfter is a context with no deadline whose Err turns non-nil after
// `left` calls. The engine calls Err once per poll, so it stops the RAU after
// exactly that many iterations, and polls counts how often the engine looked.
type stopAfter struct {
	context.Context
	left, polls int
}

func (c *stopAfter) Err() error {
	c.polls++
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestSplitsCtxBitIdenticalAtEveryStop: the RAU is an anytime algorithm, and
// what SplitsCtx returns when its context stops it after k of N iterations
// is, bit for bit, the tape forward of the same weights at RAUIterations = k
// — on a plan hit and on a build — for every k from 1 to N; at k = 0 it
// returns nothing (MLP1 alone is not an answer). The context is polled once
// per iteration and never again once it has said stop.
func TestSplitsCtxBitIdenticalAtEveryStop(t *testing.T) {
	m, ctx, samples := abileneBench(1)
	d := samples[0].Demand
	n := m.Cfg.RAUIterations
	for k := 0; k <= n; k++ {
		ref := m.shadow()
		ref.Cfg.RAUIterations = k
		want := tapeSplits(ref, ctx, d)
		for _, c := range []struct {
			plan string
			ctx  *Context
		}{{"hit", ctx}, {"build", m.Context(ctx.inner.p)}} {
			what := "stopped after " + string(rune('0'+k)) + " iterations, plan " + c.plan
			stop := &stopAfter{Context: context.Background(), left: k}
			got, iterations := m.SplitsCtx(stop, c.ctx, d)
			if iterations != k {
				t.Fatalf("%s: engine reports %d iterations", what, iterations)
			}
			if wantPolls := min(k+1, n); stop.polls != wantPolls {
				t.Fatalf("%s: context polled %d times, want %d (once per iteration)", what, stop.polls, wantPolls)
			}
			if k == 0 {
				if got != nil {
					t.Fatalf("%s: engine returned MLP1's guess as an answer", what)
				}
				continue
			}
			assertSameBits(t, what, got, want)
		}
	}
	// A model with no RAU never polls: MLP1 is its whole answer.
	cfg := DefaultConfig()
	cfg.RAUIterations = 0
	bare := New(cfg)
	stop := &stopAfter{Context: context.Background()}
	got, _ := bare.SplitsCtx(stop, ctx, d)
	if stop.polls != 0 {
		t.Fatalf("no-RAU model polled its context %d times", stop.polls)
	}
	assertSameBits(t, "no-RAU model under a done context", got, tapeSplits(bare, ctx, d))
}

// TestPlanNeverStale: a kept plan is valid by the content of the weights,
// so every way of changing them — an optimizer step, a direct write, a
// different model on the same Context — must show in the very next Splits,
// bit for bit against the tape.
func TestPlanNeverStale(t *testing.T) {
	p := twoPathProblem()
	d := demandVec(p, map[[2]int]float64{{0, 1}: 6, {1, 0}: 2})
	check := func(t *testing.T, what string, m *Model, ctx *Context) {
		t.Helper()
		assertSameBits(t, what, m.Splits(ctx, d), tapeSplits(m, ctx, d))
	}

	t.Run("train-step", func(t *testing.T) {
		m := New(tinyConfig())
		ctx := m.Context(p)
		opt := autograd.NewAdam(1e-2)
		check(t, "before", m, ctx)
		for step := 0; step < 3; step++ {
			m.TrainStep(opt, []Sample{{Ctx: ctx, Demand: d}}, 1)
			check(t, "after a step", m, ctx)
		}
	})

	t.Run("direct-write", func(t *testing.T) {
		m := New(tinyConfig())
		ctx := m.Context(p)
		check(t, "before", m, ctx)
		for i, par := range m.Params() {
			// The last element of every parameter in turn, so a hash that
			// skipped any tensor, or its tail, fails here.
			par.Val.Data[len(par.Val.Data)-1] += 0.25
			check(t, "after writing param "+string(rune('a'+i)), m, ctx)
		}
		// And inside the one block of weights the plan keeps a product of
		// per token: the RAU first layer's bottleneckEmb rows, r … 2r-1.
		w0 := m.rau.Layers[0].W.Val
		w0.Row(m.Cfg.EmbedDim + 1)[2] += 0.25
		check(t, "after writing the RAU first layer's bottleneck block", m, ctx)
	})

	t.Run("two-models", func(t *testing.T) {
		cfg := tinyConfig()
		a := New(cfg)
		cfg.Seed++
		b := New(cfg)
		ctx := a.Context(p)
		for i := 0; i < 3; i++ {
			check(t, "model a", a, ctx)
			check(t, "model b", b, ctx)
		}
	})
}

// TestPlanConcurrent: goroutines interleaving two models on two Contexts
// share one pool of plans, and every answer must equal its serial value.
// Run under -race (make race) this is also the data-race check on the
// pooled state.
func TestPlanConcurrent(t *testing.T) {
	cfg := tinyConfig()
	a := New(cfg)
	cfg.Seed++
	b := New(cfg)
	p := twoPathProblem()
	widened := twoPathProblem()
	widened.Graph.Edges[0].Capacity *= 2 // before anything has read it
	models := []*Model{a, b}
	ctxs := []*Context{a.Context(p), a.Context(widened)}
	d := demandVec(p, map[[2]int]float64{{0, 1}: 6, {1, 0}: 2})
	var want [2][2]*tensor.Dense
	for mi, m := range models {
		for ci, ctx := range ctxs {
			want[mi][ci] = tapeSplits(m, ctx, d)
		}
	}

	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				mi, ci := (w+i)%2, (w/2+i/2)%2
				got := models[mi].Splits(ctxs[ci], d)
				for j, v := range want[mi][ci].Data {
					if math.Float64bits(got.Data[j]) != math.Float64bits(v) {
						t.Errorf("worker %d round %d model %d context %d entry %d: %v != serial %v", w, i, mi, ci, j, got.Data[j], v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
