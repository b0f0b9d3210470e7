package core

// Large-topology problems, their serving pins, and the BENCH_1.json ledger
// rows: one inference, on a kept plan and building one, on the problems
// bench/workloads.go serves (all-pairs Abilene and GEANT; KDL-scale with 48
// evenly spaced edge nodes), each row stating its flows and tokens.

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"harpte/internal/autograd"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

// kdlServingDeadline is the per-snapshot serving budget for a KDL-scale
// (754-node) topology on the sparse path. Generous vs observed times to
// stay stable on loaded CI machines.
const kdlServingDeadline = 500 * time.Millisecond

// largeBench builds a model and demand on a scale topology. The model is
// untrained (benchmarks measure the forward pass, not answer quality).
func largeBench(p *te.Problem, seed int64) (*Model, *Context, *tensor.Dense) {
	m := New(DefaultConfig())
	ctx := m.Context(p)
	rng := rand.New(rand.NewSource(seed))
	d := tensor.New(p.NumFlows(), 1)
	for i := range d.Data {
		d.Data[i] = 1 + 50*rng.Float64()
	}
	return m, ctx, d
}

// kdlProblem builds a KDL-scale (754-node) problem with n random flows and
// k tunnels per flow.
func kdlProblem(n, k int, seed int64) *te.Problem {
	return scaleProblem(topology.KDLScale(seed), n, k, seed)
}

// scaleProblem picks n random flows on g and computes k tunnels each. Pair
// selection replicates the experiments harness (core cannot import
// internal/experiments — it imports core).
func scaleProblem(g *topology.Graph, n, k int, seed int64) *te.Problem {
	rng := rand.New(rand.NewSource(seed + 1))
	seen := map[[2]int]bool{}
	var pairs [][2]int
	for len(pairs) < n {
		u, v := rng.Intn(g.NumNodes), rng.Intn(g.NumNodes)
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		pairs = append(pairs, [2]int{u, v})
	}
	return te.NewProblem(g, tunnels.ComputeForPairs(g, pairs, k))
}

// allPairsProblem is what bench/workloads.go builds for a topology: every
// ordered pair of its edge nodes, 4 tunnels per flow.
func allPairsProblem(g *topology.Graph) *te.Problem {
	return te.NewProblem(g, tunnels.Compute(g, 4))
}

// benchKDLProblem is the benchmark's kdl_large problem: KDLScale(301) with
// 48 evenly spaced edge nodes — 2,256 flows, 93,670 tokens. 0.4 s of
// tunnel computation and 0.2 s per plan build, so tests skip it under
// -short.
func benchKDLProblem() *te.Problem {
	g := topology.KDLScale(301)
	for i := 0; i < 48; i++ {
		g.EdgeNodes = append(g.EdgeNodes, i*g.NumNodes/48)
	}
	return allPairsProblem(g)
}

// benchSplits times one Splits call two ways: hit, on a Context the engine
// holds the plan of (a same-topology request), and build, on a Context it
// has never seen (a new topology: the embedding is part of the call).
func benchSplits(b *testing.B, p *te.Problem) {
	m, ctx, d := largeBench(p, 302)
	report := func(b *testing.B) {
		b.ReportMetric(float64(p.NumFlows()), "flows")
		b.ReportMetric(float64(len(ctx.inner.tokenIdx)), "tokens")
	}
	b.Run("hit", func(b *testing.B) {
		m.Splits(ctx, d)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Splits(ctx, d)
		}
		report(b)
	})
	b.Run("build", func(b *testing.B) {
		m.Splits(ctx, d)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh := m.Context(p)
			b.StartTimer()
			m.Splits(fresh, d)
		}
		report(b)
	})
}

func BenchmarkSplitsAbilene(b *testing.B) { benchSplits(b, allPairsProblem(topology.Abilene())) }
func BenchmarkSplitsGeant(b *testing.B)   { benchSplits(b, allPairsProblem(topology.Geant())) }
func BenchmarkSplitsKDL(b *testing.B)     { benchSplits(b, benchKDLProblem()) }

// TestUsCarrierScaleTraining is the training half of the scale acceptance:
// float64 training steps on a synthetic UsCarrier-scale (158-node) problem
// must run on the sparse kernels without tripping the numerical health
// guard.
func TestUsCarrierScaleTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("UsCarrier-scale training steps are seconds of work; skipped with -short")
	}
	if tensor.RaceEnabled {
		t.Skip("UsCarrier-scale training is too slow under race instrumentation")
	}
	p := scaleProblem(topology.UsCarrierScale(301), 40, 4, 301)
	m := New(DefaultConfig())
	ctx := m.Context(p)
	rng := rand.New(rand.NewSource(303))
	samples := make([]Sample, 2)
	for i := range samples {
		d := tensor.New(p.NumFlows(), 1)
		for j := range d.Data {
			d.Data[j] = 1 + 50*rng.Float64()
		}
		samples[i] = Sample{Ctx: ctx, Demand: d}
	}
	opt := autograd.NewAdam(2e-3)
	for step := 0; step < 2; step++ {
		loss, skipped := m.TrainStepChecked(opt, samples)
		if skipped {
			t.Fatalf("step %d: health guard tripped at UsCarrier scale", step)
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("step %d: loss %v", step, loss)
		}
	}
}

// TestKDLScaleServingDeadline: a single split-ratio inference on a
// KDL-scale topology must finish inside the serving deadline.
func TestKDLScaleServingDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("KDL-scale inference is seconds of work; skipped with -short")
	}
	if tensor.RaceEnabled {
		t.Skip("timing bound does not hold under race instrumentation")
	}
	p := kdlProblem(60, 4, 401)
	m, ctx, d := largeBench(p, 402)
	m.Splits(ctx, d) // warm: pooled tape arena and scratch

	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		start := time.Now()
		m.Splits(ctx, d)
		if el := time.Since(start); el < best {
			best = el
		}
	}
	if best > kdlServingDeadline {
		t.Errorf("KDL-scale inference took %v, deadline %v", best, kdlServingDeadline)
	}
	t.Logf("KDL-scale: %d nodes, %d flows, inference %v (deadline %v)",
		p.Graph.NumNodes, p.NumFlows(), best, kdlServingDeadline)
}

// allocated is the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBuildFootprint pins what a plan build costs in memory: the plan, which
// is tokens×HR and the engine's to keep, and beyond it nothing that grows
// with the tokens — stage 1 on the tape is E-shaped, SETTRANS runs in a block
// of planBlockTokens rows, the per-call buffers are per tunnel. Cold, with the
// pools emptied, the first call allocates everything the pooled scratch and
// the pooled tape will ever hold for this problem, so that bounds what they
// hold afterwards; warm, a build on a fresh Context of the same shape
// allocates the answer and under 2 KB of tape bookkeeping. The parent of the block loop
// recorded SETTRANS op by op on the tape: 22 MB cold on GEANT, 226 MB on KDL.
func TestBuildFootprint(t *testing.T) {
	for _, c := range []struct {
		name    string
		problem func() *te.Problem
		large   bool
	}{
		{"geant", func() *te.Problem { return allPairsProblem(topology.Geant()) }, false},
		{"kdl", benchKDLProblem, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.large && (testing.Short() || tensor.RaceEnabled) {
				t.Skip("KDL all-pairs: 0.4 s of tunnels, 0.2 s per build")
			}
			p := c.problem()
			m, ctx, d := largeBench(p, 302)
			tokens, tunnels, rows := len(ctx.inner.tokenIdx), len(ctx.inner.segs), p.Graph.NumEdges()+p.Graph.NumNodes
			plan := 8 * tokens * m.Cfg.RAUHidden
			// Generous per-row allowances: a tunnel has 2×H1 + 5 columns of
			// scratch and a share of the answer, an edge or node a few dozen
			// tape buffers of width ≤ 2r, the block a dozen buffers and L×L
			// scores.
			limit := plan + 8*(64*tunnels+256*rows+256*planBlockTokens+planBlockTokens*planBlockTokens) + 1<<16

			runtime.GC()
			runtime.GC() // twice empties a sync.Pool
			cold := allocated(func() { m.Splits(ctx, d) })
			// The warmest of several: under -race a Pool drops a quarter of
			// what it is given, and any GC ages it. One P, so no goroutine
			// migrates away from the P whose private slot holds the scratch,
			// and no GC, since two of them drop the pool's entries.
			procs := runtime.GOMAXPROCS(1)
			gc := debug.SetGCPercent(-1)
			t.Cleanup(func() {
				runtime.GOMAXPROCS(procs)
				debug.SetGCPercent(gc)
			})
			warm := cold
			for i := 0; i < 12; i++ {
				fresh := m.Context(p)
				warm = min(warm, allocated(func() { m.Splits(fresh, d) }))
			}
			t.Logf("%d tokens, %d tunnels, %d edges+nodes: plan %d B, cold build %d B (limit %d), warm build %d B",
				tokens, tunnels, rows, plan, cold, limit, warm)
			if cold > uint64(limit) {
				t.Errorf("a cold build allocates %d B beyond its %d B plan, want <= %d: something token-shaped besides rauTok", int(cold)-plan, plan, limit-plan)
			}
			if warmLimit := uint64(8*tunnels + 1<<12); warm > warmLimit {
				t.Errorf("a warm build allocates %d B, want <= %d (the answer and 4 KB)", warm, warmLimit)
			}
		})
	}
}
