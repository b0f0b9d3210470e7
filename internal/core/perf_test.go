package core

// The training-step benchmark and the Abilene fixture the inference
// allocation pins share. `make bench` records it in BENCH_1.json.

import (
	"math/rand"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/te"
	"harpte/internal/topology"
	"harpte/internal/traffic"
	"harpte/internal/tunnels"
)

// abileneBench builds a deterministic Abilene workload: model, context and
// a batch of training samples.
func abileneBench(batch int) (*Model, *Context, []Sample) {
	g := topology.Abilene()
	set := tunnels.Compute(g, 4)
	p := te.NewProblem(g, set)
	m := New(DefaultConfig())
	ctx := m.Context(p)
	rng := rand.New(rand.NewSource(7))
	samples := make([]Sample, 0, batch)
	for i := 0; i < batch; i++ {
		tm := traffic.Gravity(g.NumNodes, traffic.GravityWeights(g, rng), 60)
		samples = append(samples, Sample{Ctx: ctx, Demand: traffic.DemandVector(tm, set.Flows)})
	}
	return m, ctx, samples
}

// BenchmarkTrainStepAbilene is one optimizer step on one batch of 8, serial
// and sharded over 2 and 4 workers: rows that differ in nothing but the
// workers, so the ledger can say whether ParallelTrainStep pays. Each
// sample is all-pairs Abilene: 132 flows, 2,774 tokens.
func BenchmarkTrainStepAbilene(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"batch8/serial", 1}, {"batch8/workers2", 2}, {"batch8/workers4", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			m, ctx, samples := abileneBench(8)
			opt := autograd.NewAdam(2e-3)
			m.ParallelTrainStep(opt, samples, bc.workers) // warm up lazily built state before measuring
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ParallelTrainStep(opt, samples, bc.workers)
			}
			b.ReportMetric(float64(ctx.inner.p.NumFlows()), "flows")
			b.ReportMetric(float64(len(ctx.inner.tokenIdx)), "tokens")
		})
	}
}
