// Ablation and micro benchmarks: the design-choice ablations DESIGN.md §5
// calls out (each iteration trains a variant and reports its mean test
// NormMLU), the LP solvers, the fairness evaluator and dataset generation.
// The paper's tables and figures are regenerated by cmd/tebench, not here.
package harpte_test

import (
	"fmt"
	"math/rand"
	"testing"

	"harpte/internal/core"
	"harpte/internal/dataset"
	"harpte/internal/experiments"
	"harpte/internal/lp"
	"harpte/internal/te"
	"harpte/internal/topology"
	"harpte/internal/traffic"
	"harpte/internal/tunnels"
)

// ---- ablation benches for the design choices DESIGN.md calls out ----

// ablationEval trains a HARP variant on a fixed Abilene workload and
// reports its mean test NormMLU.
func ablationEval(b *testing.B, cfg core.Config) float64 {
	b.Helper()
	g := topology.Abilene()
	set := tunnels.Compute(g, 4)
	p := te.NewProblem(g, set)
	tms := traffic.Series(g, 24, traffic.DefaultSeriesConfig(60), 3)
	var instances []*experiments.Instance
	for _, tm := range tms {
		instances = append(instances, &experiments.Instance{
			Problem: p, Demand: traffic.DemandVector(tm, set.Flows),
		})
	}
	trainIdx, valIdx, testIdx := experiments.SplitTrainValTest(len(instances))
	pick := func(idx []int) []*experiments.Instance {
		o := make([]*experiments.Instance, len(idx))
		for i, j := range idx {
			o[i] = instances[j]
		}
		return o
	}
	trainI, valI, testI := pick(trainIdx), pick(valIdx), pick(testIdx)
	m := core.New(cfg)
	tc := core.DefaultTrainConfig()
	tc.Epochs = 15
	if testing.Short() {
		tc.Epochs = 1 // make benchsmoke: run the path once, measure nothing
	}
	m.Fit(experiments.HarpSamples(m, trainI), experiments.HarpSamples(m, valI), tc)
	experiments.ComputeOptimal(testI)
	d := experiments.NewDistribution(experiments.EvalHarp(m, testI, experiments.HarpSamples(m, testI)))
	return d.Mean()
}

func BenchmarkAblationRAUIters(b *testing.B) {
	for _, iters := range []int{3, 7, 14} {
		iters := iters
		b.Run(benchName("rau", iters), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.RAUIterations = iters
				b.ReportMetric(ablationEval(b, cfg), "mean-NormMLU")
			}
		})
	}
}

func BenchmarkAblationGNNDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 3} {
		depth := depth
		b.Run(benchName("gnn", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.GNNLayers = depth
				b.ReportMetric(ablationEval(b, cfg), "mean-NormMLU")
			}
		})
	}
}

func BenchmarkAblationSetTransVsMeanPool(b *testing.B) {
	for _, meanPool := range []bool{false, true} {
		meanPool := meanPool
		name := "settrans"
		if meanPool {
			name = "meanpool"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.MeanPoolTunnels = meanPool
				b.ReportMetric(ablationEval(b, cfg), "mean-NormMLU")
			}
		})
	}
}

func BenchmarkSolverComparison(b *testing.B) {
	g := topology.Geant()
	set := tunnels.Compute(g, 4)
	p := te.NewProblem(g, set)
	tm := traffic.Gravity(g.NumNodes, traffic.GravityWeights(g, newBenchRng()), 110)
	demand := traffic.DemandVector(tm, set.Flows)
	for _, method := range []string{"simplex", "mwu"} {
		method := method
		b.Run(method, func(b *testing.B) {
			var mlu float64
			for i := 0; i < b.N; i++ {
				r, err := lp.SolveWithOptions(p, demand, lp.Options{Method: method})
				if err != nil {
					b.Fatal(err)
				}
				mlu = r.MLU
			}
			b.ReportMetric(mlu, "MLU")
		})
	}
}

func BenchmarkDatasetGeneration(b *testing.B) {
	cfg := experiments.AnonNetConfig(experiments.Small)
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if ds := dataset.Generate(cfg); len(ds.Clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}

func benchName(prefix string, v int) string {
	return fmt.Sprintf("%s-%02d", prefix, v)
}

func newBenchRng() *rand.Rand { return rand.New(rand.NewSource(9)) }

func BenchmarkLPSimplexAbilene(b *testing.B) {
	g := topology.Abilene()
	set := tunnels.Compute(g, 4)
	p := te.NewProblem(g, set)
	tm := traffic.Gravity(g.NumNodes, traffic.GravityWeights(g, newBenchRng()), 60)
	demand := traffic.DemandVector(tm, set.Flows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.SolveWithOptions(p, demand, lp.Options{Method: "simplex"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxMinFairnessEvaluator(b *testing.B) {
	g := topology.Geant()
	set := tunnels.Compute(g, 4)
	p := te.NewProblem(g, set)
	splits := p.UniformSplits()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rates := p.MaxMinRates(splits); len(rates) != p.NumFlows() {
			b.Fatal("bad rates")
		}
	}
}
