package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"

	"harpte/internal/core"
	"harpte/internal/dataset"
	"harpte/internal/lp"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/traffic"
	"harpte/internal/tunnels"
)

// Scale selects experiment sizing. Small presets finish each figure in
// about a minute on a laptop CPU; Full presets match the paper's settings
// (15 tunnels on AnonNet, 8 elsewhere, 4 on KDL; full scenario grids) and
// can take hours, as the originals did on GPUs.
type Scale int

// Scales.
const (
	Small Scale = iota
	Full
)

// AnonNetConfig returns the dataset generator configuration per scale.
func AnonNetConfig(s Scale) dataset.Config {
	cfg := dataset.DefaultConfig()
	if s == Small {
		cfg.Nodes = 14
		cfg.Snapshots = 400
		cfg.ClusterEvery = 18
		cfg.TunnelsPerFlow = 4
		cfg.EdgeNodeFraction = 0.5
	}
	return cfg
}

// TunnelsPerFlow returns K per topology name and scale, following §4
// ("15 shortest paths for AnonNet, 4 for KDL, 8 by default").
func TunnelsPerFlow(topo string, s Scale) int {
	if s == Full {
		switch topo {
		case "AnonNet":
			return 15
		case "KDL":
			return 4
		default:
			return 8
		}
	}
	return 4
}

// Instance pairs a problem with its demand (and optionally the true demand
// for prediction experiments) plus its precomputed optimal MLU.
type Instance struct {
	Problem *te.Problem
	Demand  *tensor.Dense
	// TrueDemand is the matrix NormMLU is evaluated against (nil = Demand).
	TrueDemand *tensor.Dense
	OptimalMLU float64
}

func (in Instance) evalDemand() *tensor.Dense {
	if in.TrueDemand != nil {
		return in.TrueDemand
	}
	return in.Demand
}

// NormMLUOf evaluates a split matrix against the instance's optimum.
func (in Instance) NormMLUOf(splits *tensor.Dense) float64 {
	return te.NormMLU(in.Problem.MLU(splits, in.evalDemand()), in.OptimalMLU)
}

// ComputeOptimal fills OptimalMLU for every instance, solving in parallel
// (the solves are independent; this is the experiment harness's dominant
// cost, exactly as Gurobi runs dominate the paper's pipeline).
func ComputeOptimal(instances []*Instance) {
	parallelFor(len(instances), func(i int) {
		in := instances[i]
		in.OptimalMLU = lp.Solve(in.Problem, in.evalDemand()).MLU
	})
}

func parallelFor(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// ClusterInstances materializes instances for (a subset of) a cluster's
// snapshots. stride subsamples (1 = every snapshot).
func ClusterInstances(ds *dataset.Dataset, cluster, stride int) []*Instance {
	c := ds.Clusters[cluster]
	var out []*Instance
	for i, si := range c.Snapshots {
		if stride > 1 && i%stride != 0 {
			continue
		}
		snap := ds.Snapshots[si]
		p := te.NewProblem(snap.Graph, c.Tunnels)
		out = append(out, &Instance{
			Problem: p,
			Demand:  traffic.DemandVector(snap.TM, c.Tunnels.Flows),
		})
	}
	return out
}

// HarpSamples converts instances to HARP training samples, building one
// model context per problem.
func HarpSamples(m *core.Model, instances []*Instance) []core.Sample {
	out := make([]core.Sample, len(instances))
	parallelFor(len(instances), func(i int) {
		out[i] = core.Sample{
			Ctx:        m.Context(instances[i].Problem),
			Demand:     instances[i].Demand,
			LossDemand: instances[i].TrueDemand,
		}
	})
	return out
}

// EvalHarp returns the NormMLU of the model on every instance.
func EvalHarp(m *core.Model, instances []*Instance, samples []core.Sample) []float64 {
	out := make([]float64, len(instances))
	parallelFor(len(instances), func(i int) {
		splits := m.Splits(samples[i].Ctx, samples[i].Demand)
		out[i] = instances[i].NormMLUOf(splits)
	})
	return out
}

// SyntheticTMs generates n gravity-model traffic matrices on g whose
// aggregate volume makes the optimal MLU land near a target utilization —
// the role of the DOTE-code synthetic matrices the paper uses for KDL.
// Demands are capped below each node's access capacity (see
// traffic.CapToAccess) so core links are the binding constraint, as in
// real WAN matrices.
func SyntheticTMs(g *topology.Graph, set *tunnels.Set, n int, seed int64) []*tensor.Dense {
	cfg := traffic.DefaultSeriesConfig(totalForTopology(g))
	cfg.NoiseSigma = 0.3
	tms := traffic.Series(g, n, cfg, seed)
	for _, tm := range tms {
		traffic.CapToAccess(tm, g, 0.35)
	}
	return tms
}

// totalForTopology picks an aggregate demand that loads the network
// meaningfully (roughly: a third of the bisection-ish capacity).
func totalForTopology(g *topology.Graph) float64 {
	var capSum float64
	for _, e := range g.Edges {
		capSum += e.Capacity
	}
	return capSum / 8
}

// SplitTrainValTest partitions indices 75/12.5/12.5 (the paper's protocol
// for the per-cluster and public-dataset experiments).
func SplitTrainValTest(n int) (train, val, test []int) {
	for i := 0; i < n; i++ {
		switch {
		case i < n*3/4:
			train = append(train, i)
		case i < n*7/8:
			val = append(val, i)
		default:
			test = append(test, i)
		}
	}
	return train, val, test
}

// RandomPairs returns n distinct ordered node pairs of g, seeded.
func RandomPairs(g *topology.Graph, n int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	seen := map[[2]int]bool{}
	var out [][2]int
	for len(out) < n {
		u, v := rng.Intn(g.NumNodes), rng.Intn(g.NumNodes)
		if u == v {
			continue
		}
		k := [2]int{u, v}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, k)
	}
	return out
}

// Progress is an optional sink for experiment progress lines; use
// io.Discard to silence.
type Progress struct {
	W io.Writer
}

// Logf writes one progress line when a writer is configured.
func (p Progress) Logf(format string, args ...interface{}) {
	if p.W != nil {
		fmt.Fprintf(p.W, format, args...)
	}
}
