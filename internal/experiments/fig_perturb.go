package experiments

import (
	"math/rand"

	"harpte/internal/core"
	"harpte/internal/dote"
	"harpte/internal/te"
	"harpte/internal/teal"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/traffic"
	"harpte/internal/tunnels"
)

// SchemesConfig controls experiments that train all three ML schemes on a
// fixed topology with a synthetic TM series (Figures 7, 8, 9, 10, 17).
type SchemesConfig struct {
	Scale    Scale
	Epochs   int
	LR       float64
	Seed     int64
	NumTMs   int // total TMs; split 75/12.5/12.5
	Progress Progress
}

func (c *SchemesConfig) defaults() {
	if c.Epochs == 0 {
		c.Epochs = 25
	}
	if c.LR == 0 {
		c.LR = 2e-3
	}
	if c.NumTMs == 0 {
		if c.Scale == Small {
			c.NumTMs = 32
		} else {
			c.NumTMs = 278 // the paper's KDL setting
		}
	}
}

// trainedSchemes bundles the three models trained on one problem.
type trainedSchemes struct {
	demands          []*tensor.Dense // aligned with tms
	train, val, test []int           // indices into demands

	harp *core.Model
	dote *dote.Model
	teal *teal.Model
}

// trainSchemes generates NumTMs synthetic matrices on p's topology and
// trains HARP, DOTE and TEAL with the 75/12.5/12.5 protocol.
func trainSchemes(p *te.Problem, cfg SchemesConfig) *trainedSchemes {
	tms := SyntheticTMs(p.Graph, p.Tunnels, cfg.NumTMs, cfg.Seed+10)
	ts := &trainedSchemes{}
	for _, tm := range tms {
		ts.demands = append(ts.demands, traffic.DemandVector(tm, p.Tunnels.Flows))
	}
	ts.train, ts.val, ts.test = SplitTrainValTest(len(ts.demands))

	mkInstances := func(idx []int) []*Instance {
		out := make([]*Instance, len(idx))
		for i, j := range idx {
			out[i] = &Instance{Problem: p, Demand: ts.demands[j]}
		}
		return out
	}
	trainI, valI := mkInstances(ts.train), mkInstances(ts.val)

	// HARP.
	ts.harp = core.New(harpConfigFor(cfg.Scale, cfg.Seed))
	tc := core.DefaultTrainConfig()
	tc.Epochs = cfg.Epochs
	tc.LR = cfg.LR
	tc.Seed = cfg.Seed
	ts.harp.Fit(HarpSamples(ts.harp, trainI), HarpSamples(ts.harp, valI), tc)
	cfg.Progress.Logf("schemes: HARP trained\n")

	// DOTE.
	ts.dote = dote.New(doteConfigFor(cfg.Seed), p.NumFlows(), p.Tunnels.K)
	ts.dote.Fit(doteSamples(trainI), doteSamples(valI), cfg.Epochs, 3e-3, 8, cfg.Seed)
	cfg.Progress.Logf("schemes: DOTE trained\n")

	// TEAL (direct-loss mode; see DESIGN.md on the RL substitution).
	ts.teal = teal.New(tealConfigFor(cfg.Seed), p.Tunnels.K)
	tctx := ts.teal.NewContext(p)
	tealTrain := tealSamples(tctx, trainI)
	tealVal := tealSamples(tctx, valI)
	ts.teal.Fit(tealTrain, tealVal, cfg.Epochs, 3e-3, 8, cfg.Seed)
	cfg.Progress.Logf("schemes: TEAL trained\n")
	return ts
}

func tealConfigFor(seed int64) teal.Config {
	cfg := teal.DefaultConfig()
	cfg.Seed = seed + 3
	return cfg
}

func tealSamples(ctx *teal.Context, instances []*Instance) []teal.Sample {
	out := make([]teal.Sample, len(instances))
	for i, in := range instances {
		out[i] = teal.Sample{Ctx: ctx, Demand: in.Demand, LossDemand: in.TrueDemand}
	}
	return out
}

// KDLProblem builds the large-topology problem: the KDL-scale graph with a
// deterministic subset of demand pairs (see DESIGN.md: all-pairs on 754
// nodes is 567k flows; the subset keeps the large-topology code path while
// staying laptop-scale) and K = 4 tunnels, as in the paper.
func KDLProblem(s Scale, seed int64) *te.Problem {
	g := topology.KDLScale(seed)
	numPairs := 60
	if s == Full {
		numPairs = 300
	}
	pairs := RandomPairs(g, numPairs, seed+1)
	set := tunnels.ComputeForPairs(g, pairs, TunnelsPerFlow("KDL", s))
	return te.NewProblem(g, set)
}

// Fig7Result compares the schemes with original vs shuffled tunnel order
// on KDL (Figure 7): mean ± std of NormMLU over the test TMs.
type Fig7Result struct {
	Table *Table
	// Original and Shuffled map scheme → distribution over test TMs.
	Original, Shuffled map[string]Distribution
}

// Fig7 runs the tunnel-order invariance experiment.
func Fig7(cfg SchemesConfig) *Fig7Result {
	cfg.defaults()
	p := KDLProblem(cfg.Scale, cfg.Seed)
	ts := trainSchemes(p, cfg)

	testI := make([]*Instance, len(ts.test))
	for i, j := range ts.test {
		testI[i] = &Instance{Problem: p, Demand: ts.demands[j]}
	}
	ComputeOptimal(testI)
	cfg.Progress.Logf("fig7: optimal computed for %d test TMs\n", len(testI))

	res := &Fig7Result{
		Original: map[string]Distribution{},
		Shuffled: map[string]Distribution{},
	}

	// Original order.
	res.Original["HARP"] = NewDistribution(evalHarpOn(ts.harp, p, testI))
	res.Original["DOTE"] = NewDistribution(evalDoteOn(ts.dote, p, testI, false))
	res.Original["TEAL"] = NewDistribution(evalTealOn(ts.teal, p, testI, false))

	// Shuffled tunnel order: same tunnels, new per-flow order. The optimal
	// MLU is order-independent, so OptimalMLU carries over.
	rng := rand.New(rand.NewSource(cfg.Seed + 77))
	shuffledSet := p.Tunnels.Shuffled(rng)
	sp := te.NewProblem(p.Graph, shuffledSet)
	shufI := make([]*Instance, len(testI))
	for i, in := range testI {
		shufI[i] = &Instance{Problem: sp, Demand: in.Demand, OptimalMLU: in.OptimalMLU}
	}
	res.Shuffled["HARP"] = NewDistribution(evalHarpOn(ts.harp, sp, shufI))
	res.Shuffled["DOTE"] = NewDistribution(evalDoteOn(ts.dote, sp, shufI, false))
	res.Shuffled["TEAL"] = NewDistribution(evalTealOn(ts.teal, sp, shufI, false))

	t := &Table{
		Title:   "Figure 7: KDL, original vs shuffled tunnel order (mean ± std NormMLU)",
		Columns: []string{"scheme", "original", "shuffled"},
	}
	for _, scheme := range []string{"HARP", "DOTE", "TEAL"} {
		o, s := res.Original[scheme], res.Shuffled[scheme]
		t.AddRow(scheme,
			F(o.Mean())+" ± "+F(o.Std()),
			F(s.Mean())+" ± "+F(s.Std()))
	}
	t.Notes = append(t.Notes,
		"paper: all schemes near-ideal on original order; only HARP retains performance when tunnels are shuffled")
	res.Table = t
	return res
}

// Fig8Result is the partial-failure generalization CDF on KDL (Figure 8).
type Fig8Result struct {
	Table     *Table
	PerScheme map[string]Distribution
}

// Fig8 trains on the pristine KDL topology and tests under random partial
// failures (one link loses 50–90% capacity).
func Fig8(cfg SchemesConfig) *Fig8Result {
	cfg.defaults()
	p := KDLProblem(cfg.Scale, cfg.Seed)
	ts := trainSchemes(p, cfg)

	numScenarios := 8
	if cfg.Scale == Full {
		numScenarios = 40 // the paper's setting
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	scenarios := usedLinkPartialFailures(p, numScenarios, rng)

	// All combinations of test TMs × scenarios.
	var combos []*Instance
	for _, g := range scenarios {
		fp := te.NewProblem(g, p.Tunnels)
		for _, j := range ts.test {
			combos = append(combos, &Instance{Problem: fp, Demand: ts.demands[j]})
		}
	}
	ComputeOptimal(combos)
	cfg.Progress.Logf("fig8: optimal computed for %d combos\n", len(combos))

	res := &Fig8Result{PerScheme: map[string]Distribution{}}
	harpVals := make([]float64, len(combos))
	doteVals := make([]float64, len(combos))
	tealVals := make([]float64, len(combos))
	parallelFor(len(combos), func(i int) {
		in := combos[i]
		hc := ts.harp.Context(in.Problem)
		harpVals[i] = in.NormMLUOf(ts.harp.Splits(hc, in.Demand))
		// DOTE ignores capacities entirely; splits depend on demand only.
		doteVals[i] = in.NormMLUOf(ts.dote.Splits(in.Demand))
		tc := ts.teal.NewContext(in.Problem)
		tealVals[i] = in.NormMLUOf(ts.teal.Splits(tc, in.Demand))
	})
	res.PerScheme["HARP"] = NewDistribution(harpVals)
	res.PerScheme["DOTE"] = NewDistribution(doteVals)
	res.PerScheme["TEAL"] = NewDistribution(tealVals)

	t := &Table{
		Title:   "Figure 8: KDL partial failures (trained without failures)",
		Columns: []string{"scheme", "p50", "p75", "p90", "max"},
	}
	for _, scheme := range []string{"HARP", "DOTE", "TEAL"} {
		d := res.PerScheme[scheme]
		t.AddRow(scheme, F(d.Median()), F(d.Quantile(0.75)), F(d.Quantile(0.9)), F(d.Max()))
	}
	t.Notes = append(t.Notes,
		"paper: HARP < 1.09 everywhere; DOTE/TEAL p75 ≈ 1.46–1.48")
	res.Table = t
	return res
}

// evalHarpOn evaluates HARP on instances sharing one problem.
func evalHarpOn(m *core.Model, p *te.Problem, instances []*Instance) []float64 {
	ctx := m.Context(p)
	out := make([]float64, len(instances))
	parallelFor(len(instances), func(i int) {
		out[i] = instances[i].NormMLUOf(m.Splits(ctx, instances[i].Demand))
	})
	return out
}

// evalDoteOn evaluates DOTE on instances sharing one problem; rescale
// applies the §4 local-rescaling policy (for complete failures).
func evalDoteOn(m *dote.Model, p *te.Problem, instances []*Instance, rescale bool) []float64 {
	out := make([]float64, len(instances))
	parallelFor(len(instances), func(i int) {
		splits := m.Splits(instances[i].Demand)
		if rescale {
			splits = te.Rescale(p, splits)
		}
		out[i] = instances[i].NormMLUOf(splits)
	})
	return out
}

// evalTealOn evaluates TEAL on instances sharing one problem.
func evalTealOn(m *teal.Model, p *te.Problem, instances []*Instance, rescale bool) []float64 {
	ctx := m.NewContext(p)
	out := make([]float64, len(instances))
	parallelFor(len(instances), func(i int) {
		splits := m.Splits(ctx, instances[i].Demand)
		if rescale {
			splits = te.Rescale(p, splits)
		}
		out[i] = instances[i].NormMLUOf(splits)
	})
	return out
}

// usedLinkPartialFailures generates partial-failure scenarios restricted to
// links that actually carry tunnels. The paper fails links "selected at
// random" on KDL with all-pairs demands, where every link matters; our
// KDL problem routes a demand subset (DESIGN.md), so an unrestricted random
// link usually carries nothing and the scenario would be vacuous.
func usedLinkPartialFailures(p *te.Problem, n int, rng *rand.Rand) []*topology.Graph {
	inc := p.Incidence()
	usedDirected := map[int]bool{}
	for e := 0; e < p.Graph.NumEdges(); e++ {
		if inc.RowPtr[e+1] > inc.RowPtr[e] {
			usedDirected[e] = true
		}
	}
	seen := map[[2]int]bool{}
	var candidates [][2]int
	for id, e := range p.Graph.Edges {
		if !usedDirected[id] {
			continue
		}
		a, b := e.Src, e.Dst
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if !seen[key] {
			seen[key] = true
			candidates = append(candidates, key)
		}
	}
	if len(candidates) == 0 {
		return p.Graph.RandomPartialFailures(n, rng)
	}
	out := make([]*topology.Graph, 0, n)
	for i := 0; i < n; i++ {
		l := candidates[rng.Intn(len(candidates))]
		reduction := 0.5 + 0.4*rng.Float64()
		out = append(out, p.Graph.WithPartialFailure(l[0], l[1], 1-reduction))
	}
	return out
}
