package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/traffic"
	"harpte/internal/tunnels"
)

func TestMeanPoolVariantValidAndInvariant(t *testing.T) {
	cfg := tinyConfig()
	cfg.MeanPoolTunnels = true
	m := New(cfg)
	g := topology.Abilene()
	g.EdgeNodes = []int{0, 4, 9}
	set := tunnels.Compute(g, 3)
	p := te.NewProblem(g, set)
	rng := rand.New(rand.NewSource(80))
	tm := traffic.Gravity(g.NumNodes, traffic.GravityWeights(g, rng), 40)
	d := traffic.DemandVector(tm, set.Flows)
	s1 := m.Splits(m.Context(p), d)
	for f := 0; f < s1.Rows; f++ {
		var sum float64
		for _, v := range s1.Row(f) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatal("mean-pool splits not normalized")
		}
	}
	// Node relabeling invariance must hold for the ablation too.
	perm := rng.Perm(g.NumNodes)
	g2 := g.Permute(perm)
	set2 := &tunnels.Set{K: set.K, PerFlow: set.PerFlow}
	for _, f := range set.Flows {
		set2.Flows = append(set2.Flows, tunnels.Flow{Src: perm[f.Src], Dst: perm[f.Dst]})
	}
	s2 := m.Splits(m.Context(te.NewProblem(g2, set2)), d)
	if !tensor.Equal(s1, s2, 1e-7) {
		t.Fatal("mean-pool variant lost node-relabel invariance")
	}
}

func TestSingleTunnelPerFlow(t *testing.T) {
	// K=1: the softmax is trivially 1; everything must still run and
	// gradients must not blow up.
	g := topology.Abilene()
	g.EdgeNodes = []int{0, 9}
	set := tunnels.Compute(g, 1)
	p := te.NewProblem(g, set)
	m := New(tinyConfig())
	c := m.Context(p)
	d := tensor.New(p.NumFlows(), 1)
	d.Fill(2)
	splits := m.Splits(c, d)
	for f := 0; f < splits.Rows; f++ {
		if math.Abs(splits.At(f, 0)-1) > 1e-12 {
			t.Fatal("K=1 split must be 1")
		}
	}
	opt := autograd.NewAdam(1e-3)
	if loss, _ := m.TrainStep(opt, []Sample{{Ctx: c, Demand: d}}, 1); math.IsNaN(loss) {
		t.Fatal("NaN loss with K=1")
	}
}

func TestHARPPredTrainingImprovesTrueMLU(t *testing.T) {
	p := twoPathProblem()
	m := New(tinyConfig())
	c := m.Context(p)
	predicted := demandVec(p, map[[2]int]float64{{0, 1}: 3, {1, 0}: 1})
	truth := demandVec(p, map[[2]int]float64{{0, 1}: 9, {1, 0}: 2})
	s := Sample{Ctx: c, Demand: predicted, LossDemand: truth}
	before := p.MLU(m.Splits(c, predicted), truth)
	tc := DefaultTrainConfig()
	tc.Epochs = 120
	tc.LR = 5e-3
	m.Fit([]Sample{s}, []Sample{s}, tc)
	after := p.MLU(m.Splits(c, predicted), truth)
	if after >= before {
		t.Fatalf("HARP-Pred training did not improve true-matrix MLU: %v -> %v", before, after)
	}
}

func TestForwardResultUtilConsistent(t *testing.T) {
	// ForwardResult.Util and MLU must agree with te.Problem's evaluation of
	// the returned splits (up to capacity normalization).
	p := twoPathProblem()
	m := New(tinyConfig())
	c := m.Context(p)
	d := demandVec(p, map[[2]int]float64{{0, 1}: 6, {1, 0}: 3})
	tp := autograd.NewTape()
	fr := m.Forward(tp, c, d)
	wantUtil := p.Utilizations(fr.Splits.Val, d)
	if !tensor.Equal(fr.Util.Val, wantUtil, 1e-9) {
		t.Fatal("Forward utilization disagrees with problem evaluation")
	}
	wantMLU, _ := wantUtil.Max()
	if math.Abs(fr.MLU.Val.Data[0]-wantMLU) > 1e-9 {
		t.Fatal("Forward MLU disagrees")
	}
}

func TestContextSharedAcrossGoroutines(t *testing.T) {
	p := twoPathProblem()
	m := New(tinyConfig())
	c := m.Context(p)
	d := demandVec(p, map[[2]int]float64{{0, 1}: 4})
	want := m.Splits(c, d)
	done := make(chan *tensor.Dense, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- m.Splits(c, d) }()
	}
	for i := 0; i < 8; i++ {
		if got := <-done; !tensor.Equal(got, want, 0) {
			t.Fatal("concurrent inference differed")
		}
	}
}

func TestZeroDemandForward(t *testing.T) {
	p := twoPathProblem()
	m := New(tinyConfig())
	c := m.Context(p)
	d := tensor.New(p.NumFlows(), 1)
	splits := m.Splits(c, d)
	for _, v := range splits.Data {
		if math.IsNaN(v) {
			t.Fatal("NaN split under zero demand")
		}
	}
}

func TestConfigVariantsRun(t *testing.T) {
	p := twoPathProblem()
	d := demandVec(p, map[[2]int]float64{{0, 1}: 4})
	for _, mod := range []func(*Config){
		func(c *Config) { c.GNNLayers = 1 },
		func(c *Config) { c.GNNLayers = 3 },
		func(c *Config) { c.SetTransLayers = 2 },
		func(c *Config) { c.RAUIterations = 14 },
		func(c *Config) { c.Heads = 4; c.EmbedDim = 8 },
		func(c *Config) { c.LossTemp = 0 }, // hard-max loss
	} {
		cfg := tinyConfig()
		mod(&cfg)
		m := New(cfg)
		c := m.Context(p)
		opt := autograd.NewAdam(1e-3)
		loss, _ := m.TrainStep(opt, []Sample{{Ctx: c, Demand: d}}, 1)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("config %+v: bad loss %v", cfg, loss)
		}
	}
}

func TestSaveLoadPreservesConfig(t *testing.T) {
	cfg := tinyConfig()
	cfg.MeanPoolTunnels = true
	cfg.RAUIterations = 7
	m := New(cfg)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cfg != cfg {
		t.Fatalf("config roundtrip: %+v vs %+v", m2.Cfg, cfg)
	}
}

// TestPartialFailureShiftsTraffic checks the §5.4 mechanism at unit scale:
// reducing a tunnel's bottleneck capacity must shift split mass off it,
// even for a model trained only on the healthy topology.
func TestPartialFailureShiftsTraffic(t *testing.T) {
	p := twoPathProblem()
	m := New(tinyConfig())
	c := m.Context(p)
	d := demandVec(p, map[[2]int]float64{{0, 1}: 9, {1, 0}: 3})
	tc := DefaultTrainConfig()
	tc.Epochs = 120
	tc.LR = 5e-3
	m.Fit([]Sample{{Ctx: c, Demand: d}}, []Sample{{Ctx: c, Demand: d}}, tc)

	f := p.Tunnels.FlowIndex(0, 1)
	healthyShare := m.Splits(c, d).At(f, 0)
	// Cripple the direct link to 10% capacity.
	crippled := te.NewProblem(p.Graph.WithPartialFailure(0, 1, 0.1), p.Tunnels)
	crippledShare := m.Splits(m.Context(crippled), d).At(f, 0)
	if crippledShare >= healthyShare {
		t.Fatalf("partial failure did not shift traffic: %.3f -> %.3f",
			healthyShare, crippledShare)
	}
}
