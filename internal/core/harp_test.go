package core

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/lp"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/traffic"
	"harpte/internal/tunnels"
)

// tinyConfig keeps unit-test models small and fast.
func tinyConfig() Config {
	return Config{
		EmbedDim: 8, GNNLayers: 2, GNNHidden: 4,
		SetTransLayers: 1, Heads: 2, FFDim: 16,
		MLP1Hidden: 8, RAUHidden: 12, RAUIterations: 3,
		LossTemp: 0.05, Seed: 7,
	}
}

// twoPathProblem: 0→1 via a 10G direct link or a 5G two-hop detour.
func twoPathProblem() *te.Problem {
	g := topology.New("twopath", 3)
	g.AddBidirectional(0, 1, 10)
	g.AddBidirectional(0, 2, 5)
	g.AddBidirectional(2, 1, 5)
	g.EdgeNodes = []int{0, 1}
	return te.NewProblem(g, tunnels.Compute(g, 2))
}

func demandVec(p *te.Problem, vals map[[2]int]float64) *tensor.Dense {
	d := tensor.New(p.NumFlows(), 1)
	for k, v := range vals {
		d.Data[p.Tunnels.FlowIndex(k[0], k[1])] = v
	}
	return d
}

func TestForwardShapesAndDistribution(t *testing.T) {
	m := New(tinyConfig())
	p := twoPathProblem()
	c := m.Context(p)
	d := demandVec(p, map[[2]int]float64{{0, 1}: 6, {1, 0}: 2})
	splits := m.Splits(c, d)
	if splits.Rows != p.NumFlows() || splits.Cols != 2 {
		t.Fatalf("splits shape %dx%d", splits.Rows, splits.Cols)
	}
	for f := 0; f < splits.Rows; f++ {
		var s float64
		for _, v := range splits.Row(f) {
			if v < 0 || v > 1 {
				t.Fatalf("split out of range: %v", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("flow %d splits sum %v", f, s)
		}
	}
}

func TestNumParamsSmall(t *testing.T) {
	// The paper stresses HARP's compactness (21K params on AnonNet vs 1M
	// for DOTE); our default config must stay in the low thousands.
	n := New(DefaultConfig()).NumParams()
	if n < 500 || n > 100_000 {
		t.Fatalf("suspicious parameter count %d", n)
	}
}

// TestGradientThroughFullModel numerically validates the end-to-end
// gradient of the training loss with respect to a few parameters of every
// module (full enumeration would be slow).
func TestGradientThroughFullModel(t *testing.T) {
	m := New(tinyConfig())
	p := twoPathProblem()
	c := m.Context(p)
	d := demandVec(p, map[[2]int]float64{{0, 1}: 6, {1, 0}: 2})

	build := func() (*autograd.Tape, *autograd.Tensor) {
		tp := autograd.NewTape()
		fr := m.Forward(tp, c, d)
		return tp, m.LossMLU(tp, c, fr.Splits, d)
	}
	for _, param := range m.Params() {
		param.ZeroGrad()
	}
	tp, loss := build()
	tp.Backward(loss)

	const h = 1e-6
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for pi, param := range m.Params() {
		// Check up to two random entries per tensor.
		for rep := 0; rep < 2 && rep < len(param.Val.Data); rep++ {
			i := rng.Intn(len(param.Val.Data))
			orig := param.Val.Data[i]
			param.Val.Data[i] = orig + h
			_, lp1 := build()
			param.Val.Data[i] = orig - h
			_, lm := build()
			param.Val.Data[i] = orig
			num := (lp1.Val.Data[0] - lm.Val.Data[0]) / (2 * h)
			got := param.Grad.Data[i]
			scale := math.Max(1e-3, math.Max(math.Abs(num), math.Abs(got)))
			if math.Abs(num-got)/scale > 2e-2 {
				t.Fatalf("param %d entry %d: analytic %g vs numerical %g", pi, i, got, num)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatal("too few gradient checks executed")
	}
}

// TestNodeRelabelInvariance verifies Principle 1(b): jointly permuting node
// ids in topology, demands and tunnels leaves HARP's output unchanged.
func TestNodeRelabelInvariance(t *testing.T) {
	m := New(tinyConfig())
	g := topology.Abilene()
	g.EdgeNodes = []int{0, 4, 9}
	set := tunnels.Compute(g, 3)
	p := te.NewProblem(g, set)
	rng := rand.New(rand.NewSource(9))
	tm := traffic.Gravity(g.NumNodes, traffic.GravityWeights(g, rng), 40)
	d := traffic.DemandVector(tm, set.Flows)
	splits1 := m.Splits(m.Context(p), d)

	// Permute node ids. Edge order is preserved by Permute, so the tunnel
	// edge-id lists remain valid; only the flow endpoints are renamed.
	perm := rng.Perm(g.NumNodes)
	g2 := g.Permute(perm)
	set2 := &tunnels.Set{K: set.K, PerFlow: set.PerFlow}
	for _, f := range set.Flows {
		set2.Flows = append(set2.Flows, tunnels.Flow{Src: perm[f.Src], Dst: perm[f.Dst]})
	}
	p2 := te.NewProblem(g2, set2)
	splits2 := m.Splits(m.Context(p2), d) // same flow order → same demand vector

	if !tensor.Equal(splits1, splits2, 1e-7) {
		t.Fatal("HARP output changed under node relabeling")
	}
}

// TestTunnelReorderEquivariance verifies Principle 1(a): permuting the
// tunnels of a flow permutes that flow's splits identically.
func TestTunnelReorderEquivariance(t *testing.T) {
	m := New(tinyConfig())
	g := topology.Abilene()
	g.EdgeNodes = []int{0, 4, 9, 11}
	set := tunnels.Compute(g, 4)
	p := te.NewProblem(g, set)
	rng := rand.New(rand.NewSource(10))
	tm := traffic.Gravity(g.NumNodes, traffic.GravityWeights(g, rng), 40)
	d := traffic.DemandVector(tm, set.Flows)
	base := m.Splits(m.Context(p), d)

	shuffled := set.Shuffled(rng)
	p2 := te.NewProblem(g, shuffled)
	got := m.Splits(m.Context(p2), d)

	// For each flow, the multiset of (tunnel-key → split) pairs must match.
	for f := range set.Flows {
		for k := 0; k < set.K; k++ {
			key := shuffled.Tunnel(f, k).Key(g)
			// Sum splits over tunnels with the same key (padded duplicates
			// may split weight differently between identical tunnels).
			var want, have float64
			for j := 0; j < set.K; j++ {
				if set.Tunnel(f, j).Key(g) == key {
					want += base.At(f, j)
				}
				if shuffled.Tunnel(f, j).Key(g) == key {
					have += got.At(f, j)
				}
			}
			if math.Abs(want-have) > 1e-7 {
				t.Fatalf("flow %d tunnel %s: split %v vs %v after shuffle", f, key, want, have)
			}
		}
	}
}

// TestCapacityChangesOutput ensures HARP actually reads capacities: halving
// a link's capacity must change the splits (unlike DOTE, which ignores
// topology entirely).
func TestCapacityChangesOutput(t *testing.T) {
	m := New(tinyConfig())
	p := twoPathProblem()
	d := demandVec(p, map[[2]int]float64{{0, 1}: 6})
	s1 := m.Splits(m.Context(p), d)
	p2 := te.NewProblem(p.Graph.WithPartialFailure(0, 1, 0.2), p.Tunnels)
	s2 := m.Splits(m.Context(p2), d)
	if tensor.Equal(s1, s2, 1e-9) {
		t.Fatal("splits identical despite capacity change")
	}
}

// TestTrainingApproachesOptimal is the learning smoke test: on a fixed tiny
// instance HARP must reach within 10% of the LP optimum.
func TestTrainingApproachesOptimal(t *testing.T) {
	p := twoPathProblem()
	m := New(tinyConfig())
	c := m.Context(p)
	d := demandVec(p, map[[2]int]float64{{0, 1}: 9, {1, 0}: 3})
	opt := lp.Solve(p, d)

	samples := []Sample{{Ctx: c, Demand: d}}
	tc := DefaultTrainConfig()
	tc.Epochs = 150
	tc.LR = 5e-3
	res := m.Fit(samples, samples, tc)

	mlu := m.MLU(c, d)
	norm := te.NormMLU(mlu, opt.MLU)
	if norm > 1.10 {
		t.Fatalf("trained NormMLU %.4f (MLU %.4f vs optimal %.4f, best val %.4f)",
			norm, mlu, opt.MLU, res.BestValMLU)
	}
}

// TestRAUMovesTrafficOffFailedLink reproduces the §4 observation: after a
// complete link failure the recurrent unit steers traffic off dead tunnels
// without any explicit rescaling.
func TestRAUMovesTrafficOffFailedLink(t *testing.T) {
	p := twoPathProblem()
	m := New(tinyConfig())
	d := demandVec(p, map[[2]int]float64{{0, 1}: 6, {1, 0}: 2})

	// Train on the healthy topology plus a failed variant (mixed capacity
	// configurations, as AnonNet clusters provide).
	failed := te.NewProblem(p.Graph.WithFailedLink(0, 1), p.Tunnels)
	cHealthy, cFailed := m.Context(p), m.Context(failed)
	samples := []Sample{{Ctx: cHealthy, Demand: d}, {Ctx: cFailed, Demand: d}}
	tc := DefaultTrainConfig()
	tc.Epochs = 120
	tc.LR = 5e-3
	m.Fit(samples, samples, tc)

	splits := m.Splits(cFailed, d)
	f := p.Tunnels.FlowIndex(0, 1)
	if splits.At(f, 0) > 0.05 {
		t.Fatalf("HARP left %.3f of traffic on the failed direct tunnel", splits.At(f, 0))
	}
}

func TestNoRAUAblationStillValid(t *testing.T) {
	cfg := tinyConfig()
	cfg.RAUIterations = 0 // HARP-NoRAU
	m := New(cfg)
	p := twoPathProblem()
	d := demandVec(p, map[[2]int]float64{{0, 1}: 6})
	splits := m.Splits(m.Context(p), d)
	for f := 0; f < splits.Rows; f++ {
		var s float64
		for _, v := range splits.Row(f) {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatal("NoRAU splits not normalized")
		}
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	m := New(tinyConfig())
	p := twoPathProblem()
	c := m.Context(p)
	d := demandVec(p, map[[2]int]float64{{0, 1}: 6})
	want := m.Splits(c, d)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := m2.Splits(m2.Context(p), d)
	if !tensor.Equal(want, got, 0) {
		t.Fatal("loaded model differs from saved model")
	}
}

// committedRoundTrip is the benchmark's committed model file (read, never
// written) and what Save writes after Load reads it. It is computed when
// the package initialises, before any test runs: gob numbers the types it
// sends in the order the process first meets them, so only a process that
// has encoded nothing else writes the file's exact bytes.
var committedRoundTrip = func() (rt struct {
	read, saved []byte
	err         error
}) {
	if rt.read, rt.err = os.ReadFile("../../bench/testdata/harp_abilene.model"); rt.err != nil {
		return rt
	}
	m, err := Load(bytes.NewReader(rt.read))
	if err != nil {
		rt.err = err
		return rt
	}
	var saved bytes.Buffer
	rt.err = m.Save(&saved)
	rt.saved = saved.Bytes()
	return rt
}()

// TestCommittedModelRoundTrips: the committed model file comes back byte for
// byte through Load and Save, so the on-disk frame is the one every existing
// model file was written in.
func TestCommittedModelRoundTrips(t *testing.T) {
	rt := committedRoundTrip
	if rt.err != nil {
		t.Fatal(rt.err)
	}
	if !bytes.Equal(rt.saved, rt.read) {
		t.Fatalf("Save after Load wrote %d bytes that differ from the %d read", len(rt.saved), len(rt.read))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestFitEarlyStopping(t *testing.T) {
	p := twoPathProblem()
	m := New(tinyConfig())
	c := m.Context(p)
	d := demandVec(p, map[[2]int]float64{{0, 1}: 5})
	samples := []Sample{{Ctx: c, Demand: d}}
	var log bytes.Buffer
	tc := TrainConfig{Epochs: 500, LR: 1e-2, BatchSize: 1, Patience: 5, Seed: 2, Log: &log}
	res := m.Fit(samples, samples, tc)
	if res.Epochs >= 500 {
		t.Fatal("early stopping never triggered")
	}
	if log.Len() == 0 {
		t.Fatal("no training log written")
	}
}

func TestHARPPredSampleUsesLossDemand(t *testing.T) {
	p := twoPathProblem()
	m := New(tinyConfig())
	c := m.Context(p)
	predicted := demandVec(p, map[[2]int]float64{{0, 1}: 4})
	truth := demandVec(p, map[[2]int]float64{{0, 1}: 8})
	s := Sample{Ctx: c, Demand: predicted, LossDemand: truth}
	// MeanMLU must evaluate against the true matrix.
	splits := m.Splits(c, predicted)
	want := p.MLU(splits, truth)
	got := m.MeanMLU([]Sample{s})
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanMLU %v want %v", got, want)
	}
}
