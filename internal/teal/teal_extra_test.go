package teal

import (
	"math"
	"math/rand"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

func TestCapacityChangesOutput(t *testing.T) {
	// Unlike DOTE, TEAL models topology: halving a capacity must change the
	// splits (Table 1's "models topology" row).
	p := twoPathProblem()
	m := New(DefaultConfig(), p.Tunnels.K)
	d := demandVec(p, 0, 1, 5)
	s1 := m.Splits(m.NewContext(p), d)
	p2 := te.NewProblem(p.Graph.WithPartialFailure(0, 1, 0.4), p.Tunnels)
	s2 := m.Splits(m.NewContext(p2), d)
	if tensor.Equal(s1, s2, 1e-12) {
		t.Fatal("TEAL ignored a capacity change")
	}
}

func TestReinforceAccumulatesGradients(t *testing.T) {
	p := twoPathProblem()
	cfg := DefaultConfig()
	cfg.RL = true
	m := New(cfg, p.Tunnels.K)
	ctx := m.NewContext(p)
	d := demandVec(p, 0, 1, 9)
	rng := rand.New(rand.NewSource(2))
	// A single RL step must produce nonzero gradients somewhere and then
	// zero them after the optimizer step.
	opt := autograd.NewAdam(1e-3)
	before := autograd.Snapshot(m.Params())
	m.TrainStep(opt, []Sample{{Ctx: ctx, Demand: d}}, rng)
	changed := false
	after := autograd.Snapshot(m.Params())
	for i := range before {
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("REINFORCE step changed no parameters")
	}
	for _, param := range m.Params() {
		for _, g := range param.Grad.Data {
			if g != 0 {
				t.Fatal("gradients not zeroed after step")
			}
		}
	}
}

func TestRLSamplesFloor(t *testing.T) {
	p := twoPathProblem()
	cfg := DefaultConfig()
	cfg.RL = true
	cfg.RLSamples = 0 // must be clamped internally to >= 2
	m := New(cfg, p.Tunnels.K)
	ctx := m.NewContext(p)
	rng := rand.New(rand.NewSource(3))
	opt := autograd.NewAdam(1e-3)
	mlu := m.TrainStep(opt, []Sample{{Ctx: ctx, Demand: demandVec(p, 0, 1, 4)}}, rng)
	if math.IsNaN(mlu) || mlu <= 0 {
		t.Fatalf("bad MLU %v", mlu)
	}
}

func TestFitValidationSelection(t *testing.T) {
	p := twoPathProblem()
	m := New(DefaultConfig(), p.Tunnels.K)
	ctx := m.NewContext(p)
	d := demandVec(p, 0, 1, 9)
	samples := []Sample{{Ctx: ctx, Demand: d}}
	_, bestVal := m.Fit(samples, samples, 30, 5e-3, 1, 1)
	// After Fit the restored parameters must achieve the reported best.
	got := m.MeanMLU(samples)
	if math.Abs(got-bestVal) > 1e-9 {
		t.Fatalf("restored model MLU %v != best val %v", got, bestVal)
	}
}

func TestEmptyBatchNoop(t *testing.T) {
	m := New(DefaultConfig(), 2)
	opt := autograd.NewAdam(1e-3)
	if v := m.TrainStep(opt, nil, rand.New(rand.NewSource(1))); v != 0 {
		t.Fatalf("empty batch returned %v", v)
	}
}

func TestNumParamsPositive(t *testing.T) {
	m := New(DefaultConfig(), 4)
	if m.NumParams() <= 0 {
		t.Fatal("no parameters")
	}
}

func TestContextOnFailedTopology(t *testing.T) {
	g := topology.Abilene()
	g.EdgeNodes = []int{0, 9}
	set := tunnels.Compute(g, 2)
	failed := g.WithFailedLink(0, 1)
	p := te.NewProblem(failed, set)
	m := New(DefaultConfig(), 2)
	ctx := m.NewContext(p)
	d := tensor.New(p.NumFlows(), 1)
	d.Fill(1)
	splits := m.Splits(ctx, d)
	for _, v := range splits.Data {
		if math.IsNaN(v) {
			t.Fatal("NaN split on failed topology")
		}
	}
}

// TestPoisonedBatchLeavesWeights: a batch whose loss demand holds a NaN is
// withheld by the guarded step — weights and Adam's step count stay as
// they were — and a Fit with one such sample among clean ones ends with
// finite weights and splits. Both direct and REINFORCE training.
func TestPoisonedBatchLeavesWeights(t *testing.T) {
	p := twoPathProblem()
	poison := demandVec(p, 0, 1, math.NaN())
	for _, rl := range []bool{false, true} {
		t.Run(map[bool]string{false: "direct", true: "REINFORCE"}[rl], func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.RL = rl
			m := New(cfg, p.Tunnels.K)
			ctx := m.NewContext(p)
			rng := rand.New(rand.NewSource(1))
			opt := autograd.NewAdam(1e-3)
			opt.GradClip = 5
			m.TrainStep(opt, []Sample{{Ctx: ctx, Demand: demandVec(p, 0, 1, 4)}}, rng)
			before, steps := autograd.Snapshot(m.Params()), opt.State(m.Params()).Step
			m.TrainStep(opt, []Sample{
				{Ctx: ctx, Demand: demandVec(p, 0, 1, 6)},
				{Ctx: ctx, Demand: demandVec(p, 0, 1, 4), LossDemand: poison},
			}, rng)
			for i, param := range m.Params() {
				for j, v := range param.Val.Data {
					if math.Float64bits(v) != math.Float64bits(before[i][j]) {
						t.Fatalf("param %d[%d] moved %v -> %v", i, j, before[i][j], v)
					}
				}
			}
			if got := opt.State(m.Params()).Step; got != steps {
				t.Fatalf("Adam step count %d -> %d on a poisoned batch", steps, got)
			}

			var train []Sample
			for i := 1; i <= 6; i++ {
				train = append(train, Sample{Ctx: ctx, Demand: demandVec(p, 0, 1, float64(i))})
			}
			train[2].LossDemand = poison
			m = New(cfg, p.Tunnels.K)
			m.Fit(train, train[3:], 3, 3e-3, 2, 1)
			values := m.Splits(ctx, demandVec(p, 0, 1, 5)).Data
			for _, param := range m.Params() {
				values = append(values, param.Val.Data...)
			}
			for _, v := range values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite weight or split %v after Fit", v)
				}
			}
		})
	}
}

// TestSoftmaxRowsInfiniteLogits: REINFORCE's softmax is the tensor kernel,
// so an infinite logit gets its documented answer, not NaN.
func TestSoftmaxRowsInfiniteLogits(t *testing.T) {
	got := softmaxRows(tensor.FromSlice(3, 2, []float64{
		math.Inf(1), 0,
		math.Inf(-1), math.Inf(-1),
		math.Inf(1), math.Inf(1),
	}))
	want := []float64{1, 0, 0, 0, 0.5, 0.5}
	for i, v := range got.Data {
		if v != want[i] {
			t.Fatalf("softmaxRows = %v, want %v", got.Data, want)
		}
	}
}
