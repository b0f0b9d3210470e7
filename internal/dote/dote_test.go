package dote

import (
	"math"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/lp"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

func twoPathProblem() *te.Problem {
	g := topology.New("twopath", 3)
	g.AddBidirectional(0, 1, 10)
	g.AddBidirectional(0, 2, 5)
	g.AddBidirectional(2, 1, 5)
	g.EdgeNodes = []int{0, 1}
	return te.NewProblem(g, tunnels.Compute(g, 2))
}

func demandVec(p *te.Problem, src, dst int, v float64) *tensor.Dense {
	d := tensor.New(p.NumFlows(), 1)
	d.Data[p.Tunnels.FlowIndex(src, dst)] = v
	return d
}

func TestForwardIsDistribution(t *testing.T) {
	p := twoPathProblem()
	m := New(DefaultConfig(), p.NumFlows(), p.Tunnels.K)
	d := demandVec(p, 0, 1, 5)
	splits := m.Splits(d)
	if splits.Rows != p.NumFlows() || splits.Cols != 2 {
		t.Fatalf("shape %dx%d", splits.Rows, splits.Cols)
	}
	for f := 0; f < splits.Rows; f++ {
		var s float64
		for _, v := range splits.Row(f) {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", f, s)
		}
	}
}

func TestTrainingApproachesOptimal(t *testing.T) {
	p := twoPathProblem()
	cfg := DefaultConfig()
	cfg.Hidden = []int{32}
	m := New(cfg, p.NumFlows(), p.Tunnels.K)
	d := demandVec(p, 0, 1, 9)
	opt := lp.Solve(p, d)
	samples := []Sample{{Problem: p, Demand: d}}
	m.Fit(samples, samples, 200, 5e-3, 1, 1)
	mlu := p.MLU(m.Splits(d), d)
	if te.NormMLU(mlu, opt.MLU) > 1.10 {
		t.Fatalf("DOTE NormMLU %.3f after training", te.NormMLU(mlu, opt.MLU))
	}
}

// TestIgnoresCapacityChanges documents DOTE's central limitation (§2.3):
// its output is a function of demands only, so capacity changes cannot
// change its splits.
func TestIgnoresCapacityChanges(t *testing.T) {
	p := twoPathProblem()
	m := New(DefaultConfig(), p.NumFlows(), p.Tunnels.K)
	d := demandVec(p, 0, 1, 5)
	s1 := m.Splits(d)
	// DOTE has no topology input at all; same demand → same output,
	// regardless of what happened to the network.
	s2 := m.Splits(d)
	if !tensor.Equal(s1, s2, 0) {
		t.Fatal("DOTE output must depend only on the demand vector")
	}
}

// TestSensitiveToInputOrder documents the §2.3 transpose/ordering issue:
// permuting the demand vector entries (e.g. feeding the transpose of the
// TM) changes DOTE's output in an uncontrolled way.
func TestSensitiveToInputOrder(t *testing.T) {
	p := twoPathProblem()
	m := New(DefaultConfig(), p.NumFlows(), p.Tunnels.K)
	f01 := p.Tunnels.FlowIndex(0, 1)
	f10 := p.Tunnels.FlowIndex(1, 0)
	d := tensor.New(p.NumFlows(), 1)
	d.Data[f01] = 7
	d.Data[f10] = 2
	s1 := m.Splits(d)
	// Swap the two demands (transpose of the TM).
	d.Data[f01], d.Data[f10] = d.Data[f10], d.Data[f01]
	s2 := m.Splits(d)
	// An invariant model would swap rows f01 and f10; DOTE generally does
	// not (its MLP treats inputs positionally). We check the weaker, always
	// true property that the output changed at all, then that it is NOT the
	// row swap of s1 (which holds for an untrained positional MLP).
	if tensor.Equal(s1, s2, 1e-12) {
		t.Fatal("output unchanged — vacuous test")
	}
	swapped := s1.Clone()
	r1 := append([]float64(nil), s1.Row(f01)...)
	copy(swapped.Row(f01), s1.Row(f10))
	copy(swapped.Row(f10), r1)
	if tensor.Equal(s2, swapped, 1e-9) {
		t.Log("note: output happened to be permutation-equivariant here")
	}
}

func TestTrainStepReducesLoss(t *testing.T) {
	p := twoPathProblem()
	m := New(DefaultConfig(), p.NumFlows(), p.Tunnels.K)
	d := demandVec(p, 0, 1, 9)
	s := Sample{Problem: p, Demand: d}
	opt := autograd.NewAdam(3e-3)
	first := m.TrainStep(opt, []Sample{s})
	var last float64
	for i := 0; i < 100; i++ {
		last = m.TrainStep(opt, []Sample{s})
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestNumParamsLarge(t *testing.T) {
	// DOTE on a GEANT-sized problem must be orders of magnitude larger than
	// HARP (the paper: 1M vs 21K).
	m := New(DefaultConfig(), 462, 8)
	if m.NumParams() < 200_000 {
		t.Fatalf("unexpectedly small DOTE: %d params", m.NumParams())
	}
}

func TestForwardPanicsOnWrongShape(t *testing.T) {
	m := New(DefaultConfig(), 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Splits(tensor.New(3, 1))
}

func TestMeanMLUUsesLossDemand(t *testing.T) {
	p := twoPathProblem()
	m := New(DefaultConfig(), p.NumFlows(), p.Tunnels.K)
	pred := demandVec(p, 0, 1, 1)
	truth := demandVec(p, 0, 1, 10)
	got := m.MeanMLU([]Sample{{Problem: p, Demand: pred, LossDemand: truth}})
	want := p.MLU(m.Splits(pred), truth)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanMLU %v want %v", got, want)
	}
}

func TestHistoryModelLearnsToAnticipate(t *testing.T) {
	// A deterministic alternating traffic pattern: the history reveals which
	// of two matrices comes next; the history model can specialize, the
	// single-TM model cannot see the future at all.
	p := twoPathProblem()
	f01 := p.Tunnels.FlowIndex(0, 1)
	low := tensor.New(p.NumFlows(), 1)
	low.Data[f01] = 2
	high := tensor.New(p.NumFlows(), 1)
	high.Data[f01] = 12
	var series []*tensor.Dense
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			series = append(series, low)
		} else {
			series = append(series, high)
		}
	}
	cfg := DefaultConfig()
	cfg.Hidden = []int{32}
	m := NewHistory(cfg, p.NumFlows(), p.Tunnels.K, 2)
	best := m.FitSeries(p, series, 60, 5e-3, 1)
	if best > 2.0 {
		t.Fatalf("history DOTE failed to train: best val MLU %v", best)
	}
	// Inference: the window [high, low] predicts the next (high) interval.
	splits := m.Splits([]*tensor.Dense{high, low})
	mlu := p.MLU(splits, high)
	opt := lp.Solve(p, high).MLU
	if te.NormMLU(mlu, opt) > 1.25 {
		t.Fatalf("history DOTE NormMLU %.3f on anticipated matrix", te.NormMLU(mlu, opt))
	}
}

func TestHistoryModelPanicsOnWrongWindow(t *testing.T) {
	m := NewHistory(DefaultConfig(), 2, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Splits([]*tensor.Dense{tensor.New(2, 1)})
}

func TestHistoryModelShortSeries(t *testing.T) {
	p := twoPathProblem()
	m := NewHistory(DefaultConfig(), p.NumFlows(), p.Tunnels.K, 5)
	if v := m.FitSeries(p, []*tensor.Dense{tensor.New(p.NumFlows(), 1)}, 3, 1e-3, 1); v < 1e299 {
		t.Fatalf("short series should be rejected, got %v", v)
	}
}

// paramsUnchanged fails unless every parameter holds the bits of snap.
func paramsUnchanged(t *testing.T, params []*autograd.Tensor, snap [][]float64) {
	t.Helper()
	for i, p := range params {
		for j, v := range p.Val.Data {
			if math.Float64bits(v) != math.Float64bits(snap[i][j]) {
				t.Fatalf("param %d[%d] moved %v -> %v", i, j, snap[i][j], v)
			}
		}
	}
}

// allFinite fails unless every parameter and split is finite.
func allFinite(t *testing.T, params []*autograd.Tensor, splits *tensor.Dense) {
	t.Helper()
	for i, p := range params {
		for j, v := range p.Val.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("param %d[%d] = %v", i, j, v)
			}
		}
	}
	for j, v := range splits.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("split %d = %v", j, v)
		}
	}
}

// TestPoisonedBatchLeavesWeights: a batch whose loss demand holds a NaN is
// withheld by the guarded step — weights and Adam's step count stay as
// they were — and a Fit with one such sample among clean ones ends with
// finite weights and splits. Both the single-TM and the history model.
func TestPoisonedBatchLeavesWeights(t *testing.T) {
	p := twoPathProblem()
	poison := demandVec(p, 0, 1, math.NaN())
	clean := func(v float64) *tensor.Dense { return demandVec(p, 0, 1, v) }

	t.Run("single-TM", func(t *testing.T) {
		m := New(DefaultConfig(), p.NumFlows(), p.Tunnels.K)
		opt := autograd.NewAdam(1e-3)
		opt.GradClip = 5
		m.TrainStep(opt, []Sample{{Problem: p, Demand: clean(4)}})
		before, steps := autograd.Snapshot(m.Params()), opt.State(m.Params()).Step
		m.TrainStep(opt, []Sample{{Problem: p, Demand: clean(6)}, {Problem: p, Demand: clean(4), LossDemand: poison}})
		paramsUnchanged(t, m.Params(), before)
		if got := opt.State(m.Params()).Step; got != steps {
			t.Fatalf("Adam step count %d -> %d on a poisoned batch", steps, got)
		}

		var train []Sample
		for i := 1; i <= 6; i++ {
			train = append(train, Sample{Problem: p, Demand: clean(float64(i))})
		}
		train[2].LossDemand = poison
		m = New(DefaultConfig(), p.NumFlows(), p.Tunnels.K)
		m.Fit(train, train[3:], 3, 3e-3, 2, 1)
		allFinite(t, m.Params(), m.Splits(clean(5)))
	})

	t.Run("history", func(t *testing.T) {
		// Window 2 over four matrices: one training step (target demands[2])
		// and one validation step; both see the NaN, so nothing may move.
		m := NewHistory(DefaultConfig(), p.NumFlows(), p.Tunnels.K, 2)
		before := autograd.Snapshot(m.Params())
		m.FitSeries(p, []*tensor.Dense{clean(2), clean(5), poison, clean(3)}, 1, 3e-3, 1)
		paramsUnchanged(t, m.Params(), before)

		series := make([]*tensor.Dense, 24)
		for i := range series {
			series[i] = clean(float64(2 + 3*(i%3)))
		}
		series[4] = poison
		m = NewHistory(DefaultConfig(), p.NumFlows(), p.Tunnels.K, 2)
		m.FitSeries(p, series, 3, 3e-3, 1)
		allFinite(t, m.Params(), m.Splits([]*tensor.Dense{clean(2), clean(5)}))
	})
}
