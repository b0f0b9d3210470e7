package core

import (
	"math"
	"testing"

	"harpte/internal/autograd"
)

// TestParallelGradsMatchSequential verifies data-parallel training computes
// the same gradient as the sequential path (up to summation order).
func TestParallelGradsMatchSequential(t *testing.T) {
	p := twoPathProblem()
	seq := New(tinyConfig())
	par := New(tinyConfig()) // identical init (same seed)
	ctx := seq.Context(p)
	var batch []Sample
	for i := 1; i <= 6; i++ {
		batch = append(batch, Sample{
			Ctx:    ctx,
			Demand: demandVec(p, map[[2]int]float64{{0, 1}: float64(i), {1, 0}: 1}),
		})
	}

	// Same loss either way.
	lossSeq, _ := seq.TrainStep(autograd.NewAdam(0), batch, 1)
	lossPar, _ := par.TrainStep(autograd.NewAdam(0), batch, 3)
	if math.Abs(lossSeq-lossPar) > 1e-9 {
		t.Fatalf("losses differ: %v vs %v", lossSeq, lossPar)
	}
	// Same parameters after one real optimizer step (Adam consumes the
	// accumulated gradient, so parameter equality implies gradient
	// equality up to summation order).
	seq3 := New(tinyConfig())
	par3 := New(tinyConfig())
	seq3.TrainStep(autograd.NewAdam(1e-3), batch, 1)
	par3.TrainStep(autograd.NewAdam(1e-3), batch, 3)
	for i := range seq3.params {
		for j := range seq3.params[i].Val.Data {
			a, b := seq3.params[i].Val.Data[j], par3.params[i].Val.Data[j]
			if math.Abs(a-b) > 1e-9 {
				t.Fatalf("param %d[%d] differs after one step: %v vs %v", i, j, a, b)
			}
		}
	}
}

func TestParallelTrainingConverges(t *testing.T) {
	p := twoPathProblem()
	m := New(tinyConfig())
	ctx := m.Context(p)
	d := demandVec(p, map[[2]int]float64{{0, 1}: 9, {1, 0}: 3})
	samples := []Sample{
		{Ctx: ctx, Demand: d},
		{Ctx: ctx, Demand: demandVec(p, map[[2]int]float64{{0, 1}: 5, {1, 0}: 2})},
	}
	tc := DefaultTrainConfig()
	tc.Epochs = 100
	tc.LR = 5e-3
	tc.Workers = 4
	res := m.Fit(samples, samples, tc)
	if res.BestValMLU > 1.0 {
		t.Fatalf("parallel training failed to converge: %v", res.BestValMLU)
	}
}

func TestParallelStepSingleWorkerFallsBack(t *testing.T) {
	p := twoPathProblem()
	m := New(tinyConfig())
	ctx := m.Context(p)
	batch := []Sample{{Ctx: ctx, Demand: demandVec(p, map[[2]int]float64{{0, 1}: 4})}}
	opt := autograd.NewAdam(1e-3)
	if loss, _ := m.TrainStep(opt, batch, 8); math.IsNaN(loss) {
		t.Fatal("NaN loss")
	}
	if loss, _ := m.TrainStep(opt, nil, 4); loss != 0 {
		t.Fatal("empty batch should be a no-op")
	}
}

func TestShadowSharesWeights(t *testing.T) {
	m := New(tinyConfig())
	s := m.shadow()
	// Mutating the primary's weights must be visible through the shadow.
	m.params[0].Val.Data[0] = 123.5
	if s.params[0].Val.Data[0] != 123.5 {
		t.Fatal("shadow does not share weight storage")
	}
	// Gradients must be independent.
	s.params[0].Grad.Data[0] = 7
	if m.params[0].Grad.Data[0] == 7 {
		t.Fatal("shadow shares gradient storage")
	}
}
