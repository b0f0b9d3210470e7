package core

import (
	"math"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/chaos"
)

func paramsEqual(t *testing.T, m *Model, snap [][]float64, context string) {
	t.Helper()
	for i, p := range m.params {
		for j, v := range p.Val.Data {
			if v != snap[i][j] {
				t.Fatalf("%s: param %d[%d] changed %v -> %v", context, i, j, snap[i][j], v)
			}
		}
	}
}

func paramsFinite(t *testing.T, m *Model) {
	t.Helper()
	for i, p := range m.params {
		for j, v := range p.Val.Data {
			if !isFinite(v) {
				t.Fatalf("param %d[%d] is %v", i, j, v)
			}
		}
	}
}

func TestTrainStepGuardSkipsNaNLoss(t *testing.T) {
	m := New(tinyConfig())
	p := twoPathProblem()
	ctx := m.Context(p)
	batch := []Sample{{Ctx: ctx, Demand: demandVec(p, map[[2]int]float64{{0, 1}: 4, {1, 0}: 2})}}
	before := autograd.Snapshot(m.params)
	opt := autograd.NewAdam(1e-3)

	m.lossHook = func(float64) float64 { return math.NaN() }
	_, skipped := m.TrainStep(opt, batch, 1)
	m.lossHook = nil
	if !skipped {
		t.Fatal("NaN loss not skipped")
	}
	paramsEqual(t, m, before, "after skipped batch")
	for i, p := range m.params {
		for j, g := range p.Grad.Data {
			if g != 0 {
				t.Fatalf("grad %d[%d] = %v after skip, want 0", i, j, g)
			}
		}
	}

	// Sanity: the same batch unpoisoned does step.
	if _, skipped := m.TrainStep(opt, batch, 1); skipped {
		t.Fatal("healthy batch skipped")
	}
	changed := false
outer:
	for i, p := range m.params {
		for j, v := range p.Val.Data {
			if v != before[i][j] {
				changed = true
				break outer
			}
		}
	}
	if !changed {
		t.Fatal("healthy step left parameters untouched")
	}
}

func TestTrainStepGuardCatchesNaNGradient(t *testing.T) {
	m := New(tinyConfig())
	p := twoPathProblem()
	ctx := m.Context(p)
	batch := []Sample{{Ctx: ctx, Demand: demandVec(p, map[[2]int]float64{{0, 1}: 4, {1, 0}: 2})}}
	before := autograd.Snapshot(m.params)

	// Poison the accumulated gradient directly: the loss stays finite but
	// the gradient-norm check must still withhold the step.
	m.params[0].Grad.Data[0] = math.NaN()
	loss, skipped := m.TrainStep(autograd.NewAdam(1e-3), batch, 1)
	if !skipped {
		t.Fatal("NaN gradient not skipped")
	}
	if !isFinite(loss) {
		t.Fatalf("loss should be finite here, got %v", loss)
	}
	paramsEqual(t, m, before, "after NaN-gradient skip")
}

func TestParallelTrainStepGuard(t *testing.T) {
	m := New(tinyConfig())
	p := twoPathProblem()
	ctx := m.Context(p)
	var batch []Sample
	for i := 1; i <= 6; i++ {
		batch = append(batch, Sample{Ctx: ctx, Demand: demandVec(p, map[[2]int]float64{{0, 1}: float64(i), {1, 0}: 1})})
	}
	before := autograd.Snapshot(m.params)
	m.lossHook = func(float64) float64 { return math.Inf(1) }
	_, skipped := m.TrainStep(autograd.NewAdam(1e-3), batch, 3)
	m.lossHook = nil
	if !skipped {
		t.Fatal("Inf loss not skipped in parallel step")
	}
	paramsEqual(t, m, before, "after parallel skip")
}

// TestFitSurvivesPoisonedBatches drives Fit through persistent NaN
// poisoning: it must skip every poisoned batch, restore the last-good
// snapshot after repeated failures, keep the parameters finite, and report
// the counts — never crash or corrupt the model.
func TestFitSurvivesPoisonedBatches(t *testing.T) {
	m := New(tinyConfig())
	p := twoPathProblem()
	samples := checkpointSamples(m, p, 4)
	tc := TrainConfig{
		Epochs: 3, BatchSize: 1, LR: 2e-3, Seed: 3,
		lossHook: chaos.NaNAfter(2), // first 2 batches healthy, everything after poisoned
	}
	res := m.Fit(samples, nil, tc)
	if res.Epochs != 3 {
		t.Fatalf("training stopped early: %d epochs", res.Epochs)
	}
	wantSkips := 3*len(samples) - 2
	if res.SkippedBatches != wantSkips {
		t.Fatalf("SkippedBatches = %d, want %d", res.SkippedBatches, wantSkips)
	}
	if res.GuardRestores == 0 {
		t.Fatal("persistent poison never triggered a last-good restore")
	}
	paramsFinite(t, m)
}

func TestFitIntermittentPoison(t *testing.T) {
	m := New(tinyConfig())
	p := twoPathProblem()
	samples := checkpointSamples(m, p, 4)
	tc := TrainConfig{
		Epochs: 2, BatchSize: 1, LR: 2e-3, Seed: 3,
		lossHook: chaos.NaNEvery(3), // every 3rd batch poisoned
	}
	res := m.Fit(samples, nil, tc)
	if res.SkippedBatches == 0 {
		t.Fatal("poisoned batches were not skipped")
	}
	if res.SkippedBatches >= 2*len(samples) {
		t.Fatalf("all %d batches skipped, expected only every 3rd", res.SkippedBatches)
	}
	paramsFinite(t, m)
	if !isFinite(res.BestValMLU) {
		t.Fatalf("BestValMLU = %v", res.BestValMLU)
	}
}
