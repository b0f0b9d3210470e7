package core

// Regression tests for the allocation-free hot path: steady-state
// allocation bounds on reused tapes, bit-identity between pooled and
// non-pooled execution, and kill-and-resume determinism when training runs
// on pooled per-worker tapes.

import (
	"path/filepath"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/tensor"
)

// gradsOf deep-copies the accumulated parameter gradients.
func gradsOf(m *Model) [][]float64 {
	out := make([][]float64, len(m.params))
	for i, p := range m.params {
		out[i] = append([]float64(nil), p.Grad.Data...)
	}
	return out
}

// TestReusableTapeMatchesFreshTape: a forward/backward on a reused arena
// tape (second and later passes, when every buffer comes from the pool)
// must produce bit-identical loss and gradients to a fresh non-pooling
// tape. This is the pooled path's core correctness contract: recycling may
// never change arithmetic.
func TestReusableTapeMatchesFreshTape(t *testing.T) {
	m, _, samples := abileneBench(1)
	s := samples[0]

	runOn := func(tp *autograd.Tape) float64 {
		fr := m.Forward(tp, s.Ctx, s.Demand)
		l := m.LossMLU(tp, s.Ctx, fr.Splits, s.Demand)
		tp.Backward(l)
		return l.Val.Data[0]
	}

	zeroGrads := func() {
		for _, p := range m.params {
			p.Grad.Zero()
		}
	}
	wantLoss := runOn(autograd.NewTape())
	want := gradsOf(m)
	zeroGrads()

	tp := autograd.NewReusableTape()
	for pass := 0; pass < 3; pass++ {
		gotLoss := runOn(tp)
		if gotLoss != wantLoss {
			t.Fatalf("pass %d: pooled loss %v != fresh loss %v", pass, gotLoss, wantLoss)
		}
		got := gradsOf(m)
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("pass %d: grad[%d][%d] pooled %v != fresh %v",
						pass, i, j, got[i][j], want[i][j])
				}
			}
		}
		zeroGrads()
		tp.Reset()
	}
}

// TestReusedTapeForwardAllocsBounded pins the steady-state allocation count
// of a full forward+backward+reset on a reused tape. The bound is a small
// constant (closure and bookkeeping slices), independent of topology size —
// before the arena this was tens of thousands per sample.
func TestReusedTapeForwardAllocsBounded(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold without -race")
	}
	m, _, samples := abileneBench(1)
	s := samples[0]
	tp := autograd.NewReusableTape()
	run := func() {
		fr := m.Forward(tp, s.Ctx, s.Demand)
		l := m.LossMLU(tp, s.Ctx, fr.Splits, s.Demand)
		tp.Backward(l)
		tp.Reset()
	}
	run() // first pass populates the arena
	run()
	if n := testing.AllocsPerRun(5, run); n > 64 {
		t.Errorf("steady-state forward+backward allocates %v times per run, want <= 64", n)
	}
}

// TestInferenceAllocsBounded pins Splits' steady-state allocations on the
// plan-hit path every same-topology request takes: 2 (the returned clone's
// header and data), independent of topology size. A plan build adds stage
// 1's op bookkeeping on the pooled tape, 6 more; its views are stack locals
// (three weight-view headers went to the heap while the kernels' arguments
// escaped: 11 a build).
func TestInferenceAllocsBounded(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold without -race")
	}
	m, ctx, samples := abileneBench(1)
	d := samples[0].Demand
	m.Splits(ctx, d)
	n := testing.AllocsPerRun(20, func() { m.Splits(ctx, d) })
	if n > 2 {
		t.Errorf("steady-state Splits allocates %v times per run, want <= 2", n)
	}
	// Two Contexts of one problem in turn: each call finds the other's plan.
	other := m.Context(ctx.inner.p)
	m.Splits(other, d)
	n = testing.AllocsPerRun(20, func() { m.Splits(ctx, d); m.Splits(other, d) })
	if n > 16 {
		t.Errorf("two plan builds allocate %v times, want <= 16", n)
	}
}

// TestKillAndResumePooledParallel extends the kill-and-resume determinism
// guarantee to the pooled data-parallel path: an interrupted multi-worker
// run (persistent reusable tape per worker) resumed in a fresh process must
// be bit-identical to an uninterrupted one.
func TestKillAndResumePooledParallel(t *testing.T) {
	p := twoPathProblem()
	const total, cut = 4, 2
	base := TrainConfig{Epochs: total, LR: 2e-3, BatchSize: 4, GradClip: 5, Seed: 17, Workers: 2}

	a := New(tinyConfig())
	resA, err := a.FitCheckpointed(checkpointSamples(a, p, 6), nil, base)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "train.ckpt")
	b := New(tinyConfig())
	tc1 := base
	tc1.Epochs = cut
	tc1.CheckpointPath = path
	if _, err := b.FitCheckpointed(checkpointSamples(b, p, 6), nil, tc1); err != nil {
		t.Fatal(err)
	}

	b2 := New(tinyConfig())
	tc2 := base
	tc2.CheckpointPath = path
	tc2.Resume = true
	resB, err := b2.FitCheckpointed(checkpointSamples(b2, p, 6), nil, tc2)
	if err != nil {
		t.Fatal(err)
	}

	if resB.ResumedAtEpoch != cut {
		t.Fatalf("resumed at epoch %d, want %d", resB.ResumedAtEpoch, cut)
	}
	for i := range resA.TrainLoss {
		if resA.TrainLoss[i] != resB.TrainLoss[i] {
			t.Fatalf("epoch %d loss %v vs %v", i, resA.TrainLoss[i], resB.TrainLoss[i])
		}
	}
	for i := range a.params {
		for j := range a.params[i].Val.Data {
			if av, bv := a.params[i].Val.Data[j], b2.params[i].Val.Data[j]; av != bv {
				t.Fatalf("param %d[%d]: %v vs %v (pooled parallel resume not bit-identical)", i, j, av, bv)
			}
		}
	}
}
