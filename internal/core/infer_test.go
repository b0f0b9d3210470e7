package core

// Tests for the inference engine: Splits and SplitsBatch must be
// bit-identical to the tape forward (neither the scratch scheduling nor the
// embedding amortization may ever change arithmetic), and a batch's
// steady-state allocation count must stay bounded by the B output clones
// plus a small constant — the PR-2 arena discipline extended to the batched
// path.

import (
	"math"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/tensor"
	"harpte/internal/topology"
)

// TestSplitsBatchBitIdentical holds inference to the tape: Splits and every
// snapshot of a SplitsBatch must come out bit for bit equal to the training
// forward (Forward on a fresh gradient tape) for the same (Context, demand).
// The cases cover each branch the engine has: Abilene and GEANT, a
// KDL-scale graph whose equal-capacity series chains tie exactly on
// utilization (the RAU bottleneck tie-break, smallest edge id), the
// mean-pool ablation, no RAU at all, the reduced serving tier (a
// WithRAUIterations clone sharing the weights), and the all-zero demand
// Server.canary sends (mean and MLU both 0).
func TestSplitsBatchBitIdentical(t *testing.T) {
	m, ctx, samples := abileneBench(16)
	demands := make([]*tensor.Dense, len(samples))
	for i, s := range samples {
		demands[i] = s.Demand
	}
	t.Run("abilene", func(t *testing.T) { checkInferenceMatchesTape(t, m, ctx, demands) })
	t.Run("reduced-tier", func(t *testing.T) { checkInferenceMatchesTape(t, m.WithRAUIterations(2), ctx, demands[:4]) })
	t.Run("zero-demand", func(t *testing.T) {
		zero := tensor.New(demands[0].Rows, 1)
		checkInferenceMatchesTape(t, m, ctx, []*tensor.Dense{zero, demands[0], zero})
	})

	cfg := DefaultConfig()
	cfg.RAUIterations = 0
	t.Run("no-rau", func(t *testing.T) { checkInferenceMatchesTape(t, New(cfg), ctx, demands[:4]) })
	cfg = DefaultConfig()
	cfg.MeanPoolTunnels = true
	t.Run("mean-pool", func(t *testing.T) { checkInferenceMatchesTape(t, New(cfg), ctx, demands[:4]) })

	gm, gctx, gd := largeBench(allPairsProblem(topology.Geant()), 7)
	t.Run("geant", func(t *testing.T) { checkInferenceMatchesTape(t, gm, gctx, []*tensor.Dense{gd}) })

	km, kctx, kd := largeBench(kdlProblem(60, 4, 301), 302)
	kd2 := kd.Clone()
	for i := range kd2.Data {
		kd2.Data[i] = 51 - kd2.Data[i]
	}
	t.Run("kdl-ties", func(t *testing.T) { checkInferenceMatchesTape(t, km, kctx, []*tensor.Dense{kd, kd2}) })
}

func checkInferenceMatchesTape(t *testing.T, m *Model, ctx *Context, demands []*tensor.Dense) {
	t.Helper()
	batched := m.SplitsBatch(nil, ctx, demands)
	if len(batched) != len(demands) {
		t.Fatalf("SplitsBatch returned %d results for %d demands", len(batched), len(demands))
	}
	for i, d := range demands {
		want := m.Forward(autograd.NewTape(), ctx, d).Splits.Val
		for name, got := range map[string]*tensor.Dense{"Splits": m.Splits(ctx, d), "SplitsBatch": batched[i]} {
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("snapshot %d: %s shape %dx%d, tape %dx%d", i, name, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for j := range want.Data {
				if math.Float64bits(got.Data[j]) != math.Float64bits(want.Data[j]) {
					t.Fatalf("snapshot %d entry %d: %s %v != tape %v", i, j, name, got.Data[j], want.Data[j])
				}
			}
		}
	}
}

// TestSplitsBatchReusedAcrossBatches: the pooled batch tape must keep
// producing identical answers across batches (recycled buffers may never
// leak state between batches or snapshots).
func TestSplitsBatchReusedAcrossBatches(t *testing.T) {
	m, ctx, samples := abileneBench(4)
	demands := make([]*tensor.Dense, len(samples))
	for i, s := range samples {
		demands[i] = s.Demand
	}
	first := m.SplitsBatch(nil, ctx, demands)
	for pass := 0; pass < 3; pass++ {
		again := m.SplitsBatch(nil, ctx, demands)
		for i := range first {
			for j := range first[i].Data {
				if first[i].Data[j] != again[i].Data[j] {
					t.Fatalf("pass %d snapshot %d entry %d: %v != %v",
						pass, i, j, again[i].Data[j], first[i].Data[j])
				}
			}
		}
	}
}

// TestSplitsBatchAllocsBounded pins the steady-state allocation count of a
// 16-snapshot batch: the B result clones (one Dense header + one data
// slice each) plus a small constant for the shared embedding pass,
// independent of topology size — far below B times the single-call Splits
// budget (TestInferenceAllocsBounded).
func TestSplitsBatchAllocsBounded(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold without -race")
	}
	const batch = 16
	m, ctx, samples := abileneBench(batch)
	demands := make([]*tensor.Dense, len(samples))
	for i, s := range samples {
		demands[i] = s.Demand
	}
	dst := make([]*tensor.Dense, 0, batch)
	run := func() { _ = m.SplitsBatch(dst[:0], ctx, demands) }
	run() // populate the pooled tape's arena
	run()
	if n := testing.AllocsPerRun(5, run); n > 4*batch+64 {
		t.Errorf("steady-state SplitsBatch(%d) allocates %v times per run, want <= %d",
			batch, n, 4*batch+64)
	}
}
