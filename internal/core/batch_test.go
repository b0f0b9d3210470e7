package core

// Tests for the batched inference path: SplitsBatch must be bit-identical
// to per-snapshot Splits calls (the embedding amortization may never
// change arithmetic), and its steady-state allocation count must stay
// bounded by the B output clones plus a small constant — the PR-2 arena
// discipline extended to the batched path.

import (
	"testing"

	"harpte/internal/tensor"
)

// TestSplitsBatchBitIdentical: every snapshot of a batch must come out bit
// for bit equal to a standalone Splits call on the same (Context, demand) —
// on Abilene, and on a KDL-scale graph whose equal-capacity series chains
// tie exactly on utilization, so the RAU bottleneck tie-break (smallest
// edge id) is exercised in both engines.
func TestSplitsBatchBitIdentical(t *testing.T) {
	m, ctx, samples := abileneBench(16)
	demands := make([]*tensor.Dense, len(samples))
	for i, s := range samples {
		demands[i] = s.Demand
	}
	t.Run("abilene", func(t *testing.T) { checkBatchMatchesSplits(t, m, ctx, demands) })

	km, kctx, kd := largeBench(kdlProblem(60, 4, 301), 302)
	kd2 := kd.Clone()
	for i := range kd2.Data {
		kd2.Data[i] = 51 - kd2.Data[i]
	}
	t.Run("kdl-ties", func(t *testing.T) { checkBatchMatchesSplits(t, km, kctx, []*tensor.Dense{kd, kd2}) })
}

func checkBatchMatchesSplits(t *testing.T, m *Model, ctx *Context, demands []*tensor.Dense) {
	batched := m.SplitsBatch(nil, ctx, demands)
	if len(batched) != len(demands) {
		t.Fatalf("SplitsBatch returned %d results for %d demands", len(batched), len(demands))
	}
	for i, d := range demands {
		single := m.Splits(ctx, d)
		if single.Rows != batched[i].Rows || single.Cols != batched[i].Cols {
			t.Fatalf("snapshot %d: shape %dx%d vs %dx%d",
				i, batched[i].Rows, batched[i].Cols, single.Rows, single.Cols)
		}
		for j := range single.Data {
			if single.Data[j] != batched[i].Data[j] {
				t.Fatalf("snapshot %d entry %d: batched %v != single %v",
					i, j, batched[i].Data[j], single.Data[j])
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
// budget (64, TestInferenceAllocsBounded).
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
