package resilience

// The engine's per-topology plan (core/infer.go) seen from the server: the
// Context cache keyed by fingerprint is what lets a re-described topology
// find its plan, a reload must show in the very next answer, and an
// inference the deadline abandoned mid-build must leave nothing behind that
// a later request could read.

import (
	"context"
	"math"
	"testing"
	"time"

	"harpte/internal/autograd"
	"harpte/internal/core"
	"harpte/internal/obs/reqtrace"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

// tapeSplits is the reference answer: the training forward on a fresh
// gradient tape and a fresh Context.
func tapeSplits(m *core.Model, p *te.Problem, d *tensor.Dense) *tensor.Dense {
	return m.Forward(autograd.NewTape(), m.Context(p), d).Splits.Val
}

func assertSameBits(t *testing.T, what string, got, want *tensor.Dense) {
	t.Helper()
	if got == nil || len(got.Data) != len(want.Data) {
		t.Fatalf("%s: got %v, want %d entries", what, got, len(want.Data))
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s entry %d: served %v != tape %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestContextKeyedByFingerprint: a controller that re-describes an
// unchanged topology (a fresh te.Problem, same fingerprint) keeps the
// server's Context, and so finds the plan the first request built; a
// capacity change is a different topology and builds anew.
func TestContextKeyedByFingerprint(t *testing.T) {
	m := core.New(tinyConfig())
	srv := NewServer(m, Options{})
	rec := reqtrace.NewRecorder(reqtrace.Options{Capacity: 8, SampleEvery: 1})
	serve := func(name string, p *te.Problem, d *tensor.Dense) (*core.Context, string) {
		t.Helper()
		ctx, root := rec.StartTrace(context.Background(), name)
		dec := srv.ServeCtx(ctx, p, d)
		root.End()
		if dec.Tier != TierFull {
			t.Fatalf("%s: tier %v (degraded %v), want full", name, dec.Tier, dec.Degraded)
		}
		assertSameBits(t, name, dec.Splits, tapeSplits(m, p, d))
		tsp, ok := findSpan(findTraces(rec.Snapshot(), name)[0], "tier.full")
		if !ok {
			t.Fatalf("%s: no tier.full span", name)
		}
		plan, _ := tsp.Attrs["plan"].(string)
		return srv.lastCtx, plan
	}

	first, again := twoPathProblem(), twoPathProblem()
	if first == again || first.Fingerprint() != again.Fingerprint() {
		t.Fatal("want two distinct problems with one fingerprint")
	}
	ctx1, plan1 := serve("first", first, demand(first, 4, 2))
	ctx2, plan2 := serve("re-described", again, demand(again, 1, 9))
	if plan1 != "build" {
		t.Fatalf("first request on a topology: plan=%q, want build", plan1)
	}
	if ctx2 != ctx1 {
		t.Fatal("an equal-fingerprint problem rebuilt the Context")
	}
	// Under -race sync.Pool drops items at random, so the plan may be gone.
	if !tensor.RaceEnabled && plan2 != "hit" {
		t.Fatalf("re-described topology: plan=%q, want hit", plan2)
	}

	widened := twoPathProblem()
	widened.Graph.Edges[0].Capacity *= 2 // before anything has read it
	ctx3, plan3 := serve("capacity-change", widened, demand(widened, 4, 2))
	if ctx3 == ctx1 || plan3 != "build" {
		t.Fatalf("a capacity change kept the Context (%v) or the plan (plan=%q)", ctx3 == ctx1, plan3)
	}
}

// TestReloadNeverServesStalePlan: with the split cache off, two identical
// requests either side of a Reload to different weights each get exactly
// their own generation's answer — the plan the first one left in the pool
// is for other weights, and the engine must see that by itself.
func TestReloadNeverServesStalePlan(t *testing.T) {
	p := twoPathProblem()
	d := demand(p, 4, 2)
	before := core.New(tinyConfig())
	cfg := tinyConfig()
	cfg.Seed = 99
	after := core.New(cfg)

	srv := NewServer(before, Options{})
	assertSameBits(t, "before reload", srv.Serve(p, d).Splits, tapeSplits(before, p, d))
	if err := srv.Reload(saveModel(t, after, "after.model")); err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, "after reload", srv.Serve(p, d).Splits, tapeSplits(after, p, d))
}

// TestAbandonedInferenceLeavesNoHalfPlan: safeInfer's deadline abandons an
// inference wherever it is — here, at points spread across a plan build —
// and the goroutine runs on in the background. The next request on the same
// Context must still be exact, and under -race (make race) the two must not
// share a byte.
func TestAbandonedInferenceLeavesNoHalfPlan(t *testing.T) {
	g := topology.Abilene()
	p := te.NewProblem(g, tunnels.Compute(g, 4))
	m := core.New(core.DefaultConfig())
	srv := NewServer(m, Options{})
	d := tensor.New(p.NumFlows(), 1)
	for i := range d.Data {
		d.Data[i] = float64(1 + i%7)
	}
	want := tapeSplits(m, p, d)

	abandoned := 0
	for i := 0; i < 12; i++ {
		// A fresh Context every round, so every round's first inference is
		// a build for the deadline to land in.
		ctx := m.Context(p)
		budget := time.Duration(1+i) * 100 * time.Microsecond
		if _, err := srv.safeInfer(m, ctx, p, d, budget, nil); err != nil {
			abandoned++
		}
		got, err := srv.safeInfer(m, ctx, p, d, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, "after an abandoned build", got, want)
	}
	if abandoned == 0 {
		t.Log("no inference outlived its budget on this machine; exactness was still checked")
	}
}
