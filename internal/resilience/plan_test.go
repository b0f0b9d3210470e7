package resilience

// The engine's per-topology plan (core/infer.go) seen from the server: the
// Context cache keyed by fingerprint is what lets a re-described topology
// find its plan, a reload must show in the very next answer, a request
// whose deadline passes inside a plan build still leaves the whole plan for
// the next one, and a build that panics leaves nothing a later request
// could read.

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
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

// lateContext is a context whose deadline has passed but whose timer has
// not fired: Err is still nil, which is what the server's check before the
// model sees, and Deadline is behind the clock, which is what the engine
// reads between RAU iterations. A request under it reaches the engine,
// builds its plan (a build takes no context) and is stopped at the first
// poll — the deterministic form of "the deadline passed inside the build".
type lateContext struct{ context.Context }

func (lateContext) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

// TestAbandonedInferenceLeavesNoHalfPlan: a request whose context expires
// inside a plan build gets no model answer — not even one RAU iteration ran
// — but the build runs to completion, so the next request on the topology
// finds the whole plan and is exact. (Cancelling the build instead would
// turn a deadline shorter than one build into ECMP forever on a changed
// topology.) A build that panics, by contrast, leaves no plan: once the
// weights are healed the next answer is exact again.
func TestAbandonedInferenceLeavesNoHalfPlan(t *testing.T) {
	// The plan hit below needs sync.Pool to hand back the scratch the build
	// left: one P, so no goroutine migrates away from the P whose private
	// slot holds it, and no GC, since two of them drop the pool's entries.
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
	g := topology.Abilene()
	p := te.NewProblem(g, tunnels.Compute(g, 4))
	m := core.New(core.DefaultConfig())
	srv := NewServer(m, Options{})
	rec := reqtrace.NewRecorder(reqtrace.Options{Capacity: 8, SampleEvery: 1})
	d := tensor.New(p.NumFlows(), 1)
	for i := range d.Data {
		d.Data[i] = float64(1 + i%7)
	}
	want := tapeSplits(m, p, d)
	traced := func(name string, ctx context.Context) (Decision, reqtrace.TraceDump) {
		t.Helper()
		ctx, root := rec.StartTrace(ctx, name)
		dec := srv.ServeCtx(ctx, p, d)
		root.End()
		return dec, findTraces(rec.Snapshot(), name)[0]
	}

	dec, tr := traced("expired-in-build", lateContext{context.Background()})
	if dec.Tier != TierECMP || len(dec.Degraded) != 1 || !strings.Contains(dec.Degraded[0], "no RAU iteration finished: context deadline exceeded") {
		t.Fatalf("request that expired inside its build: tier %v, degraded %v", dec.Tier, dec.Degraded)
	}
	if tsp, _ := findSpan(tr, "tier.full"); tsp.Attrs["plan"] != "build" {
		t.Fatalf("the expired request did not build: %+v", tsp.Attrs)
	}
	for _, stage := range []string{"forward.gnn", "forward.settrans"} {
		if sp, ok := findSpan(tr, stage); !ok || sp.DurUS < 0 {
			t.Fatalf("the build did not run %s to completion: %+v", stage, tr.Spans)
		}
	}
	if rsp, _ := findSpan(tr, "forward.rau"); rsp.Attrs["iterations"] != int64(0) {
		t.Fatalf("forward.rau attrs %+v, want iterations=0", rsp.Attrs)
	}

	dec, tr = traced("next", context.Background())
	if dec.Tier != TierFull || len(dec.Degraded) != 0 {
		t.Fatalf("next request: tier %v, degraded %v", dec.Tier, dec.Degraded)
	}
	assertSameBits(t, "after a build that outlived its request", dec.Splits, want)
	// Under -race sync.Pool drops items at random, so the plan may be gone.
	if tsp, _ := findSpan(tr, "tier.full"); !tensor.RaceEnabled && tsp.Attrs["plan"] != "hit" {
		t.Fatalf("next request: plan=%v, want hit — the build was left incomplete", tsp.Attrs["plan"])
	}

	// A panic inside a build: the GNN's first weight matrix claims a row it
	// does not have, so the weights differ, the next request rebuilds, and
	// embed's first matmul refuses the shapes.
	w := m.Params()[1].Val
	w.Rows++
	dec, tr = traced("panicked-in-build", context.Background())
	if dec.Tier != TierECMP || len(dec.Degraded) != 1 || !strings.Contains(dec.Degraded[0], "inference panic") {
		t.Fatalf("request whose build panicked: tier %v, degraded %v", dec.Tier, dec.Degraded)
	}
	if _, ok := findSpan(tr, "forward.mlp1"); ok {
		t.Fatalf("the panic was not inside the build: %+v", tr.Spans)
	}
	w.Rows--
	dec, _ = traced("healed", context.Background())
	if dec.Tier != TierFull {
		t.Fatalf("healed request: tier %v, degraded %v", dec.Tier, dec.Degraded)
	}
	assertSameBits(t, "after a build that panicked", dec.Splits, want)
}
