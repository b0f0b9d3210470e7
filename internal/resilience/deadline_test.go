package resilience

// The cancellation spine seen from the server: the request's context —
// the caller's, narrowed to Options.Deadline — rides into the RAU loop, so
// a request that runs out of time ships the iterate it has instead of
// burning the whole forward and falling to ECMP, and a caller that gives up
// is answered within one RAU iteration.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"harpte/internal/core"
	"harpte/internal/obs"
	"harpte/internal/obs/reqtrace"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/traffic"
	"harpte/internal/tunnels"
)

// geantFixture is a request worth cutting short: the benchmark's trained
// weights (read, never written) on all-pairs GEANT, milliseconds of RAU per
// request, with a stream of distinct gravity-model demands in the
// benchmark's recipe so that no request is a split-cache hit.
func geantFixture(t *testing.T) (*core.Model, *te.Problem, func() *tensor.Dense) {
	t.Helper()
	f, err := os.Open("../../bench/testdata/harp_abilene.model")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := core.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	g := topology.Geant()
	p := te.NewProblem(g, tunnels.Compute(g, 4))
	var capacity float64
	for _, e := range g.Edges {
		capacity += e.Capacity
	}
	tms := traffic.Series(g, 64, traffic.SeriesConfig{Total: 0.25 * capacity, NoiseSigma: 0.3}, 1)
	next := func() *tensor.Dense {
		tm := tms[0]
		tms = tms[1:]
		return traffic.DemandVector(traffic.CapToAccess(tm, g, 0.35), p.Tunnels.Flows)
	}
	return m, p, next
}

// planHitTime serves a few full-budget requests — the first builds the plan
// — and returns how long the fastest plan hit took.
func planHitTime(t *testing.T, srv *Server, p *te.Problem, next func() *tensor.Dense) time.Duration {
	t.Helper()
	full := time.Hour
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		if dec := srv.Serve(p, next()); dec.Tier != TierFull || len(dec.Degraded) != 0 {
			t.Fatalf("warm-up: tier %v, degraded %v", dec.Tier, dec.Degraded)
		}
		if i > 0 {
			full = min(full, time.Since(t0))
		}
	}
	return full
}

// TestServeIsServeCtxBackground: Serve is ServeCtx with no caller context —
// the same bits, and Options.Deadline applies to both.
func TestServeIsServeCtxBackground(t *testing.T) {
	p := twoPathProblem()
	m := core.New(tinyConfig())
	srv := NewServer(m, Options{})
	a, b := srv.Serve(p, demand(p, 4, 2)), srv.ServeCtx(context.Background(), p, demand(p, 4, 2))
	if a.Tier != TierFull || b.Tier != TierFull || len(a.Degraded)+len(b.Degraded) != 0 {
		t.Fatalf("Serve %+v, ServeCtx %+v", a, b)
	}
	assertSameBits(t, "Serve", a.Splits, tapeSplits(m, p, demand(p, 4, 2)))
	assertSameBits(t, "ServeCtx", b.Splits, a.Splits)

	late := NewServer(m, Options{Deadline: time.Nanosecond})
	for name, dec := range map[string]Decision{
		"Serve":    late.Serve(p, demand(p, 4, 2)),
		"ServeCtx": late.ServeCtx(context.Background(), p, demand(p, 4, 2)),
	} {
		if dec.Tier != TierECMP || len(dec.Degraded) != 1 || !strings.Contains(dec.Degraded[0], context.DeadlineExceeded.Error()) {
			t.Fatalf("%s past Options.Deadline: tier %v, degraded %v", name, dec.Tier, dec.Degraded)
		}
	}
}

// TestDeadlineMidRAUShipsTheIterate: a deadline that lands inside the RAU
// is a step down the quality curve, not a cliff. With Options.Deadline cut
// to 3/8 of a plan-hit request the answer is still the model's — TierFull,
// vetted, better than ECMP on its demand — with Degraded saying after how
// many iterations it stopped; the trace is kept, the expiry counted once,
// and the truncated answer stays out of the split cache, so the same request
// with a full budget is inferred again, to full depth.
func TestDeadlineMidRAUShipsTheIterate(t *testing.T) {
	m, p, next := geantFixture(t)
	reg := obs.NewRegistry()
	srv := NewServer(m, Options{CacheEntries: 16})
	srv.EnableTelemetry(reg)
	n := m.Cfg.RAUIterations
	budget := planHitTime(t, srv, p, next) * 3 / 8
	ecmp := te.NormalizeRows(te.Rescale(p, p.UniformSplits()))

	// Timing decides where the deadline lands: a host stall can push it
	// before the first iteration (ECMP) and under -race sync.Pool can drop
	// the plan, making the request a build. Those tries prove nothing.
	for try := 0; ; try++ {
		d := next()
		rec := reqtrace.NewRecorder(reqtrace.Options{Capacity: 4, SampleEvery: 1 << 20})
		before := seriesValue(t, reg, MetricServeDeadlineExpirations)
		srv.opts.Deadline = budget
		ctx, root := rec.StartTrace(context.Background(), "request")
		dec := srv.ServeCtx(ctx, p, d)
		root.End()
		srv.opts.Deadline = 0
		if got := seriesValue(t, reg, MetricServeDeadlineExpirations) - before; got != 1 {
			t.Fatalf("deadline expirations moved by %d, want 1 (tier %v, degraded %v)", got, dec.Tier, dec.Degraded)
		}
		if dec.Tier == TierECMP && try < 20 {
			continue
		}
		if dec.Tier != TierFull || dec.Err != nil || len(dec.Degraded) != 1 {
			t.Fatalf("budget %v: tier %v, err %v, degraded %v — want a truncated full-tier answer", budget, dec.Tier, dec.Err, dec.Degraded)
		}
		var k, of int
		if _, err := fmt.Sscanf(dec.Degraded[0], "full: stopped after %d/%d RAU iterations: context deadline exceeded", &k, &of); err != nil || of != n || k < 1 || k >= n {
			t.Fatalf("degraded %q, want \"full: stopped after k/%d RAU iterations: context deadline exceeded\" with 1 ≤ k < %d", dec.Degraded[0], n, n)
		}
		assertValidSplits(t, p, dec.Splits)
		got, floor := p.MLU(dec.Splits, d), p.MLU(ecmp, d)
		if got >= floor {
			t.Fatalf("stopped after %d/%d iterations: MLU %v is no better than ECMP's %v", k, n, got, floor)
		}
		t.Logf("budget %v (try %d): stopped after %d/%d iterations, MLU %.3f against ECMP's %.3f", budget, try, k, n, got, floor)
		traces := rec.Snapshot().Traces
		if len(traces) != 1 || traces[0].Reason != "degraded" {
			t.Fatalf("the truncated request's trace was not force-retained: %+v", traces)
		}
		if rsp, _ := findSpan(traces[0], "forward.rau"); rsp.Attrs["iterations"] != int64(k) {
			t.Fatalf("forward.rau attrs %+v, want iterations=%d", rsp.Attrs, k)
		}

		// The same request with a full budget: a cache miss, then the
		// full-depth bits — which do enter the cache.
		again := srv.Serve(p, d)
		if again.Tier != TierFull || len(again.Degraded) != 0 {
			t.Fatalf("replay with a full budget: tier %v, degraded %v — the truncated answer was cached", again.Tier, again.Degraded)
		}
		assertSameBits(t, "replay with a full budget", again.Splits, tapeSplits(m, p, d))
		if third := srv.Serve(p, d); third.Tier != TierCached {
			t.Fatalf("second replay: tier %v, want cached", third.Tier)
		}
		return
	}
}

// TestServeCallerCancellation: the server looks at the caller's context. A
// request cancelled before the call is answered ECMP without touching the
// model; one cancelled from another goroutine mid-RAU is answered at once
// with the iterate it has. Either way the context's error is named in
// Degraded, and Err — reserved for rejected and shed — stays nil.
func TestServeCallerCancellation(t *testing.T) {
	m, p, next := geantFixture(t)
	srv := NewServer(m, Options{})
	full := planHitTime(t, srv, p, next)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	served := srv.TierCounts()[TierFull]
	dec := srv.ServeCtx(ctx, p, next())
	if dec.Tier != TierECMP || dec.Err != nil || len(dec.Degraded) != 1 || !strings.Contains(dec.Degraded[0], context.Canceled.Error()) {
		t.Fatalf("cancelled before the call: tier %v, err %v, degraded %v", dec.Tier, dec.Err, dec.Degraded)
	}
	assertValidSplits(t, p, dec.Splits)
	if srv.TierCounts()[TierFull] != served {
		t.Fatal("a request cancelled before the call still ran the model")
	}

	// Mid-RAU: cancel a third of the way into a forward. One RAU iteration
	// is an eighth of one, so a cancelled request that still took a whole
	// forward did not stop early. A host stall can let the request win the
	// race, or lose it slowly; try again then.
	for try := 0; ; try++ {
		ctx, cancel := context.WithCancel(context.Background())
		stop := time.AfterFunc(full/3, cancel)
		t0 := time.Now()
		dec := srv.ServeCtx(ctx, p, next())
		took := time.Since(t0)
		stop.Stop()
		cancel()
		if (len(dec.Degraded) == 0 || took >= full) && try < 20 {
			continue
		}
		if dec.Err != nil || len(dec.Degraded) != 1 || !strings.Contains(dec.Degraded[0], context.Canceled.Error()) {
			t.Fatalf("cancelled mid-RAU: tier %v, err %v, degraded %v", dec.Tier, dec.Err, dec.Degraded)
		}
		if dec.Tier != TierFull && dec.Tier != TierECMP {
			t.Fatalf("cancelled mid-RAU: tier %v, want the truncated model answer or ECMP", dec.Tier)
		}
		assertValidSplits(t, p, dec.Splits)
		if took >= full {
			t.Fatalf("cancelled %v into a %v forward, returned after %v", full/3, full, took)
		}
		break
	}

	// A queued request whose caller gives up is shed, typed as overload.
	gated := NewServer(m, Options{MaxConcurrent: 1, MaxQueueDepth: 1})
	gated.sem <- struct{}{}
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	if dec := gated.ServeCtx(ctx, p, next()); dec.Tier != TierShed || !errors.Is(dec.Err, ErrOverload) {
		t.Fatalf("cancelled while queued: tier %v, err %v", dec.Tier, dec.Err)
	}
	cancel()
}
