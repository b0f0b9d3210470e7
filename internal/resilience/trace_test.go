package resilience

// Trace smoke tests. TestTraceSmoke drives same-topology requests through
// a traced server and asserts the flight-recorder dump shows the whole
// story: cache misses with quantization keys, the engine's plan built once
// (all four forward stages) and then found (MLP1 and RAU only), and a
// cache hit on the warm repeat.
// TestTraceDisabledZeroAllocs pins the flip side: with no span in the
// context, the serve path (cache hit, SLO tracking and quality sampling
// attached) stays allocation-free.

import (
	"context"
	"errors"
	"maps"
	"testing"
	"time"

	"harpte/internal/core"
	"harpte/internal/obs/reqtrace"
	"harpte/internal/tensor"
	"harpte/internal/verify"
)

// findTraces returns the retained traces whose root span is named root.
func findTraces(d reqtrace.Dump, root string) []reqtrace.TraceDump {
	var out []reqtrace.TraceDump
	for _, tr := range d.Traces {
		if len(tr.Spans) > 0 && tr.Spans[0].Name == root {
			out = append(out, tr)
		}
	}
	return out
}

func findSpan(tr reqtrace.TraceDump, name string) (reqtrace.SpanDump, bool) {
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return reqtrace.SpanDump{}, false
}

func TestTraceSmoke(t *testing.T) {
	const cold = 6
	p := twoPathProblem()
	rec := reqtrace.NewRecorder(reqtrace.Options{Capacity: 64, SampleEvery: 1})
	srv := NewServer(core.New(tinyConfig()), Options{CacheEntries: 8})

	serve := func(d *tensor.Dense, want Tier) {
		t.Helper()
		ctx, root := rec.StartTrace(context.Background(), "request")
		dec := srv.ServeCtx(ctx, p, d)
		root.End()
		if dec.Tier != want {
			t.Fatalf("tier %v (err %v), want %v", dec.Tier, dec.Err, want)
		}
	}
	for i := 0; i < cold; i++ {
		serve(demand(p, float64(i+1), 2), TierFull)
	}
	// A warm repeat of the last demand must trace as a cache hit.
	serve(demand(p, cold, 2), TierCached)

	reqs := findTraces(rec.Snapshot(), "request")
	if len(reqs) != cold+1 {
		t.Fatalf("retained %d request traces, want %d", len(reqs), cold+1)
	}

	// Every cold request carries the cache-miss annotation and quantization
	// key, and a tier.full span saying whether the engine found its plan
	// or built it: a build carries all four forward stages, a hit only the
	// two that read the demand.
	cacheHits, builds, planHits := 0, 0, 0
	for _, tr := range reqs {
		rootSpan := tr.Spans[0]
		switch rootSpan.Attrs["cache"] {
		case "miss":
			if _, ok := rootSpan.Attrs["cache_key_topo"]; !ok {
				t.Fatalf("miss trace %s lacks cache_key_topo: %+v", tr.Trace, rootSpan.Attrs)
			}
			tsp, ok := findSpan(tr, "tier.full")
			if !ok {
				t.Fatalf("miss trace %s has no tier.full span: %+v", tr.Trace, tr.Spans)
			}
			if tsp.Parent != rootSpan.ID {
				t.Fatalf("tier.full parent %d, want root %d", tsp.Parent, rootSpan.ID)
			}
			stages := map[string]int{}
			for _, sp := range tr.Spans {
				if sp.Parent == tsp.ID {
					stages[sp.Name]++
					if sp.DurUS < 0 {
						t.Fatalf("trace %s %s span never ended", tr.Trace, sp.Name)
					}
				}
			}
			want := map[string]int{"forward.mlp1": 1, "forward.rau": 1}
			switch tsp.Attrs["plan"] {
			case "build":
				builds++
				want["forward.gnn"], want["forward.settrans"] = 1, 1
			case "hit":
				planHits++
			default:
				t.Fatalf("trace %s tier.full has no plan annotation: %+v", tr.Trace, tsp.Attrs)
			}
			if !maps.Equal(stages, want) {
				t.Fatalf("trace %s plan=%v has stage spans %v, want %v", tr.Trace, tsp.Attrs["plan"], stages, want)
			}
		case "hit":
			cacheHits++
			if len(tr.Spans) != 1 {
				t.Fatalf("cache-hit trace %s ran something: %+v", tr.Trace, tr.Spans)
			}
		default:
			t.Fatalf("trace %s has no cache annotation: %+v", tr.Trace, rootSpan.Attrs)
		}
	}
	if cacheHits != 1 || builds == 0 {
		t.Fatalf("%d cache-hit traces and %d plan builds, want 1 and at least the first request's", cacheHits, builds)
	}
	// Under -race sync.Pool drops items at random, so a plan may never be
	// found again; what a hit or a build carries is checked above regardless.
	if !tensor.RaceEnabled && planHits == 0 {
		t.Fatalf("none of %d same-topology requests found the plan the first one built", cold)
	}
}

// TestTraceQueueWaitSpan: a request that waits for a concurrency slot gets
// a queue.wait child spanning the wait — and, being the first on its
// topology, carries all four forward stage spans.
func TestTraceQueueWaitSpan(t *testing.T) {
	p := twoPathProblem()
	rec := reqtrace.NewRecorder(reqtrace.Options{Capacity: 16, SampleEvery: 1})
	srv := NewServer(core.New(tinyConfig()), Options{MaxConcurrent: 1, MaxQueueDepth: 4})

	srv.sem <- struct{}{} // occupy the only slot
	done := make(chan Decision, 1)
	go func() {
		ctx, root := rec.StartTrace(context.Background(), "queued")
		dec := srv.ServeCtx(ctx, p, demand(p, 4, 2))
		root.End()
		done <- dec
	}()
	for srv.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	<-srv.sem // free the slot; the queued request proceeds
	if dec := <-done; dec.Tier != TierFull {
		t.Fatalf("queued request tier %v (err %v), want full", dec.Tier, dec.Err)
	}

	traces := findTraces(rec.Snapshot(), "queued")
	if len(traces) != 1 {
		t.Fatalf("retained %d queued traces, want 1", len(traces))
	}
	qsp, ok := findSpan(traces[0], "queue.wait")
	if !ok {
		t.Fatalf("no queue.wait span: %+v", traces[0].Spans)
	}
	if qsp.Parent != traces[0].Spans[0].ID || qsp.DurUS < 0 {
		t.Fatalf("queue.wait span malformed: %+v", qsp)
	}
	for _, stage := range []string{"forward.gnn", "forward.settrans", "forward.mlp1", "forward.rau"} {
		if sp, ok := findSpan(traces[0], stage); !ok || sp.DurUS < 0 {
			t.Fatalf("request trace lacks an ended %s span: %+v", stage, traces[0].Spans)
		}
	}
	if rsp, _ := findSpan(traces[0], "forward.rau"); rsp.Attrs["iterations"] != int64(tinyConfig().RAUIterations) {
		t.Fatalf("forward.rau attrs %+v, want iterations=%d", rsp.Attrs, tinyConfig().RAUIterations)
	}
}

// TestTraceShedRetainedBoringDropped pins tail-based sampling: at a
// sampling rate that would statistically retain nothing, a shed request is
// force-retained (a shed storm is exactly when the operator pulls traces)
// while an uneventful success is dropped.
func TestTraceShedRetainedBoringDropped(t *testing.T) {
	p := twoPathProblem()
	rec := reqtrace.NewRecorder(reqtrace.Options{Capacity: 16, SampleEvery: 1 << 20})
	srv := NewServer(core.New(tinyConfig()), Options{MaxConcurrent: 1})

	srv.sem <- struct{}{} // occupy the only slot: queue (depth 0) sheds
	ctx, root := rec.StartTrace(context.Background(), "shedded")
	dec := srv.ServeCtx(ctx, p, demand(p, 4, 2))
	root.End()
	if !errors.Is(dec.Err, ErrOverload) {
		t.Fatalf("expected overload shed, got %+v", dec)
	}
	<-srv.sem

	ctx, root = rec.StartTrace(context.Background(), "boring")
	if dec := srv.ServeCtx(ctx, p, demand(p, 4, 2)); dec.Tier != TierFull {
		t.Fatalf("tier %v, want full", dec.Tier)
	}
	root.End()

	dump := rec.Snapshot()
	shed := findTraces(dump, "shedded")
	if len(shed) != 1 {
		t.Fatalf("shed trace not retained (dump has %d traces)", len(dump.Traces))
	}
	if shed[0].Reason != "shed" {
		t.Fatalf("retain reason %q, want shed", shed[0].Reason)
	}
	if got := shed[0].Spans[0].Attrs["shed_reason"]; got != "queue_full" {
		t.Fatalf("shed_reason %v, want queue_full", got)
	}
	if boring := findTraces(dump, "boring"); len(boring) != 0 {
		t.Fatalf("boring trace retained (reason %q), want dropped", boring[0].Reason)
	}
	if dump.Dropped < 1 {
		t.Fatalf("dropped count %d, want >= 1", dump.Dropped)
	}
}

// TestTraceDisabledZeroAllocs is the acceptance pin: with no span in the
// context the whole serving chain — admission fast path, cache hit, SLO
// burn-rate recording, quality-probe fast path — runs without a single
// allocation.
func TestTraceDisabledZeroAllocs(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	p := twoPathProblem()
	q := verify.NewQualityMonitor(verify.QualityOptions{SampleEvery: 1 << 30})
	defer q.Close()
	srv := NewServer(core.New(tinyConfig()), Options{
		CacheEntries: 8,
		SLO:          NewSLOSet(),
		Quality:      q,
	})
	d := demand(p, 4, 2)
	if dec := srv.Serve(p, d); dec.Tier != TierFull {
		t.Fatalf("warmup tier %v", dec.Tier)
	}
	ctx := context.Background()
	if avg := testing.AllocsPerRun(100, func() {
		if dec := srv.ServeCtx(ctx, p, d); dec.Tier != TierCached {
			t.Fatalf("tier %v, want cached", dec.Tier)
		}
	}); avg != 0 {
		t.Fatalf("untraced cache-hit serve allocates %.1f/op, want 0", avg)
	}
}
