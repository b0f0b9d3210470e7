package resilience

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harpte/internal/core"
	"harpte/internal/obs"
	"harpte/internal/obs/reqtrace"
	"harpte/internal/te"
)

// stageHist returns reg's stage histogram for a span name.
func stageHist(reg *obs.Registry, stage string) *obs.Histogram {
	return reg.Histogram(reqtrace.MetricRequestStageSeconds, "", nil, obs.L("stage", stage))
}

// seriesValue reads one sample from reg's exposition: series is the metric
// name with its label set, as the exposition writes it.
func seriesValue(t *testing.T, reg *obs.Registry, series string) int64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return n
		}
	}
	t.Fatalf("exposition has no series %s:\n%s", series, b.String())
	return 0
}

// TestServeTelemetryCountsTiersAndRejections: an instrumented server
// mirrors every answered request into the registry — per-tier counters,
// latency histograms, and the rejection counter — while TierCounts stays
// the authoritative tally.
func TestServeTelemetryCountsTiersAndRejections(t *testing.T) {
	p := twoPathProblem()
	reg := obs.NewRegistry()
	srv := NewServer(core.New(tinyConfig()), Options{})
	srv.EnableTelemetry(reg)
	rec := reqtrace.NewRecorder(reqtrace.Options{})
	rec.EnableTelemetry(reg)

	const good = 3
	for i := 0; i < good; i++ {
		ctx, root := rec.StartTrace(context.Background(), "request")
		dec := srv.ServeCtx(ctx, p, demand(p, 4, 2))
		root.End()
		if dec.Tier != TierFull {
			t.Fatalf("request %d: tier %v (degraded %v)", i, dec.Tier, dec.Degraded)
		}
	}
	if dec := srv.Serve(p, nil); dec.Tier != TierRejected {
		t.Fatalf("nil demand served as %v", dec.Tier)
	}

	if got := seriesValue(t, reg, MetricServeRequests+`{tier="full"}`); got != good {
		t.Fatalf("full-tier request counter = %d, want %d", got, good)
	}
	if got := reg.Histogram(MetricServeSeconds, "", nil, obs.L("tier", TierFull.String())).Count(); got != good {
		t.Fatalf("full-tier latency histogram count = %d, want %d", got, good)
	}
	if got := seriesValue(t, reg, MetricServeRejections); got != 1 {
		t.Fatalf("rejection counter = %d, want 1", got)
	}
	counts := srv.TierCounts()
	if counts[TierFull] != good || counts[TierRejected] != 1 {
		t.Fatalf("TierCounts = %v, want full=%d rejected=1", counts, good)
	}
	// Stage timing rides the request's trace, not the server: the recorder
	// feeds the same registry, and forward.mlp1's count is the pass count.
	if got := stageHist(reg, "forward.mlp1").Count(); got != good {
		t.Fatalf("serving %d traced requests observed %d forward passes", good, got)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `harp_serve_requests_total{tier="full"} 3`) {
		t.Fatalf("exposition missing per-tier serve counter:\n%s", b.String())
	}
}

func TestServeTelemetryDeadlineExpirations(t *testing.T) {
	p := twoPathProblem()
	reg := obs.NewRegistry()
	srv := NewServer(core.New(tinyConfig()), Options{Deadline: time.Nanosecond})
	srv.EnableTelemetry(reg)
	if dec := srv.Serve(p, demand(p, 4, 2)); dec.Tier != TierECMP {
		t.Fatalf("tier %v, want ecmp under an impossible deadline", dec.Tier)
	}
	if got := seriesValue(t, reg, MetricServeDeadlineExpirations); got != 1 {
		t.Fatalf("deadline counter = %d, want 1", got)
	}
	if got := seriesValue(t, reg, MetricServeRequests+`{tier="ecmp"}`); got != 1 {
		t.Fatalf("ecmp request counter = %d, want 1", got)
	}
}

func TestServeTelemetryPanicRecoveries(t *testing.T) {
	healthy := twoPathProblem()
	broken := &te.Problem{Graph: healthy.Graph, Tunnels: healthy.Tunnels}
	reg := obs.NewRegistry()
	srv := NewServer(core.New(tinyConfig()), Options{})
	srv.EnableTelemetry(reg)
	if dec := srv.Serve(broken, demand(broken, 4, 2)); dec.Tier != TierECMP {
		t.Fatalf("tier %v, want ecmp after inference panic", dec.Tier)
	}
	if got := seriesValue(t, reg, MetricServePanicRecoveries); got == 0 {
		t.Fatal("panic recoveries never counted")
	}
}

// TestTierCountsConsistentSnapshot: under concurrent serving, every
// snapshot's total must equal an exact number of recorded requests — a
// torn read across per-tier atomics would eventually show a total that
// was never true at any instant. Run with -race to also prove the
// bookkeeping itself is clean.
func TestTierCountsConsistentSnapshot(t *testing.T) {
	p := twoPathProblem()
	m := core.New(tinyConfig())
	m.Params()[0].Val.Data[0] = math.NaN() // degrade: ECMP answers fast
	reg := obs.NewRegistry()
	srv := NewServer(m, Options{})
	srv.EnableTelemetry(reg)

	const workers, perWorker = 4, 20
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapBad atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			counts := srv.TierCounts()
			var total int64
			for _, c := range counts {
				total += c
			}
			if total < 0 || total > workers*perWorker {
				snapBad.Store(total)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := demand(p, 4, 2)
			for i := 0; i < perWorker; i++ {
				srv.Serve(p, d)
			}
		}()
	}
	// The snapshotter only exits on its own when it sees a bad total; give
	// it a moment to overlap the servers, then stop it and drain everyone.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if bad := snapBad.Load(); bad != 0 {
		t.Fatalf("TierCounts snapshot showed never-true total %d", bad)
	}
	counts := srv.TierCounts()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != workers*perWorker {
		t.Fatalf("final TierCounts total = %d, want %d (%v)", total, workers*perWorker, counts)
	}
}

// TestServingExpositionPinned: three servers share one registry and one
// trained OOD guard, and between them serve at least one of every event the
// server counts. The whole exposition is pinned against a golden file,
// apart from the latency histograms' bucket and sum lines, which depend on
// timing (their _count lines stay).
func TestServingExpositionPinned(t *testing.T) {
	p := twoPathProblem()
	guard := NewOODGuard()
	guard.SetProfile(trainedProfile(p))
	sick := core.New(tinyConfig())
	sick.Params()[0].Val.Data[0] = math.NaN()
	reg := obs.NewRegistry()
	a := NewServer(core.New(tinyConfig()), Options{OOD: guard, CacheEntries: 4})
	b := NewServer(sick, Options{OOD: guard, BreakerThreshold: 1})
	c := NewServer(core.New(tinyConfig()), Options{OOD: guard, MaxConcurrent: 1, Probe: p, ProbeDemand: demand(p, 4, 2)})
	for _, s := range []*Server{a, b, c} {
		s.EnableTelemetry(reg)
	}
	expect := func(what string, dec Decision, tier Tier) {
		t.Helper()
		if dec.Tier != tier {
			t.Fatalf("%s: tier %v (degraded %v, err %v), want %v", what, dec.Tier, dec.Degraded, dec.Err, tier)
		}
	}
	expect("full", a.Serve(p, demand(p, 4, 2)), TierFull)
	expect("cache hit", a.Serve(p, demand(p, 4, 2)), TierCached)
	expect("suspect", a.Serve(p, demand(p, 20, 10)), TierFull)
	expect("hostile", a.Serve(p, demand(p, 60, 30)), TierECMP)
	expect("rejected", a.Serve(p, nil), TierRejected)
	expect("breaker trip", b.Serve(p, demand(p, 4, 2)), TierECMP)
	expect("short-circuit", b.Serve(p, demand(p, 4, 2)), TierECMP)

	broken := &te.Problem{Graph: p.Graph, Tunnels: p.Tunnels}
	expect("panic", c.Serve(broken, demand(broken, 4, 2)), TierECMP)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expect("expired deadline", c.ServeCtx(cancelled, p, demand(p, 4, 2)), TierECMP)
	c.sem <- struct{}{}
	expect("queue full", c.Serve(p, demand(p, 4, 2)), TierShed)
	<-c.sem
	if err := c.Reload(saveModel(t, core.New(tinyConfig()), "ok.model")); err != nil {
		t.Fatal(err)
	}
	if err := c.Reload(filepath.Join(t.TempDir(), "missing.model")); err == nil {
		t.Fatal("reload of a missing file succeeded")
	}
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	expect("draining", c.Serve(p, demand(p, 4, 2)), TierShed)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if !strings.HasPrefix(line, MetricServeSeconds+"_bucket") && !strings.HasPrefix(line, MetricServeSeconds+"_sum") {
			got.WriteString(line)
		}
	}
	const golden = "testdata/serving_exposition.prom"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("exposition differs from %s:\n%s", golden, got.String())
	}
}

// TestSharedRegistryAggregates: two servers on one registry, traffic on the
// first only. Every scrape-time series reports the sum over both servers —
// the second server's registration adds to the first's, it must never
// replace it — and the split-cache _total series are counters.
func TestSharedRegistryAggregates(t *testing.T) {
	p := twoPathProblem()
	reg := obs.NewRegistry()
	a := NewServer(core.New(tinyConfig()), Options{CacheEntries: 4, BreakerThreshold: 1})
	b := NewServer(core.New(tinyConfig()), Options{CacheEntries: 4, BreakerThreshold: 1})
	a.EnableTelemetry(reg)
	b.EnableTelemetry(reg)
	for i := 0; i < 3; i++ { // one miss, then two hits
		if dec := a.Serve(p, demand(p, 4, 2)); dec.Err != nil {
			t.Fatal(dec.Err)
		}
	}
	a.breaker.onFailure() // threshold 1: a's breaker opens, b's stays closed

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	sa, sb := a.Stats(), b.Stats()
	if sa.Cache.Hits != 2 || sa.Cache.Misses != 1 || sa.Cache.Size != 1 || sa.BreakerState != BreakerOpen {
		t.Fatalf("setup: server a stats %+v, want 2 hits / 1 miss / 1 entry / breaker open", sa)
	}
	series := func(typ, name string, v int64) string {
		return "# TYPE " + name + " " + typ + "\n" + name + " " + strconv.FormatInt(v, 10) + "\n"
	}
	for _, want := range []string{
		series("counter", MetricSplitCacheHits, sa.Cache.Hits+sb.Cache.Hits),
		series("counter", MetricSplitCacheMisses, sa.Cache.Misses+sb.Cache.Misses),
		series("counter", MetricSplitCacheEvictions, sa.Cache.Evictions+sb.Cache.Evictions),
		series("gauge", MetricSplitCacheSize, int64(sa.Cache.Size+sb.Cache.Size)),
		series("gauge", MetricServeInflight, sa.InFlight+sb.InFlight),
		series("gauge", MetricServeQueueDepth, sa.QueueDepth+sb.QueueDepth),
		// The sum of the servers' states: 0 = every breaker closed.
		MetricBreakerState + `{tier="full"} ` + strconv.Itoa(int(sa.BreakerState+sb.BreakerState)) + "\n",
		MetricServeRequests + `{tier="cached"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
