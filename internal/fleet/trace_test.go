package fleet

// Dispatch tracing and the Stats↔telemetry parity contract. The trace
// test pins that a hedged request's flight-recorder trace survives
// hopeless sampling odds (hedge wins are always retained) and records the
// full dispatch story: one fleet.dispatch span with the winner, and one
// fleet.attempt span per attempt with replica and hedge annotations. The
// parity test pins that after a scripted quarantine/re-admission cycle
// the plain-Go Stats snapshot and the registry exposition tell the same
// story — drift between the two is how operators end up debugging the
// wrong incident. The stage oracle pins the same for timing: the stage
// histograms a /metrics scrape shows and the spans a trace dump shows are
// one measurement.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"harpte/internal/core"
	"harpte/internal/obs"
	"harpte/internal/obs/reqtrace"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
)

func spanByName(tr reqtrace.TraceDump, name string) (reqtrace.SpanDump, bool) {
	for _, sp := range tr.Spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return reqtrace.SpanDump{}, false
}

func TestFleetTraceHedgeWinRetained(t *testing.T) {
	p := twoPathProblem()
	fs, rs := fakes(2)
	fs[0].delay = 300 * time.Millisecond
	f := New(rs, Options{
		Deadline:      2 * time.Second,
		HedgeQuantile: 0.9,
		HedgeMinDelay: time.Millisecond,
		HedgeMaxDelay: 5 * time.Millisecond,
		RetryBudget:   1,
	})
	defer f.Close()

	// Sampling is hopeless on purpose: the trace must survive because the
	// hedge win flags it for retention.
	rec := reqtrace.NewRecorder(reqtrace.Options{Capacity: 16, SampleEvery: 1 << 20})
	ctx, root := rec.StartTrace(context.Background(), "request")
	dec := f.ServeCtx(ctx, p, demand(p, 4, 2))
	root.End()
	if dec.Err != nil || !dec.Hedged || dec.Replica != 1 {
		t.Fatalf("want hedge win on replica 1, got %+v", dec)
	}

	dump := rec.Snapshot()
	if len(dump.Traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(dump.Traces))
	}
	tr := dump.Traces[0]
	if tr.Reason != "hedge_win" {
		t.Fatalf("retain reason %q, want hedge_win", tr.Reason)
	}
	dsp, ok := spanByName(tr, "fleet.dispatch")
	if !ok {
		t.Fatalf("no fleet.dispatch span: %+v", tr.Spans)
	}
	if dsp.Attrs["winner"] != "hedge" {
		t.Fatalf("dispatch winner %v, want hedge", dsp.Attrs["winner"])
	}
	if got, _ := dsp.Attrs["served_by"].(int64); got != 1 {
		t.Fatalf("served_by %v, want 1", dsp.Attrs["served_by"])
	}
	// One attempt span per dispatch: the slow primary on replica 0 and the
	// winning hedge on replica 1, each a child of fleet.dispatch. The
	// cancelled primary may not have noticed yet (dur -1) — that is the
	// point of exporting it.
	byReplica := map[int64]reqtrace.SpanDump{}
	for _, sp := range tr.Spans {
		if sp.Name == "fleet.attempt" {
			if sp.Parent != dsp.ID {
				t.Fatalf("attempt parent %d, want dispatch %d", sp.Parent, dsp.ID)
			}
			rid, _ := sp.Attrs["replica"].(int64)
			byReplica[rid] = sp
		}
	}
	if len(byReplica) != 2 {
		t.Fatalf("%d attempt spans, want 2: %+v", len(byReplica), tr.Spans)
	}
	if h, _ := byReplica[0].Attrs["hedge"].(bool); h {
		t.Fatalf("primary attempt marked as hedge: %+v", byReplica[0].Attrs)
	}
	if h, _ := byReplica[1].Attrs["hedge"].(bool); !h {
		t.Fatalf("hedge attempt not marked: %+v", byReplica[1].Attrs)
	}
}

// metricValue finds the sample line `name{labels} value` in a Prometheus
// exposition and parses the value.
func metricValue(t *testing.T, out, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, sample+" "), 64)
			if err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("exposition missing sample %q:\n%s", sample, out)
	return 0
}

// TestFleetStatsTelemetryParity: run a quarantine → probation →
// re-admission cycle with telemetry attached from the start, then check
// every counter and gauge the exposition reports against the Stats
// snapshot and per-replica health.
func TestFleetStatsTelemetryParity(t *testing.T) {
	p := twoPathProblem()
	fs, rs := fakes(2)
	fs[0].fail.Store(true)
	f := New(rs, Options{
		Deadline:            time.Second,
		RetryBudget:         1,
		quarantineThreshold: 1,
		probationSuccesses:  2,
		Probe:               p,
		ProbeDemand:         demand(p, 4, 2),
	})
	defer f.Close()
	reg := obs.NewRegistry()
	f.EnableTelemetry(reg)

	f.Serve(p, demand(p, 4, 2)) // quarantines replica 0
	if got := f.ReplicaHealth(0); got != Quarantined {
		t.Fatalf("health %v, want quarantined", got)
	}
	f.CheckHealth() // failing probe: probation resets
	fs[0].fail.Store(false)
	f.CheckHealth()
	f.CheckHealth() // probation complete: re-admitted
	if got := f.ReplicaHealth(0); got != Healthy {
		t.Fatalf("health %v, want healthy after probation", got)
	}
	for i := 0; i < 3; i++ { // post-recovery traffic lands on both counters
		if dec := f.Serve(p, demand(p, 4, 2)); dec.Err != nil {
			t.Fatalf("post-recovery request %d: %v", i, dec.Err)
		}
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("write prometheus: %v", err)
	}
	out := buf.String()
	st := f.Stats()

	for sample, want := range map[string]float64{
		MetricFleetRequests + `{outcome="replica"}`:  float64(st.Served),
		MetricFleetRequests + `{outcome="fallback"}`: float64(st.LocalFallbacks),
		MetricFleetRequests + `{outcome="rejected"}`: float64(st.Rejected),
		MetricFleetEjections:                         float64(st.Ejections),
		MetricFleetReadmissions:                      float64(st.Readmissions),
		MetricFleetRetries:                           float64(st.Retries),
		MetricFleetProbes + `{result="error"}`:       float64(st.ProbeFailures),
		MetricFleetProbes + `{result="ok"}`:          float64(st.Probes - st.ProbeFailures),
		MetricFleetServiceable:                       float64(st.Healthy + st.Degraded),
		MetricFleetHedges:                            float64(st.Hedges),
		MetricFleetHedgeWins:                         float64(st.HedgeWins),
	} {
		if got := metricValue(t, out, sample); got != want {
			t.Errorf("%s = %v, Stats says %v", sample, got, want)
		}
	}
	// The cycle must actually have happened — parity between two zeros
	// proves nothing.
	if st.Ejections != 1 || st.Readmissions != 1 || st.Served < 4 {
		t.Fatalf("scripted cycle incomplete: %+v", st)
	}
	for i := 0; i < st.Replicas; i++ {
		sample := MetricFleetReplicaState + `{replica="` + strconv.Itoa(i) + `"}`
		if got := metricValue(t, out, sample); got != float64(f.ReplicaHealth(i)) {
			t.Errorf("%s = %v, ReplicaHealth says %v", sample, got, f.ReplicaHealth(i))
		}
	}
}

// stopAfter is a context whose Err turns non-nil after `left` calls. The
// server looks once before the model and the engine once per RAU iteration,
// so left = 1+k stops the RAU after exactly k iterations.
type stopAfter struct {
	context.Context
	left int
}

func (c *stopAfter) Err() error {
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// stoppable is a Local replica that serves its next request under a
// stopAfter context when armed (left > 0), and is transparent otherwise.
type stoppable struct {
	Local
	left int
}

func (r *stoppable) Serve(ctx context.Context, p *te.Problem, d *tensor.Dense) (resilience.Decision, error) {
	if r.left > 0 {
		ctx, r.left = &stopAfter{Context: ctx, left: r.left}, 0
	}
	return r.Local.Serve(ctx, p, d)
}

// TestStageHistogramMatchesFlightRecorder: the stage histograms and the
// flight recorder cannot disagree. Requests through fleet → server → model
// under a keep-everything recorder that feeds a registry — a plan build,
// plan hits, a cache hit, a deadline stop mid-RAU, a shed — leave, for every
// span name in the dump, exactly that many observations of exactly that
// total duration in harp_request_stage_seconds{stage=name}, and no stage
// the dump lacks.
func TestStageHistogramMatchesFlightRecorder(t *testing.T) {
	p := twoPathProblem()
	cfg := tinyConfig()
	srv := resilience.NewServer(core.New(cfg), resilience.Options{CacheEntries: 8})
	rep := &stoppable{Local: Local{S: srv}}
	f := New([]Replica{rep}, Options{})
	defer f.Close()
	reg := obs.NewRegistry()
	rec := reqtrace.NewRecorder(reqtrace.Options{SampleEvery: 1})
	rec.EnableTelemetry(reg)
	serve := func(d *tensor.Dense) Decision {
		ctx, root := rec.StartTrace(context.Background(), "request")
		defer root.End()
		return f.ServeCtx(ctx, p, d)
	}

	const misses = 3 // the first builds the plan, the rest find it
	for i := 0; i < misses; i++ {
		if dec := serve(demand(p, float64(i+1), 2)); dec.Tier != resilience.TierFull || len(dec.Degraded) != 0 {
			t.Fatalf("miss %d: tier %v, degraded %v", i, dec.Tier, dec.Degraded)
		}
	}
	if dec := serve(demand(p, misses, 2)); dec.Tier != resilience.TierCached {
		t.Fatalf("repeat: tier %v, want cached", dec.Tier)
	}
	rep.left = 1 + 1
	if dec := serve(demand(p, 9, 2)); dec.Tier != resilience.TierFull || len(dec.Degraded) != 1 {
		t.Fatalf("stopped request: tier %v, degraded %v, want a truncated full-tier answer", dec.Tier, dec.Degraded)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if dec := serve(demand(p, 4, 2)); !errors.Is(dec.Err, ErrNoReplicas) {
		t.Fatalf("request to a drained fleet: %+v, want the local fallback", dec)
	}

	type tally struct {
		n     uint64
		durUS float64
	}
	spans := map[string]tally{}
	for _, tr := range rec.Snapshot().Traces {
		for _, sp := range tr.Spans {
			if sp.DurUS < 0 {
				t.Fatalf("trace %s: span %s never ended", tr.Trace, sp.Name)
			}
			if sp.Name == "forward.rau" && tr.Reason == "degraded" && sp.Attrs["iterations"] != int64(1) {
				t.Errorf("stopped request ran %v RAU iterations, want 1", sp.Attrs["iterations"])
			}
			tl := spans[sp.Name]
			spans[sp.Name] = tally{tl.n + 1, tl.durUS + sp.DurUS}
		}
	}
	for _, name := range []string{"request", "fleet.dispatch", "fleet.attempt", "tier.full",
		"forward.gnn", "forward.settrans", "forward.mlp1", "forward.rau"} {
		if spans[name].n == 0 {
			t.Errorf("the scenario produced no %q span: %v", name, spans)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for name, want := range spans {
		series := `{stage="` + name + `"}`
		if got := metricValue(t, out, reqtrace.MetricRequestStageSeconds+"_count"+series); got != float64(want.n) {
			t.Errorf("stage %s: %v observations, the dump has %d spans", name, got, want.n)
		}
		// 1 µs per span covers the dump's float rounding many times over.
		if got := 1e6 * metricValue(t, out, reqtrace.MetricRequestStageSeconds+"_sum"+series); math.Abs(got-want.durUS) > float64(want.n) {
			t.Errorf("stage %s: %v µs observed, the dump's spans total %v µs", name, got, want.durUS)
		}
	}
	if got := strings.Count(out, reqtrace.MetricRequestStageSeconds+"_count{"); got != len(spans) {
		t.Errorf("registry has %d stages, the dump %d span names:\n%s", got, len(spans), out)
	}
	// forward.settrans ÷ forward.mlp1 is the build rate: one build, then
	// hits. (Under -race sync.Pool drops plans at random.)
	if builds, passes := spans["forward.settrans"].n, spans["forward.mlp1"].n; passes != misses+1 || (!tensor.RaceEnabled && builds != 1) {
		t.Errorf("%d builds in %d passes, want 1 in %d", builds, passes, misses+1)
	}
}
