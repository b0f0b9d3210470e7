package reqtrace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"harpte/internal/obs"
	"harpte/internal/tensor"
)

// stageHist returns reg's stage histogram for a span name (registering an
// empty one if the recorder never saw that name).
func stageHist(reg *obs.Registry, stage string) *obs.Histogram {
	return reg.Histogram(MetricRequestStageSeconds, "", nil, obs.L("stage", stage))
}

// TestNilSafety: every entry point must no-op on nil receivers — the
// disabled-tracing serve path calls them unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	ctx, sp := r.StartTrace(context.Background(), "root")
	if sp != nil {
		t.Fatal("nil recorder returned a span")
	}
	if got := FromContext(ctx); got != nil {
		t.Fatalf("FromContext on untouched ctx = %v", got)
	}
	var nilSpan *Span
	nilSpan.Annotate("k", "v")
	nilSpan.AnnotateInt("k", 1)
	nilSpan.AnnotateFloat("k", 1.5)
	nilSpan.AnnotateBool("k", true)
	nilSpan.SetError(errors.New("x"))
	nilSpan.ForceRetain("because")
	nilSpan.End()
	if c := nilSpan.StartChild("child"); c != nil {
		t.Fatal("child of nil span should be nil")
	}
	if st := r.RecorderStats(); st != (Stats{}) {
		t.Fatalf("nil recorder stats = %+v", st)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("nil dump not valid JSON: %v", err)
	}
	if len(d.Traces) != 0 {
		t.Fatalf("nil dump has traces: %+v", d)
	}
}

// TestParentLinksAndContext: spans nest through contexts with correct
// parent IDs, and the dump reproduces the structure.
func TestParentLinksAndContext(t *testing.T) {
	r := NewRecorder(Options{SampleEvery: 1})
	ctx, root := r.StartTrace(context.Background(), "serve")
	if root == nil || FromContext(ctx) != root {
		t.Fatal("context does not carry the root span")
	}
	child := StartSpan(ctx, "dispatch")
	grand := child.StartChild("attempt")
	grand.AnnotateInt("replica", 2)
	grand.AnnotateBool("hedge", false)
	grand.End()
	child.End()
	root.Annotate("tier", "full")
	root.End()

	d := r.Snapshot()
	if len(d.Traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(d.Traces))
	}
	tr := d.Traces[0]
	if len(tr.Spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(tr.Spans))
	}
	byName := map[string]SpanDump{}
	for _, s := range tr.Spans {
		byName[s.Name] = s
	}
	if byName["serve"].Parent != 0 || byName["serve"].ID != 1 {
		t.Fatalf("root span wrong: %+v", byName["serve"])
	}
	if byName["dispatch"].Parent != byName["serve"].ID {
		t.Fatalf("dispatch parent %d, want %d", byName["dispatch"].Parent, byName["serve"].ID)
	}
	if byName["attempt"].Parent != byName["dispatch"].ID {
		t.Fatalf("attempt parent %d, want %d", byName["attempt"].Parent, byName["dispatch"].ID)
	}
	if got := byName["attempt"].Attrs["replica"]; got != int64(2) {
		t.Fatalf("replica attr = %v (%T)", got, got)
	}
	if byName["serve"].DurUS < 0 {
		t.Fatal("ended root has dur_us < 0")
	}
}

// TestTailSampling: boring traces keep 1-in-N; flagged traces always
// survive.
func TestTailSampling(t *testing.T) {
	r := NewRecorder(Options{SampleEvery: 10, Capacity: 128})
	for i := 0; i < 40; i++ {
		_, sp := r.StartTrace(context.Background(), "boring")
		sp.End()
	}
	st := r.RecorderStats()
	if st.Retained != 4 || st.Dropped != 36 {
		t.Fatalf("boring sampling: retained=%d dropped=%d, want 4/36", st.Retained, st.Dropped)
	}
	for i := 0; i < 5; i++ {
		_, sp := r.StartTrace(context.Background(), "shed")
		sp.ForceRetain("shed")
		sp.End()
	}
	_, sp := r.StartTrace(context.Background(), "broken")
	sp.SetError(errors.New("inference panic"))
	sp.End()
	st = r.RecorderStats()
	if st.Retained != 10 {
		t.Fatalf("flagged traces not all retained: %+v", st)
	}
	reasons := map[string]int{}
	for _, tr := range r.Snapshot().Traces {
		reasons[tr.Reason]++
	}
	if reasons["shed"] != 5 || reasons["error"] != 1 || reasons["sampled"] != 4 {
		t.Fatalf("retain reasons = %v", reasons)
	}
}

// TestRingWrap: the ring keeps only the newest Capacity traces, oldest
// evicted first, while the cumulative tallies keep counting.
func TestRingWrap(t *testing.T) {
	r := NewRecorder(Options{SampleEvery: 1, Capacity: 2})
	for _, name := range []string{"a", "b", "c"} {
		_, sp := r.StartTrace(context.Background(), name)
		sp.End()
	}
	d := r.Snapshot()
	if len(d.Traces) != 2 {
		t.Fatalf("ring holds %d traces, want 2", len(d.Traces))
	}
	if d.Traces[0].Spans[0].Name != "b" || d.Traces[1].Spans[0].Name != "c" {
		t.Fatalf("ring kept %q,%q; want b,c", d.Traces[0].Spans[0].Name, d.Traces[1].Spans[0].Name)
	}
	if d.Retained != 3 {
		t.Fatalf("cumulative retained = %d, want 3", d.Retained)
	}
}

// TestSlowRetention: once the duration window is primed, a root far
// beyond p99 is retained as "slow" even when sampling would drop it.
func TestSlowRetention(t *testing.T) {
	r := NewRecorder(Options{SampleEvery: 1 << 30})
	// Prime the window past slowMinSamples with ~1ms roots.
	for i := 0; i < slowMinSamples+slowRefreshEvery; i++ {
		r.observeRoot(time.Millisecond)
	}
	if r.slowNs.Load() == 0 {
		t.Fatal("slow threshold not armed after priming")
	}
	_, fast := r.StartTrace(context.Background(), "fast")
	fast.End()
	_, slow := r.StartTrace(context.Background(), "slow")
	slow.tr.mu.Lock()
	slow.start = slow.start.Add(-time.Second) // simulate a 1s request
	slow.tr.mu.Unlock()
	slow.End()
	d := r.Snapshot()
	if len(d.Traces) != 1 || d.Traces[0].Reason != "slow" {
		t.Fatalf("slow retention: %+v", d.Traces)
	}
}

// TestConcurrentAnnotateAndExport: hedged attempts annotate concurrently
// with the root ending and a dump running — must not race (make race
// names this package: `go test ./internal/obs` does not descend into it).
func TestConcurrentAnnotateAndExport(t *testing.T) {
	r := NewRecorder(Options{SampleEvery: 1})
	_, root := r.StartTrace(context.Background(), "request")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := root.StartChild("attempt")
			for j := 0; j < 50; j++ {
				sp.AnnotateInt("try", int64(j))
			}
			sp.End()
		}(i)
	}
	root.End() // publish while children still annotate
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if err := r.WriteJSON(&buf); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestDoubleEndHarmless: ending a span twice keeps the first end time.
func TestDoubleEndHarmless(t *testing.T) {
	r := NewRecorder(Options{SampleEvery: 1})
	_, root := r.StartTrace(context.Background(), "request")
	root.End()
	first := r.Snapshot().Traces[0].Spans[0].DurUS
	time.Sleep(2 * time.Millisecond)
	root.End()
	if again := r.Snapshot().Traces[0].Spans[0].DurUS; again != first {
		t.Fatalf("second End changed duration: %v -> %v", first, again)
	}
	if st := r.RecorderStats(); st.Retained != 1 {
		t.Fatalf("double End published twice: %+v", st)
	}
}

// TestStageFeed: with a registry attached, every span's first End — dropped
// traces included — is one observation of its dump duration under its name;
// a second End, a recorder without a registry and a nil recorder observe
// nothing.
func TestStageFeed(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRecorder(Options{SampleEvery: 2}) // every other trace is dropped
	r.EnableTelemetry(reg)
	const traces = 6
	for i := 0; i < traces; i++ {
		_, root := r.StartTrace(context.Background(), "request")
		c := root.StartChild("stage.a")
		c.End()
		c.End()
		root.End()
		root.End()
	}
	if st := r.RecorderStats(); st.Dropped != traces/2 {
		t.Fatalf("setup: dropped %d traces, want %d", st.Dropped, traces/2)
	}
	for _, name := range []string{"request", "stage.a"} {
		if got := stageHist(reg, name).Count(); got != traces {
			t.Errorf("stage %q has %d observations, want %d", name, got, traces)
		}
	}
	// Histogram and dump are one measurement: for a single retained trace
	// of a fresh name the two durations agree (to float rounding, 1 ns).
	_, root := r.StartTrace(context.Background(), "once")
	root.ForceRetain("test")
	root.End()
	d := r.Snapshot()
	last := d.Traces[len(d.Traces)-1].Spans[0]
	if got := stageHist(reg, "once").Sum() * 1e6; last.Name != "once" || math.Abs(got-last.DurUS) > 1e-3 {
		t.Errorf("stage sum %v µs, dump says %q took %v µs", got, last.Name, last.DurUS)
	}

	bare := NewRecorder(Options{SampleEvery: 1})
	_, sp := bare.StartTrace(context.Background(), "unfed")
	sp.End()
	var none *Recorder
	none.EnableTelemetry(reg)
	_, sp = none.StartTrace(context.Background(), "unfed")
	sp.End()
	if got := stageHist(reg, "unfed").Count(); got != 0 {
		t.Errorf("a recorder with no registry observed %d spans", got)
	}
}

// TestStageFeedAllocs: once a span name has been seen, End with a registry
// attached allocates no more than End without one (nothing at all).
func TestStageFeedAllocs(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	endAllocs := func(r *Recorder) float64 {
		const runs = 50
		spans := make([]*Span, 0, runs+1) // AllocsPerRun warms up once
		_, root := r.StartTrace(context.Background(), "request")
		for i := 0; i < cap(spans); i++ {
			spans = append(spans, root.StartChild("stage.a"))
		}
		return testing.AllocsPerRun(runs, func() {
			spans[len(spans)-1].End()
			spans = spans[:len(spans)-1]
		})
	}
	fed := NewRecorder(Options{})
	fed.EnableTelemetry(obs.NewRegistry())
	_, warm := fed.StartTrace(context.Background(), "request")
	warm.StartChild("stage.a").End()
	with, without := endAllocs(fed), endAllocs(NewRecorder(Options{}))
	if with != without || without != 0 {
		t.Fatalf("End allocates %v with a registry, %v without; want 0 and 0", with, without)
	}
}

// TestConcurrentEndWhileScrape: hedge losers end spans from several
// goroutines — registering a stage's histogram on a name's first End —
// while an operator scrapes /metrics. Counts stay exact; run under -race.
func TestConcurrentEndWhileScrape(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRecorder(Options{SampleEvery: 1})
	r.EnableTelemetry(reg)
	names := []string{"fleet.attempt", "tier.full", "forward.mlp1", "forward.rau"}
	const workers, perWorker = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, root := r.StartTrace(context.Background(), "request")
				for _, n := range names {
					root.StartChild(n).End()
				}
				root.End()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	for _, n := range append(names, "request") {
		if got := stageHist(reg, n).Count(); got != workers*perWorker {
			t.Errorf("stage %q has %d observations, want %d", n, got, workers*perWorker)
		}
	}
}
