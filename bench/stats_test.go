package main

import (
	"math"
	"testing"

	"harpte/internal/obs/reqtrace"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"median of ten is the fifth", ten, 0.5, 5},
		{"p90 of ten is the ninth", ten, 0.9, 9},
		{"p99 of ten is the largest", ten, 0.99, 10},
		{"p100 is the largest", ten, 1, 10},
		{"a tiny quantile is the smallest", ten, 0.001, 1},
		{"single sample", []float64{7}, 0.5, 7},
		{"p50 of three", []float64{1, 2, 3}, 0.5, 2},
		{"p90 of a thousand", seq(1000), 0.9, 900},
	} {
		if got := percentile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("%s: percentile(q=%g) = %g, want %g", tc.name, tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %g, want NaN", got)
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10, 12, 11, 30], n=4) == [10.25, 11.5, 25.5]
	q1, q3 = quartiles([]float64{10, 12, 11, 30})
	if !near(q1, 10.25) || !near(q3, 25.5) {
		t.Errorf("quartiles = %g, %g, want 10.25, 25.5", q1, q3)
	}
	if got := spread(seq(10)); !near(got, 1) {
		t.Errorf("spread of 1..10 = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}

// steady returns n back-to-back requests of dur ns each, starting at t0.
func steady(t0, dur int64, n int) []span {
	out := make([]span, n)
	for i := range out {
		out[i] = span{start: t0 + int64(i)*dur, end: t0 + int64(i+1)*dur}
	}
	return out
}

func TestSliceThroughput(t *testing.T) {
	ms := int64(1e6)
	stalled := steady(0, 10*ms, 100) // 100 req/s ...
	for i := 40; i < 100; i++ {      // ... but for a 500 ms stall in request 40
		if i == 40 {
			stalled[i].end += 500 * ms
			continue
		}
		stalled[i].start += 500 * ms
		stalled[i].end += 500 * ms
	}
	thinking := make([]span, 50) // 10 ms requests with 10 ms of client think time between them
	for i := range thinking {
		thinking[i] = span{start: int64(i) * 20 * ms, end: int64(i)*20*ms + 10*ms}
	}
	for _, tc := range []struct {
		name    string
		clients [][]span
		slices  int
		want    float64
	}{
		{"one steady client", [][]span{steady(0, 10*ms, 100)}, 5, 100},
		{"two steady clients add up", [][]span{steady(0, 10*ms, 100), steady(0, 20*ms, 50)}, 5, 150},
		{"a stall moves one slice, not the median", [][]span{stalled}, 5, 100},
		{"think time between requests counts", [][]span{thinking}, 5, 50},
		{"fewer requests than slices", [][]span{steady(0, 250*ms, 3)}, 5, 4},
		{"an idle client adds nothing", [][]span{steady(0, 10*ms, 100), nil}, 5, 100},
	} {
		got := sliceThroughput(tc.clients, tc.slices)
		// The first slice of a thinking client has no preceding gap to
		// charge, so allow the median a little slack.
		if math.Abs(got-tc.want) > 0.03*tc.want {
			t.Errorf("%s: %g req/s, want %g", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	us := func(v int64) int64 { return v * 1000 }
	sp := func(id, parent uint64, name string, startUS int64, durUS float64) reqtrace.SpanDump {
		return reqtrace.SpanDump{ID: id, Parent: parent, Name: name, Start: us(startUS), DurUS: durUS}
	}
	for _, tc := range []struct {
		name  string
		spans []reqtrace.SpanDump
		want  []int64 // self time in µs, in span order
	}{
		{
			"nested: each level keeps what its children do not cover",
			[]reqtrace.SpanDump{
				sp(1, 0, "root", 0, 100),
				sp(2, 1, "dispatch", 10, 80),
				sp(3, 2, "attempt", 20, 60),
				sp(4, 3, "forward", 30, 40),
			},
			[]int64{20, 20, 20, 40},
		},
		{
			"overlapping siblings: the parent is charged for their union once",
			[]reqtrace.SpanDump{
				sp(1, 0, "root", 0, 100),
				sp(2, 1, "primary", 10, 50), // 10..60
				sp(3, 1, "hedge", 40, 40),   // 40..80
			},
			[]int64{30, 50, 40},
		},
		{
			"disjoint siblings",
			[]reqtrace.SpanDump{
				sp(1, 0, "root", 0, 100),
				sp(2, 1, "a", 0, 30),
				sp(3, 1, "b", 50, 30),
			},
			[]int64{40, 30, 30},
		},
		{
			"an unfinished child runs to its parent's end",
			[]reqtrace.SpanDump{
				sp(1, 0, "root", 0, 100),
				sp(2, 1, "attempt", 10, 60), // 10..70
				sp(3, 2, "abandoned", 30, -1),
			},
			[]int64{40, 20, 40},
		},
		{
			"a child that outlives its parent is clipped to it",
			[]reqtrace.SpanDump{
				sp(1, 0, "root", 0, 100),
				sp(2, 1, "late", 80, 50),
			},
			[]int64{80, 20},
		},
		{
			"children listed before their parent",
			[]reqtrace.SpanDump{
				sp(3, 2, "leaf", 20, 10),
				sp(2, 1, "mid", 10, 50),
				sp(1, 0, "root", 0, 100),
			},
			[]int64{10, 40, 50},
		},
	} {
		got := selfTimes(tc.spans)
		var sum int64
		for i := range got {
			sum += got[i]
			if got[i] != us(tc.want[i]) {
				t.Errorf("%s: self(%s) = %d ns, want %d µs", tc.name, tc.spans[i].Name, got[i], tc.want[i])
			}
		}
		if tc.name != "overlapping siblings: the parent is charged for their union once" && sum != us(100) {
			t.Errorf("%s: self times sum to %d ns, want the root's 100 µs", tc.name, sum)
		}
	}
}

func TestAggregateByEmittedNames(t *testing.T) {
	trace := func(start int64, stage string) reqtrace.TraceDump {
		return reqtrace.TraceDump{Spans: []reqtrace.SpanDump{
			{ID: 1, Name: rootSpanName, Start: start, DurUS: 100},
			{ID: 2, Parent: 1, Name: stage, Start: start + 10_000, DurUS: 60},
			{ID: 3, Parent: 2, Name: "forward.rau", Start: start + 20_000, DurUS: 10},
			{ID: 4, Parent: 2, Name: "forward.rau", Start: start + 40_000, DurUS: 10},
		}}
	}
	b := aggregate(reqtrace.Dump{Traces: []reqtrace.TraceDump{
		trace(0, "fleet.dispatch"), trace(1_000_000, "fleet.dispatch"), trace(2_000_000, "stage.added.later"),
		{Spans: []reqtrace.SpanDump{{ID: 1, Name: "not.a.request", DurUS: 5}}},
	}})
	if b.Traces != 3 || !near(b.SumShare, 1) || !near(b.RootP50U, 100) {
		t.Fatalf("budget = %+v, want 3 traces summing to the root", b)
	}
	rau := b.stage("forward.rau")
	if rau.Count != 6 || !near(rau.P50SelfU, 20) || !near(rau.Share, 0.2) {
		t.Errorf("forward.rau = %+v, want 6 spans, 20 µs per request, share 0.2", rau)
	}
	if later := b.stage("stage.added.later"); later.Count != 1 || !near(later.Share, 40.0/300) {
		t.Errorf("a span name the harness has never heard of must still get its row: %+v", later)
	}
	if none := b.stage("forward.gnn"); none.Count != 0 || none.Share != 0 {
		t.Errorf("absent stage = %+v, want the zero row", none)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name     string
		d        metricDef
		old, cur []float64
		want     string
	}{
		{"same", lower, []float64{10, 10.1, 9.9}, []float64{10, 10.2, 9.8}, unchanged},
		{"slower within the bound", lower, []float64{10, 10.1, 9.9}, []float64{10.8, 10.9, 10.7}, unchanged},
		{"slower beyond the bound", lower, []float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, regression},
		{"faster is never a regression", lower, []float64{10, 10.1, 9.9}, []float64{5, 5.1, 4.9}, unchanged},
		{"throughput down beyond the bound", higher, []float64{100, 101, 99}, []float64{85, 86, 84}, regression},
		{"throughput up", higher, []float64{100, 101, 99}, []float64{120, 121, 119}, unchanged},
		{"noisy inputs cannot resolve a 10 % bound", lower, []float64{10, 14, 8, 12}, []float64{11, 15, 9, 13}, unresolved},
		{"noisy but every new run wins", lower, []float64{10, 14, 8, 12}, []float64{5, 7, 4, 6}, better},
		{"single runs have no spread to hide behind", lower, []float64{10}, []float64{12}, regression},
	} {
		if _, got := judge(tc.d, tc.old, tc.cur); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestNewResultHoldsRunsToTheDeclaredMetrics(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "count"}}
	if _, err := newResult(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric must be an error")
	}
	if _, err := newResult(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undeclared metric must be an error")
	}
	if _, err := newResult(defs, map[string]float64{"a": math.NaN(), "b": 2}); err == nil {
		t.Error("a non-finite value must be an error")
	}
	r, err := newResult(defs, map[string]float64{"a": 1.5, "b": 2})
	if err != nil || r.Metrics["a"] != (measured{1.5, "ms"}) || r.Metrics["b"] != (measured{2, "count"}) {
		t.Errorf("newResult = %+v, %v", r, err)
	}
}
