package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a TE controller using the system sees. Every workload
// reports all of them. One bound serves all four workloads, so each is
// set by the noisiest: README.md has the measured spreads (interquartile
// range over median, ten seeds) behind every number.
var endToEnd = []metricDef{
	// OK answers per second: the median of throughputSlices slices.
	{"throughput_rps", "req/s", "higher", 0.25},
	// Median client-side latency of one Fleet.Serve call.
	{"latency_p50_ms", "ms", "lower", 0.25},
	// Requests that were OK and beat the workload's latency limit.
	{"within_limit_share", "share", "higher", 0.01},
	// OK / attempted; 1 on a healthy run, so any drop is a regression.
	{"ok_share", "share", "higher", 0.001},
	// Served MLU over the solver's optimum on the pinned quality set.
	{"norm_mlu_p50", "ratio", "lower", 0.01},
	{"norm_mlu_max", "ratio", "lower", 0.02},
	// Process start to first answer: topology, tunnels, problem, weights,
	// servers, fleet, one cold request. Fastest of the workload's passes.
	{"setup_s", "s", "lower", 0.25},
	// Heap the system keeps after two collections, harness data released.
	{"live_heap_mb", "MB", "lower", 0.20},
}

// perLayer is the budget: named <module>.<metric>. Self times come from
// the traced run's spans, *_ms/_us call timings from direct calls into the
// module's public functions, counts from the stack's own counters read
// around the untraced window. README.md says which end-to-end metric each
// should move on which workload.
var perLayer = []metricDef{
	{Name: "client.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.latency_samples", Unit: "count", Better: "higher"},

	{Name: "fleet.dispatch_self_us", Unit: "us", Better: "lower"},
	{Name: "fleet.attempt_self_us", Unit: "us", Better: "lower"},
	{Name: "fleet.serve_overhead_us", Unit: "us", Better: "lower"},
	{Name: "fleet.served", Unit: "count", Better: "higher"},
	{Name: "fleet.fallbacks", Unit: "count", Better: "lower"},
	{Name: "fleet.retries", Unit: "count", Better: "lower"},
	{Name: "fleet.busiest_replica_share", Unit: "share", Better: "lower"},

	{Name: "resilience.serve_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "resilience.serve_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "resilience.serve_hit_us", Unit: "us", Better: "lower"},
	{Name: "resilience.validate_us", Unit: "us", Better: "lower"},
	{Name: "resilience.cache_key_us", Unit: "us", Better: "lower"},
	{Name: "resilience.vet_us", Unit: "us", Better: "lower"},
	{Name: "resilience.queue_wait_self_us", Unit: "us", Better: "lower"},
	{Name: "resilience.tier_full_self_ms", Unit: "ms", Better: "lower"},
	{Name: "resilience.cache_hits", Unit: "count", Better: "higher"},
	{Name: "resilience.cache_misses", Unit: "count", Better: "lower"},
	{Name: "resilience.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "resilience.tier_full", Unit: "count", Better: "higher"},
	{Name: "resilience.tier_cached", Unit: "count", Better: "higher"},
	{Name: "resilience.tier_other", Unit: "count", Better: "lower"},

	{Name: "core.context_build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.splits_ms", Unit: "ms", Better: "lower"},
	{Name: "core.splits_allocs", Unit: "count", Better: "lower"},
	{Name: "core.forward_gnn_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.forward_settrans_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.forward_mlp1_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.forward_rau_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.forward_gnn_share", Unit: "share", Better: "lower"},
	{Name: "core.forward_settrans_share", Unit: "share", Better: "lower"},
	{Name: "core.forward_mlp1_share", Unit: "share", Better: "lower"},
	{Name: "core.forward_rau_share", Unit: "share", Better: "lower"},
	{Name: "core.load_ms", Unit: "ms", Better: "lower"},

	{Name: "tunnels.compute_ms", Unit: "ms", Better: "lower"},
	{Name: "topology.build_ms", Unit: "ms", Better: "lower"},
	{Name: "te.new_problem_ms", Unit: "ms", Better: "lower"},
	{Name: "te.fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "te.mlu_us", Unit: "us", Better: "lower"},
	{Name: "lp.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.check_splits_us", Unit: "us", Better: "lower"},

	{Name: "runtime.alloc_kb_per_req", Unit: "KB", Better: "lower"},
	{Name: "runtime.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "reqtrace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "reqtrace.self_sum_share", Unit: "share", Better: "higher"},
	{Name: "reqtrace.unlisted_self_share", Unit: "share", Better: "lower"},
	{Name: "bench.request_self_us", Unit: "us", Better: "lower"},
}

// spanMetrics maps the span names the stack emits today to the per-layer
// metric that reports their self time (scale converts µs to the metric's
// unit) and, for the forward stages, their share of the request. Spans
// with other names still get a row in the printed budget and are summed
// into reqtrace.unlisted_self_share, so a stage a later change adds shows
// up without editing this file.
var spanMetrics = map[string]struct {
	self, share string
	scale       float64
}{
	rootSpanName:       {self: "bench.request_self_us", scale: 1},
	"fleet.dispatch":   {self: "fleet.dispatch_self_us", scale: 1},
	"fleet.attempt":    {self: "fleet.attempt_self_us", scale: 1},
	"queue.wait":       {self: "resilience.queue_wait_self_us", scale: 1},
	"tier.full":        {self: "resilience.tier_full_self_ms", scale: 1e-3},
	"forward.gnn":      {self: "core.forward_gnn_self_ms", share: "core.forward_gnn_share", scale: 1e-3},
	"forward.settrans": {self: "core.forward_settrans_self_ms", share: "core.forward_settrans_share", scale: 1e-3},
	"forward.mlp1":     {self: "core.forward_mlp1_self_ms", share: "core.forward_mlp1_share", scale: 1e-3},
	"forward.rau":      {self: "core.forward_rau_self_ms", share: "core.forward_rau_share", scale: 1e-3},
}

// measured is one metric's value in the result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// newResult fills in exactly the metrics of defs from values, so a metric
// the run forgot, or one it invented, is an error and not a silent gap.
func newResult(defs []metricDef, values map[string]float64) (result, error) {
	r := result{Metrics: make(map[string]measured, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = measured{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := r.Metrics[name]; !ok {
			return r, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return r, nil
}

// print writes the metrics as a table, in declaration order, then the
// result line.
func (r result) print(w io.Writer, defs []metricDef) error {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
