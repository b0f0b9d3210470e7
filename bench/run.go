package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"harpte/internal/lp"
	"harpte/internal/obs/reqtrace"
	"harpte/internal/verify"
)

// runConfig is how one workload run is sized. The zero value of a cap
// means the workload's own number.
type runConfig struct {
	seed   int64
	window time.Duration // what --seconds asks for
	warmup time.Duration
	// setupPasses, qualityCap and tracedCap shrink a run for the tests.
	setupPasses, qualityCap, tracedCap int
	// traceOut, when set, receives the traced run's spans as JSON.
	traceOut string
}

// throughputSlices is how many equal-count slices of the window
// throughput_rps is the median of: enough that a stall of a few seconds
// on a shared host lands in a minority of them.
const throughputSlices = 15

// qualitySeed generates the requests norm_mlu_* is measured on.
const qualitySeed = 1

func capped(n, limit int) int {
	if limit > 0 && limit < n {
		return limit
	}
	return n
}

// prepare sets the system up, builds the request stream and warms both
// up. After it returns, lazy set-up is done and, on replay, every pair of
// the pool is in its replica's split cache.
func prepare(w *workload, cfg runConfig, passes int, processStart time.Time, log io.Writer) (*sut, *stream, error) {
	s, err := setUp(w, passes, processStart)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range s.probs {
		size, _ := json.Marshal(sizeOf(p))
		fmt.Fprintf(log, "problem: %s\n", size)
	}
	fmt.Fprintf(log, "system: %d params, %d replicas, %d closed-loop clients, seed %d, window %v, GOMAXPROCS %d, nproc %d, %s, %s\n",
		s.model.NumParams(), replicas, clients, cfg.seed, cfg.window, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())
	pool := int(math.Ceil(2 * w.baselineRPS * (cfg.warmup + cfg.window).Seconds()))
	st := newStream(w, s.probs, cfg.seed, pool)
	serve := serveFunc(s.fleet.Serve)
	if w.replay {
		runPhase(serve, st, time.Minute, len(st.demands))
	}
	warm := runPhase(serve, st, cfg.warmup, 0)
	fmt.Fprintf(log, "set-up %.3f s (fastest of %d), warm-up %d requests in %v\n", s.times[tTotal], passes, warm.count(), cfg.warmup)
	return s, st, nil
}

// window is one measured closed-loop phase with the counters around it.
type window struct {
	phase
	verdict
	lat            []float64 // sorted, ms
	before, after  counters
	invariantError error
}

func measure(s *sut, st *stream, serve serveFunc, dur time.Duration, maxRequests int) window {
	runtime.GC()
	var win window
	win.before = readCounters(s)
	win.phase = runPhase(serve, st, dur, maxRequests)
	win.after = readCounters(s)
	win.verdict = win.check(st)
	win.lat = win.latenciesMS()
	win.invariantError = cacheInvariant(st.w, win.after.cacheHits-win.before.cacheHits, win.after.cacheMisses-win.before.cacheMisses)
	return win
}

// failure returns why the window's outputs are not all correct, or nil.
func (win window) failure() error {
	if win.attempted == 0 {
		return errors.New("no request completed")
	}
	return errors.Join(win.firstFailure, win.invariantError)
}

// runUntraced is a --trace 0 run: the end-to-end metrics, tracing off.
func runUntraced(w *workload, cfg runConfig, processStart time.Time, log io.Writer) (result, error) {
	s, st, err := prepare(w, cfg, capped(w.setupPasses, cfg.setupPasses), processStart, log)
	if err != nil {
		return result{}, err
	}
	defer s.fleet.Close()
	win := measure(s, st, s.fleet.Serve, cfg.window, 0)
	values := map[string]float64{
		"throughput_rps":     sliceThroughput(win.spans(), throughputSlices),
		"latency_p50_ms":     percentile(win.lat, 0.5),
		"within_limit_share": float64(win.withinLimit) / float64(win.attempted),
		"ok_share":           float64(win.ok) / float64(win.attempted),
		"setup_s":            s.times[tTotal],
	}
	fmt.Fprintf(log, "window: %d requests in %v, latency p50 %.4f ms over %d samples, limit %g ms\n",
		win.attempted, win.elapsed.Round(time.Millisecond), values["latency_p50_ms"], len(win.lat), w.limitMS)
	failure := win.failure()

	// Quality: a pinned set of requests — the head of the seed-1 stream,
	// whatever --seed the load used — through the fleet, against the
	// solver's optimum. The same inputs every run make the ratio exact, so
	// its bound can be tight.
	quality := newStream(w, s.probs, qualitySeed, w.qualityN)
	var norm []float64
	for i := 0; i < capped(w.qualityN, cfg.qualityCap); i++ {
		p, d := quality.request(i)
		dec := s.fleet.Serve(p, d)
		if dec.Err != nil {
			return result{}, fmt.Errorf("quality request %d: %w", i, dec.Err)
		}
		if err := verify.CheckSplits(p, dec.Splits, 1e-6); err != nil {
			return result{}, fmt.Errorf("quality request %d: %w", i, err)
		}
		norm = append(norm, p.MLU(dec.Splits, d)/lp.Solve(p, d).MLU)
	}
	values["norm_mlu_p50"] = median(norm)
	values["norm_mlu_max"] = slices.Max(norm)

	// What the system keeps: the harness's own pools and kept answers go
	// first, pooled arenas are dropped by the two collections.
	attempted, failed := win.attempted, win.attempted-win.ok
	win, st = window{}, nil
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	runtime.KeepAlive(s)
	values["live_heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)

	return finish(endToEnd, values, attempted, failed, failure, log)
}

// runTraced is a --trace 1 run: the per-layer budget. A third of the
// window each goes to an untraced phase (counters, tail latencies, the
// base for tracing overhead), the traced phase, and direct calls.
func runTraced(w *workload, cfg runConfig, processStart time.Time, log io.Writer) (result, error) {
	s, st, err := prepare(w, cfg, 1, processStart, log)
	if err != nil {
		return result{}, err
	}
	defer s.fleet.Close()
	third := cfg.window / 3
	values := map[string]float64{
		"topology.build_ms":  s.times[tTopology] * 1e3,
		"tunnels.compute_ms": s.times[tTunnels] * 1e3,
		"te.new_problem_ms":  s.times[tNewProblem] * 1e3,
		"core.load_ms":       s.times[tLoad] * 1e3,
	}

	win := measure(s, st, s.fleet.Serve, third, 0)
	n := float64(win.attempted)
	busiest := 0
	for _, c := range win.perReplica {
		if c > busiest {
			busiest = c
		}
	}
	b, a := win.before, win.after
	hits, misses := float64(a.cacheHits-b.cacheHits), float64(a.cacheMisses-b.cacheMisses)
	values["client.latency_p90_ms"] = percentile(win.lat, 0.90)
	values["client.latency_p99_ms"] = percentile(win.lat, 0.99)
	values["client.latency_samples"] = n
	values["fleet.served"] = float64(a.served - b.served)
	values["fleet.fallbacks"] = float64(a.fallbacks - b.fallbacks)
	values["fleet.retries"] = float64(a.retries - b.retries)
	values["fleet.busiest_replica_share"] = float64(busiest) / n
	values["resilience.cache_hits"] = hits
	values["resilience.cache_misses"] = misses
	values["resilience.cache_hit_share"] = hits / (hits + misses)
	values["resilience.tier_full"] = float64(win.tierFull)
	values["resilience.tier_cached"] = float64(win.tierCached)
	values["resilience.tier_other"] = n - float64(win.tierFull+win.tierCached)
	values["runtime.alloc_kb_per_req"] = float64(a.mem.TotalAlloc-b.mem.TotalAlloc) / 1024 / n
	values["runtime.allocs_per_req"] = float64(a.mem.Mallocs-b.mem.Mallocs) / n
	values["runtime.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	values["runtime.gc_cpu_share"] = 0
	if cpu := a.totalCPU - b.totalCPU; cpu > 0 {
		values["runtime.gc_cpu_share"] = (a.gcCPU - b.gcCPU) / cpu
	}
	failure := win.failure()
	attempted, failed := win.attempted, win.attempted-win.ok
	untracedP50 := percentile(win.lat, 0.5)

	tracedN := capped(w.tracedN, cfg.tracedCap)
	rec := reqtrace.NewRecorder(reqtrace.Options{Capacity: tracedN, SampleEvery: 1})
	traced := measure(s, st, tracedServe(s.fleet, rec), third, tracedN)
	dump := rec.Snapshot()
	bud := aggregate(dump)
	bud.print(log)
	failure = errors.Join(failure, traced.failure(), checkBudget(w, bud, traced.attempted))
	attempted, failed = attempted+traced.attempted, failed+traced.attempted-traced.ok
	values["reqtrace.overhead_share"] = (percentile(traced.lat, 0.5) - untracedP50) / untracedP50
	values["reqtrace.self_sum_share"] = bud.SumShare
	unlisted := 0.0
	for _, stage := range bud.Stages {
		if _, ok := spanMetrics[stage.Name]; !ok {
			unlisted += stage.Share
		}
	}
	values["reqtrace.unlisted_self_share"] = unlisted
	for name, m := range spanMetrics {
		stage := bud.stage(name)
		values[m.self] = stage.P50SelfU * m.scale
		if m.share != "" {
			values[m.share] = stage.Share
		}
	}
	if cfg.traceOut != "" {
		if err := writeJSON(cfg.traceOut, dump); err != nil {
			return result{}, err
		}
	}

	if err := directCalls(s, st, third, values); err != nil {
		return result{}, fmt.Errorf("direct calls: %w", err)
	}
	values["runtime.peak_rss_mb"] = peakRSSMB()

	return finish(perLayer, values, attempted, failed, failure, log)
}

// finish turns a run's measurements into its result. failure is why the
// run's outputs are not all correct, or nil.
func finish(defs []metricDef, values map[string]float64, attempted, failed int, failure error, log io.Writer) (result, error) {
	r, err := newResult(defs, values)
	if err != nil {
		return result{}, err
	}
	r.Attempted, r.Failed = attempted, failed
	r.Correct = failure == nil
	if failure != nil {
		fmt.Fprintf(log, "INCORRECT: %v\n", failure)
	}
	return r, nil
}

// checkBudget holds the traced run to what the workloads were designed to
// show: every request traced, self times that add up to the root, and
// forward-pass spans (whatever stages the model is cut into) on every
// request that runs the model and on none that does not.
func checkBudget(w *workload, b budget, requests int) error {
	if b.Traces != requests {
		return fmt.Errorf("%d traces retained for %d traced requests", b.Traces, requests)
	}
	if math.Abs(b.SumShare-1) > 0.02 {
		return fmt.Errorf("span self times sum to %.4f of root time, want within 2%% of 1", b.SumShare)
	}
	forward := 0
	for _, stage := range b.Stages {
		if strings.HasPrefix(stage.Name, "forward.") {
			forward += stage.Count
		}
	}
	if w.replay && forward != 0 {
		return fmt.Errorf("%d forward-pass spans on a workload of cache hits", forward)
	}
	if !w.replay && forward < requests {
		return fmt.Errorf("%d forward-pass spans for %d requests that each ran the model", forward, requests)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
