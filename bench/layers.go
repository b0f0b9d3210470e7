package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"harpte/internal/lp"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/verify"
)

// callTimer times direct calls into one public function: an optional
// untimed warm call, then between min and max timed samples, stopping
// early once the budget is spent. Functions faster than ~20 µs are timed
// in batches so the clock's own cost does not show.
type callTimer struct {
	warm     bool
	min, max int
	budget   time.Duration
}

// medianNS returns the median time of one fn call in nanoseconds. fn
// receives a call counter, so it can walk distinct inputs.
func (ct callTimer) medianNS(fn func(i int)) float64 {
	calls, reps := 0, 1
	if ct.warm {
		t0 := time.Now()
		fn(calls)
		calls++
		if first := time.Since(t0); first < 20*time.Microsecond {
			reps = int(20*time.Microsecond/(first+1)) + 1
			if reps > 1000 {
				reps = 1000
			}
		}
	}
	var samples []float64
	deadline := time.Now().Add(ct.budget)
	for n := 0; n < ct.max && (n < ct.min || time.Now().Before(deadline)); n++ {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			fn(calls)
			calls++
		}
		samples = append(samples, float64(time.Since(t0))/float64(reps))
	}
	return median(samples)
}

// request is one (problem, demand) pair and, once served, its answer.
type request struct {
	p       *te.Problem
	d       *tensor.Dense
	splits  *tensor.Dense
	replica int
}

// directCalls measures each module from outside, single-goroutine, on the
// workload's own problems and demands, and stores the medians in out.
// budget is the wall time the whole function may take, give or take the
// minimum sample counts.
func directCalls(s *sut, st *stream, budget time.Duration, out map[string]float64) error {
	ct := callTimer{warm: true, min: 3, max: 30, budget: budget / 15}

	// Hit path: requests whose answers are in their replica's cache.
	nHits := 4
	if st.w.replay {
		nHits = hotTMs
	}
	hits := make([]request, nHits)
	for i := range hits {
		var r request
		if st.w.replay {
			r.p, r.d = st.request(i)
		} else {
			r.p, r.d = st.unseen()
		}
		dec := s.fleet.Serve(r.p, r.d)
		if dec.Err != nil {
			return dec.Err
		}
		r.splits, r.replica = dec.Splits, dec.Replica
		hits[i] = r
	}
	hit := func(i int) request { return hits[i%len(hits)] }
	fleetHit := ct.medianNS(func(i int) { r := hit(i); s.fleet.Serve(r.p, r.d) })
	serverHit := ct.medianNS(func(i int) { r := hit(i); s.servers[r.replica].Serve(r.p, r.d) })
	out["resilience.serve_hit_us"] = serverHit / 1e3
	out["fleet.serve_overhead_us"] = (fleetHit - serverHit) / 1e3
	out["resilience.validate_us"] = ct.medianNS(func(i int) { r := hit(i); _ = resilience.ValidateInput(r.p, r.d) }) / 1e3
	out["resilience.cache_key_us"] = ct.medianNS(func(i int) { r := hit(i); resilience.CacheKey(r.p, r.d, 0) }) / 1e3
	out["resilience.vet_us"] = ct.medianNS(func(i int) { r := hit(i); _, _ = resilience.VetSplits(r.p, r.splits) }) / 1e3
	out["verify.check_splits_us"] = ct.medianNS(func(i int) { r := hit(i); _ = verify.CheckSplits(r.p, r.splits, 1e-6) }) / 1e3
	out["te.mlu_us"] = ct.medianNS(func(i int) { r := hit(i); r.p.MLU(r.splits, r.d) }) / 1e3

	// Miss path and the model alone, on the workload's first problem
	// (replay alternates two; a median over alternating 8 ms and 30 ms
	// calls is neither). Every miss is a never-seen request — on churn a
	// never-seen topology too, so the context build is part of it, as it
	// is for every request of that workload.
	p := s.probs[0]
	unseen := func() (*te.Problem, *tensor.Dense) {
		for {
			if q, d := st.unseen(); !st.w.replay || q == p {
				return q, d
			}
		}
	}
	serveMiss := ct.medianNS(func(int) { q, d := unseen(); s.servers[0].Serve(q, d) })
	out["resilience.serve_miss_ms"] = serveMiss / 1e6

	ctx := s.model.Context(p)
	var demands []*tensor.Dense // p's share of the pool
	for i := 0; i < len(st.demands); i += len(s.probs) {
		demands = append(demands, st.demands[i])
	}
	splits := func(i int) { s.model.Splits(ctx, demands[i%len(demands)]) }
	splitsNS := ct.medianNS(splits)
	out["core.splits_ms"] = splitsNS / 1e6
	out["resilience.serve_overhead_ms"] = (serveMiss - splitsNS) / 1e6
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const allocRuns = 3
	for i := 0; i < allocRuns; i++ {
		splits(i)
	}
	runtime.ReadMemStats(&m1)
	out["core.splits_allocs"] = float64(m1.Mallocs-m0.Mallocs) / allocRuns
	out["core.context_build_ms"] = ct.medianNS(func(int) { s.model.Context(p) }) / 1e6

	// Fingerprint is cached per problem, so only a first call costs.
	var fp []float64
	for deadline := time.Now().Add(ct.budget); len(fp) < ct.max && (len(fp) < ct.min || time.Now().Before(deadline)); {
		unhashed := te.NewProblem(p.Graph, p.Tunnels)
		t0 := time.Now()
		unhashed.Fingerprint()
		fp = append(fp, float64(time.Since(t0)))
	}
	out["te.fingerprint_us"] = median(fp) / 1e3

	// The solver HARP is sold against, for context: one call is enough
	// for a deterministic half-second computation.
	lpTimer := callTimer{min: 1, max: 3, budget: budget / 15}
	out["lp.solve_ms"] = lpTimer.medianNS(func(i int) { lp.Solve(p, demands[i%len(demands)]) }) / 1e6
	return nil
}

// counters is everything the harness reads around a window from the
// stack's own bookkeeping and the runtime's.
type counters struct {
	served, fallbacks, retries int64
	cacheHits, cacheMisses     int64
	mem                        runtime.MemStats
	gcCPU, totalCPU            float64 // cumulative CPU seconds
}

func readCounters(s *sut) counters {
	var c counters
	fs := s.fleet.Stats()
	c.served, c.fallbacks, c.retries = fs.Served, fs.LocalFallbacks, fs.Retries
	c.cacheHits, c.cacheMisses = cacheCounts(s.servers)
	runtime.ReadMemStats(&c.mem)
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	if cpu[0].Value.Kind() == metrics.KindFloat64 && cpu[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.totalCPU = cpu[0].Value.Float64(), cpu[1].Value.Float64()
	}
	return c
}

// procField returns the rest of the first line of a /proc file that
// starts with prefix, trimmed, or "" where /proc does not say.
func procField(path, prefix string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}

// peakRSSMB is the process's high-water resident set (VmHWM), 0 where
// /proc does not say.
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

func cpuModel() string {
	if model := procField("/proc/cpuinfo", "model name"); model != "" {
		return model
	}
	return "unknown CPU"
}
