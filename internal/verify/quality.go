package verify

// Background serving-quality monitor. The serve path hands a sampled
// 1-in-N slice of served (problem, demand, splits) triples to a worker
// goroutine that re-solves each with the exact simplex oracle and
// records the achieved-MLU / optimal-MLU ratio. The resulting live
// histogram answers the question the runtime vet gate cannot: not "is
// this routing valid" but "how far from optimal is what we served" —
// catching slow quality regressions (stale weights after topology drift,
// an over-aggressive cache quantum) that never trip a hard failure.
//
// The non-sampled path is a single atomic increment, preserving the
// serve-path allocation pins; the sampled path clones the tensors (the
// caller may reuse or mutate them) and enqueues without blocking,
// dropping the sample when the solver falls behind.

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"harpte/internal/lp"
	"harpte/internal/obs"
	"harpte/internal/te"
	"harpte/internal/tensor"
)

// Metric names emitted by QualityMonitor.EnableTelemetry.
const (
	// MetricQualityMLURatio is the histogram of achieved/optimal MLU over
	// sampled served requests. 1.0 is optimal; the PR-7 cache bound keeps
	// clean replays within the quantization epsilon of 1.
	MetricQualityMLURatio = "harp_quality_mlu_ratio"
	// MetricQualitySamples counts requests actually re-solved.
	MetricQualitySamples = "harp_quality_samples_total"
	// MetricQualityDropped counts samples shed because the solver queue
	// was full.
	MetricQualityDropped = "harp_quality_dropped_total"
)

// QualityOptions tunes the monitor. Zero values select the defaults.
type QualityOptions struct {
	// SampleEvery re-solves one in every N offered requests (default 128).
	SampleEvery int
	// QueueDepth bounds the pending-sample queue (default 64); offers past
	// a full queue are dropped, never blocked on.
	QueueDepth int
	// RatioObjective is the achieved/optimal MLU ratio at or below which a
	// sample counts as "good" for the OnSample callback (default 1.25 —
	// within 25% of optimal).
	RatioObjective float64
	// OnSample, when set, receives every resolved sample's ratio and
	// whether it met RatioObjective — the hook the serving SLO set uses to
	// feed its quality objective. Invocations are serialized: OnSample
	// never runs concurrently with itself, even while Drain is helping
	// the worker.
	OnSample func(ratio float64, good bool)
}

type qualitySample struct {
	p      *te.Problem
	demand *tensor.Dense
	splits *tensor.Dense
}

// QualityMonitor samples served decisions and scores them against the
// simplex optimum in the background. Nil-safe: a nil monitor ignores
// offers.
type QualityMonitor struct {
	opts QualityOptions

	n       atomic.Uint64 // offers seen
	sampled atomic.Int64  // samples resolved
	dropped atomic.Int64  // samples shed at the queue
	pending atomic.Int64  // enqueued, not yet resolved
	worst   atomic.Uint64 // math.Float64bits of worst ratio seen

	queue     chan qualitySample
	done      chan struct{}
	stop      sync.Once
	resolveMu sync.Mutex // serializes resolve (worker vs Drain helper)

	hist atomic.Pointer[obs.Histogram]
}

// NewQualityMonitor starts the background worker and returns the
// monitor. Call Close to stop it.
func NewQualityMonitor(opts QualityOptions) *QualityMonitor {
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 128
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.RatioObjective <= 0 {
		opts.RatioObjective = 1.25
	}
	q := &QualityMonitor{
		opts:  opts,
		queue: make(chan qualitySample, opts.QueueDepth),
		done:  make(chan struct{}),
	}
	go q.run()
	return q
}

// Offer hands one served decision to the monitor. The fast (non-sampled)
// path is a single atomic add with no allocations; the sampled path
// clones demand and splits before enqueueing, so the caller may reuse
// them. Nil-safe and non-blocking.
func (q *QualityMonitor) Offer(p *te.Problem, demand, splits *tensor.Dense) {
	if q == nil || p == nil || demand == nil || splits == nil {
		return
	}
	if q.n.Add(1)%uint64(q.opts.SampleEvery) != 0 {
		return
	}
	s := qualitySample{p: p, demand: demand.Clone(), splits: splits.Clone()}
	q.pending.Add(1)
	select {
	case q.queue <- s:
	default:
		q.pending.Add(-1)
		q.dropped.Add(1)
	}
}

func (q *QualityMonitor) run() {
	for {
		select {
		case s := <-q.queue:
			q.resolve(s)
		case <-q.done:
			return
		}
	}
}

// resolve scores one sample against the exact simplex optimum. Both the
// background worker and Drain call it; the mutex keeps resolution (and
// therefore OnSample) single-threaded.
func (q *QualityMonitor) resolve(s qualitySample) {
	q.resolveMu.Lock()
	defer q.resolveMu.Unlock()
	defer q.pending.Add(-1)
	opt, err := lp.SolveWithOptions(s.p, s.demand, lp.Options{Method: "simplex"})
	if err != nil || opt.MLU <= 1e-12 {
		// A degenerate instance (zero demand, solver failure) has no
		// meaningful ratio; count it as resolved but score nothing.
		q.sampled.Add(1)
		return
	}
	ratio := s.p.MLU(s.splits, s.demand) / opt.MLU
	q.sampled.Add(1)
	for {
		old := q.worst.Load()
		if ratio <= math.Float64frombits(old) || q.worst.CompareAndSwap(old, math.Float64bits(ratio)) {
			break
		}
	}
	if h := q.hist.Load(); h != nil {
		h.Observe(ratio)
	}
	if q.opts.OnSample != nil {
		q.opts.OnSample(ratio, ratio <= q.opts.RatioObjective)
	}
}

// EnableTelemetry registers the MLU-ratio histogram and sample counters
// on reg. Nil-safe on both sides.
func (q *QualityMonitor) EnableTelemetry(reg *obs.Registry) {
	if q == nil || reg == nil {
		return
	}
	// Buckets resolve "at optimal" (≤1.02, where cache quantization lives)
	// through "badly regressed" (>2x optimal).
	buckets := []float64{1.0, 1.02, 1.05, 1.1, 1.15, 1.25, 1.5, 2, 3, 5, 10}
	q.hist.Store(reg.Histogram(MetricQualityMLURatio,
		"Achieved/optimal MLU ratio of sampled served requests (1.0 = optimal).",
		buckets))
	reg.CounterFunc(MetricQualitySamples,
		"Served requests re-solved against the simplex oracle.",
		func() float64 { return float64(q.sampled.Load()) })
	reg.CounterFunc(MetricQualityDropped,
		"Quality samples shed because the solver queue was full.",
		func() float64 { return float64(q.dropped.Load()) })
}

// QualityStats is a point-in-time summary of the monitor.
type QualityStats struct {
	Offered    uint64
	Sampled    int64
	Dropped    int64
	WorstRatio float64
}

// Stats reports cumulative tallies. Nil-safe.
func (q *QualityMonitor) Stats() QualityStats {
	if q == nil {
		return QualityStats{}
	}
	return QualityStats{
		Offered:    q.n.Load(),
		Sampled:    q.sampled.Load(),
		Dropped:    q.dropped.Load(),
		WorstRatio: math.Float64frombits(q.worst.Load()),
	}
}

// Drain blocks until every enqueued sample has been resolved (helping
// the worker from this goroutine) — a test and shutdown helper, not a
// serve-path call. Nil-safe.
func (q *QualityMonitor) Drain() {
	if q == nil {
		return
	}
	for q.pending.Load() > 0 {
		select {
		case s := <-q.queue:
			q.resolve(s)
		default:
			runtime.Gosched() // worker holds the last sample mid-resolve
		}
	}
}

// Close stops the background worker. Queued-but-unresolved samples are
// discarded. Nil-safe and idempotent.
func (q *QualityMonitor) Close() {
	if q == nil {
		return
	}
	q.stop.Do(func() { close(q.done) })
}
