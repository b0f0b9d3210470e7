// Package resilience wraps HARP inference in a guarded, gracefully
// degrading serving path. A TE controller must keep emitting routable split
// ratios even when the model or its inputs are broken — the same discipline
// that leads Teal to keep a classical fallback behind its learned model.
// Serve therefore validates every input shape up front, converts any panic
// in the lower layers into an error, rejects NaN or denormalized outputs,
// enforces a wall-clock deadline, and walks a fallback chain:
//
//	full HARP, stopped early if the deadline says so  →  uniform ECMP splits
//
// The deadline rides the request's context.Context into the RAU loop
// (core.Model.SplitsCtx): every RAU iterate is a routable answer, so a
// request that runs out of time ships the iterate it has — a step down the
// curve in core/testdata/anytime_curve.csv, not a cliff — and only one that
// finished no iteration falls to ECMP. Everything runs on the caller's
// goroutine; nothing is left running behind a request that returned.
//
// ECMP (te.Problem.UniformSplits, locally rescaled around failed tunnels)
// is computed with plain arithmetic on validated inputs, so the chain
// always terminates with a valid, row-normalized split matrix; the tier
// that actually served each request is recorded for observability.
//
// Around that chain sit the overload and churn guards: a bounded admission
// gate that sheds excess load with typed errors instead of queueing it
// unboundedly (admission.go), a circuit breaker that short-circuits a
// persistently failing model for a cooloff (breaker.go), and hot model
// reload with canary validation plus graceful drain (reload.go,
// admission.go). All of it is off by default: a zero Options gives the
// plain guarded chain with no gate and no breaker.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"harpte/internal/core"
	"harpte/internal/obs"
	"harpte/internal/obs/reqtrace"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/verify"
)

// Tier identifies which rung of the fallback chain served a request.
type Tier int

const (
	// TierFull is the model: at its configured RAU depth, or — when the
	// request's context ended first — stopped after fewer iterations, which
	// Decision.Degraded then says.
	TierFull Tier = iota
	// TierECMP is the classical fallback: uniform splits over each flow's
	// tunnels, rescaled away from failed tunnels.
	TierECMP
	// TierRejected means the input itself was invalid; no splits were
	// produced. Decision.Err carries the reason.
	TierRejected
	// TierShed means the request was turned away by admission control
	// before inference (overload or drain); no splits were produced.
	// Decision.Err wraps ErrOverload or ErrDraining.
	TierShed
	// TierCached means the request was answered from the split-ratio cache
	// (cache.go) — a previously vetted TierFull answer for the same
	// topology and quantized traffic matrix, served with zero inference.
	TierCached

	numTiers
)

// String returns the tier's short operator-facing label.
func (t Tier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierECMP:
		return "ecmp"
	case TierRejected:
		return "rejected"
	case TierShed:
		return "shed"
	case TierCached:
		return "cached"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// ErrInvalidInput tags every input-validation failure so callers can
// distinguish a bad request from an internal degradation.
var ErrInvalidInput = errors.New("resilience: invalid input")

// Options configures a Server. The zero value disables every optional
// guard: no admission gate, no breaker, no pinned reload probe.
type Options struct {
	// Deadline bounds the wall clock spent per request — both waiting in
	// the admission queue and running the model. Once it passes, queued
	// requests are shed and the RAU stops before its next iteration: the
	// request ships the iterate it has, or ECMP if it has none, overrunning
	// by at most one RAU iteration or — the first on a changed topology —
	// one plan build, which is never cut short. 0 disables it; a deadline
	// or cancellation on ServeCtx's context is honoured the same way.
	Deadline time.Duration

	// MaxConcurrent caps how many admitted requests run the serving chain
	// at once. 0 disables admission control entirely (no gate, no queue,
	// no per-request gate overhead beyond two atomic ops).
	MaxConcurrent int
	// MaxQueueDepth bounds how many requests may wait for a concurrency
	// slot; beyond it requests shed immediately with ErrOverload. <= 0
	// means no queue: shed as soon as the gate is full. Only meaningful
	// with MaxConcurrent > 0.
	MaxQueueDepth int

	// BreakerThreshold trips the model's circuit breaker open after this
	// many consecutive failures (panic, invalid output, no iterate before
	// the context ended); while open the model is skipped without spending
	// latency budget. 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooloff is how long the tripped breaker stays open before a
	// single half-open probe request is allowed through (0 means 5s).
	BreakerCooloff time.Duration

	// Probe and ProbeDemand pin the canary request Reload validates a
	// candidate model against before swapping it in. With a nil Probe,
	// Reload falls back to the most recently served problem (with a zero
	// demand vector when ProbeDemand is unset).
	Probe       *te.Problem
	ProbeDemand *tensor.Dense

	// CacheEntries enables the split-ratio LRU cache (cache.go) when > 0:
	// vetted TierFull answers are replayed for requests with the same
	// topology fingerprint and quantized traffic matrix, with zero
	// inference and zero allocations. 0 disables the cache. The cache holds
	// this many answers of up to 32 KiB (1,024 flows × 4 tunnels) and
	// fewer of larger ones: its bytes are bounded by CacheEntries × 32 KiB.
	// Keys quantize the TM to DefaultCacheQuantum of its peak demand, so the
	// served answer's MLU is within an O(1%) relative factor of fresh
	// inference.
	CacheEntries int

	// OOD, when set, classifies every request's input statistics against
	// a trained-profile envelope (ood.go): suspect requests run the model
	// but bypass the split cache in both directions and are always traced;
	// hostile requests skip the model too and get ECMP. Nil disables the
	// guard (one nil check on the serve path, no atomics).
	OOD *OODGuard

	// SLO, when set, scores every finished request against the serving
	// objectives (slo.go). Share one SLOSet across servers that share a
	// registry. Nil disables SLO tracking.
	SLO *SLOSet
	// Quality, when set, receives every successfully served (problem,
	// demand, splits) triple for background sampling against the exact
	// solver — wire a *verify.QualityMonitor here. Leave nil to disable;
	// do not store a typed nil pointer in it.
	Quality QualityProbe
}

// QualityProbe receives served answers for background quality scoring.
// Implementations must be non-blocking and allocation-free on the
// non-sampled path (verify.QualityMonitor.Offer is).
type QualityProbe interface {
	Offer(p *te.Problem, demand, splits *tensor.Dense)
}

// Decision is the outcome of one Serve call.
type Decision struct {
	// Splits is a valid, row-normalized F×K split matrix. It is nil only
	// when Tier == TierRejected or TierShed.
	Splits *tensor.Dense
	// Tier records which rung of the fallback chain produced Splits.
	Tier Tier
	// Degraded lists, in order, why the answer is less than the model at
	// full depth: why the model was skipped or failed, or after how many
	// RAU iterations the request's context stopped it.
	Degraded []string
	// OOD is the input-profile verdict for this request (OODInProfile
	// unless Options.OOD classified it otherwise).
	OOD OODVerdict
	// Err is non-nil only for TierRejected (wraps ErrInvalidInput) and
	// TierShed (wraps ErrOverload or ErrDraining).
	Err error
}

// Server is a guarded inference frontend over one HARP model. It is safe
// for concurrent use, including Serve racing Reload and Drain.
type Server struct {
	opts Options

	// model is the current serving generation. Serve loads it exactly once
	// per request, so Reload's atomic Store never mixes generations within a
	// request.
	model atomic.Pointer[core.Model]

	// The two registry-owned series (EnableTelemetry): a distribution has
	// no tally to view, and a sum of generations across servers means
	// nothing. Nil handles, every call on one a no-op, are telemetry off.
	latency  [numTiers]*obs.Histogram
	genGauge *obs.Gauge

	// Admission gate (admission.go). sem is nil when MaxConcurrent == 0.
	sem      chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool
	drainCh  chan struct{} // closed when draining starts; wakes queued waiters
	idleCh   chan struct{} // buffered(1); signaled when in-flight hits zero
	sheds    [numShedReasons]atomic.Int64

	// breaker is the model's circuit breaker (breaker.go); nil when
	// disabled.
	breaker *breaker

	// cache replays vetted TierFull answers (cache.go); nil when
	// Options.CacheEntries == 0.
	cache *SplitCache

	// Reload bookkeeping (reload.go): generation counts successful reloads.
	generation     atomic.Int64
	reloadFailures atomic.Int64

	// The model rung's events: contexts that ended before full depth, and
	// panics recovered.
	deadlines atomic.Int64
	panics    atomic.Int64

	// This server's OOD tally (ood.go): Options.OOD's verdicts, and what
	// the serve path did with them.
	oodVerdicts  [numOODVerdicts]atomic.Int64
	oodDemotions atomic.Int64
	oodBypasses  atomic.Int64

	// statMu guards only the tier tally, so TierCounts can take a
	// consistent snapshot in one acquisition without contending with the
	// context cache.
	statMu sync.Mutex
	counts [numTiers]int64

	// cacheMu guards the single-entry context cache: serving loops
	// typically replay many traffic matrices against one problem, and
	// contexts are immutable (and model-independent, so the cache
	// survives reloads). The entry is keyed by the problem's fingerprint,
	// like the split cache, so a controller that re-describes an unchanged
	// topology keeps its Context — and with it the engine's plan.
	// lastProb is the problem the Context was built from (Reload's canary).
	cacheMu  sync.Mutex
	lastFP   uint64
	lastProb *te.Problem
	lastCtx  *core.Context
}

// Metric names emitted by this package.
const (
	// MetricServeRequests counts Serve calls by the tier that answered
	// (labels: tier="full"|"ecmp"|"rejected"|"shed"|"cached").
	MetricServeRequests = "harp_serve_requests_total"
	// MetricServeSeconds is a per-tier histogram of Serve latency.
	MetricServeSeconds = "harp_serve_seconds"
	// MetricServeRejections counts requests rejected by input validation.
	MetricServeRejections = "harp_serve_rejections_total"
	// MetricServeDeadlineExpirations counts requests whose context ended
	// (deadline or cancellation) before the model reached full depth: the
	// answer was a truncated iterate or ECMP.
	MetricServeDeadlineExpirations = "harp_serve_deadline_expirations_total"
	// MetricServePanicRecoveries counts panics converted to degradations.
	MetricServePanicRecoveries = "harp_serve_panic_recoveries_total"

	// MetricServeShed counts requests turned away by admission control
	// (labels: reason="queue_full"|"queue_deadline"|"draining").
	MetricServeShed = "harp_serve_shed_total"
	// MetricServeQueueDepth gauges how many requests are waiting for an
	// admission slot right now.
	MetricServeQueueDepth = "harp_serve_queue_depth"
	// MetricServeInflight gauges admitted-or-queued requests currently
	// inside the server.
	MetricServeInflight = "harp_serve_inflight"
	// MetricServeDrains counts Drain initiations (at most 1 per server).
	MetricServeDrains = "harp_serve_drains_total"

	// MetricBreakerState gauges the model breaker's state (label:
	// tier="full"; 0=closed, 1=half-open, 2=open).
	MetricBreakerState = "harp_serve_breaker_state"
	// MetricBreakerTrips counts breaker open transitions.
	MetricBreakerTrips = "harp_serve_breaker_trips_total"
	// MetricBreakerShortCircuits counts requests that skipped the model
	// because its breaker was open.
	MetricBreakerShortCircuits = "harp_serve_breaker_short_circuits_total"

	// MetricModelReloads counts Reload attempts (labels:
	// result="ok"|"error").
	MetricModelReloads = "harp_model_reloads_total"
	// MetricModelGeneration gauges the serving model generation (0 =
	// the model the server was built with).
	MetricModelGeneration = "harp_model_generation"

	// MetricSplitCacheHits / Misses / Evictions count split-cache events;
	// MetricSplitCacheSize gauges the current entry count.
	MetricSplitCacheHits      = "harp_split_cache_hits_total"
	MetricSplitCacheMisses    = "harp_split_cache_misses_total"
	MetricSplitCacheEvictions = "harp_split_cache_evictions_total"
	MetricSplitCacheSize      = "harp_split_cache_entries"

	// MetricOODRequests counts classified requests by verdict (labels:
	// verdict="in-profile"|"suspect"|"hostile").
	MetricOODRequests = "harp_ood_requests_total"
	// MetricOODDemotions counts requests denied the model by the OOD guard
	// (label: verdict="hostile"; suspect requests are served in full).
	MetricOODDemotions = "harp_ood_demotions_total"
	// MetricOODCacheBypasses counts requests that skipped the split
	// cache (reads and writes) because of their verdict.
	MetricOODCacheBypasses = "harp_ood_cache_bypasses_total"
)

// EnableTelemetry exposes the server on reg (the Metric* constants):
// per-tier request, rejection, deadline, panic-recovery, shed, drain,
// breaker, reload, OOD and split-cache counters; gauges for queue depth,
// in-flight requests and the breaker state; per-tier latency histograms and
// the model-generation gauge. Every counter and gauge but the generation is
// a read-through view, evaluated at scrape time, of the tally Stats and
// TierCounts read — there is no second tally to drift, and attaching late
// loses no history. Servers sharing a registry report their sum (the
// breaker-state series is then the sum of the servers' states: 0 = every
// breaker closed); the latency histograms add up too, and the generation
// gauge holds the last reload's value. Stage timing is not here — attach the
// registry to the request recorder (reqtrace.Recorder.EnableTelemetry).
// Call it once per server, before serving starts. No-op on a nil registry.
func (s *Server) EnableTelemetry(reg *obs.Registry) {
	if reg == nil {
		return
	}
	count := func(name, help string, fn func() int64, labels ...obs.Label) {
		reg.CounterFunc(name, help, func() float64 { return float64(fn()) }, labels...)
	}
	const reloadsHelp = "Model reload attempts by outcome."
	full := obs.L("tier", TierFull.String())
	for tier := Tier(0); tier < numTiers; tier++ {
		l := obs.L("tier", tier.String())
		count(MetricServeRequests, "Serve calls by the fallback-chain tier that answered.",
			func() int64 { return s.tally()[tier] }, l)
		s.latency[tier] = reg.Histogram(MetricServeSeconds,
			"Serve wall-clock latency by answering tier.", nil, l)
	}
	count(MetricServeRejections, "Requests rejected by input validation (no splits produced).",
		func() int64 { return s.tally()[TierRejected] })
	count(MetricServeDeadlineExpirations, "Requests whose context ended before the model reached full depth.",
		s.deadlines.Load)
	count(MetricServePanicRecoveries, "Panics recovered and converted into tier degradations.",
		s.panics.Load)
	for r := 0; r < numShedReasons; r++ {
		count(MetricServeShed, "Requests turned away by admission control, by reason.",
			s.sheds[r].Load, obs.L("reason", shedReasonLabel(r)))
	}
	count(MetricServeDrains, "Graceful drains initiated.", func() int64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	count(MetricBreakerTrips, "Circuit-breaker open transitions of the model tier.",
		func() int64 { _, trips, _ := s.breaker.snapshot(); return trips }, full)
	count(MetricBreakerShortCircuits, "Requests that skipped the model on an open breaker.",
		func() int64 { _, _, shorts := s.breaker.snapshot(); return shorts }, full)
	count(MetricModelReloads, reloadsHelp, s.generation.Load, obs.L("result", "ok"))
	count(MetricModelReloads, reloadsHelp, s.reloadFailures.Load, obs.L("result", "error"))
	s.genGauge = reg.Gauge(MetricModelGeneration,
		"Serving model generation (successful reloads applied).")
	s.genGauge.Set(float64(s.generation.Load()))
	for v := OODVerdict(0); v < numOODVerdicts; v++ {
		count(MetricOODRequests, "Requests classified by the OOD guard, by verdict.",
			s.oodVerdicts[v].Load, obs.L("verdict", v.String()))
	}
	count(MetricOODDemotions, "Requests denied the model by the OOD guard.",
		s.oodDemotions.Load, obs.L("verdict", OODHostile.String()))
	count(MetricOODCacheBypasses, "Requests that skipped the split cache on an OOD verdict.",
		s.oodBypasses.Load)
	reg.GaugeFunc(MetricServeQueueDepth,
		"Requests waiting for an admission slot.",
		func() float64 { return float64(s.queued.Load()) })
	reg.GaugeFunc(MetricServeInflight,
		"Admitted or queued requests currently inside the server.",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc(MetricBreakerState,
		"Circuit-breaker state of the model tier (0=closed, 1=half-open, 2=open).",
		func() float64 { st, _, _ := s.breaker.snapshot(); return float64(st) }, full)
	if c := s.cache; c != nil {
		reg.CounterFunc(MetricSplitCacheHits,
			"Split-cache hits served with zero inference.",
			func() float64 { return float64(c.stats().Hits) })
		reg.CounterFunc(MetricSplitCacheMisses,
			"Split-cache misses (request fell through to inference).",
			func() float64 { return float64(c.stats().Misses) })
		reg.CounterFunc(MetricSplitCacheEvictions,
			"Split-cache LRU evictions.",
			func() float64 { return float64(c.stats().Evictions) })
		reg.GaugeFunc(MetricSplitCacheSize,
			"Split-cache entries currently resident.",
			func() float64 { return float64(c.stats().Size) })
	}
}

// NewServer builds a Server over m. The model is used read-only; training
// m further between requests is allowed.
func NewServer(m *core.Model, opts Options) *Server {
	s := &Server{
		opts:    opts,
		drainCh: make(chan struct{}),
		idleCh:  make(chan struct{}, 1),
		breaker: newBreaker(opts.BreakerThreshold, opts.BreakerCooloff),
	}
	s.model.Store(m)
	if opts.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, opts.MaxConcurrent)
	}
	if opts.CacheEntries > 0 {
		s.cache = newSplitCache(opts.CacheEntries)
	}
	return s
}

// ValidateInput checks everything Serve assumes about a request: a
// well-formed problem (te.Problem.Validate, whose verdict each Problem
// computes once) and a demand vector of exactly one finite, non-negative
// entry per flow, so a request pays only the O(flows) demand pass. All
// failures wrap ErrInvalidInput.
func ValidateInput(p *te.Problem, demand *tensor.Dense) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidInput, fmt.Sprintf(format, args...))
	}
	if p == nil {
		return fail("nil problem")
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	if demand == nil {
		return fail("nil demand")
	}
	if len(demand.Data) != p.NumFlows() {
		return fail("demand has %d entries, want one per flow (%d)", len(demand.Data), p.NumFlows())
	}
	for i, v := range demand.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fail("demand[%d] = %v", i, v)
		}
	}
	return nil
}

// zeroDemand builds an all-zero demand vector for p — the default canary
// demand when no ProbeDemand is pinned (a zero matrix still exercises the
// full forward pass).
func zeroDemand(p *te.Problem) *tensor.Dense {
	return tensor.New(p.NumFlows(), 1)
}

// Serve is ServeCtx with no caller context.
func (s *Server) Serve(p *te.Problem, demand *tensor.Dense) Decision {
	return s.ServeCtx(context.Background(), p, demand)
}

// ServeCtx produces split ratios for the request, degrading through the
// fallback chain as needed. On any non-rejected, non-shed return,
// Decision.Splits is a finite F×K matrix whose rows each sum to 1.
//
// Once ctx is done — cancelled, past its deadline, or past Options.Deadline
// — a queued request is shed and a running one returns within one RAU
// iteration (one plan build, if it is the first on its topology) with the
// iterate it has or ECMP, the context's error named in Decision.Degraded.
// When ctx carries a reqtrace span (reqtrace.StartTrace / fleet dispatch),
// the serving chain annotates it with admission, cache, tier, and
// inference-stage spans; without one the cache-hit path allocates nothing.
func (s *Server) ServeCtx(ctx context.Context, p *te.Problem, demand *tensor.Dense) Decision {
	start := time.Now()
	sp := reqtrace.FromContext(ctx)
	dec, admitted := s.admit(ctx, start, sp)
	if !admitted {
		return dec
	}
	defer s.release()
	return s.serve(ctx, start, p, demand, sp)
}

// withDeadline narrows ctx to Options.Deadline for a request that arrived
// at start. Only the admission queue and the model call it, so a cache hit
// never pays for a context.
func (s *Server) withDeadline(ctx context.Context, start time.Time) (context.Context, context.CancelFunc) {
	if s.opts.Deadline <= 0 {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, start.Add(s.opts.Deadline))
}

// endedBy names why ctx stopped the model: its error, or DeadlineExceeded
// when the engine read the clock before the context's timer fired.
func endedBy(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.DeadlineExceeded
}

// serve runs the guarded fallback chain for one admitted request.
func (s *Server) serve(ctx context.Context, start time.Time, p *te.Problem, demand *tensor.Dense, sp *reqtrace.Span) Decision {
	if err := ValidateInput(p, demand); err != nil {
		s.record(TierRejected, start)
		sp.SetError(err)
		return Decision{Tier: TierRejected, Err: err}
	}
	// OOD classification before any shared state is touched: a hostile
	// request must not read the split cache (stale shared matrices) and
	// must not reach the model, whose answer would be written to it (cache
	// poisoning). Disabled, this is one nil pointer check.
	verdict := OODInProfile
	if g := s.opts.OOD; g != nil {
		verdict = g.Classify(p, demand)
		s.oodVerdicts[verdict].Add(1)
		if verdict != OODInProfile {
			sp.Annotate("ood", verdict.String())
			sp.ForceRetain("ood")
		}
	}
	// Cache probe before any model work: a hit replays a previously vetted
	// full-depth answer with zero inference and zero allocations. The cached
	// matrix is shared read-only (see cache.go). Out-of-profile requests
	// skip the probe entirely, and runModel skips the put for them. The key
	// is hashed once, for the probe, the trace and the put.
	var key cacheKey
	if s.cache != nil {
		if verdict != OODInProfile {
			s.oodBypasses.Add(1)
			sp.Annotate("cache", "ood-bypass")
		} else {
			key.topo, key.tm = CacheKey(p, demand, DefaultCacheQuantum)
			if splits := s.cache.get(key); splits != nil {
				s.record(TierCached, start)
				sp.Annotate("cache", "hit")
				s.offerQuality(p, demand, splits)
				return Decision{Splits: splits, Tier: TierCached}
			}
			sp.Annotate("cache", "miss")
			sp.AnnotateInt("cache_key_topo", int64(key.topo))
			sp.AnnotateInt("cache_key_tm", int64(key.tm))
		}
	}

	dec := Decision{OOD: verdict, Tier: TierFull}
	if dec.Splits = s.runModel(ctx, start, p, demand, key, sp, &dec); dec.Splits == nil {
		// Terminal tier: uniform splits rescaled off failed tunnels. Pure
		// arithmetic on validated inputs — cannot fail.
		dec.Splits, dec.Tier = te.NormalizeRows(te.Rescale(p, p.UniformSplits())), TierECMP
	}
	s.record(dec.Tier, start)
	s.annotateOutcome(sp, &dec)
	s.offerQuality(p, demand, dec.Splits)
	return dec
}

// runModel is the neural rung of the chain: the model under the request's
// deadline, the breaker, a recover guard and output vetting. It returns the
// vetted splits — at full depth, or the iterate the context stopped at —
// or nil, and dec.Degraded says which. Only a full-depth, in-profile answer
// enters the split cache, under key.
func (s *Server) runModel(ctx context.Context, start time.Time, p *te.Problem, demand *tensor.Dense, key cacheKey, sp *reqtrace.Span, dec *Decision) *tensor.Dense {
	degrade := func(why any) {
		dec.Degraded = append(dec.Degraded, fmt.Sprintf("%v: %v", TierFull, why))
	}
	if dec.OOD == OODHostile {
		s.oodDemotions.Add(1)
		degrade("ood hostile")
		return nil
	}
	// One pointer load pins this request's model generation: a Reload
	// mid-request swaps the model out from under later requests only.
	m := s.model.Load()
	c, err := s.contextFor(m, p)
	if err != nil {
		dec.Degraded = append(dec.Degraded, fmt.Sprintf("context: %v", err))
		return nil
	}
	ctx, cancel := s.withDeadline(ctx, start)
	defer cancel()
	if err := ctx.Err(); err != nil {
		s.deadlines.Add(1)
		degrade(err)
		return nil
	}
	if !s.breaker.allow() {
		degrade("circuit open")
		return nil
	}
	tsp := sp.StartChild("tier.full")
	defer tsp.End()
	splits, k, err := s.safeInfer(reqtrace.NewContext(ctx, tsp), m, c, p, demand)
	if err != nil {
		s.breaker.onFailure()
		tsp.SetError(err)
		degrade(err)
		return nil
	}
	s.breaker.onSuccess()
	switch {
	case k < m.Cfg.RAUIterations:
		s.deadlines.Add(1)
		degrade(fmt.Sprintf("stopped after %d/%d RAU iterations: %v", k, m.Cfg.RAUIterations, endedBy(ctx)))
	case s.cache != nil && dec.OOD == OODInProfile:
		s.cache.put(key, splits)
	}
	return splits
}

// annotateOutcome stamps the answering tier and any degradations onto
// the request span; a degraded request is always retained by the flight
// recorder. No-ops (and allocates nothing) when sp is nil.
func (s *Server) annotateOutcome(sp *reqtrace.Span, dec *Decision) {
	if sp == nil {
		return
	}
	sp.Annotate("tier", dec.Tier.String())
	if len(dec.Degraded) > 0 {
		for _, d := range dec.Degraded {
			sp.Annotate("degraded", d)
		}
		sp.ForceRetain("degraded")
	}
}

// offerQuality hands a served answer to the background quality monitor,
// when one is attached. One interface nil check on the disabled path.
func (s *Server) offerQuality(p *te.Problem, demand, splits *tensor.Dense) {
	if s.opts.Quality != nil {
		s.opts.Quality.Offer(p, demand, splits)
	}
}

// contextFor builds (or returns the cached) model context for p,
// converting construction panics on malformed problems into errors.
// Contexts depend only on the problem, never on the weights, so the cache
// deliberately survives model reloads.
func (s *Server) contextFor(m *core.Model, p *te.Problem) (ctx *core.Context, err error) {
	fp := p.Fingerprint()
	s.cacheMu.Lock()
	if s.lastFP == fp && s.lastCtx != nil {
		ctx = s.lastCtx
		s.cacheMu.Unlock()
		return ctx, nil
	}
	s.cacheMu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			ctx, err = nil, fmt.Errorf("panic building context: %v", r)
		}
	}()
	ctx = m.Context(p)
	s.cacheMu.Lock()
	s.lastFP, s.lastProb, s.lastCtx = fp, p, ctx
	s.cacheMu.Unlock()
	return ctx, nil
}

// safeInfer runs the model on the caller's goroutine under a recover guard
// and vets the output; k is how many RAU iterations the answer has behind
// it. No iteration finished before the context ended is an error.
func (s *Server) safeInfer(ctx context.Context, m *core.Model, c *core.Context, p *te.Problem, demand *tensor.Dense) (splits *tensor.Dense, k int, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			splits, err = nil, fmt.Errorf("inference panic: %v", r)
		}
	}()
	splits, k = m.SplitsCtx(ctx, c, demand)
	if splits == nil {
		s.deadlines.Add(1)
		return nil, 0, fmt.Errorf("no RAU iteration finished: %w", endedBy(ctx))
	}
	splits, err = VetSplits(p, splits)
	return splits, k, err
}

// VetSplits checks a serving answer with verify.CheckSplits — shaped F×K,
// every entry finite and non-negative, every row summing to 1 — and returns
// it untouched, or an error. It never writes: the matrix may be one the
// split cache shares, so an answer that would need repair is rejected.
// Serve vets its own inference output with it; it is exported so a
// dispatcher fronting remote or faulty replicas (internal/fleet) can
// refuse byzantine answers it did not compute locally.
func VetSplits(p *te.Problem, splits *tensor.Dense) (*tensor.Dense, error) {
	if splits == nil {
		return nil, errors.New("nil splits")
	}
	if err := verify.CheckSplits(p, splits, verify.DefaultTol); err != nil {
		return nil, err
	}
	return splits, nil
}

// record tallies one answered request: the per-tier count under statMu,
// the latency histogram, and the serving SLOs when attached.
func (s *Server) record(t Tier, start time.Time) {
	elapsed := time.Since(start)
	s.statMu.Lock()
	s.counts[t]++
	s.statMu.Unlock()
	s.latency[t].Observe(elapsed.Seconds())
	s.opts.SLO.recordServe(t, elapsed)
}

// tally copies the per-tier counts in one lock acquisition.
func (s *Server) tally() [numTiers]int64 {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.counts
}

// TierCounts returns how many requests each tier has served since the
// server was created. The tally is copied under a single lock
// acquisition, so the returned map is a consistent snapshot: its values
// sum to the exact number of Serve calls recorded at that instant, even
// while other goroutines keep serving.
func (s *Server) TierCounts() map[Tier]int64 {
	snap := s.tally()
	out := make(map[Tier]int64, numTiers)
	for t := Tier(0); t < numTiers; t++ {
		out[t] = snap[t]
	}
	return out
}
