// Package resilience wraps HARP inference in a guarded, gracefully
// degrading serving path. A TE controller must keep emitting routable split
// ratios even when the model or its inputs are broken — the same discipline
// that leads Teal to keep a classical fallback behind its learned model.
// Serve therefore validates every input shape up front, converts any panic
// in the lower layers into an error, rejects NaN or denormalized outputs,
// enforces a wall-clock deadline, and walks a fallback chain:
//
//	full-RAU HARP  →  reduced-RAU HARP  →  uniform ECMP splits
//
// ECMP (te.Problem.UniformSplits, locally rescaled around failed tunnels)
// is computed with plain arithmetic on validated inputs, so the chain
// always terminates with a valid, row-normalized split matrix; the tier
// that actually served each request is recorded for observability.
//
// Around that chain sit the overload and churn guards: a bounded admission
// gate that sheds excess load with typed errors instead of queueing it
// unboundedly (admission.go), per-tier circuit breakers that short-circuit
// a persistently failing model tier for a cooloff (breaker.go), and hot
// model reload with canary validation plus graceful drain (reload.go,
// admission.go). All of it is off by default: a zero Options gives the
// plain guarded chain with no gate and no breakers.
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
)

// Tier identifies which rung of the fallback chain served a request.
type Tier int

const (
	// TierFull is the primary model at its configured RAU depth.
	TierFull Tier = iota
	// TierReducedRAU is the same weights run with fewer RAU iterations —
	// cheaper and numerically more conservative.
	TierReducedRAU
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
	case TierReducedRAU:
		return "reduced-rau"
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
// guard: no admission gate, no breakers, no pinned reload probe.
type Options struct {
	// ReducedRAUIterations is the RAU depth of the middle tier
	// (<= 0 means 2).
	ReducedRAUIterations int
	// Deadline bounds the wall clock spent per request — both waiting in
	// the admission queue and running the neural tiers; once exceeded,
	// queued requests are shed and admitted ones fall through to ECMP.
	// 0 disables the deadline.
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

	// BreakerThreshold trips a neural tier's circuit breaker open after
	// this many consecutive failures (timeout, panic, invalid output) on
	// that tier; while open the tier is skipped without spending latency
	// budget. 0 disables the breakers.
	BreakerThreshold int
	// BreakerCooloff is how long a tripped tier stays open before a
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
	CacheEntries int
	// CacheQuantum is the relative TM quantization step for cache keys
	// (0 means DefaultCacheQuantum, 0.01). Colliding demands differ per
	// flow by at most ~CacheQuantum of the peak demand, so the served
	// answer's MLU is within an O(CacheQuantum) relative factor of fresh
	// inference.
	CacheQuantum float64

	// OOD, when set, classifies every request's input statistics against
	// a trained-profile envelope (ood.go) and demotes deviants: suspect
	// requests skip the full-RAU tier, hostile requests skip every
	// neural tier and bypass the split cache in both directions. Nil
	// disables the guard (one nil check on the serve path, no atomics).
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
	// Degraded lists, in order, why each higher tier was abandoned.
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

	// models is the current serving generation (full + reduced pair).
	// Serve loads it exactly once per request, so Reload's atomic Store
	// never mixes generations within a request.
	models atomic.Pointer[modelPair]

	// reg is the registry EnableTelemetry attached (nil when disabled);
	// Reload re-attaches it to freshly loaded models.
	reg *obs.Registry
	// tel carries the optional telemetry instruments (EnableTelemetry);
	// nil disables them. All serverTelemetry methods are nil-safe.
	tel *serverTelemetry

	// Admission gate (admission.go). sem is nil when MaxConcurrent == 0.
	sem      chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool
	drainCh  chan struct{} // closed when draining starts; wakes queued waiters
	idleCh   chan struct{} // buffered(1); signaled when in-flight hits zero
	sheds    [numShedReasons]atomic.Int64
	drains   atomic.Int64

	// Circuit breakers for the neural tiers (breaker.go); nil when
	// disabled. Indexed by Tier (only TierFull and TierReducedRAU).
	breakers [2]*breaker

	// cache replays vetted TierFull answers (cache.go); nil when
	// Options.CacheEntries == 0.
	cache *SplitCache

	// Reload bookkeeping (reload.go).
	generation     atomic.Int64
	reloads        atomic.Int64
	reloadFailures atomic.Int64

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
	// (labels: tier="full"|"reduced-rau"|"ecmp"|"rejected"|"shed").
	MetricServeRequests = "harp_serve_requests_total"
	// MetricServeSeconds is a per-tier histogram of Serve latency.
	MetricServeSeconds = "harp_serve_seconds"
	// MetricServeRejections counts requests rejected by input validation.
	MetricServeRejections = "harp_serve_rejections_total"
	// MetricServeDeadlineExpirations counts neural tiers abandoned
	// because the per-request wall-clock budget ran out.
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

	// MetricBreakerState gauges each neural tier's breaker state
	// (labels: tier; 0=closed, 1=half-open, 2=open).
	MetricBreakerState = "harp_serve_breaker_state"
	// MetricBreakerTrips counts breaker open transitions per tier.
	MetricBreakerTrips = "harp_serve_breaker_trips_total"
	// MetricBreakerShortCircuits counts requests that skipped a tier
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
	// MetricOODDemotions counts requests denied their normal tier by the
	// OOD guard (labels: verdict="suspect"|"hostile").
	MetricOODDemotions = "harp_ood_demotions_total"
	// MetricOODCacheBypasses counts requests that skipped the split
	// cache (reads and writes) because of their verdict.
	MetricOODCacheBypasses = "harp_ood_cache_bypasses_total"
)

// serverTelemetry is the registry-backed half of the tier bookkeeping.
// Nil disables it; every method no-ops on a nil receiver.
type serverTelemetry struct {
	requests  [numTiers]*obs.Counter
	latency   [numTiers]*obs.Histogram
	rejects   *obs.Counter
	deadlines *obs.Counter
	panics    *obs.Counter

	sheds         [numShedReasons]*obs.Counter
	drainsStarted *obs.Counter

	breakerTrips  [2]*obs.Counter
	breakerShorts [2]*obs.Counter

	reloadOK   *obs.Counter
	reloadErr  *obs.Counter
	generation *obs.Gauge

	oodVerdicts  [numOODVerdicts]*obs.Counter
	oodDemotions [numOODVerdicts]*obs.Counter
	oodBypasses  *obs.Counter
}

func newServerTelemetry(reg *obs.Registry) *serverTelemetry {
	if reg == nil {
		return nil
	}
	t := &serverTelemetry{
		rejects: reg.Counter(MetricServeRejections,
			"Requests rejected by input validation (no splits produced)."),
		deadlines: reg.Counter(MetricServeDeadlineExpirations,
			"Neural serving tiers abandoned on the per-request deadline."),
		panics: reg.Counter(MetricServePanicRecoveries,
			"Panics recovered and converted into tier degradations."),
		drainsStarted: reg.Counter(MetricServeDrains,
			"Graceful drains initiated."),
		reloadOK: reg.Counter(MetricModelReloads,
			"Model reload attempts by outcome.", obs.L("result", "ok")),
		reloadErr: reg.Counter(MetricModelReloads,
			"Model reload attempts by outcome.", obs.L("result", "error")),
		generation: reg.Gauge(MetricModelGeneration,
			"Serving model generation (successful reloads applied)."),
	}
	for tier := Tier(0); tier < numTiers; tier++ {
		l := obs.L("tier", tier.String())
		t.requests[tier] = reg.Counter(MetricServeRequests,
			"Serve calls by the fallback-chain tier that answered.", l)
		t.latency[tier] = reg.Histogram(MetricServeSeconds,
			"Serve wall-clock latency by answering tier.", nil, l)
	}
	for r := 0; r < numShedReasons; r++ {
		t.sheds[r] = reg.Counter(MetricServeShed,
			"Requests turned away by admission control, by reason.",
			obs.L("reason", shedReasonLabel(r)))
	}
	for i, tier := range []Tier{TierFull, TierReducedRAU} {
		l := obs.L("tier", tier.String())
		t.breakerTrips[i] = reg.Counter(MetricBreakerTrips,
			"Circuit-breaker open transitions per neural tier.", l)
		t.breakerShorts[i] = reg.Counter(MetricBreakerShortCircuits,
			"Requests that skipped a neural tier on an open breaker.", l)
	}
	for v := OODVerdict(0); v < numOODVerdicts; v++ {
		t.oodVerdicts[v] = reg.Counter(MetricOODRequests,
			"Requests classified by the OOD guard, by verdict.",
			obs.L("verdict", v.String()))
	}
	for _, v := range []OODVerdict{OODSuspect, OODHostile} {
		t.oodDemotions[v] = reg.Counter(MetricOODDemotions,
			"Requests denied their normal serving tier by the OOD guard.",
			obs.L("verdict", v.String()))
	}
	t.oodBypasses = reg.Counter(MetricOODCacheBypasses,
		"Requests that skipped the split cache on an OOD verdict.")
	return t
}

func (t *serverTelemetry) record(tier Tier, elapsed time.Duration) {
	if t == nil {
		return
	}
	t.requests[tier].Inc()
	t.latency[tier].Observe(elapsed.Seconds())
	if tier == TierRejected {
		t.rejects.Inc()
	}
}

func (t *serverTelemetry) deadlineExpired() {
	if t != nil {
		t.deadlines.Inc()
	}
}

func (t *serverTelemetry) panicRecovered() {
	if t != nil {
		t.panics.Inc()
	}
}

func (t *serverTelemetry) oodClassified(v OODVerdict) {
	if t != nil {
		t.oodVerdicts[v].Inc()
	}
}

func (t *serverTelemetry) oodDemoted(v OODVerdict) {
	if t != nil {
		t.oodDemotions[v].Inc()
	}
}

func (t *serverTelemetry) oodCacheBypassed() {
	if t != nil {
		t.oodBypasses.Inc()
	}
}

func (t *serverTelemetry) shedRecorded(reason int) {
	if t != nil {
		t.sheds[reason].Inc()
	}
}

func (t *serverTelemetry) drainStarted() {
	if t != nil {
		t.drainsStarted.Inc()
	}
}

func (t *serverTelemetry) breakerTripped(idx int) {
	if t != nil {
		t.breakerTrips[idx].Inc()
	}
}

func (t *serverTelemetry) breakerShortCircuited(idx int) {
	if t != nil {
		t.breakerShorts[idx].Inc()
	}
}

func (t *serverTelemetry) reloadRecorded(ok bool) {
	if t == nil {
		return
	}
	if ok {
		t.reloadOK.Inc()
	} else {
		t.reloadErr.Inc()
	}
}

func (t *serverTelemetry) generationChanged(gen int64) {
	if t != nil {
		t.generation.Set(float64(gen))
	}
}

// EnableTelemetry attaches serving telemetry to the server: per-tier
// request counters and latency histograms; rejection / deadline /
// panic-recovery / shed / breaker / reload counters; and gauges for queue
// depth, in-flight requests, breaker states, and the model generation
// (the Metric* constants). It also enables forward-pass stage tracing on
// both the full and reduced models, and Reload re-attaches the same
// registry to freshly loaded models. Call it before serving starts;
// passing nil detaches the counters (gauges registered earlier keep
// reading the server's state).
func (s *Server) EnableTelemetry(reg *obs.Registry) {
	s.reg = reg
	s.tel = newServerTelemetry(reg)
	if reg == nil {
		return
	}
	pair := s.models.Load()
	pair.full.EnableTelemetry(reg)
	pair.reduced.EnableTelemetry(reg)
	reg.GaugeFunc(MetricServeQueueDepth,
		"Requests waiting for an admission slot.",
		func() float64 { return float64(s.queued.Load()) })
	reg.GaugeFunc(MetricServeInflight,
		"Admitted or queued requests currently inside the server.",
		func() float64 { return float64(s.inflight.Load()) })
	for i, tier := range []Tier{TierFull, TierReducedRAU} {
		b := s.breakers[i]
		reg.GaugeFunc(MetricBreakerState,
			"Circuit-breaker state per neural tier (0=closed, 1=half-open, 2=open).",
			func() float64 { st, _, _ := b.snapshot(); return float64(st) },
			obs.L("tier", tier.String()))
	}
	if c := s.cache; c != nil {
		reg.GaugeFunc(MetricSplitCacheHits,
			"Split-cache hits served with zero inference.",
			func() float64 { return float64(c.stats().Hits) })
		reg.GaugeFunc(MetricSplitCacheMisses,
			"Split-cache misses (request fell through to inference).",
			func() float64 { return float64(c.stats().Misses) })
		reg.GaugeFunc(MetricSplitCacheEvictions,
			"Split-cache LRU evictions.",
			func() float64 { return float64(c.stats().Evictions) })
		reg.GaugeFunc(MetricSplitCacheSize,
			"Split-cache entries currently resident.",
			func() float64 { return float64(c.stats().Size) })
	}
	s.tel.generationChanged(s.generation.Load())
}

// NewServer builds a Server over m. The model is used read-only; training
// m further between requests is allowed (the reduced tier aliases the same
// weights).
func NewServer(m *core.Model, opts Options) *Server {
	if opts.ReducedRAUIterations <= 0 {
		opts.ReducedRAUIterations = 2
	}
	if opts.ReducedRAUIterations > m.Cfg.RAUIterations {
		opts.ReducedRAUIterations = m.Cfg.RAUIterations
	}
	s := &Server{
		opts:    opts,
		drainCh: make(chan struct{}),
		idleCh:  make(chan struct{}, 1),
	}
	s.models.Store(&modelPair{
		full:    m,
		reduced: m.WithRAUIterations(opts.ReducedRAUIterations),
	})
	if opts.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, opts.MaxConcurrent)
	}
	for i := range s.breakers {
		s.breakers[i] = newBreaker(opts.BreakerThreshold, opts.BreakerCooloff)
	}
	if opts.CacheEntries > 0 {
		s.cache = newSplitCache(opts.CacheEntries, opts.CacheQuantum)
	}
	return s
}

// ValidateInput checks everything Serve assumes about a request: a
// consistent problem (graph, tunnel set, positive finite capacities,
// tunnel edge ids in range) and a demand vector of exactly one finite,
// non-negative entry per flow. All failures wrap ErrInvalidInput.
func ValidateInput(p *te.Problem, demand *tensor.Dense) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidInput, fmt.Sprintf(format, args...))
	}
	if p == nil || p.Graph == nil || p.Tunnels == nil {
		return fail("nil problem, graph or tunnel set")
	}
	if p.Graph.NumEdges() == 0 {
		return fail("topology has no links")
	}
	if p.Tunnels.K <= 0 {
		return fail("tunnel set has K=%d", p.Tunnels.K)
	}
	if p.NumFlows() == 0 {
		return fail("tunnel set has no flows")
	}
	if len(p.Tunnels.PerFlow) != p.NumFlows() {
		return fail("tunnel set lists %d flows but has paths for %d", p.NumFlows(), len(p.Tunnels.PerFlow))
	}
	for i, e := range p.Graph.Edges {
		if !(e.Capacity > 0) || math.IsInf(e.Capacity, 0) {
			return fail("link %d (%d->%d) has capacity %v", i, e.Src, e.Dst, e.Capacity)
		}
	}
	numEdges := p.Graph.NumEdges()
	for f, paths := range p.Tunnels.PerFlow {
		if len(paths) != p.Tunnels.K {
			return fail("flow %d has %d tunnels, want K=%d", f, len(paths), p.Tunnels.K)
		}
		for k, tun := range paths {
			if len(tun.Edges) == 0 {
				return fail("flow %d tunnel %d is empty", f, k)
			}
			for _, e := range tun.Edges {
				if e < 0 || e >= numEdges {
					return fail("flow %d tunnel %d references link %d, topology has %d", f, k, e, numEdges)
				}
			}
		}
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

// Serve produces split ratios for the request, degrading through the
// fallback chain as needed. On any non-rejected, non-shed return,
// Decision.Splits is a finite F×K matrix whose rows each sum to 1.
func (s *Server) Serve(p *te.Problem, demand *tensor.Dense) Decision {
	return s.serveOuter(nil, p, demand)
}

// ServeCtx is Serve with request-trace propagation: when ctx carries a
// reqtrace span (reqtrace.StartTrace / fleet dispatch), the serving
// chain annotates it with admission, cache, tier, and inference-stage
// spans. With no span in ctx it is exactly Serve — the disabled-tracing
// path allocates nothing.
func (s *Server) ServeCtx(ctx context.Context, p *te.Problem, demand *tensor.Dense) Decision {
	return s.serveOuter(reqtrace.FromContext(ctx), p, demand)
}

func (s *Server) serveOuter(sp *reqtrace.Span, p *te.Problem, demand *tensor.Dense) Decision {
	start := time.Now()
	dec, admitted := s.admit(start, sp)
	if !admitted {
		return dec
	}
	defer s.release()
	return s.serve(start, p, demand, sp)
}

// tierSpanName maps neural tiers to constant span names, so opening a
// tier span never concatenates strings on the serve path.
func tierSpanName(t Tier) string {
	if t == TierFull {
		return "tier.full"
	}
	return "tier.reduced-rau"
}

// serve runs the guarded fallback chain for one admitted request.
func (s *Server) serve(start time.Time, p *te.Problem, demand *tensor.Dense, sp *reqtrace.Span) Decision {
	if err := ValidateInput(p, demand); err != nil {
		s.record(TierRejected, start)
		sp.SetError(err)
		return Decision{Tier: TierRejected, Err: err}
	}
	// OOD classification before any shared state is touched: a hostile
	// request must not read the split cache (stale shared matrices) and
	// must not reach the tiers that would write it (cache poisoning).
	// Disabled, this is one nil pointer check.
	verdict := OODInProfile
	if g := s.opts.OOD; g != nil {
		verdict = g.Classify(p, demand)
		s.tel.oodClassified(verdict)
		if verdict != OODInProfile {
			sp.Annotate("ood", verdict.String())
			sp.ForceRetain("ood")
			g.demoted(verdict)
			s.tel.oodDemoted(verdict)
		}
	}
	// Cache probe before any model work: a hit replays a previously vetted
	// TierFull answer with zero inference and zero allocations. The cached
	// matrix is shared read-only (see cache.go). Out-of-profile requests
	// skip the probe entirely — and, because they never reach TierFull,
	// the put below as well.
	if s.cache != nil {
		if verdict != OODInProfile {
			s.opts.OOD.bypassedCache()
			s.tel.oodCacheBypassed()
			sp.Annotate("cache", "ood-bypass")
		} else {
			if splits := s.cache.get(p, demand); splits != nil {
				s.record(TierCached, start)
				sp.Annotate("cache", "hit")
				s.offerQuality(p, demand, splits)
				return Decision{Splits: splits, Tier: TierCached}
			}
			sp.Annotate("cache", "miss")
			if sp != nil {
				topo, tm := CacheKey(p, demand, s.opts.CacheQuantum)
				sp.AnnotateInt("cache_key_topo", int64(topo))
				sp.AnnotateInt("cache_key_tm", int64(tm))
			}
		}
	}
	dec := Decision{OOD: verdict}
	budget := func() (time.Duration, bool) {
		if s.opts.Deadline <= 0 {
			return 0, true
		}
		left := s.opts.Deadline - time.Since(start)
		return left, left > 0
	}

	// One pointer load pins this request's model generation: a Reload
	// mid-request swaps the pair out from under later requests only.
	pair := s.models.Load()
	ctx, err := s.contextFor(pair.full, p)
	if err != nil {
		dec.Degraded = append(dec.Degraded, fmt.Sprintf("context: %v", err))
	} else {
		for i, tier := range [...]struct {
			t Tier
			m *core.Model
		}{{TierFull, pair.full}, {TierReducedRAU, pair.reduced}} {
			if verdict == OODHostile || (verdict == OODSuspect && tier.t == TierFull) {
				dec.Degraded = append(dec.Degraded, fmt.Sprintf("%v: ood %s", tier.t, verdict))
				continue
			}
			left, ok := budget()
			if !ok {
				s.tel.deadlineExpired()
				dec.Degraded = append(dec.Degraded, fmt.Sprintf("%v: deadline exceeded", tier.t))
				continue
			}
			if !s.breakers[i].allow() {
				s.tel.breakerShortCircuited(i)
				dec.Degraded = append(dec.Degraded, fmt.Sprintf("%v: circuit open", tier.t))
				continue
			}
			tsp := sp.StartChild(tierSpanName(tier.t))
			splits, err := s.safeInfer(tier.m, ctx, p, demand, left, tsp)
			if err != nil {
				if s.breakers[i].onFailure() {
					s.tel.breakerTripped(i)
				}
				tsp.SetError(err)
				tsp.End()
				dec.Degraded = append(dec.Degraded, fmt.Sprintf("%v: %v", tier.t, err))
				continue
			}
			tsp.End()
			s.breakers[i].onSuccess()
			if tier.t == TierFull && s.cache != nil {
				s.cache.put(p, demand, splits)
			}
			dec.Splits, dec.Tier = splits, tier.t
			s.record(tier.t, start)
			s.annotateOutcome(sp, &dec)
			s.offerQuality(p, demand, splits)
			return dec
		}
	}

	// Terminal tier: uniform splits rescaled off failed tunnels. Pure
	// arithmetic on validated inputs — cannot fail.
	dec.Splits = te.NormalizeRows(te.Rescale(p, p.UniformSplits()))
	dec.Tier = TierECMP
	s.record(TierECMP, start)
	s.annotateOutcome(sp, &dec)
	s.offerQuality(p, demand, dec.Splits)
	return dec
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
			s.tel.panicRecovered()
			ctx, err = nil, fmt.Errorf("panic building context: %v", r)
		}
	}()
	ctx = m.Context(p)
	s.cacheMu.Lock()
	s.lastFP, s.lastProb, s.lastCtx = fp, p, ctx
	s.cacheMu.Unlock()
	return ctx, nil
}

// safeInfer runs one model tier under a recover guard and a wall-clock
// budget, then vets the output. On timeout the inference goroutine is
// abandoned (it finishes in the background; its result is discarded, but
// it keeps annotating sp — the recorder tolerates that, and the span
// shows up unfinished in a dump taken mid-flight).
func (s *Server) safeInfer(m *core.Model, ctx *core.Context, p *te.Problem, demand *tensor.Dense, budget time.Duration, sp *reqtrace.Span) (*tensor.Dense, error) {
	type result struct {
		splits *tensor.Dense
		err    error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				s.tel.panicRecovered()
				ch <- result{err: fmt.Errorf("inference panic: %v", r)}
			}
		}()
		ch <- result{splits: m.SplitsSpan(sp, ctx, demand)}
	}()
	var r result
	if budget > 0 {
		timer := time.NewTimer(budget)
		defer timer.Stop()
		select {
		case r = <-ch:
		case <-timer.C:
			s.tel.deadlineExpired()
			return nil, fmt.Errorf("deadline exceeded after %v", budget)
		}
	} else {
		r = <-ch
	}
	if r.err != nil {
		return nil, r.err
	}
	return vetSplits(p, r.splits)
}

// VetSplits verifies a serving answer is shaped F×K, finite and
// non-negative, and row-normalized (renormalizing in place when the sums
// have merely drifted). It is the same vetting Serve applies to its own
// inference output, exported so a dispatcher fronting remote or faulty
// replicas (internal/fleet) can refuse byzantine answers it did not
// compute locally.
func VetSplits(p *te.Problem, splits *tensor.Dense) (*tensor.Dense, error) {
	return vetSplits(p, splits)
}

// vetSplits verifies an inference output is shaped F×K, finite and
// non-negative, and row-normalized (renormalizing when the sums have
// merely drifted). It returns the vetted matrix or an error.
func vetSplits(p *te.Problem, splits *tensor.Dense) (*tensor.Dense, error) {
	if splits == nil {
		return nil, errors.New("nil splits")
	}
	if splits.Rows != p.NumFlows() || splits.Cols != p.Tunnels.K {
		return nil, fmt.Errorf("splits shape %dx%d, want %dx%d",
			splits.Rows, splits.Cols, p.NumFlows(), p.Tunnels.K)
	}
	for i, v := range splits.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("non-finite split %v at index %d", v, i)
		}
		if v < 0 {
			if v < -1e-9 {
				return nil, fmt.Errorf("negative split %v at index %d", v, i)
			}
			splits.Data[i] = 0
		}
	}
	renorm := false
	for f := 0; f < splits.Rows; f++ {
		var sum float64
		for _, v := range splits.Row(f) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			renorm = true
			break
		}
	}
	if renorm {
		te.NormalizeRows(splits)
	}
	return splits, nil
}

// record tallies one answered request: the authoritative per-tier counts
// under statMu, mirrored into the registry instruments when telemetry is
// enabled, and scored against the serving SLOs when attached.
func (s *Server) record(t Tier, start time.Time) {
	elapsed := time.Since(start)
	s.statMu.Lock()
	s.counts[t]++
	s.statMu.Unlock()
	s.tel.record(t, elapsed)
	s.opts.SLO.recordServe(t, elapsed)
}

// TierCounts returns how many requests each tier has served since the
// server was created. The tally is copied under a single lock
// acquisition, so the returned map is a consistent snapshot: its values
// sum to the exact number of Serve calls recorded at that instant, even
// while other goroutines keep serving.
func (s *Server) TierCounts() map[Tier]int64 {
	s.statMu.Lock()
	snap := s.counts
	s.statMu.Unlock()
	out := make(map[Tier]int64, numTiers)
	for t := Tier(0); t < numTiers; t++ {
		out[t] = snap[t]
	}
	return out
}
