// Package reqtrace provides per-request causal tracing for the serving
// stack: 64-bit trace/span IDs, parent links, typed annotations, and a
// fixed-size ring-buffer flight recorder with tail-based sampling.
//
// A request's root span is opened by Recorder.StartTrace and propagated
// through the serving layers via context.Context (fleet dispatch →
// admission → tier selection → forward stages). Each layer attaches child
// spans and annotations; when the root span ends, the
// recorder decides — with the whole trace in hand, hence "tail-based" —
// whether to retain it:
//
//   - always retain traces flagged interesting (errors, sheds, vet
//     failures, hedge wins, degradations — anything that called
//     ForceRetain or SetError);
//   - always retain traces slower than the rolling p99 of recent roots;
//   - keep 1 in Options.SampleEvery of the boring remainder.
//
// Retained traces land in a fixed-size lock-free ring (new traces
// overwrite the oldest), exported as JSON by WriteJSON — the admin
// endpoint's /debug/traces route and tereplay's -trace-dump flag.
//
// The spans are also the stack's one stage timer: with a registry attached
// (Recorder.EnableTelemetry) every span's End observes its duration into
// harp_request_stage_seconds{stage="<span name>"}, whether or not the
// trace is retained, so a /metrics scrape and a trace dump are the same
// measurement.
//
// The package follows the repo's nil-safety discipline: a nil *Recorder
// and a nil *Span make every method a no-op, so instrumented code calls
// them unconditionally. With tracing disabled the serve path performs no
// clock reads and no allocations on its account (pinned by
// TestTraceDisabledZeroAllocs in internal/resilience); with it enabled,
// overhead is bounded — spans append under one per-trace mutex and the
// ring holds at most Capacity traces.
package reqtrace

import (
	"context"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"harpte/internal/obs"
)

// MetricRequestStageSeconds is the histogram family every ended span
// observes its duration into once a registry is attached (label:
// stage="<span name>", e.g. "fleet.dispatch", "tier.full", "forward.rau").
const MetricRequestStageSeconds = "harp_request_stage_seconds"

// TraceID identifies one request trace; SpanID one span within it. Span
// IDs are dense (1, 2, ...) per trace; the root span is always ID 1.
type (
	TraceID uint64
	SpanID  uint64
)

// Options configures a Recorder. The zero value gives the documented
// defaults.
type Options struct {
	// Capacity is the flight-recorder ring size in traces (default 256).
	// New retained traces overwrite the oldest.
	Capacity int
	// SampleEvery keeps 1 in N boring traces — traces that are neither
	// flagged interesting nor p99-slow (default 64; 1 keeps everything).
	SampleEvery int
}

const (
	defaultCapacity    = 256
	defaultSampleEvery = 64
	// slowQuantile is the rolling root-duration quantile above which a
	// trace is retained as slow.
	slowQuantile = 0.99
	// slowMinSamples roots must finish before the slow threshold
	// activates, and the threshold is refreshed every slowRefreshEvery
	// finishes — a full sort per request would be disproportionate.
	slowMinSamples   = 64
	slowRefreshEvery = 32
	slowWindow       = 256
)

// Recorder is the flight recorder: ID generation, tail-sampling policy,
// and the retained-trace ring. Safe for concurrent use; a nil *Recorder
// disables everything.
type Recorder struct {
	capacity    int
	sampleEvery uint64

	seq    atomic.Uint64 // trace-ID sequence (mixed through splitmix64)
	boring atomic.Uint64 // boring-trace counter for the 1-in-N sampler
	cursor atomic.Uint64 // next ring slot
	slots  []atomic.Pointer[trace]

	retained atomic.Int64
	dropped  atomic.Int64

	// Rolling root-duration window for the slow threshold. Touched once
	// per finished trace, under its own mutex.
	durMu  sync.Mutex
	durs   [slowWindow]int64
	durN   int
	durIdx int
	slowNs atomic.Int64 // active p99 threshold in ns; 0 = not yet armed

	// Stage histogram feed (EnableTelemetry); reg nil means off. stages is
	// never nil and copy-on-write — a span name's first End replaces the
	// map under stageMu, every later one is a lock-free lookup.
	reg     *obs.Registry
	stageMu sync.Mutex
	stages  atomic.Pointer[map[string]*obs.Histogram]
}

// NewRecorder builds a flight recorder. Zero Options fields take the
// documented defaults.
func NewRecorder(opts Options) *Recorder {
	if opts.Capacity <= 0 {
		opts.Capacity = defaultCapacity
	}
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = defaultSampleEvery
	}
	r := &Recorder{
		capacity:    opts.Capacity,
		sampleEvery: uint64(opts.SampleEvery),
		slots:       make([]atomic.Pointer[trace], opts.Capacity),
	}
	r.stages.Store(&map[string]*obs.Histogram{})
	return r
}

// EnableTelemetry makes the first End of every span — of every trace,
// retained or not — observe the span's duration into
// MetricRequestStageSeconds{stage=<span name>} on reg. Call it before the
// recorder is in use. No-op on a nil receiver or registry.
func (r *Recorder) EnableTelemetry(reg *obs.Registry) {
	if r != nil {
		r.reg = reg
	}
}

// observeStage feeds one ended span into its stage histogram. Without a
// registry it is one nil check; with one it allocates only the first time
// a name is seen.
func (r *Recorder) observeStage(name string, d time.Duration) {
	if r.reg == nil {
		return
	}
	h := (*r.stages.Load())[name]
	if h == nil {
		h = r.addStage(name)
	}
	h.Observe(d.Seconds())
}

func (r *Recorder) addStage(name string) *obs.Histogram {
	r.stageMu.Lock()
	defer r.stageMu.Unlock()
	next := maps.Clone(*r.stages.Load())
	// One bucket set for every stage, 1 µs to 8 s: a cache-hit dispatch
	// and a KDL plan build land in the same family.
	h := r.reg.Histogram(MetricRequestStageSeconds,
		"Wall-clock seconds per request stage (one observation per ended reqtrace span).",
		obs.ExpBuckets(1e-6, 2, 24), obs.L("stage", name))
	next[name] = h
	r.stages.Store(&next)
	return h
}

// trace is one request's span collection. The mutex guards the span list
// and every span's fields: a hedged request's attempts annotate
// concurrently, and the cancelled loser may still be annotating when the
// winner ends the root — or when WriteJSON exports the published trace.
type trace struct {
	rec *Recorder
	id  TraceID

	mu     sync.Mutex
	spans  []*Span
	nextID SpanID
	retain bool
	reason string
}

func (t *trace) newSpan(parent SpanID, name string) *Span {
	now := time.Now()
	t.mu.Lock()
	t.nextID++
	sp := &Span{tr: t, id: t.nextID, parent: parent, name: name, start: now}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

func (t *trace) forceRetain(reason string) {
	t.mu.Lock()
	if !t.retain {
		t.retain = true
		t.reason = reason
	}
	t.mu.Unlock()
}

// AttrKind types a span annotation's value.
type AttrKind uint8

const (
	KindString AttrKind = iota
	KindInt
	KindFloat
	KindBool
)

// Attr is one typed span annotation.
type Attr struct {
	Key  string
	Kind AttrKind
	Str  string
	Int  int64
	Num  float64
	Bool bool
}

// Span is one timed operation within a trace. All methods are safe on a
// nil receiver (no-ops) and safe for concurrent use.
type Span struct {
	tr     *trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	end    time.Time
	attrs  []Attr
}

// StartTrace opens a new trace rooted at a span called name and returns a
// derived context carrying the root span. On a nil recorder it returns
// (ctx, nil) unchanged. End the returned root span to finish the trace
// and run the retention decision.
func (r *Recorder) StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	if r == nil {
		return ctx, nil
	}
	t := &trace{rec: r, id: TraceID(mix64(r.seq.Add(1)))}
	sp := t.newSpan(0, name)
	return NewContext(ctx, sp), sp
}

type spanKey struct{}

// NewContext returns ctx carrying sp. With a nil span it returns ctx
// unchanged.
func NewContext(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// FromContext returns the span carried by ctx, or nil. It allocates
// nothing: on a context without a span (context.Background() on the
// untraced serve path) it is a single Value lookup returning nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartSpan opens a child of the span carried by ctx, or returns nil when
// ctx carries none.
func StartSpan(ctx context.Context, name string) *Span {
	return FromContext(ctx).StartChild(name)
}

// StartChild opens a child span. Nil-safe.
func (sp *Span) StartChild(name string) *Span {
	if sp == nil {
		return nil
	}
	return sp.tr.newSpan(sp.id, name)
}

// TraceID returns the span's trace ID (0 on nil).
func (sp *Span) TraceID() TraceID {
	if sp == nil {
		return 0
	}
	return sp.tr.id
}

// SpanID returns the span's ID within its trace (0 on nil).
func (sp *Span) SpanID() SpanID {
	if sp == nil {
		return 0
	}
	return sp.id
}

func (sp *Span) annotate(a Attr) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	sp.attrs = append(sp.attrs, a)
	sp.tr.mu.Unlock()
}

// Annotate attaches a string annotation. Nil-safe.
func (sp *Span) Annotate(key, value string) {
	sp.annotate(Attr{Key: key, Kind: KindString, Str: value})
}

// AnnotateInt attaches an integer annotation. Nil-safe.
func (sp *Span) AnnotateInt(key string, value int64) {
	sp.annotate(Attr{Key: key, Kind: KindInt, Int: value})
}

// AnnotateFloat attaches a float annotation. Nil-safe.
func (sp *Span) AnnotateFloat(key string, value float64) {
	sp.annotate(Attr{Key: key, Kind: KindFloat, Num: value})
}

// AnnotateBool attaches a boolean annotation. Nil-safe.
func (sp *Span) AnnotateBool(key string, value bool) {
	sp.annotate(Attr{Key: key, Kind: KindBool, Bool: value})
}

// SetError annotates the span with err and flags the whole trace for
// retention. Nil-safe in both arguments.
func (sp *Span) SetError(err error) {
	if sp == nil || err == nil {
		return
	}
	sp.Annotate("error", err.Error())
	sp.tr.forceRetain("error")
}

// ForceRetain flags the trace for retention regardless of sampling (the
// first reason given sticks). Use it for the always-keep classes: sheds,
// vet failures, hedge wins, degradations. Nil-safe.
func (sp *Span) ForceRetain(reason string) {
	if sp == nil {
		return
	}
	sp.tr.forceRetain(reason)
}

// End closes the span and, with a registry attached, observes its duration
// into the stage histogram. Ending the root span (the one StartTrace
// returned) finishes the trace: the recorder keeps it if it was flagged, is
// p99-slow, or wins the 1-in-SampleEvery lottery, and drops it otherwise.
// Ending a span twice is harmless (the first end time sticks and is
// observed once); child spans may end after their root (a hedge's cancelled
// loser does). Nil-safe.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	t := sp.tr
	t.mu.Lock()
	if !sp.end.IsZero() {
		t.mu.Unlock()
		return
	}
	sp.end = time.Now()
	dur := sp.end.Sub(sp.start)
	t.mu.Unlock()
	t.rec.observeStage(sp.name, dur)
	if sp.id == 1 {
		t.rec.finish(t, dur)
	}
}

// finish runs the tail-based retention decision for a completed trace.
func (r *Recorder) finish(t *trace, rootDur time.Duration) {
	slow := r.observeRoot(rootDur)
	t.mu.Lock()
	keep := t.retain
	if !keep && slow {
		keep, t.retain, t.reason = true, true, "slow"
	}
	t.mu.Unlock()
	if !keep && r.boring.Add(1)%r.sampleEvery == 0 {
		t.mu.Lock()
		t.retain, t.reason = true, "sampled"
		t.mu.Unlock()
		keep = true
	}
	if !keep {
		r.dropped.Add(1)
		return
	}
	r.retained.Add(1)
	slot := (r.cursor.Add(1) - 1) % uint64(r.capacity)
	r.slots[slot].Store(t)
}

// observeRoot records one root duration into the rolling window and
// reports whether it clears the active slow threshold. The threshold is
// refreshed every slowRefreshEvery observations once slowMinSamples have
// accumulated.
func (r *Recorder) observeRoot(d time.Duration) bool {
	thresh := r.slowNs.Load()
	slow := thresh > 0 && int64(d) >= thresh
	r.durMu.Lock()
	r.durs[r.durIdx] = int64(d)
	r.durIdx = (r.durIdx + 1) % slowWindow
	if r.durN < slowWindow {
		r.durN++
	}
	if r.durN >= slowMinSamples && r.durIdx%slowRefreshEvery == 0 {
		sorted := make([]int64, r.durN)
		copy(sorted, r.durs[:r.durN])
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		idx := int(slowQuantile * float64(len(sorted)-1))
		r.slowNs.Store(sorted[idx])
	}
	r.durMu.Unlock()
	return slow
}

// Stats is a point-in-time snapshot of the recorder's sampling outcomes.
// Retained counts traces ever published to the ring (older ones may have
// been overwritten since); Dropped counts traces the sampler discarded.
type Stats struct {
	Retained int64
	Dropped  int64
}

// RecorderStats returns the sampling tallies. Nil-safe.
func (r *Recorder) RecorderStats() Stats {
	if r == nil {
		return Stats{}
	}
	return Stats{Retained: r.retained.Load(), Dropped: r.dropped.Load()}
}

// mix64 is the splitmix64 finalizer — the repo's standard cheap mixer
// (see fleet.shardScore) — turning the sequence counter into well-spread
// trace IDs.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
