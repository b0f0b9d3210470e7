// Package obs is the repo's stdlib-only telemetry layer: a concurrent
// metrics registry (counters, gauges, histograms with exponential latency
// buckets), a structured logger built on log/slog, and an optional admin
// HTTP endpoint exposing Prometheus text-format /metrics, expvar and pprof.
// Stage timing lives in the reqtrace subpackage, whose spans feed a
// histogram family here.
//
// Two properties shape every API here:
//
//   - Nil safety. A nil *Registry hands out nil instrument handles, and
//     every handle method no-ops on a nil receiver. Instrumented code can
//     therefore call c.Inc() or h.Observe(v) unconditionally; the disabled
//     path costs one nil check and allocates nothing, which is what keeps
//     the allocation pins of the zero-alloc training hot path intact.
//
//   - Concurrency. Counters and gauges are lock-free atomics; histograms
//     take a short per-histogram mutex. WritePrometheus snapshots each
//     instrument individually, so scraping while training/serving threads
//     write is race-free (tested under -race).
//
// Metric naming follows Prometheus conventions: snake_case names,
// *_total for counters, *_seconds for latency histograms, and constant
// label sets fixed at registration time.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one constant key="value" pair attached to an instrument at
// registration time.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing int64 instrument.
type Counter struct{ v atomic.Int64 }

// Inc adds 1. Safe on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored — counters only go up). Safe on a nil
// receiver.
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 instrument that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta atomically. Safe on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets and tracks sum/count.
// Buckets are upper bounds (exclusive of +Inf, which is implicit).
type Histogram struct {
	mu     sync.Mutex
	upper  []float64 // sorted ascending, +Inf not included
	counts []uint64  // len(upper)+1; last element is the +Inf overflow
	sum    float64
	count  uint64
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Buckets are few (tens); linear scan beats binary search at this size
	// and keeps the critical section trivially short.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// ObserveSince records the seconds elapsed since t0. Safe on a nil
// receiver (and does not read the clock when disabled — callers that want
// a fully zero-cost disabled path should still gate their time.Now()).
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot copies the histogram state under its lock.
func (h *Histogram) snapshot() (counts []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...), h.sum, h.count
}

// ExpBuckets returns n exponentially growing bucket upper bounds:
// start, start*factor, start*factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets spans 50µs to ~6.5s in doubling steps — wide
// enough for a per-RAU-iteration stage at the bottom and a deadline-bound
// serve request at the top.
func DefaultLatencyBuckets() []float64 { return ExpBuckets(50e-6, 2, 18) }

type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// metric is one instrument plus its rendered label signature. Exactly one
// of counter/gauge/hist is set. fn, when set (CounterFunc / GaugeFunc), is
// added to a counter's or gauge's own value at scrape time; it is written
// and read under the registry lock.
type metric struct {
	sig     string // canonical `k="v",k2="v2"` form (escaped), "" when unlabeled
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family groups every instrument sharing one metric name: they must agree
// on type, help text and (for histograms) buckets, and are exposed under a
// single # HELP/# TYPE header.
type family struct {
	name    string
	help    string
	typ     metricType
	buckets []float64
	metrics []*metric          // registration order
	index   map[string]*metric // label signature -> metric
}

// Registry owns a set of metric families. The zero value is not usable;
// call NewRegistry. A nil *Registry is the disabled state: every
// registration method returns a nil handle and WritePrometheus writes
// nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns (creating if needed) the metric for name+labels,
// panicking on a type/help/buckets conflict — conflicting registrations
// are programmer errors, not runtime conditions.
func (r *Registry) lookup(name, help string, typ metricType, buckets []float64, labels []Label) *metric {
	validateName(name)
	for _, l := range labels {
		validateName(l.Key)
	}
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{
			name: name, help: help, typ: typ,
			buckets: append([]float64(nil), buckets...),
			index:   make(map[string]*metric),
		}
		sort.Float64s(fam.buckets)
		r.families[name] = fam
	} else if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %q already registered as %s, now requested as %s", name, fam.typ, typ))
	}
	if m := fam.index[sig]; m != nil {
		return m
	}
	m := &metric{sig: sig}
	switch typ {
	case typeCounter:
		m.counter = &Counter{}
	case typeGauge:
		m.gauge = &Gauge{}
	case typeHistogram:
		m.hist = &Histogram{
			upper:  fam.buckets,
			counts: make([]uint64, len(fam.buckets)+1),
		}
	}
	fam.metrics = append(fam.metrics, m)
	fam.index[sig] = m
	return m
}

// Counter registers (or retrieves) a counter. Nil receiver returns nil.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeCounter, nil, labels).counter
}

// Gauge registers (or retrieves) a gauge. Nil receiver returns nil.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeGauge, nil, labels).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time. fn must be safe to call concurrently with the writers it reads
// from (use atomics). A series that already has a function reports the sum
// of all of them — N servers on one registry expose their aggregate — so
// each source registers once. No-op on a nil receiver.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.addFunc(name, help, typeGauge, fn, labels)
}

// CounterFunc is GaugeFunc for a series typed counter: a read-through view
// of a monotonic tally its registrant already keeps (an atomic that a
// Stats method reads), for when that registrant is the tally's only source.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.addFunc(name, help, typeCounter, fn, labels)
}

func (r *Registry) addFunc(name, help string, typ metricType, fn func() float64, labels []Label) {
	if r == nil {
		return
	}
	m := r.lookup(name, help, typ, nil, labels)
	r.mu.Lock()
	if prev := m.fn; prev != nil {
		m.fn = func() float64 { return prev() + fn() }
	} else {
		m.fn = fn
	}
	r.mu.Unlock()
}

// Histogram registers (or retrieves) a histogram with the given bucket
// upper bounds (nil means DefaultLatencyBuckets). Nil receiver returns
// nil.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefaultLatencyBuckets()
	}
	return r.lookup(name, help, typeHistogram, buckets, labels).hist
}

// validateName enforces the Prometheus metric/label name charset.
func validateName(name string) {
	if name == "" {
		panic("obs: empty metric or label name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric or label name %q", name))
		}
	}
}

// sortedLabels returns a copy of labels sorted by key.
func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// labelSignature renders the canonical escaped `k="v",…` form used both
// as the dedup key and in the exposition.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := sortedLabels(labels)
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escaping for label
// values: backslash, double-quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp applies the Prometheus escaping for HELP text: backslash and
// newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
