package obs

import (
	"io"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.Gauge("queue_depth", "depth")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}

	h := r.Histogram("latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("hist count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 0.005+0.05+0.5+5; got != want {
		t.Fatalf("hist sum = %v, want %v", got, want)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("tier", "full"))
	b := r.Counter("x_total", "x", L("tier", "full"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	other := r.Counter("x_total", "x", L("tier", "ecmp"))
	if a == other {
		t.Fatal("different labels must return a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge should panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestNilRegistryAndHandlesAreSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", nil)
	r.GaugeFunc("f", "f", func() float64 { return 1 })
	r.CounterFunc("f_total", "f", func() float64 { return 1 })
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if diff := b[i]/want[i] - 1; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}
