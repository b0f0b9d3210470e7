package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird_total", "has \\ and \"quotes\"\nand newlines",
		L("path", `C:\tmp`), L("msg", "say \"hi\"\nbye")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP weird_total has \\ and "quotes"\nand newlines`) {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `weird_total{msg="say \"hi\"\nbye",path="C:\\tmp"} 1`) {
		t.Fatalf("label values not escaped (or labels not key-sorted):\n%s", out)
	}
	// No raw (unescaped) newline may survive inside a sample line.
	for _, line := range strings.Split(out, "\n") {
		if strings.Count(line, `"`)%2 != 0 {
			t.Fatalf("line with unbalanced quotes (raw newline leaked?): %q", line)
		}
	}
}

// TestFuncSeries: CounterFunc and GaugeFunc are read at scrape time, typed
// as registered, and a second function on one series adds to the first —
// N sources on one registry expose their sum, never just the last.
func TestFuncSeries(t *testing.T) {
	r := NewRegistry()
	var a, b atomic.Int64
	for _, v := range []*atomic.Int64{&a, &b} {
		v := v
		r.CounterFunc("hits_total", "hits", func() float64 { return float64(v.Load()) })
		r.GaugeFunc("depth", "depth", func() float64 { return float64(v.Load()) }, L("q", "x"))
	}
	a.Store(2)
	b.Store(5)
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE hits_total counter\nhits_total 7\n",
		"# TYPE depth gauge\ndepth{q=\"x\"} 7\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, out.String())
		}
	}
	var none *Registry
	none.CounterFunc("hits_total", "hits", func() float64 { panic("called on a nil registry") })
	out.Reset()
	if err := none.WritePrometheus(&out); err != nil || out.Len() != 0 {
		t.Fatalf("nil registry wrote %q (err %v)", out.String(), err)
	}
}

// TestHistogramCumulativeInvariant checks the text-format contract:
// buckets are cumulative and non-decreasing in le order, the +Inf bucket
// equals _count, and every observation lands in the right bucket.
func TestHistogramCumulativeInvariant(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.001, 0.01, 0.1, 1}, L("tier", "full"))
	obs := []float64{0.0005, 0.002, 0.002, 0.05, 0.5, 2, 3}
	for _, v := range obs {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}

	type bucket struct {
		le  string
		cum float64
	}
	var buckets []bucket
	var count float64 = -1
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "lat_seconds_bucket{"):
			le := line[strings.Index(line, `le="`)+4:]
			le = le[:strings.Index(le, `"`)]
			v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			buckets = append(buckets, bucket{le, v})
		case strings.HasPrefix(line, "lat_seconds_count{"):
			count, _ = strconv.ParseFloat(strings.Fields(line)[1], 64)
		}
	}
	if len(buckets) != 5 {
		t.Fatalf("got %d buckets, want 5 (4 finite + +Inf)", len(buckets))
	}
	wantCum := []float64{1, 3, 4, 5, 7} // cumulative counts of obs above
	for i, bk := range buckets {
		if bk.cum != wantCum[i] {
			t.Fatalf("bucket le=%s cumulative = %v, want %v", bk.le, bk.cum, wantCum[i])
		}
		if i > 0 && bk.cum < buckets[i-1].cum {
			t.Fatalf("bucket le=%s decreases: %v < %v", bk.le, bk.cum, buckets[i-1].cum)
		}
	}
	if buckets[4].le != "+Inf" {
		t.Fatalf("last bucket le = %s, want +Inf", buckets[4].le)
	}
	if count != float64(len(obs)) || buckets[4].cum != count {
		t.Fatalf("+Inf bucket %v and _count %v must both equal %d", buckets[4].cum, count, len(obs))
	}
}

// TestConcurrentScrapeWhileWrite hammers every instrument kind from
// writer goroutines while readers scrape the exposition, so `go test
// -race ./internal/obs` proves a scrape never races a metric write.
func TestConcurrentScrapeWhileWrite(t *testing.T) {
	r := NewRegistry()
	var fnVal sync.Map
	fnVal.Store("v", float64(0))
	r.GaugeFunc("fn_gauge", "fn", func() float64 {
		v, _ := fnVal.Load("v")
		return v.(float64)
	})
	const writers, iters = 4, 500
	var wg sync.WaitGroup
	for wkr := 0; wkr < writers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			// Mix pre-registered and registered-on-the-fly instruments so
			// the scrape also races family/metric registration.
			c := r.Counter("w_total", "w", L("w", fmt.Sprint(wkr)))
			g := r.Gauge("w_gauge", "w")
			h := r.Histogram("w_seconds", "w", nil, L("w", fmt.Sprint(wkr)))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i) * 1e-4)
				fnVal.Store("v", float64(i))
				r.Counter("late_total", "late", L("i", fmt.Sprint(i%7))).Inc()
			}
		}(wkr)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), fmt.Sprintf(`w_total{w="0"} %d`, iters)) {
		t.Fatalf("final exposition missing writer-0 count:\n%s", b.String())
	}
}
