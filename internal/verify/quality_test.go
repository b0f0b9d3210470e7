package verify

import (
	"bytes"
	"strings"
	"testing"

	"harpte/internal/lp"
	"harpte/internal/obs"
	"harpte/internal/tensor"
)

// TestQualityMonitorScoresOptimalAsOne: feeding the simplex optimum back
// to the monitor must score a ratio of ~1 and land in the lowest histogram
// buckets, all within the quality objective's 1.25 bucket.
func TestQualityMonitorScoresOptimalAsOne(t *testing.T) {
	p, d := randomInstance(3, 3)
	opt, err := lp.SolveWithOptions(p, d, lp.Options{Method: "simplex"})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQualityMonitor(QualityOptions{SampleEvery: 2})
	defer q.Close()
	reg := obs.NewRegistry()
	q.EnableTelemetry(reg)
	for i := 0; i < 8; i++ {
		q.Offer(p, d, opt.Splits)
	}
	q.Drain()

	st := q.Stats()
	if st.Offered != 8 || st.Sampled != 4 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want offered 8 / sampled 4 / dropped 0", st)
	}
	if st.WorstRatio < 0.999 || st.WorstRatio > 1.001 {
		t.Fatalf("optimal splits scored worst ratio %v, want ~1", st.WorstRatio)
	}
	out := exposition(t, reg)
	for _, want := range []string{
		MetricQualityMLURatio + `_bucket{le="1.02"} 4`,
		MetricQualityMLURatio + `_bucket{le="1.25"} 4`,
		MetricQualityMLURatio + `_count 4`,
		MetricQualitySamples + " 4",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition lacks %q:\n%s", want, out)
		}
	}
}

// exposition renders reg in the Prometheus text format.
func exposition(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestQualityMonitorFlagsRegression: uniform (ECMP-style) splits on a
// skewed instance must score a ratio meaningfully above 1 and land past
// the quality objective's 1.25 bucket.
func TestQualityMonitorFlagsRegression(t *testing.T) {
	// Scan instances for one where uniform splits are notably suboptimal.
	for i := 0; i < 12; i++ {
		p, d := randomInstance(i, 4)
		uniform := tensor.New(p.NumFlows(), p.Tunnels.K)
		for f := 0; f < p.NumFlows(); f++ {
			for j := 0; j < p.Tunnels.K; j++ {
				uniform.Set(f, j, 1/float64(p.Tunnels.K))
			}
		}
		opt, err := lp.SolveWithOptions(p, d, lp.Options{Method: "simplex"})
		if err != nil || opt.MLU <= 0 {
			continue
		}
		trueRatio := p.MLU(uniform, d) / opt.MLU
		if trueRatio < 1.3 {
			continue
		}
		q := NewQualityMonitor(QualityOptions{SampleEvery: 1})
		defer q.Close()
		reg := obs.NewRegistry()
		q.EnableTelemetry(reg)
		q.Offer(p, d, uniform)
		q.Drain()
		if got := q.Stats().WorstRatio; got < 1.3 {
			t.Fatalf("monitor scored %v, direct computation says %v", got, trueRatio)
		}
		out := exposition(t, reg)
		for _, want := range []string{
			MetricQualityMLURatio + `_bucket{le="1.25"} 0`,
			MetricQualityMLURatio + `_count 1`,
		} {
			if !strings.Contains(out, want+"\n") {
				t.Fatalf("ratio past objective 1.25: exposition lacks %q:\n%s", want, out)
			}
		}
		return
	}
	t.Fatal("no instance with suboptimal uniform splits found")
}

// TestQualityMonitorNilAndDrop: nil monitors ignore offers; a full queue
// sheds instead of blocking the caller.
func TestQualityMonitorNilAndDrop(t *testing.T) {
	var q *QualityMonitor
	q.Offer(nil, nil, nil)
	q.Drain()
	q.Close()
	if st := q.Stats(); st != (QualityStats{}) {
		t.Fatalf("nil stats = %+v", st)
	}

	p, d := randomInstance(1, 3)
	opt := lp.Solve(p, d)
	// Worker is busy only after it pulls a sample; use depth 1 and flood.
	qm := NewQualityMonitor(QualityOptions{SampleEvery: 1, QueueDepth: 1})
	defer qm.Close()
	for i := 0; i < 64; i++ {
		qm.Offer(p, d, opt.Splits)
	}
	qm.Drain()
	st := qm.Stats()
	if st.Sampled+st.Dropped != 64 {
		t.Fatalf("sampled %d + dropped %d != 64", st.Sampled, st.Dropped)
	}
	if st.Sampled == 0 {
		t.Fatal("everything dropped — queue never accepted a sample")
	}
}
