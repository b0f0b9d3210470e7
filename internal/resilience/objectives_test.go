package resilience

import (
	"context"
	"testing"
	"time"

	"harpte/internal/core"
	"harpte/internal/obs"
	"harpte/internal/verify"
)

// TestServingObjectivesFromExposition reads the three serving objectives
// the way RUNBOOK's recording rules do — as ratios over the series the
// process already exports — for a scripted mix on two servers that share
// one registry and one quality monitor:
//
//   - availability: bad = harp_serve_requests_total{tier="shed"}, out of
//     every tier except rejected;
//   - latency: good = harp_serve_seconds_bucket{le="0.0512"} of the
//     answering tiers (full, ecmp, cached), out of their _count;
//   - quality: good = harp_quality_mlu_ratio_bucket{le="1.25"}, out of
//     harp_quality_mlu_ratio_count.
//
// The mix: six answered requests (full, cached, ecmp among them), three
// full-tier latencies planted through record (100, 60 and 51 ms), one
// rejected and two shed requests.
func TestServingObjectivesFromExposition(t *testing.T) {
	p := twoPathProblem()
	reg := obs.NewRegistry()
	q := verify.NewQualityMonitor(verify.QualityOptions{SampleEvery: 1})
	defer q.Close()
	q.EnableTelemetry(reg)
	a := NewServer(core.New(tinyConfig()), Options{CacheEntries: 4, Quality: q})
	b := NewServer(core.New(tinyConfig()), Options{Quality: q})
	a.EnableTelemetry(reg)
	b.EnableTelemetry(reg)

	expect := func(what string, dec Decision, tier Tier) {
		t.Helper()
		if dec.Tier != tier {
			t.Fatalf("%s: tier %v (degraded %v, err %v), want %v", what, dec.Tier, dec.Degraded, dec.Err, tier)
		}
	}
	expect("full", a.Serve(p, demand(p, 4, 2)), TierFull)
	expect("cache hit", a.Serve(p, demand(p, 4, 2)), TierCached)
	expect("second full", a.Serve(p, demand(p, 8, 4)), TierFull)
	expect("full on b", b.Serve(p, demand(p, 4, 2)), TierFull)
	expect("second full on b", b.Serve(p, demand(p, 6, 3)), TierFull)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expect("expired deadline", b.ServeCtx(cancelled, p, demand(p, 4, 2)), TierECMP)
	expect("rejected", a.Serve(p, nil), TierRejected)
	for _, ms := range []time.Duration{100, 60, 51} {
		a.record(TierFull, time.Now().Add(-ms*time.Millisecond))
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	expect("draining", b.Serve(p, demand(p, 4, 2)), TierShed)
	expect("draining again", b.Serve(p, demand(p, 4, 2)), TierShed)
	q.Drain()

	sum := func(series string, tiers ...Tier) (n int64) {
		for _, tier := range tiers {
			n += seriesValue(t, reg, series+`{tier="`+tier.String()+`"}`)
		}
		return n
	}
	answering := []Tier{TierFull, TierECMP, TierCached}
	availGood := sum(MetricServeRequests, answering...)
	availBad := sum(MetricServeRequests, TierShed)
	latTotal := sum(MetricServeSeconds+"_count", answering...)
	latGood := int64(0)
	for _, tier := range answering {
		latGood += seriesValue(t, reg, MetricServeSeconds+`_bucket{tier="`+tier.String()+`",le="0.0512"}`)
	}
	qualTotal := seriesValue(t, reg, verify.MetricQualityMLURatio+"_count")
	qualGood := seriesValue(t, reg, verify.MetricQualityMLURatio+`_bucket{le="1.25"}`)

	for _, c := range []struct {
		objective         string
		good, bad         int64
		wantGood, wantBad int64
	}{
		{"availability", availGood, availBad, 9, 2},
		{"latency", latGood, latTotal - latGood, 7, 2},
		{"quality", qualGood, qualTotal - qualGood, 5, 1},
	} {
		if c.good != c.wantGood || c.bad != c.wantBad {
			t.Errorf("%s: %d good / %d bad from the exposition, want %d / %d",
				c.objective, c.good, c.bad, c.wantGood, c.wantBad)
		}
	}
}
