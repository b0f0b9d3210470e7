package resilience

import (
	"strings"
	"testing"

	"harpte/internal/core"
	"harpte/internal/obs"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
)

// trainedProfile observes a small benign demand range on p: totals in
// [6,12], peak share up to ~0.67.
func trainedProfile(p *te.Problem) *OODProfile {
	pr := NewOODProfile()
	pr.Observe(p, demand(p, 4, 2))
	pr.Observe(p, demand(p, 8, 4))
	return pr
}

func TestOODClassify(t *testing.T) {
	p := twoPathProblem()
	pr := trainedProfile(p)
	damaged, err := p.Graph.FailSRLG(topology.SRLG{Name: "probe", Links: [][2]int{{0, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	other := te.NewProblem(damaged, p.Tunnels)

	cases := []struct {
		name string
		p    *te.Problem
		d    *tensor.Dense
		want OODVerdict
	}{
		{"trained instance", p, demand(p, 4, 2), OODInProfile},
		{"within slack above", p, demand(p, 10, 6), OODInProfile},
		{"scale suspect", p, demand(p, 20, 10), OODSuspect},     // total 30 vs max 12: 2.5x
		{"scale hostile", p, demand(p, 60, 30), OODHostile},     // total 90 vs max 12: 7.5x > 4x
		{"starved hostile", p, demand(p, 0.5, 0.5), OODHostile}, // total 1 vs min 6: 6x below
		{"unknown topology alone", other, demand(p, 8, 4), OODSuspect},
		{"unknown topology + scale", other, demand(p, 20, 10), OODHostile},
		{"zero demand", p, demand(p, 0, 0), OODHostile}, // total 0 vs min 6
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := pr.Classify(tc.p, tc.d); got != tc.want {
				t.Fatalf("Classify = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestOODClassifySkew(t *testing.T) {
	p := twoPathProblem()
	// Tight skew envelope: peak share exactly 0.5 in training.
	pr := NewOODProfile()
	pr.Observe(p, demand(p, 6, 6))
	// share 0.97 vs bound 0.5 is ~1.94x: beyond the 1.5 suspect slack,
	// inside the 4x hostile slack.
	if got := pr.Classify(p, demand(p, 11.6, 0.4)); got != OODSuspect {
		t.Fatalf("skewed demand = %v, want suspect", got)
	}
}

func TestOODUntrainedProfileFailsOpen(t *testing.T) {
	p := twoPathProblem()
	var pr *OODProfile
	if got := pr.Classify(p, demand(p, 1e9, 1e9)); got != OODInProfile {
		t.Fatalf("nil profile = %v, want in-profile", got)
	}
	empty := NewOODProfile()
	if got := empty.Classify(p, demand(p, 1e9, 1e9)); got != OODInProfile {
		t.Fatalf("unobserved profile = %v, want in-profile", got)
	}
	g := NewOODGuard()
	if got := g.Classify(p, demand(p, 1e9, 1e9)); got != OODInProfile {
		t.Fatalf("guard without profile = %v, want in-profile", got)
	}
}

func TestOODServeDemotions(t *testing.T) {
	p := twoPathProblem()
	guard := NewOODGuard()
	guard.SetProfile(trainedProfile(p))
	m := core.New(tinyConfig())
	reg := obs.NewRegistry()
	srv := NewServer(m, Options{OOD: guard, CacheEntries: 8})
	srv.EnableTelemetry(reg)

	// In-profile: served by the full tier, cache warms.
	if dec := srv.Serve(p, demand(p, 4, 2)); dec.Tier != TierFull || dec.OOD != OODInProfile {
		t.Fatalf("in-profile request: tier=%v ood=%v", dec.Tier, dec.OOD)
	}
	if dec := srv.Serve(p, demand(p, 4, 2)); dec.Tier != TierCached {
		t.Fatalf("warm cache expected, got %v", dec.Tier)
	}

	// Suspect: the model at full depth — bit for bit the in-profile answer
	// for the same demand — with the cache untouched in both directions: a
	// replay is inferred again, never replayed.
	for i := 0; i < 2; i++ {
		sus := srv.Serve(p, demand(p, 20, 10))
		if sus.OOD != OODSuspect || sus.Tier != TierFull || len(sus.Degraded) != 0 {
			t.Fatalf("suspect request %d: tier=%v ood=%v degraded=%v", i, sus.Tier, sus.OOD, sus.Degraded)
		}
		assertSameBits(t, "suspect request", sus.Splits, tapeSplits(m, p, demand(p, 20, 10)))
	}
	if st := srv.Stats().Cache; st.Size != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("suspect requests touched the split cache: %+v", st)
	}

	// Hostile: straight to ECMP, never cached, cache bypassed.
	host := srv.Serve(p, demand(p, 60, 30))
	if host.OOD != OODHostile || host.Tier != TierECMP {
		t.Fatalf("hostile request: tier=%v ood=%v degraded=%v", host.Tier, host.OOD, host.Degraded)
	}
	assertValidSplits(t, p, host.Splits)
	// Replaying the same hostile demand must not hit a cache entry (no
	// poison write happened, no read happens).
	again := srv.Serve(p, demand(p, 60, 30))
	if again.Tier != TierECMP {
		t.Fatalf("hostile replay served %v, want ecmp", again.Tier)
	}

	st := srv.Stats().OOD
	if st.InProfile != 2 || st.Suspect != 2 || st.Hostile != 2 {
		t.Fatalf("verdict counts %+v", st)
	}
	if st.HostileDemotions != 2 {
		t.Fatalf("demotion count %+v, want the 2 hostile requests only", st)
	}
	if st.CacheBypasses != 4 {
		t.Fatalf("cache bypasses %d, want 4 (2 suspect + 2 hostile)", st.CacheBypasses)
	}
	// The registry tells the same story, and nothing is counted as a
	// suspect demotion any more.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`harp_ood_requests_total{verdict="suspect"} 2`,
		`harp_ood_demotions_total{verdict="hostile"} 2`,
		`harp_ood_cache_bypasses_total 4`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	if strings.Contains(b.String(), `harp_ood_demotions_total{verdict="suspect"}`) {
		t.Error("exposition still counts suspect demotions")
	}
}

// A hostile request whose quantized TM collides with a benign cached key
// must not be served the cached matrix — the read bypass is what blocks
// serving stale shared state to an attacker probing the quantization.
func TestOODHostileNeverServedFromCache(t *testing.T) {
	p := twoPathProblem()
	guard := NewOODGuard()
	// Envelope so tight that a *near-identical* demand is already
	// hostile: suspect slack 1.0001, hostile slack 1.001.
	pr := NewOODProfile()
	pr.SuspectSlack, pr.HostileSlack = 1.0001, 1.001
	pr.Observe(p, demand(p, 4, 2))
	guard.SetProfile(pr)
	srv := NewServer(core.New(tinyConfig()), Options{OOD: guard, CacheEntries: 8})

	if dec := srv.Serve(p, demand(p, 4, 2)); dec.Tier != TierFull {
		t.Fatalf("warmup tier %v", dec.Tier)
	}
	// +0.5% total: same quantized cache key (quantum 1%), but hostile.
	host := srv.Serve(p, demand(p, 4.02, 2.01))
	if host.OOD != OODHostile {
		t.Fatalf("crafted demand classified %v, want hostile", host.OOD)
	}
	if host.Tier == TierCached {
		t.Fatalf("hostile request served from the shared cache")
	}
}

func TestOODGuardSetProfileSwap(t *testing.T) {
	p := twoPathProblem()
	g := NewOODGuard()
	g.SetProfile(trainedProfile(p))
	if v := g.Classify(p, demand(p, 60, 30)); v != OODHostile {
		t.Fatalf("want hostile before swap, got %v", v)
	}
	wide := NewOODProfile()
	wide.Observe(p, demand(p, 60, 30))
	wide.Observe(p, demand(p, 4, 2))
	g.SetProfile(wide)
	if v := g.Classify(p, demand(p, 60, 30)); v != OODInProfile {
		t.Fatalf("want in-profile after swap, got %v", v)
	}
	g.SetProfile(nil)
	if v := g.Classify(p, demand(p, 1e9, 1e9)); v != OODInProfile {
		t.Fatalf("removed profile must fail open, got %v", v)
	}
}

// The acceptance-gate pin: with the guard disabled (Options.OOD nil) the
// serve path must stay allocation-free on the cache-hit path — the same
// gate PR-4/PR-8 pinned for verify and tracing. The guard's disabled
// cost is one nil pointer check, so the existing zero-alloc property
// must hold bit-for-bit.
func TestOODDisabledServeZeroAllocs(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	p := twoPathProblem()
	d := demand(p, 4, 2)
	srv := NewServer(core.New(tinyConfig()), Options{CacheEntries: 8})
	if dec := srv.Serve(p, d); dec.Tier != TierFull {
		t.Fatalf("warmup tier %v", dec.Tier)
	}
	if dec := srv.Serve(p, d); dec.Tier != TierCached {
		t.Fatalf("cache did not warm: %v", dec.Tier)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if dec := srv.Serve(p, d); dec.Tier != TierCached {
			t.Fatalf("expected cached answer, got %v", dec.Tier)
		}
	}); avg != 0 {
		t.Fatalf("OOD-disabled cache-hit path allocates %.1f/op, want 0", avg)
	}
}

// With the guard enabled, classification itself must stay allocation-free
// (demand scan + map probe + two atomics); the in-profile cache-hit path
// keeps the zero-alloc property too.
func TestOODEnabledClassifyZeroAllocs(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	p := twoPathProblem()
	d := demand(p, 4, 2)
	guard := NewOODGuard()
	guard.SetProfile(trainedProfile(p))
	srv := NewServer(core.New(tinyConfig()), Options{OOD: guard, CacheEntries: 8})
	if dec := srv.Serve(p, d); dec.Tier != TierFull {
		t.Fatalf("warmup tier %v", dec.Tier)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if dec := srv.Serve(p, d); dec.Tier != TierCached {
			t.Fatalf("expected cached answer, got %v", dec.Tier)
		}
	}); avg != 0 {
		t.Fatalf("OOD-enabled in-profile cache-hit path allocates %.1f/op, want 0", avg)
	}
}

func TestObserveSeriesValidates(t *testing.T) {
	p := twoPathProblem()
	pr := NewOODProfile()
	bad := tensor.New(p.NumFlows()+1, 1)
	if err := pr.ObserveSeries(p, []*tensor.Dense{demand(p, 4, 2), bad}); err == nil {
		t.Fatalf("want validation error for malformed demand")
	}
	if err := pr.ObserveSeries(p, []*tensor.Dense{demand(p, 4, 2), demand(p, 8, 4)}); err != nil {
		t.Fatalf("ObserveSeries: %v", err)
	}
	if pr.MaxTotal != 12 || pr.MinTotal != 6 {
		t.Fatalf("envelope %+v", pr)
	}
}
