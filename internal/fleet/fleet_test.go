package fleet

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harpte/internal/obs"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

// twoPathProblem: 0→1 via a 10G direct link or a 5G two-hop detour.
func twoPathProblem() *te.Problem {
	g := topology.New("twopath", 3)
	g.AddBidirectional(0, 1, 10)
	g.AddBidirectional(0, 2, 5)
	g.AddBidirectional(2, 1, 5)
	g.EdgeNodes = []int{0, 1}
	return te.NewProblem(g, tunnels.Compute(g, 2))
}

func demand(p *te.Problem, vals ...float64) *tensor.Dense {
	d := tensor.New(p.NumFlows(), 1)
	copy(d.Data, vals)
	return d
}

func assertValidSplits(t *testing.T, p *te.Problem, s *tensor.Dense) {
	t.Helper()
	if s == nil {
		t.Fatal("nil splits")
	}
	if s.Rows != p.NumFlows() || s.Cols != p.Tunnels.K {
		t.Fatalf("splits shape %dx%d, want %dx%d", s.Rows, s.Cols, p.NumFlows(), p.Tunnels.K)
	}
	for f := 0; f < s.Rows; f++ {
		var sum float64
		for _, v := range s.Row(f) {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("flow %d has invalid split %v", f, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("flow %d splits sum to %v", f, sum)
		}
	}
}

// fakeReplica is a scriptable backend for dispatch tests.
type fakeReplica struct {
	serves  atomic.Int64
	reloads atomic.Int64

	delay     time.Duration // serve latency, cut short when the context ends
	goid      atomic.Int64  // id of the goroutine the last Serve ran on
	fail      atomic.Bool   // transport error on Serve
	draining  atomic.Bool   // in-band ErrDraining decision
	byzantine atomic.Bool   // NaN answer
	reloadErr atomic.Pointer[string]
	paths     []string // reload paths, guarded by reloads being test-sequential
}

func (r *fakeReplica) Serve(ctx context.Context, p *te.Problem, d *tensor.Dense) (resilience.Decision, error) {
	r.serves.Add(1)
	r.goid.Store(goroutineID())
	if r.delay > 0 {
		lag := time.NewTimer(r.delay)
		defer lag.Stop()
		select {
		case <-lag.C:
		case <-ctx.Done():
			return resilience.Decision{}, ctx.Err()
		}
	}
	if r.fail.Load() {
		return resilience.Decision{}, errors.New("fake transport down")
	}
	if r.draining.Load() {
		return resilience.Decision{Tier: resilience.TierShed, Err: resilience.ErrDraining}, nil
	}
	if r.byzantine.Load() {
		s := tensor.New(p.NumFlows(), p.Tunnels.K)
		for i := range s.Data {
			s.Data[i] = math.NaN()
		}
		return resilience.Decision{Splits: s, Tier: resilience.TierFull}, nil
	}
	return resilience.Decision{
		Splits: te.NormalizeRows(te.Rescale(p, p.UniformSplits())),
		Tier:   resilience.TierFull,
	}, nil
}

func (r *fakeReplica) Reload(path string) error {
	r.reloads.Add(1)
	r.paths = append(r.paths, path)
	if e := r.reloadErr.Load(); e != nil {
		return errors.New(*e)
	}
	return nil
}

func (r *fakeReplica) Drain(ctx context.Context) error { return nil }

func fakes(n int) ([]*fakeReplica, []Replica) {
	fs := make([]*fakeReplica, n)
	rs := make([]Replica, n)
	for i := range fs {
		fs[i] = &fakeReplica{}
		rs[i] = fs[i]
	}
	return fs, rs
}

func TestFleetServesHealthy(t *testing.T) {
	p := twoPathProblem()
	_, rs := fakes(2)
	f := New(rs, Options{Deadline: time.Second})
	defer f.Close()
	dec := f.Serve(p, demand(p, 4, 2))
	if dec.Err != nil {
		t.Fatalf("healthy fleet returned error: %v", dec.Err)
	}
	if dec.Replica != 0 && dec.Replica != 1 {
		t.Fatalf("answered by replica %d", dec.Replica)
	}
	assertValidSplits(t, p, dec.Splits)
	if st := f.Stats(); st.Served != 1 || st.Healthy != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFleetRejectsInvalidInputLocally(t *testing.T) {
	p := twoPathProblem()
	fs, rs := fakes(2)
	f := New(rs, Options{})
	defer f.Close()
	dec := f.Serve(p, tensor.New(p.NumFlows()+1, 1))
	if !errors.Is(dec.Err, resilience.ErrInvalidInput) {
		t.Fatalf("err %v, want ErrInvalidInput", dec.Err)
	}
	if dec.Tier != resilience.TierRejected || dec.Replica != -1 {
		t.Fatalf("tier %v replica %d", dec.Tier, dec.Replica)
	}
	if fs[0].serves.Load()+fs[1].serves.Load() != 0 {
		t.Fatal("invalid input reached a replica")
	}
	if f.Stats().Rejected != 1 {
		t.Fatalf("stats %+v", f.Stats())
	}
}

// TestFleetFailsOverAndQuarantines: a dead replica costs retries at
// first, then gets quarantined and stops receiving traffic; requests keep
// succeeding throughout via the healthy replica.
func TestFleetFailsOverAndQuarantines(t *testing.T) {
	p := twoPathProblem()
	fs, rs := fakes(2)
	fs[0].fail.Store(true)
	f := New(rs, Options{
		Deadline:            time.Second,
		RetryBudget:         1, // every failure may retry
		quarantineThreshold: 2,
	})
	defer f.Close()

	for i := 0; i < 8; i++ {
		dec := f.Serve(p, demand(p, 4, 2))
		if dec.Err != nil {
			t.Fatalf("request %d failed: %v", i, dec.Err)
		}
		if dec.Replica != 1 {
			t.Fatalf("request %d answered by dead replica %d", i, dec.Replica)
		}
		assertValidSplits(t, p, dec.Splits)
	}
	if got := f.ReplicaHealth(0); got != Quarantined {
		t.Fatalf("dead replica health %v, want quarantined", got)
	}
	st := f.Stats()
	if st.Ejections != 1 || st.Quarantined != 1 || st.Retries == 0 {
		t.Fatalf("stats %+v", st)
	}
	// Quarantined replicas receive no regular traffic.
	before := fs[0].serves.Load()
	for i := 0; i < 4; i++ {
		f.Serve(p, demand(p, 4, 2))
	}
	if after := fs[0].serves.Load(); after != before {
		t.Fatalf("quarantined replica served %d more requests", after-before)
	}
}

// TestFleetHedgeWins: the primary lands on a slow replica; the hedge
// fires on the fast one and its answer wins.
func TestFleetHedgeWins(t *testing.T) {
	p := twoPathProblem()
	fs, rs := fakes(2)
	fs[0].delay = 300 * time.Millisecond
	f := New(rs, Options{
		Deadline:      2 * time.Second,
		HedgeQuantile: 0.9,
		HedgeMinDelay: time.Millisecond,
		HedgeMaxDelay: 5 * time.Millisecond,
		RetryBudget:   1,
	})
	defer f.Close()

	// The round-robin cursor starts at replica 0 — the slow one.
	dec := f.Serve(p, demand(p, 4, 2))
	if dec.Err != nil {
		t.Fatalf("hedged request failed: %v", dec.Err)
	}
	if !dec.Hedged || dec.Replica != 1 {
		t.Fatalf("hedged=%v replica=%d, want hedge win on replica 1", dec.Hedged, dec.Replica)
	}
	st := f.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFleetRetryBudgetDeniesStorm: with the budget disabled, a failed
// primary cannot retry — the request degrades to ECMP instead of
// multiplying load on the survivors.
func TestFleetRetryBudgetDeniesStorm(t *testing.T) {
	p := twoPathProblem()
	fs, rs := fakes(2)
	fs[0].fail.Store(true)
	f := New(rs, Options{Deadline: time.Second, RetryBudget: -1})
	defer f.Close()

	sawDenied := false
	for i := 0; i < 2; i++ { // cursor visits replica 0 on one of two calls
		dec := f.Serve(p, demand(p, 4, 2))
		assertValidSplits(t, p, dec.Splits)
		if errors.Is(dec.Err, ErrNoReplicas) {
			sawDenied = true
			if dec.Tier != resilience.TierECMP {
				t.Fatalf("fallback tier %v", dec.Tier)
			}
		}
	}
	if !sawDenied {
		t.Fatal("no request was denied a retry")
	}
	if f.Stats().RetryBudgetDenied == 0 {
		t.Fatalf("stats %+v", f.Stats())
	}
}

// TestFleetByzantineAnswerRejected: NaN answers are vetted out; the
// request fails over and the lying replica accrues health failures.
func TestFleetByzantineAnswerRejected(t *testing.T) {
	p := twoPathProblem()
	fs, rs := fakes(2)
	fs[0].byzantine.Store(true)
	f := New(rs, Options{Deadline: time.Second, RetryBudget: 1, quarantineThreshold: 2})
	defer f.Close()

	for i := 0; i < 8; i++ {
		dec := f.Serve(p, demand(p, 4, 2))
		if dec.Err != nil {
			t.Fatalf("request %d failed: %v", i, dec.Err)
		}
		if dec.Replica == 0 {
			t.Fatalf("request %d answered by byzantine replica", i)
		}
		assertValidSplits(t, p, dec.Splits)
	}
	if got := f.ReplicaHealth(0); got != Quarantined {
		t.Fatalf("byzantine replica health %v, want quarantined", got)
	}
}

// sharedReplica answers every request with one matrix, as a replica
// serving its split cache's shared entry does.
type sharedReplica struct {
	splits *tensor.Dense
	serves atomic.Int64
}

func (r *sharedReplica) Serve(context.Context, *te.Problem, *tensor.Dense) (resilience.Decision, error) {
	r.serves.Add(1)
	return resilience.Decision{Splits: r.splits, Tier: resilience.TierCached}, nil
}

func (r *sharedReplica) Reload(string) error             { return nil }
func (r *sharedReplica) Drain(ctx context.Context) error { return nil }

// TestFleetVetNeverWritesSharedAnswer: the only replica hands concurrent
// requests one shared matrix whose first row sums to 1 + 1e-5. The vet
// rejects it as byzantine on every request, each request falls back to
// local ECMP, and the matrix is never repaired in place: its bytes are
// unchanged and -race sees no write.
func TestFleetVetNeverWritesSharedAnswer(t *testing.T) {
	p := twoPathProblem()
	shared := te.NormalizeRows(te.Rescale(p, p.UniformSplits()))
	shared.Data[0] += 1e-5
	before := shared.Clone()
	liar := &sharedReplica{splits: shared}
	f := New([]Replica{liar}, Options{Deadline: time.Second})
	defer f.Close()

	var wg sync.WaitGroup
	var byzantine atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				dec := f.Serve(p, demand(p, 4, 2))
				if dec.Splits == shared || !errors.Is(dec.Err, ErrNoReplicas) {
					t.Errorf("the off-by-1e-5 answer was served: replica %d, err %v", dec.Replica, dec.Err)
				}
				for _, d := range dec.Degraded {
					if strings.Contains(d, "byzantine answer") {
						byzantine.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, v := range shared.Data {
		if math.Float64bits(v) != math.Float64bits(before.Data[i]) {
			t.Fatalf("the vet wrote to the shared matrix: entry %d is %v, was %v", i, v, before.Data[i])
		}
	}
	if liar.serves.Load() == 0 || byzantine.Load() != liar.serves.Load() {
		t.Fatalf("shared-matrix replica asked %d times, %d answers rejected as byzantine",
			liar.serves.Load(), byzantine.Load())
	}
}

// TestFleetAllDrainingFallsBack: when every replica announces draining,
// they are quarantined on the spot (bypassing the ejection cap) and the
// request resolves to local ECMP with the typed error.
func TestFleetAllDrainingFallsBack(t *testing.T) {
	p := twoPathProblem()
	fs, rs := fakes(2)
	fs[0].draining.Store(true)
	fs[1].draining.Store(true)
	f := New(rs, Options{Deadline: time.Second, RetryBudget: 1})
	defer f.Close()

	dec := f.Serve(p, demand(p, 4, 2))
	if !errors.Is(dec.Err, ErrNoReplicas) {
		t.Fatalf("err %v, want ErrNoReplicas", dec.Err)
	}
	if dec.Tier != resilience.TierECMP || dec.Replica != -1 {
		t.Fatalf("tier %v replica %d", dec.Tier, dec.Replica)
	}
	assertValidSplits(t, p, dec.Splits)
	st := f.Stats()
	if st.Quarantined != 2 || st.Ejections != 2 {
		t.Fatalf("stats %+v", st)
	}
	// With zero serviceable replicas the next request short-circuits.
	before := fs[0].serves.Load() + fs[1].serves.Load()
	dec = f.Serve(p, demand(p, 4, 2))
	if !errors.Is(dec.Err, ErrNoReplicas) {
		t.Fatalf("err %v, want ErrNoReplicas", dec.Err)
	}
	if after := fs[0].serves.Load() + fs[1].serves.Load(); after != before {
		t.Fatal("drained replicas still receive traffic")
	}
}

// TestFleetProbationReadmission: a quarantined replica that starts
// passing probes is re-admitted after probationSuccesses in a row.
func TestFleetProbationReadmission(t *testing.T) {
	p := twoPathProblem()
	fs, rs := fakes(2)
	fs[0].fail.Store(true)
	f := New(rs, Options{
		Deadline:            time.Second,
		RetryBudget:         1,
		quarantineThreshold: 1,
		probationSuccesses:  2,
		Probe:               p,
		ProbeDemand:         demand(p, 4, 2),
	})
	defer f.Close()

	f.Serve(p, demand(p, 4, 2)) // quarantines replica 0 (cap: 1 of 2)
	if got := f.ReplicaHealth(0); got != Quarantined {
		t.Fatalf("health %v, want quarantined", got)
	}

	// One failing probe round resets probation; then the replica heals.
	f.CheckHealth()
	fs[0].fail.Store(false)
	f.CheckHealth()
	if got := f.ReplicaHealth(0); got != Quarantined {
		t.Fatalf("one good probe re-admitted early: %v", got)
	}
	f.CheckHealth()
	if got := f.ReplicaHealth(0); got != Healthy {
		t.Fatalf("health after probation %v, want healthy", got)
	}
	st := f.Stats()
	if st.Readmissions != 1 || st.Quarantined != 0 || st.Probes == 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFleetMaintenanceWaveReadmits is tereplay's -scenario maintenance wave
// on the options it builds its fleet with — the defaults plus a pinned probe:
// a replica taken down fails its way into quarantine through traffic and the
// wave's health rounds, and once released, probationSuccesses rounds put it
// back. Only probes reach a quarantined replica, so with no Probe pinned
// CheckHealth is a no-op and the replica would stay out for good.
func TestFleetMaintenanceWaveReadmits(t *testing.T) {
	p := twoPathProblem()
	d := demand(p, 4, 2)
	fs, rs := fakes(3)
	f := New(rs, Options{Deadline: time.Second, Probe: p, ProbeDemand: d})
	defer f.Close()

	fs[1].fail.Store(true) // the wave takes replica 1 down
	for i := 0; i < 4; i++ {
		f.CheckHealth()
		assertValidSplits(t, p, f.Serve(p, d).Splits)
	}
	if got := f.ReplicaHealth(1); got != Quarantined {
		t.Fatalf("health during the wave %v, want quarantined", got)
	}

	fs[1].fail.Store(false) // released
	for i := 0; i < f.opts.probationSuccesses; i++ {
		if got := f.ReplicaHealth(1); got != Quarantined {
			t.Fatalf("re-admitted after %d good probes, want %d", i, f.opts.probationSuccesses)
		}
		f.CheckHealth()
	}
	if got := f.ReplicaHealth(1); got != Healthy {
		t.Fatalf("health after release %v, want healthy", got)
	}
	if st := f.Stats(); st.Ejections != 1 || st.Readmissions != 1 || st.Quarantined != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFleetEjectionCapHoldsBack: with 3 of 4 replicas failing and a 0.5
// cap, at most 2 may be quarantined; the rest stay degraded and keep
// taking (and failing) probes.
func TestFleetEjectionCapHoldsBack(t *testing.T) {
	p := twoPathProblem()
	fs, rs := fakes(4)
	fs[0].fail.Store(true)
	fs[1].fail.Store(true)
	fs[2].fail.Store(true)
	f := New(rs, Options{
		Deadline:               time.Second,
		RetryBudget:            1,
		RetryBurst:             100,
		quarantineThreshold:    2,
		maxQuarantinedFraction: 0.5,
	})
	defer f.Close()

	for i := 0; i < 20; i++ {
		dec := f.Serve(p, demand(p, 4, 2))
		if dec.Err != nil {
			t.Fatalf("request %d failed: %v", i, dec.Err)
		}
		if dec.Replica != 3 {
			t.Fatalf("request %d answered by failing replica %d", i, dec.Replica)
		}
	}
	st := f.Stats()
	if st.Quarantined != 2 {
		t.Fatalf("quarantined %d, want exactly 2 (cap 0.5 of 4): %+v", st.Quarantined, st)
	}
	if st.Degraded != 1 || st.Healthy != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFleetRollingReload: serviceable replicas reload first (canary),
// every replica lands on the new path, and the counters record success.
func TestFleetRollingReload(t *testing.T) {
	p := twoPathProblem()
	fs, rs := fakes(3)
	f := New(rs, Options{Probe: p, ProbeDemand: demand(p, 4, 2)})
	defer f.Close()

	if err := f.RollingReload("ckpt-v2"); err != nil {
		t.Fatalf("rolling reload: %v", err)
	}
	for i, fr := range fs {
		if fr.reloads.Load() != 1 || fr.paths[0] != "ckpt-v2" {
			t.Fatalf("replica %d reloads=%d paths=%v", i, fr.reloads.Load(), fr.paths)
		}
	}
	if st := f.Stats(); st.RollingReloads != 1 || st.RollingReloadFailures != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFleetRollingReloadAbortsOnCanary: a canary that rejects the
// checkpoint stops the wave before any other replica is touched.
func TestFleetRollingReloadAbortsOnCanary(t *testing.T) {
	p := twoPathProblem()
	fs, rs := fakes(3)
	bad := "checkpoint shape mismatch"
	fs[0].reloadErr.Store(&bad)
	f := New(rs, Options{Probe: p, ProbeDemand: demand(p, 4, 2)})
	defer f.Close()

	err := f.RollingReload("ckpt-bad")
	if !errors.Is(err, ErrReloadAborted) {
		t.Fatalf("err %v, want ErrReloadAborted", err)
	}
	if fs[1].reloads.Load()+fs[2].reloads.Load() != 0 {
		t.Fatal("wave proceeded past a failed canary")
	}
	if st := f.Stats(); st.RollingReloadFailures != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFleetRollingReloadAbortsOnByzantineCanary: a canary whose
// post-reload probe returns garbage aborts the wave even though the
// reload call itself succeeded.
func TestFleetRollingReloadAbortsOnByzantineCanary(t *testing.T) {
	p := twoPathProblem()
	fs, rs := fakes(3)
	f := New(rs, Options{Probe: p, ProbeDemand: demand(p, 4, 2)})
	defer f.Close()

	fs[0].byzantine.Store(true) // the "new weights" produce NaN
	err := f.RollingReload("ckpt-nan")
	if !errors.Is(err, ErrReloadAborted) {
		t.Fatalf("err %v, want ErrReloadAborted", err)
	}
	if fs[1].reloads.Load()+fs[2].reloads.Load() != 0 {
		t.Fatal("wave proceeded past a canary that failed its probe")
	}
}

// TestFleetHedgeDelayAdapts: before samples the delay is the max clamp;
// once the digest holds fast latencies it tracks the quantile down to the
// min clamp.
func TestFleetHedgeDelayAdapts(t *testing.T) {
	_, rs := fakes(2)
	f := New(rs, Options{
		HedgeQuantile: 0.9,
		HedgeMinDelay: 2 * time.Millisecond,
		HedgeMaxDelay: 20 * time.Millisecond,
	})
	defer f.Close()
	if got := f.hedgeDelay(); got != 20*time.Millisecond {
		t.Fatalf("empty-digest hedge delay %v, want max clamp", got)
	}
	for i := 0; i < 100; i++ {
		f.digest.record(5 * time.Millisecond)
	}
	if got := f.hedgeDelay(); got != 5*time.Millisecond {
		t.Fatalf("hedge delay %v, want 5ms quantile", got)
	}
	for i := 0; i < defaultDigestWindow; i++ {
		f.digest.record(time.Microsecond)
	}
	if got := f.hedgeDelay(); got != 2*time.Millisecond {
		t.Fatalf("hedge delay %v, want min clamp", got)
	}
}

func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(0.5, 2)
	if !b.spend() || !b.spend() {
		t.Fatal("bucket should start full at burst")
	}
	if b.spend() {
		t.Fatal("spend from an empty bucket")
	}
	b.earn()
	if b.spend() {
		t.Fatal("half a token spent")
	}
	b.earn()
	if !b.spend() {
		t.Fatal("two earns should fund one retry")
	}
	disabled := newTokenBucket(-1, 2)
	if disabled.spend() {
		t.Fatal("disabled bucket allowed a retry")
	}
}

func TestLatencyDigestWindow(t *testing.T) {
	d := newLatencyDigest(4)
	if _, ok := d.quantile(0.5); ok {
		t.Fatal("empty digest produced a quantile")
	}
	for i := 1; i <= 4; i++ {
		d.record(time.Duration(i) * time.Millisecond)
	}
	if v, _ := d.quantile(1); v != 4*time.Millisecond {
		t.Fatalf("p100 %v", v)
	}
	// Two more records evict 1ms and 2ms.
	d.record(10 * time.Millisecond)
	d.record(10 * time.Millisecond)
	if v, _ := d.quantile(0); v != 3*time.Millisecond {
		t.Fatalf("p0 after eviction %v, want 3ms", v)
	}
	if d.samples() != 4 {
		t.Fatalf("samples %d", d.samples())
	}
}

// TestFleetTelemetryExposition: the registry-backed mirror exposes the
// fleet metrics in Prometheus text format.
func TestFleetTelemetryExposition(t *testing.T) {
	p := twoPathProblem()
	fs, rs := fakes(2)
	fs[0].fail.Store(true)
	f := New(rs, Options{Deadline: time.Second, RetryBudget: 1, quarantineThreshold: 2})
	defer f.Close()
	reg := obs.NewRegistry()
	f.EnableTelemetry(reg)

	for i := 0; i < 6; i++ {
		f.Serve(p, demand(p, 4, 2))
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("write prometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		MetricFleetRequests + `{outcome="replica"} 6`,
		MetricFleetReplicaState + `{replica="0"} 2`, // quarantined
		MetricFleetReplicaState + `{replica="1"} 0`,
		MetricFleetServiceable + " 1",
		MetricFleetEjections + " 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
