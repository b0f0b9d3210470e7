package fleet

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	chaosreplica "harpte/internal/chaos/replica"
	"harpte/internal/core"
	"harpte/internal/obs"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/traffic"
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

// countVets swaps the dispatcher's vet for one that counts the answers it
// reads, until the test ends.
func countVets(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	orig := vetSplits
	vetSplits = func(p *te.Problem, s *tensor.Dense) (*tensor.Dense, error) {
		n.Add(1)
		return orig(p, s)
	}
	t.Cleanup(func() { vetSplits = orig })
	return &n
}

// TestFleetVetsOnlyForeignAnswers pins the dispatcher's trust boundary: it
// takes a Local server's model answers and cache hits unread, because the
// server vetted them, and vets everything else — (a) a Local server's ECMP
// answer after its poisoned model failed the server's own vet, (b) any
// answer through a chaos/replica wrapper around a Local, lying or honest,
// and (c) a Local ECMP answer is counted by the vet like a foreign one.
func TestFleetVetsOnlyForeignAnswers(t *testing.T) {
	p := twoPathProblem()
	d := demand(p, 4, 2)
	vets := countVets(t)
	opts := Options{Deadline: time.Second, RetryBudget: 1}

	healthy := Local{S: resilience.NewServer(core.New(tinyConfig()), resilience.Options{CacheEntries: 8})}
	f := New([]Replica{healthy}, opts)
	defer f.Close()
	for _, want := range []resilience.Tier{resilience.TierFull, resilience.TierCached} {
		dec := f.Serve(p, d)
		if dec.Err != nil || dec.Tier != want {
			t.Fatalf("healthy Local: tier %v err %v, want %v", dec.Tier, dec.Err, want)
		}
		assertValidSplits(t, p, dec.Splits)
	}
	if n := vets.Load(); n != 0 {
		t.Fatalf("the fleet re-vetted %d answers its Local server vetted", n)
	}

	// (a) + (c): one NaN weight makes every model answer NaN. The server's
	// vet refuses it and answers ECMP, which the fleet vets and serves.
	m := core.New(tinyConfig())
	m.Params()[0].Val.Data[0] = math.NaN()
	poisoned := Local{S: resilience.NewServer(m, resilience.Options{CacheEntries: 8})}
	f = New([]Replica{poisoned}, opts)
	defer f.Close()
	dec := f.Serve(p, d)
	if dec.Err != nil || dec.Tier != resilience.TierECMP || dec.Replica != 0 {
		t.Fatalf("poisoned Local: tier %v replica %d err %v, want its ECMP answer", dec.Tier, dec.Replica, dec.Err)
	}
	assertValidSplits(t, p, dec.Splits)
	if n := vets.Load(); n != 1 {
		t.Fatalf("vet read %d answers, want 1: the Local ECMP answer", n)
	}

	// (b): the same server behind a byzantine plan. Its NaN answer claims
	// TierFull, but the wrapper is not a Local, so the vet rejects it and
	// the request fails over to the healthy Local, whose cache hit is
	// taken unread.
	liar := chaosreplica.New(poisoned, chaosreplica.Plan{Seed: 1, CrashAfter: -1, PNaN: 1})
	f = New([]Replica{liar, healthy}, opts)
	defer f.Close()
	dec = f.Serve(p, d)
	if dec.Err != nil || dec.Replica != 1 || dec.Tier != resilience.TierCached {
		t.Fatalf("byzantine wrapper: replica %d tier %v err %v, want failover to replica 1's cache", dec.Replica, dec.Tier, dec.Err)
	}
	if dec.Retries != 1 || liar.Calls() != 1 || f.ReplicaHealth(0) != Degraded {
		t.Fatalf("retries %d, wrapper asked %d times, its health %v: want one rejected answer",
			dec.Retries, liar.Calls(), f.ReplicaHealth(0))
	}
	if n := vets.Load(); n != 2 {
		t.Fatalf("vet read %d answers, want 2", n)
	}
	// The winner's Decision does not erase why the first attempt lost.
	if len(dec.Degraded) == 0 || !strings.HasPrefix(dec.Degraded[0], "replica 0: byzantine answer") {
		t.Fatalf("byzantine wrapper: degraded %q, want the rejected attempt's note first", dec.Degraded)
	}

	// An honest wrapper around the healthy Local is still vetted: trust
	// goes to the concrete type, not to what it wraps.
	f = New([]Replica{chaosreplica.New(healthy, chaosreplica.Plan{Seed: 1, CrashAfter: -1})}, opts)
	defer f.Close()
	if dec = f.Serve(p, d); dec.Err != nil || dec.Tier != resilience.TierCached {
		t.Fatalf("honest wrapper: tier %v err %v", dec.Tier, dec.Err)
	}
	if n := vets.Load(); n != 3 {
		t.Fatalf("vet read %d answers, want 3: the wrapped cache hit", n)
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

// TestHealthAndBudgetMirrors: in each of 20 rounds, four goroutines
// report successes, failures and drains on three replicas, read their
// states, and earn and spend retry tokens, all at once. After every round
// each lock-free mirror equals the field it mirrors under its mutex, a
// healthy replica has no failure streak, the quarantine count is the
// number of quarantined replicas, and the bucket holds between 0 and its
// burst.
func TestHealthAndBudgetMirrors(t *testing.T) {
	_, rs := fakes(3)
	f := New(rs, Options{RetryBudget: 0.3})
	defer f.Close()
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for n := 0; n < 500; n++ {
					r := f.replicas[rng.Intn(len(f.replicas))]
					switch op := rng.Intn(100); {
					case op < 25:
						f.onFailure(r)
					case op < 55:
						f.onSuccess(r)
					case op < 56:
						f.quarantineNow(r)
					case op < 70:
						_ = r.healthState()
					case op < 90:
						f.budget.earn()
					default:
						f.budget.spend()
					}
				}
			}(int64(4*round + g))
		}
		wg.Wait()

		var quarantined int64
		for _, r := range f.replicas {
			r.mu.Lock()
			h, mirror, consec := r.health, r.healthState(), r.consec
			r.mu.Unlock()
			if mirror != h {
				t.Fatalf("round %d, replica %d: mirror reads %v, health is %v", round, r.id, mirror, h)
			}
			if h == Healthy && consec != 0 {
				t.Fatalf("round %d, replica %d: healthy with a streak of %d failures", round, r.id, consec)
			}
			if h == Quarantined {
				quarantined++
			}
		}
		if got := f.quarantined.Load(); got != quarantined {
			t.Fatalf("round %d: quarantine count %d, %d replicas quarantined", round, got, quarantined)
		}
		b := f.budget
		b.mu.Lock()
		tokens, level := b.tokens, math.Float64frombits(b.level.Load())
		b.mu.Unlock()
		if level != tokens || tokens < 0 || tokens > b.burst {
			t.Fatalf("round %d: bucket holds %v tokens (burst %v), its mirror reads %v", round, tokens, b.burst, level)
		}
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

// hitRequest is a request as the benchmark's hot_cache workload sends it
// on g: every ordered pair of edge nodes, 4 tunnels per flow, and a
// gravity TM capped at 35 % of every node's access capacity.
func hitRequest(g *topology.Graph) (*te.Problem, *tensor.Dense) {
	p := te.NewProblem(g, tunnels.Compute(g, 4))
	var capacity float64
	for _, e := range g.Edges {
		capacity += e.Capacity
	}
	cfg := traffic.SeriesConfig{Total: 0.25 * capacity, DiurnalPeriod: 48, DiurnalAmplitude: 0.3, NoiseSigma: 0.3}
	return p, traffic.DemandVector(traffic.CapToAccess(traffic.Series(g, 1, cfg, 1)[0], g, 0.35), p.Tunnels.Flows)
}

// hitFleetOf is the benchmark's hot_cache path: a fleet sharded by
// topology in front of n Local replicas with a split cache each, which has
// served each request once, so the next Serve of one is a split-cache hit.
func hitFleetOf(tb testing.TB, n int, ps []*te.Problem, ds []*tensor.Dense) *Fleet {
	tb.Helper()
	m := core.New(core.DefaultConfig())
	backends := make([]Replica, n)
	for i := range backends {
		backends[i] = Local{S: resilience.NewServer(m, resilience.Options{CacheEntries: 256, Deadline: 5 * time.Second})}
	}
	f := New(backends, Options{ShardByTopology: true, Deadline: 10 * time.Second})
	for i, p := range ps {
		if dec := f.Serve(p, ds[i]); dec.Err != nil || dec.Tier != resilience.TierFull {
			tb.Fatalf("cold request: tier %v err %v", dec.Tier, dec.Err)
		}
	}
	return f
}

// hitFleet is hitFleetOf one replica and one request on g.
func hitFleet(tb testing.TB, g *topology.Graph) (*Fleet, *te.Problem, *tensor.Dense) {
	tb.Helper()
	p, d := hitRequest(g)
	return hitFleetOf(tb, 1, []*te.Problem{p}, []*tensor.Dense{d}), p, d
}

// serveHitAllocs is what the dispatcher adds to a split-cache hit, which
// the server alone serves without allocating
// (resilience.TestSplitCacheHitZeroAllocs): the one is the fleet
// Deadline's deadlineCtx. A hit never waits on it, so it never arms a
// timer (deadline.go).
const serveHitAllocs = 1

// TestServeHitAllocs pins serveHitAllocs on the hot_cache path.
func TestServeHitAllocs(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	f, p, d := hitFleet(t, topology.Abilene())
	defer f.Close()
	if avg := testing.AllocsPerRun(100, func() {
		if dec := f.Serve(p, d); dec.Tier != resilience.TierCached {
			t.Fatalf("tier %v, want a cache hit", dec.Tier)
		}
	}); avg != serveHitAllocs {
		t.Fatalf("a cache hit through the fleet allocates %.1f/op, want %d", avg, serveHitAllocs)
	}
}

// BenchmarkServeHit is one split-cache hit served through the dispatcher
// as the benchmark's hot_cache workload serves it (hitFleet).
func BenchmarkServeHit(b *testing.B) {
	for _, c := range []struct {
		name string
		g    func() *topology.Graph
	}{{"Abilene", topology.Abilene}, {"Geant", topology.Geant}} {
		b.Run(c.name, func(b *testing.B) {
			f, p, d := hitFleet(b, c.g())
			defer f.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dec := f.Serve(p, d); dec.Tier != resilience.TierCached {
					b.Fatalf("request %d: tier %v, want a cache hit", i, dec.Tier)
				}
			}
			b.ReportMetric(float64(p.NumFlows()), "flows")
		})
	}
	// mixed/parallel is how hot_cache's two clients meet: Abilene and
	// GEANT hits, alternating, from GOMAXPROCS goroutines at once on one
	// sharded 2-replica fleet, so the fleet's shared state and any replica
	// that owns both topologies are contended. ns/op is wall time over all
	// goroutines' requests.
	b.Run("mixed/parallel", func(b *testing.B) {
		pa, da := hitRequest(topology.Abilene())
		pg, dg := hitRequest(topology.Geant())
		ps, ds := []*te.Problem{pa, pg}, []*tensor.Dense{da, dg}
		f := hitFleetOf(b, 2, ps, ds)
		defer f.Close()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				if dec := f.Serve(ps[i%2], ds[i%2]); dec.Tier != resilience.TierCached {
					b.Errorf("tier %v, want a cache hit", dec.Tier)
					return
				}
			}
		})
		b.ReportMetric(float64(pa.NumFlows()+pg.NumFlows())/2, "flows")
	})
}
