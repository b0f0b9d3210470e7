package fleet

// Fleet torture: N replicas, K of them wrapped in seed-replayable chaos
// (crash, hang, latency spikes, byzantine NaN / wrong-shape answers),
// hammered by concurrent workers while a rolling reload runs mid-burst.
// The acceptance bar from the issue: zero hangs, zero non-finite or
// non-normalized split matrices, and every request resolves — to a
// replica answer, the local ECMP fallback, or a typed error — within the
// deadline; and, since hung calls leave when their context does, no
// goroutine outlives Fleet.Close. Run under -race (make race covers this
// package).

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	chaosreplica "harpte/internal/chaos/replica"
	"harpte/internal/core"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
)

func tinyConfig() core.Config {
	return core.Config{
		EmbedDim: 8, GNNLayers: 2, GNNHidden: 4,
		SetTransLayers: 1, Heads: 2, FFDim: 16,
		MLP1Hidden: 8, RAUHidden: 12, RAUIterations: 3,
		LossTemp: 0.05, Seed: 7,
	}
}

func saveModel(t *testing.T, m *core.Model, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func newServer(p *te.Problem, d *tensor.Dense) *resilience.Server {
	return resilience.NewServer(core.New(tinyConfig()), resilience.Options{
		Deadline:    2 * time.Second,
		Probe:       p,
		ProbeDemand: d,
	})
}

// TestFleetChaosTorture kills, wedges, and corrupts K of N replicas in
// the middle of a concurrent burst and requires every single request to
// resolve safely.
func TestFleetChaosTorture(t *testing.T) {
	before := runtime.NumGoroutine()
	p := twoPathProblem()
	probe := demand(p, 4, 2)
	ckpt := saveModel(t, core.New(tinyConfig()), "v2.model")

	plans := []chaosreplica.Plan{
		{Seed: 101, CrashAfter: -1},             // healthy
		{Seed: 102, CrashAfter: 5},              // dies early, stays down
		{Seed: 103, CrashAfter: -1, PHang: 0.3}, // wedges 30% of calls
		{Seed: 104, CrashAfter: -1, PNaN: 0.5},  // lies half the time
		{Seed: 105, CrashAfter: -1, PShape: 0.3, PSlow: 0.2, SlowDelay: 30 * time.Millisecond},
	}
	faults := make([]*chaosreplica.Fault, len(plans))
	replicas := make([]Replica, len(plans))
	for i, plan := range plans {
		faults[i] = chaosreplica.New(Local{S: newServer(p, probe)}, plan)
		replicas[i] = faults[i]
	}
	defer func() {
		for _, fa := range faults {
			fa.Release()
		}
	}()

	f := New(replicas, Options{
		Deadline:               3 * time.Second,
		TryTimeout:             100 * time.Millisecond,
		RetryBudget:            1,
		quarantineThreshold:    3,
		probationSuccesses:     2,
		maxQuarantinedFraction: 0.6,
		HealthInterval:         10 * time.Millisecond,
		Probe:                  p,
		ProbeDemand:            probe,
	})
	// Before the Release above runs: every hung call has already left with
	// its attempt's context, so there is nothing parked for it to find.
	defer func() {
		f.Close()
		assertNoLeakedGoroutines(t, before)
	}()

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				dec := f.Serve(p, demand(p, 4, 2))
				switch {
				case dec.Err == nil:
					if dec.Replica < 0 || dec.Replica >= len(plans) {
						mu.Lock()
						failures = append(failures, "success with no replica attribution")
						mu.Unlock()
					}
				case errors.Is(dec.Err, ErrNoReplicas):
					// Degraded but honest: ECMP splits below must still be valid.
				default:
					mu.Lock()
					failures = append(failures, dec.Err.Error())
					mu.Unlock()
					continue
				}
				// Every resolved request — replica answer or fallback —
				// must carry routable, normalized splits.
				assertValidSplits(t, p, dec.Splits)
			}
		}(w)
	}

	// Mid-burst rolling reload: with chaos replicas in the rotation it may
	// abort (typed), but it must never hang or produce an untyped error.
	time.Sleep(20 * time.Millisecond)
	if err := f.RollingReload(ckpt); err != nil && !errors.Is(err, ErrReloadAborted) {
		t.Errorf("rolling reload mid-chaos: %v", err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("torture burst hung") // the zero-hangs acceptance bar
	}
	for _, msg := range failures {
		t.Errorf("unexpected request outcome: %s", msg)
	}

	st := f.Stats()
	if got := st.Served + st.LocalFallbacks + st.Rejected; got != workers*perWorker {
		t.Fatalf("request conservation: served %d + fallback %d + rejected %d != %d",
			st.Served, st.LocalFallbacks, st.Rejected, workers*perWorker)
	}
	if st.Rejected != 0 {
		t.Fatalf("valid inputs were rejected: %+v", st)
	}
	if st.Served == 0 {
		t.Fatalf("chaos fleet served nothing: %+v", st)
	}
	// The early-crashing replica must have been caught and ejected.
	if faults[1].Down() && f.ReplicaHealth(1) != Quarantined {
		t.Errorf("crashed replica 1 ended %v, want quarantined (stats %+v)",
			f.ReplicaHealth(1), st)
	}
}

// newCachedServer builds a replica server with the planet-scale serving
// options on: split-ratio caching and a deadline.
func newCachedServer(p *te.Problem, d *tensor.Dense) *resilience.Server {
	return resilience.NewServer(core.New(tinyConfig()), resilience.Options{
		Deadline:     2 * time.Second,
		Probe:        p,
		ProbeDemand:  d,
		CacheEntries: 64,
	})
}

// TestFleetChaosTortureBatchedShardedCached re-runs the chaos torture with
// the serving optimizations all enabled — replica-side split caching (and,
// under it, the engine's per-topology plans shared by concurrent requests;
// the name dates from the micro-batcher the plans replaced), fleet-side
// topology-cluster sharding — across several topologies at once. The
// acceptance bar is unchanged: zero hangs, zero invalid splits, every
// request resolves; and the repeated demands must actually hit the split
// caches.
func TestFleetChaosTortureBatchedShardedCached(t *testing.T) {
	before := runtime.NumGoroutine()
	probs := []*te.Problem{shardProblem(0), shardProblem(1), shardProblem(2)}
	probe := demand(probs[0], 4, 2)
	ckpt := saveModel(t, core.New(tinyConfig()), "v2.model")

	plans := []chaosreplica.Plan{
		{Seed: 201, CrashAfter: -1}, // healthy
		{Seed: 202, CrashAfter: 8},  // dies early, stays down
		{Seed: 203, CrashAfter: -1, PHang: 0.2},
		{Seed: 204, CrashAfter: -1, PNaN: 0.3},
		{Seed: 205, CrashAfter: -1, PSlow: 0.2, SlowDelay: 20 * time.Millisecond},
	}
	servers := make([]*resilience.Server, len(plans))
	faults := make([]*chaosreplica.Fault, len(plans))
	replicas := make([]Replica, len(plans))
	for i, plan := range plans {
		servers[i] = newCachedServer(probs[0], probe)
		faults[i] = chaosreplica.New(Local{S: servers[i]}, plan)
		replicas[i] = faults[i]
	}
	defer func() {
		for _, fa := range faults {
			fa.Release()
		}
	}()

	f := New(replicas, Options{
		Deadline:               3 * time.Second,
		TryTimeout:             150 * time.Millisecond,
		RetryBudget:            1,
		quarantineThreshold:    3,
		probationSuccesses:     2,
		maxQuarantinedFraction: 0.6,
		HealthInterval:         10 * time.Millisecond,
		Probe:                  probs[0],
		ProbeDemand:            probe,
		ShardByTopology:        true,
	})
	defer func() {
		f.Close()
		assertNoLeakedGoroutines(t, before)
	}()

	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Rotate topologies; repeat only two demand patterns per
				// topology so the shard owner's split cache gets hits.
				p := probs[(w+i)%len(probs)]
				dec := f.Serve(p, demand(p, 4, float64(2+i%2)))
				switch {
				case dec.Err == nil:
					if dec.Replica < 0 || dec.Replica >= len(plans) {
						mu.Lock()
						failures = append(failures, "success with no replica attribution")
						mu.Unlock()
					}
				case errors.Is(dec.Err, ErrNoReplicas):
					// Degraded but honest: the ECMP splits below must vet.
				default:
					mu.Lock()
					failures = append(failures, dec.Err.Error())
					mu.Unlock()
					continue
				}
				assertValidSplits(t, p, dec.Splits)
				// Cached answers must satisfy the same vetting
				// the dispatcher applies to any replica answer.
				if dec.Splits != nil {
					if _, err := resilience.VetSplits(p, dec.Splits); err != nil {
						mu.Lock()
						failures = append(failures, "served splits failed vetting: "+err.Error())
						mu.Unlock()
					}
				}
			}
		}(w)
	}

	time.Sleep(20 * time.Millisecond)
	if err := f.RollingReload(ckpt); err != nil && !errors.Is(err, ErrReloadAborted) {
		t.Errorf("rolling reload mid-chaos: %v", err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("sharded+cached torture burst hung")
	}
	for _, msg := range failures {
		t.Errorf("unexpected request outcome: %s", msg)
	}

	st := f.Stats()
	if got := st.Served + st.LocalFallbacks + st.Rejected; got != workers*perWorker {
		t.Fatalf("request conservation: served %d + fallback %d + rejected %d != %d",
			st.Served, st.LocalFallbacks, st.Rejected, workers*perWorker)
	}
	if st.Rejected != 0 || st.Served == 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
	var hits int64
	for _, s := range servers {
		hits += s.Stats().Cache.Hits
	}
	if hits == 0 {
		t.Error("no split-cache hits across the fleet despite repeated demands")
	}
}

// TestFleetRollingReloadUnderTraffic rolls a healthy fleet onto a new
// checkpoint while workers hammer it: the reload must succeed, every
// replica must land on generation 1, and not one request may drop.
func TestFleetRollingReloadUnderTraffic(t *testing.T) {
	p := twoPathProblem()
	probe := demand(p, 4, 2)
	ckpt := saveModel(t, core.New(tinyConfig()), "v2.model")

	servers := []*resilience.Server{newServer(p, probe), newServer(p, probe), newServer(p, probe)}
	replicas := make([]Replica, len(servers))
	for i, s := range servers {
		replicas[i] = Local{S: s}
	}
	f := New(replicas, Options{
		Deadline:    3 * time.Second,
		RetryBudget: 1,
		Probe:       p,
		ProbeDemand: probe,
	})
	defer f.Close()

	const workers, perWorker = 4, 30
	var wg sync.WaitGroup
	var dropped atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				dec := f.Serve(p, demand(p, 4, 2))
				if dec.Err != nil {
					dropped.Add(1)
					continue
				}
				assertValidSplits(t, p, dec.Splits)
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	if err := f.RollingReload(ckpt); err != nil {
		t.Errorf("rolling reload on a healthy fleet: %v", err)
	}
	wg.Wait()

	if n := dropped.Load(); n != 0 {
		t.Fatalf("%d requests dropped during the rolling reload", n)
	}
	for i, s := range servers {
		if s.Generation() != 1 {
			t.Fatalf("replica %d generation %d, want 1", i, s.Generation())
		}
	}
	if err := f.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
