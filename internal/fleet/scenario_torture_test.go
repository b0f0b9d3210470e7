package fleet

// Correlated-disaster torture: a seed-replayable scenario (SRLG fiber
// cut, 40x flash crowd, sustained regime shift, adversarial demands, and
// a maintenance wave over two replicas) drives a cached, sharded
// fleet whose replicas sit behind a shared OOD guard, with one byzantine
// chaos replica in the rotation. The acceptance bar from the issue: zero
// hangs, every resolved answer VetSplits-clean, the certified MLU ratio
// bounded on every non-partitioned step, every hostile-classified request
// demoted off the model and every out-of-profile one off the split cache,
// and no goroutine left behind once the fleet is closed. Run under -race
// (make race covers this file).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	chaosreplica "harpte/internal/chaos/replica"
	"harpte/internal/chaos/scenario"
	"harpte/internal/core"
	"harpte/internal/lp"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/traffic"
	"harpte/internal/tunnels"
	"harpte/internal/verify"
)

// disasterProblem is a 6-node ring with two chords — enough redundancy
// that a random SRLG conduit cut is survivable, small enough that the
// per-step LP oracle stays cheap under -race.
func disasterProblem() *te.Problem {
	g := topology.New("disaster", 6)
	for i := 0; i < 6; i++ {
		g.AddBidirectional(i, (i+1)%6, 10)
	}
	g.AddBidirectional(0, 3, 5)
	g.AddBidirectional(1, 4, 5)
	g.EdgeNodes = []int{0, 1, 2, 3, 4, 5}
	return te.NewProblem(g, tunnels.Compute(g, 2))
}

// maintReplica gates an inner replica behind a maintenance switch — the
// fleet-facing shape of a replica whose host is being drained for a
// planned wave. While down it fails fast (distinct from a chaos crash:
// maintenance is announced, so the error is typed and immediate).
type maintReplica struct {
	inner Replica
	mu    sync.Mutex
	down  bool
}

var errMaintenance = errors.New("replica down for planned maintenance")

func (m *maintReplica) setDown(down bool) {
	m.mu.Lock()
	m.down = down
	m.mu.Unlock()
}

func (m *maintReplica) isDown() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down
}

func (m *maintReplica) Serve(ctx context.Context, p *te.Problem, demand *tensor.Dense) (resilience.Decision, error) {
	if m.isDown() {
		return resilience.Decision{}, errMaintenance
	}
	return m.inner.Serve(ctx, p, demand)
}

func (m *maintReplica) Reload(path string) error {
	if m.isDown() {
		return errMaintenance
	}
	return m.inner.Reload(path)
}

func (m *maintReplica) Drain(ctx context.Context) error {
	if m.isDown() {
		return nil // already out of rotation
	}
	return m.inner.Drain(ctx)
}

// mluBound is the acceptance ceiling on served-MLU / LP-optimal-MLU for
// non-partitioned steps. The serving chain's worst tier is uniform ECMP
// over K=2 tunnels, whose ratio on this topology stays under ~4 even for
// adversarial demands; 10 leaves slack for an untrained model while still
// catching the real failure modes (splits routed onto a failed link's
// FailedCapacity blow the ratio past 100).
const mluBound = 10.0

// TestFleetScenarioTorture replays the canned correlated-disaster script
// end to end against a live fleet.
func TestFleetScenarioTorture(t *testing.T) {
	before := runtime.NumGoroutine()
	p := disasterProblem()
	probe := demand(p, 4, 2)
	const steps, seed, replicas = 18, 42, 4

	sc := scenario.Auto(p, replicas, steps, seed)
	tcfg := traffic.DefaultSeriesConfig(float64(p.Graph.NumNodes) * 10)

	// The adversary attacks the same weights the fleet serves: each
	// hostile step runs a short PGA ascent through a reference copy of
	// the model. Contexts are cached per damage state; the hook runs on
	// the sequential stepping goroutine only.
	refModel := core.New(tinyConfig())
	ctxs := map[uint64]*core.Context{}
	adversary := func(ap *te.Problem, benign *tensor.Dense) (*tensor.Dense, error) {
		c, ok := ctxs[ap.Fingerprint()]
		if !ok {
			c = refModel.Context(ap)
			ctxs[ap.Fingerprint()] = c
		}
		res, err := verify.AdversarialTM(ap, benign, func(d *tensor.Dense) (*tensor.Dense, error) {
			return refModel.Splits(c, d), nil
		}, verify.AdversaryOptions{Steps: 4, StepSize: 0.5})
		if err != nil {
			return nil, err
		}
		return res.Demand, nil
	}

	pl, err := scenario.NewPlayer(sc, scenario.Config{Problem: p, Traffic: tcfg, Adversary: adversary})
	if err != nil {
		t.Fatal(err)
	}

	// The OOD guard's envelope is trained on exactly the benign series the
	// player perturbs, so quiet steps are in-profile by construction and
	// every deviation the script injects is real.
	guard := resilience.NewOODGuard()
	profile := resilience.NewOODProfile()
	benign := traffic.Series(p.Graph, steps, tcfg, seed)
	series := make([]*tensor.Dense, len(benign))
	for i, tm := range benign {
		series[i] = traffic.DemandVector(tm, p.Tunnels.Flows)
	}
	if err := profile.ObserveSeries(p, series); err != nil {
		t.Fatal(err)
	}
	guard.SetProfile(profile)

	// Each replica tallies its own OOD verdicts; servers collects them.
	var servers []*resilience.Server
	newGuarded := func() Replica {
		s := resilience.NewServer(core.New(tinyConfig()), resilience.Options{
			Deadline:     2 * time.Second,
			Probe:        p,
			ProbeDemand:  probe,
			CacheEntries: 64,
			OOD:          guard,
		})
		servers = append(servers, s)
		return Local{S: s}
	}

	// Replicas 0 and 1 take the maintenance wave; replica 2 is byzantine
	// (NaN answers 30% of the time); replica 3 is healthy.
	maint := []*maintReplica{
		{inner: newGuarded()},
		{inner: newGuarded()},
	}
	nanFault := chaosreplica.New(newGuarded(), chaosreplica.Plan{Seed: 7, CrashAfter: -1, PNaN: 0.3})
	defer nanFault.Release()
	rs := []Replica{maint[0], maint[1], nanFault, newGuarded()}

	f := New(rs, Options{
		Deadline:               3 * time.Second,
		TryTimeout:             250 * time.Millisecond,
		RetryBudget:            1,
		RetryBurst:             500,
		quarantineThreshold:    3,
		probationSuccesses:     2,
		maxQuarantinedFraction: 0.75,
		HealthInterval:         10 * time.Millisecond,
		Probe:                  p,
		ProbeDemand:            probe,
		ShardByTopology:        true,
	})
	defer func() {
		f.Close()
		assertNoLeakedGoroutines(t, before)
	}()

	const workersPerStep = 4
	var (
		mu             sync.Mutex
		failures       []string
		hostileServed  int
		worstRatio     float64
		sawCut         bool
		sawPartitioned bool
	)
	report := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	run := func() {
		baseFP := p.Fingerprint()
		for ti := 0; ti < pl.Steps(); ti++ {
			step, err := pl.Step(ti)
			if err != nil {
				report("step %d: %v", ti, err)
				return
			}
			if step.Problem.Fingerprint() != baseFP {
				sawCut = true
			}
			if step.Partitioned {
				sawPartitioned = true
			}

			// Maintenance actions take effect before this step's traffic.
			for _, r := range step.Quarantine {
				if r < len(maint) {
					maint[r].setDown(true)
				}
			}
			for _, r := range step.Release {
				if r < len(maint) {
					maint[r].setDown(false)
				}
			}
			// Let the health prober observe the new replica state so the
			// wave actually moves fleet membership, not just error rates.
			if len(step.Quarantine)+len(step.Release) > 0 {
				for i := 0; i < 4; i++ {
					f.CheckHealth()
				}
			}

			opt := lp.Solve(step.Problem, step.Demand)

			var wg sync.WaitGroup
			for w := 0; w < workersPerStep; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					dec := f.Serve(step.Problem, step.Demand)
					if dec.Err != nil && !errors.Is(dec.Err, ErrNoReplicas) {
						report("step %d: %v", ti, dec.Err)
						return
					}
					// Every resolved answer — replica or local fallback —
					// must carry routable, normalized, vetted splits.
					assertValidSplits(t, step.Problem, dec.Splits)
					if _, err := resilience.VetSplits(step.Problem, dec.Splits); err != nil {
						report("step %d: served splits failed vetting: %v", ti, err)
						return
					}
					if dec.Err == nil {
						// The guard's contract: hostile never touches the
						// model or the cache; suspect is served by the model
						// but never from the cache.
						switch dec.OOD {
						case resilience.OODHostile:
							mu.Lock()
							hostileServed++
							mu.Unlock()
							if dec.Tier != resilience.TierECMP {
								report("step %d: hostile request served %v", ti, dec.Tier)
							}
						case resilience.OODSuspect:
							if dec.Tier == resilience.TierCached {
								report("step %d: suspect request served %v", ti, dec.Tier)
							}
						}
					}
					// MLU acceptance: rescaled off dead tunnels (the
					// controller-install convention), the served routing
					// must stay within mluBound of the LP optimum. No
					// bound is claimable on partitioned steps.
					if !step.Partitioned && opt.MLU > 0 {
						ratio := step.Problem.MLU(te.Rescale(step.Problem, dec.Splits), step.Demand) / opt.MLU
						mu.Lock()
						if ratio > worstRatio {
							worstRatio = ratio
						}
						mu.Unlock()
						if ratio > mluBound {
							report("step %d (%v): MLU ratio %.2f exceeds %.0f", ti, step.Labels, ratio, mluBound)
						}
					}
				}()
			}
			wg.Wait()

			// During the maintenance wave the quarantined replicas must be
			// out of rotation, yet the fleet keeps answering (asserted by
			// the workers above having resolved).
			if len(step.Quarantine) > 0 {
				for _, r := range step.Quarantine {
					if r < len(maint) && f.ReplicaHealth(r) == Healthy {
						report("step %d: replica %d still healthy mid-maintenance", ti, r)
					}
				}
			}
		}
	}

	done := make(chan struct{})
	go func() { defer close(done); run() }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("scenario torture hung") // the zero-hangs acceptance bar
	}
	for _, msg := range failures {
		t.Error(msg)
	}

	if !sawCut {
		t.Error("scenario never damaged the topology")
	}
	if sawPartitioned {
		t.Error("auto scenario partitioned a survivable topology")
	}
	var st resilience.OODStats
	for _, s := range servers {
		o := s.Stats().OOD
		st.InProfile += o.InProfile
		st.Suspect += o.Suspect
		st.Hostile += o.Hostile
		st.HostileDemotions += o.HostileDemotions
		st.CacheBypasses += o.CacheBypasses
	}
	t.Logf("ood verdicts: in-profile %d, suspect %d, hostile %d (demotions %d, cache bypasses %d); worst MLU ratio %.2f",
		st.InProfile, st.Suspect, st.Hostile, st.HostileDemotions, st.CacheBypasses, worstRatio)
	if st.Hostile == 0 {
		t.Error("the flash-crowd and adversarial windows never classified hostile")
	}
	if st.HostileDemotions != st.Hostile {
		t.Errorf("every hostile verdict must demote: %+v", st)
	}
	if st.CacheBypasses != st.Hostile+st.Suspect {
		t.Errorf("every out-of-profile verdict must bypass the cache: %+v", st)
	}
	if hostileServed == 0 {
		t.Error("no hostile-classified request resolved through the fleet")
	}

	fs := f.Stats()
	if fs.Served == 0 {
		t.Fatalf("fleet served nothing: %+v", fs)
	}
	if fs.Rejected != 0 {
		t.Fatalf("valid scenario inputs were rejected: %+v", fs)
	}
}
