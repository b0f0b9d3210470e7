// Command tereplay simulates HARP operating as a live TE controller: it
// trains on the first clusters of a synthetic AnonNet-like series, then
// replays the remaining snapshots in order — recomputing split ratios per
// snapshot exactly as the controller would at each interval — and reports
// the NormMLU timeline, flagging topology events and failures as they
// stream past.
//
// The replay loop serves each snapshot through the guarded inference path
// (internal/resilience): inputs are validated, panics become errors, every
// output is vetted for NaN and row normalization, and a per-request deadline
// is enforced: a request that runs out of time ships the RAU iterate it has
// (still the full tier, marked degraded), or ECMP if it has none. The tier
// that served each snapshot is shown in the timeline and totaled at the
// end.
//
// Usage:
//
//	tereplay [-nodes N] [-snapshots N] [-seed N] [-epochs N] [-every N]
//	         [-deadline D] [-replicas N] [-hedge-quantile Q]
//	         [-retry-budget R] [-metrics-addr host:port]
//	         [-cache-entries N] [-shard]
//	         [-trace-dump FILE] [-trace-sample N] [-quality-every N]
//	         [-scenario FILE|auto]
//
// With -replicas N > 1 the replay serves through internal/fleet instead
// of a single server: N replicas of the trained model behind the
// health-checked dispatcher, with hedged requests after the adaptive
// -hedge-quantile latency delay and failover retries bounded by the
// -retry-budget token bucket. -shard routes by topology cluster
// (rendezvous hashing over the topology fingerprint) so each replica's
// caches stay hot. The fleet summary line at the end reports hedges,
// retries, ejections, and local ECMP fallbacks.
//
// -cache-entries enables the split-ratio cache; the summary then reports
// its hit rate. The replay is sequential and every snapshot is new, so it
// hits only on repeats; bench/ is the load generator (go run ./bench).
//
// With -metrics-addr the replay serves the observability admin endpoint
// while it runs: per-tier request counters and latency histograms, forward
// -pass stage timings, pool gauges, build info, and SLO burn-rate gauges
// on /metrics, plus expvar, pprof, and the flight-recorder trace dump
// under /debug/ (and the harp_fleet_* series when -replicas > 1).
//
// -trace-dump (or -metrics-addr) arms the per-request flight recorder:
// every request runs under a trace whose spans cover fleet dispatch,
// queue waits, cache hits/misses, plan hits/builds, and per-stage forward
// timings. Tail-based sampling keeps errors, sheds, hedge wins, and
// p99-slow requests while retaining only 1-in-(-trace-sample) of the
// boring ones; the retained ring is written as JSON at exit (and served
// live on /debug/traces). -quality-every N re-solves one in N served
// requests with the exact simplex oracle in the background and reports
// the achieved/optimal MLU ratio — the live answer to "how far from
// optimal is what we are serving".
//
// -scenario runs a correlated-disaster drill after the replay: a
// seed-replayable script of SRLG fiber cuts, flash crowds, sustained demand
// shifts, adversarial traffic matrices (gradient-ascended against the
// trained weights), and maintenance waves that quarantine fleet replicas
// (ignored with -replicas 1). Pass a scenario JSON file, or "auto" for the
// canned everything-at-once script. The drill arms the out-of-distribution
// serving guard: its envelope is trained on the scenario's own benign
// traffic immediately before the drill, so suspect/hostile demotions in the
// summary line are script-induced — but for the fleet's health probes after
// a maintenance wave, which replay the first test snapshot and are graded
// like any request — and the replay runs unguarded. The summary reports
// quiet vs disaster NormMLU (MLU degradation), shed rate, the guard's
// verdict counts, and the replicas the waves ejected and re-admitted.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"harpte/internal/chaos/scenario"
	"harpte/internal/core"
	"harpte/internal/dataset"
	"harpte/internal/experiments"
	"harpte/internal/fleet"
	"harpte/internal/lp"
	"harpte/internal/obs"
	"harpte/internal/obs/reqtrace"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/traffic"
	"harpte/internal/verify"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 14, "initial node count")
		snapshots = flag.Int("snapshots", 300, "snapshot count")
		seed      = flag.Int64("seed", 1, "seed")
		epochs    = flag.Int("epochs", 30, "training epochs")
		every     = flag.Int("every", 4, "replay every N-th snapshot")
		deadline  = flag.Duration("deadline", 5*time.Second, "per-request wall-clock budget; past it the RAU stops early, or the answer is ECMP (0 disables)")
		maxConc   = flag.Int("max-concurrent", 0, "admission gate: concurrent serving slots (0 disables admission control)")
		queueLen  = flag.Int("max-queue", 0, "admission gate: queued requests beyond the gate before shedding")
		brkN      = flag.Int("breaker-threshold", 0, "consecutive tier failures before its circuit opens (0 disables breakers)")
		brkCool   = flag.Duration("breaker-cooloff", 5*time.Second, "how long a tripped tier stays open before a half-open probe")
		replicas  = flag.Int("replicas", 1, "serve through a fleet of N model replicas (>1 enables the dispatcher)")
		hedgeQ    = flag.Float64("hedge-quantile", 0.95, "fleet: latency quantile after which a hedge fires on a second replica (0 disables hedging)")
		retryBud  = flag.Float64("retry-budget", 0.1, "fleet: retry tokens earned per request; hedges and retries each spend one (negative disables)")
		metrics   = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this host:port during the replay")

		cacheEnt = flag.Int("cache-entries", 0, "split-ratio cache capacity per replica (0 disables the cache)")
		shard    = flag.Bool("shard", false, "fleet: route by topology cluster (rendezvous sharding) instead of round-robin")

		traceDump    = flag.String("trace-dump", "", "write the flight-recorder trace dump to this file at exit (\"-\" for stdout)")
		traceSample  = flag.Int("trace-sample", 64, "flight recorder: probabilistically retain 1-in-N boring traces (errors, sheds, hedge wins and p99-slow requests are always kept)")
		qualityEvery = flag.Int("quality-every", 0, "re-solve 1-in-N served requests with the simplex oracle and score MLU vs optimal (0 disables)")

		scenarioSpec = flag.String("scenario", "", "run a correlated-disaster drill after the replay: a scenario JSON file, or \"auto\" for the canned SRLG-cut + flash-crowd + adversarial + maintenance script")
	)
	flag.Parse()

	// The flight recorder runs whenever someone can see its output: a
	// -trace-dump file at exit, or /debug/traces under -metrics-addr.
	var rec *reqtrace.Recorder
	if *traceDump != "" || *metrics != "" {
		rec = reqtrace.NewRecorder(reqtrace.Options{SampleEvery: *traceSample})
	}
	var reg *obs.Registry
	var slos *resilience.SLOSet
	if *metrics != "" {
		reg = obs.NewRegistry()
		core.RegisterRuntimeGauges(reg)
		obs.RegisterBuildInfo(reg, obs.L("component", "tereplay"))
		// Every ended span feeds harp_request_stage_seconds{stage}.
		rec.EnableTelemetry(reg)
		// One SLO set shared by all replicas: a burn-rate series reports
		// the sum of the functions registered on it, so per-server sets
		// would add their ratios up on a shared registry.
		slos = resilience.NewSLOSet()
		slos.Register(reg)
		admin, err := obs.ServeAdminOpts(*metrics, obs.AdminOptions{Registry: reg, Traces: rec})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tereplay:", err)
			os.Exit(1)
		}
		defer admin.Close()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", admin.Addr())
	}
	var qm *verify.QualityMonitor
	if *qualityEvery > 0 {
		qm = verify.NewQualityMonitor(verify.QualityOptions{
			SampleEvery: *qualityEvery,
			OnSample:    func(_ float64, good bool) { slos.RecordQuality(good) },
		})
		defer qm.Close()
		qm.EnableTelemetry(reg)
	}

	cfg := experiments.AnonNetConfig(experiments.Small)
	cfg.Nodes = *nodes
	cfg.Snapshots = *snapshots
	cfg.Seed = *seed
	ds := dataset.Generate(cfg)
	fmt.Printf("dataset: %d snapshots, %d clusters\n", len(ds.Snapshots), len(ds.Clusters))

	// Train on the earliest substantial clusters, as the fig4 protocol does.
	trainClusters := map[int]bool{}
	var trainInst, valInst []*experiments.Instance
	picked := 0
	for ci := range ds.Clusters {
		if len(ds.Clusters[ci].Snapshots) < 8 {
			continue
		}
		inst := experiments.ClusterInstances(ds, ci, 1)
		if picked < 3 {
			trainInst = append(trainInst, inst...)
			trainClusters[ci] = true
		} else if picked < 5 {
			valInst = append(valInst, inst...)
			trainClusters[ci] = true
		} else {
			break
		}
		picked++
	}
	model := core.New(core.DefaultConfig())
	tc := core.DefaultTrainConfig()
	tc.Epochs = *epochs
	tc.Metrics = reg
	fmt.Printf("training on %d snapshots (%d validation)...\n", len(trainInst), len(valInst))
	res := model.Fit(experiments.HarpSamples(model, trainInst),
		experiments.HarpSamples(model, valInst), tc)
	fmt.Printf("trained: best val MLU %.4f\n\n", res.BestValMLU)

	if *replicas < 1 {
		*replicas = 1
	}
	// The OOD guard is shared by every replica; its profile envelope is
	// installed only when the -scenario drill starts, so the replay serves
	// unguarded (an empty guard fails open).
	var guard *resilience.OODGuard
	if *scenarioSpec != "" {
		guard = resilience.NewOODGuard()
	}
	// Replicas share the trained model (inference is concurrency-safe and
	// the weights are immutable behind each server's atomic swap); each
	// replica still gets its own guards, breakers, and reload generation.
	servers := make([]*resilience.Server, *replicas)
	backends := make([]fleet.Replica, *replicas)
	for i := range servers {
		servers[i] = resilience.NewServer(model, resilience.Options{
			Deadline:         *deadline,
			MaxConcurrent:    *maxConc,
			MaxQueueDepth:    *queueLen,
			BreakerThreshold: *brkN,
			BreakerCooloff:   *brkCool,
			CacheEntries:     *cacheEnt,
			SLO:              slos,
			Quality:          qm,
			OOD:              guard,
		})
		// Same metric names resolve to shared counters, and scrape-time
		// views on one series add up, so the registry shows the
		// fleet-wide aggregate.
		servers[i].EnableTelemetry(reg)
		backends[i] = fleet.Local{S: servers[i]}
	}
	// Scenario maintenance waves quarantine replicas through these shims;
	// they are transparent pass-throughs until a wave marks one down.
	var maintShims []*maintShim
	if *scenarioSpec != "" && *replicas > 1 {
		maintShims = make([]*maintShim, len(backends))
		for i := range backends {
			maintShims[i] = &maintShim{inner: backends[i]}
			backends[i] = maintShims[i]
		}
	}
	requestOf := func(snap dataset.Snapshot) (*te.Problem, *tensor.Dense) {
		c := ds.Clusters[snap.Cluster]
		return te.NewProblem(snap.Graph, c.Tunnels), traffic.DemandVector(snap.TM, c.Tunnels.Flows)
	}
	// The first test snapshot is the drill's base problem and the fleet's
	// health probe: CheckHealth does nothing without one, and a probe is the
	// only request that reaches a quarantined replica.
	var base *te.Problem
	var baseDemand *tensor.Dense
	for si := 0; si < len(ds.Snapshots) && base == nil; si += *every {
		if !trainClusters[ds.Snapshots[si].Cluster] {
			base, baseDemand = requestOf(ds.Snapshots[si])
		}
	}
	srv := servers[0]
	var fl *fleet.Fleet
	if *replicas > 1 {
		fl = fleet.New(backends, fleet.Options{
			Deadline:        *deadline,
			HedgeQuantile:   *hedgeQ,
			RetryBudget:     *retryBud,
			ShardByTopology: *shard,
			Probe:           base,
			ProbeDemand:     baseDemand,
		})
		defer fl.Close()
		fl.EnableTelemetry(reg)
	}

	serveOne := func(p *te.Problem, d *tensor.Dense) resilience.Decision {
		ctx := context.Background()
		var root *reqtrace.Span
		if rec != nil {
			ctx, root = rec.StartTrace(ctx, "request")
		}
		var dec resilience.Decision
		if fl != nil {
			dec = fl.ServeCtx(ctx, p, d).Decision
		} else {
			dec = srv.ServeCtx(ctx, p, d)
		}
		root.End()
		return dec
	}

	fmt.Println("  t  cluster  event            tier         HARP-MLU  optimal   NormMLU")
	var norms []float64
	tierLat := map[resilience.Tier][]time.Duration{}
	lastCluster := -1
	for si := 0; si < len(ds.Snapshots); si += *every {
		snap := ds.Snapshots[si]
		if trainClusters[snap.Cluster] {
			continue // skip the training/validation window
		}
		p, d := requestOf(snap)
		t0 := time.Now()
		dec := serveOne(p, d)
		tierLat[dec.Tier] = append(tierLat[dec.Tier], time.Since(t0))
		if dec.Tier == resilience.TierRejected {
			fmt.Fprintf(os.Stderr, "tereplay: snapshot %d rejected: %v\n", si, dec.Err)
			continue
		}
		mlu := p.MLU(dec.Splits, d)
		opt := lp.Solve(p, d).MLU
		norm := te.NormMLU(mlu, opt)
		norms = append(norms, norm)

		var events []string
		if snap.Cluster != lastCluster {
			events = append(events, "new-cluster/tunnels")
			lastCluster = snap.Cluster
		}
		for id := range snap.Graph.Edges {
			if !snap.Graph.IsActive(id) {
				events = append(events, "link-down")
				break
			}
		}
		marker := ""
		if norm > 1.2 {
			marker = "  <-- degraded"
		}
		fmt.Printf("%4d  %6d  %-16s %-12s %8.4f  %8.4f  %7.3f%s\n",
			si, snap.Cluster, strings.Join(events, ","), dec.Tier, mlu, opt, norm, marker)
	}
	if len(norms) == 0 {
		fmt.Fprintln(os.Stderr, "tereplay: no test snapshots (dataset too small?)")
		os.Exit(1)
	}
	d := experiments.NewDistribution(norms)
	fmt.Printf("\nreplayed %d snapshots: %s\n", len(norms), d.CDFRow())
	counts := map[resilience.Tier]int64{}
	for _, s := range servers {
		for tier, n := range s.TierCounts() {
			counts[tier] += n
		}
	}
	fmt.Printf("serving tiers: cached=%d full=%d ecmp=%d rejected=%d shed=%d\n",
		counts[resilience.TierCached], counts[resilience.TierFull], counts[resilience.TierECMP],
		counts[resilience.TierRejected], counts[resilience.TierShed])
	for _, tier := range []resilience.Tier{resilience.TierCached, resilience.TierFull, resilience.TierECMP} {
		if lats := tierLat[tier]; len(lats) > 0 {
			fmt.Printf("tier latency %-12s %s (n=%d)\n", tier.String()+":", percentileRow(lats), len(lats))
		}
	}
	st := srv.Stats()
	fmt.Printf("overload/churn: shed=%d (queue-full=%d deadline=%d draining=%d) breaker-trips=%d breaker=%v short-circuits=%d reloads=%d (failed=%d) generation=%d\n",
		st.Shed, st.ShedQueueFull, st.ShedQueueDeadline, st.ShedDraining,
		st.BreakerTrips, st.BreakerState, st.BreakerShortCircuits,
		st.Generation, st.ReloadFailures, st.Generation)
	if fl != nil {
		fst := fl.Stats()
		fmt.Printf("fleet: replicas=%d (healthy=%d degraded=%d quarantined=%d) served=%d ecmp-fallback=%d hedges=%d (wins=%d) retries=%d (denied=%d) ejections=%d readmits=%d\n",
			fst.Replicas, fst.Healthy, fst.Degraded, fst.Quarantined,
			fst.Served, fst.LocalFallbacks, fst.Hedges, fst.HedgeWins,
			fst.Retries, fst.RetryBudgetDenied, fst.Ejections, fst.Readmissions)
	}
	printCacheStats(servers, *cacheEnt)

	if *scenarioSpec != "" {
		err := runScenarioDrill(*scenarioSpec, base, model, guard, servers, serveOne, fl, maintShims, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tereplay: scenario:", err)
			os.Exit(1)
		}
	}

	if qm != nil {
		qm.Drain()
		qst := qm.Stats()
		fmt.Printf("quality: offered=%d sampled=%d dropped=%d worst-ratio=%.4f\n",
			qst.Offered, qst.Sampled, qst.Dropped, qst.WorstRatio)
	}
	for _, s := range slos.Snapshot() {
		fmt.Printf("slo %-13s burn 5m=%.2f 1h=%.2f\n", s.Name+":", s.Burn5m, s.Burn1h)
	}
	if *traceDump != "" {
		w := os.Stdout
		if *traceDump != "-" {
			fh, err := os.Create(*traceDump)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tereplay:", err)
				os.Exit(1)
			}
			defer fh.Close()
			w = fh
		}
		if err := rec.WriteJSON(w); err != nil {
			fmt.Fprintln(os.Stderr, "tereplay: trace dump:", err)
			os.Exit(1)
		}
		rst := rec.RecorderStats()
		fmt.Fprintf(os.Stderr, "traces: retained=%d dropped=%d\n", rst.Retained, rst.Dropped)
	}
}

// maintShim gates a fleet replica behind a maintenance switch: scenario
// maintenance waves mark it down, it fails fast, and the fleet's health
// checks move it out of rotation until the wave releases it.
type maintShim struct {
	inner fleet.Replica
	mu    sync.Mutex
	down  bool
}

var errMaintenance = fmt.Errorf("replica down for planned maintenance")

func (m *maintShim) setDown(down bool) {
	m.mu.Lock()
	m.down = down
	m.mu.Unlock()
}

func (m *maintShim) isDown() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down
}

func (m *maintShim) Serve(ctx context.Context, p *te.Problem, d *tensor.Dense) (resilience.Decision, error) {
	if m.isDown() {
		return resilience.Decision{}, errMaintenance
	}
	return m.inner.Serve(ctx, p, d)
}

func (m *maintShim) Reload(path string) error {
	if m.isDown() {
		return errMaintenance
	}
	return m.inner.Reload(path)
}

func (m *maintShim) Drain(ctx context.Context) error {
	if m.isDown() {
		return nil // already out of rotation
	}
	return m.inner.Drain(ctx)
}

// runScenarioDrill replays a correlated-disaster scenario against the live
// serving path: SRLG fiber cuts reshape the topology, flash crowds and
// sustained shifts bend the traffic, adversarial windows serve demands
// gradient-ascended against the trained weights (verify.AdversarialTM),
// and maintenance waves quarantine fleet replicas. The OOD guard's
// envelope is trained on the scenario's own benign series immediately
// before the drill, so every demotion in the summary is script-induced.
func runScenarioDrill(spec string, base *te.Problem, model *core.Model, guard *resilience.OODGuard,
	servers []*resilience.Server, serve func(*te.Problem, *tensor.Dense) resilience.Decision,
	fl *fleet.Fleet, maint []*maintShim, seed int64) error {
	var sc scenario.Scenario
	if spec == "auto" {
		sc = scenario.Auto(base, len(servers), 30, seed)
	} else {
		var err error
		sc, err = scenario.ParseFile(spec)
		if err != nil {
			return err
		}
	}
	tcfg := traffic.DefaultSeriesConfig(float64(base.Graph.NumNodes) * 10)

	// The adversary attacks the weights actually serving; contexts are
	// cached per damage state (the drill is sequential).
	ctxs := map[uint64]*core.Context{}
	adversary := func(p *te.Problem, benign *tensor.Dense) (*tensor.Dense, error) {
		c, ok := ctxs[p.Fingerprint()]
		if !ok {
			c = model.Context(p)
			ctxs[p.Fingerprint()] = c
		}
		res, err := verify.AdversarialTM(p, benign, func(d *tensor.Dense) (*tensor.Dense, error) {
			return model.Splits(c, d), nil
		}, verify.AdversaryOptions{Steps: 8})
		if err != nil {
			return nil, err
		}
		return res.Demand, nil
	}
	pl, err := scenario.NewPlayer(sc, scenario.Config{Problem: base, Traffic: tcfg, Adversary: adversary})
	if err != nil {
		return err
	}

	// Arm the guard on exactly the benign series the player perturbs, so
	// quiet steps stay in-profile by construction.
	if sc.Total > 0 {
		tcfg.Total = sc.Total // mirror NewPlayer's override
	}
	profile := resilience.NewOODProfile()
	demands := make([]*tensor.Dense, 0, sc.Steps)
	for _, tm := range traffic.Series(base.Graph, sc.Steps, tcfg, sc.Seed) {
		demands = append(demands, traffic.DemandVector(tm, base.Tunnels.Flows))
	}
	if err := profile.ObserveSeries(base, demands); err != nil {
		return err
	}
	guard.SetProfile(profile)

	fmt.Printf("\nscenario %q: %d steps, seed %d\n", sc.Name, sc.Steps, sc.Seed)
	fmt.Println("  t  events                                    tier         HARP-MLU  optimal   NormMLU")
	var quiet, disaster []float64
	shed := 0
	for t := 0; t < pl.Steps(); t++ {
		step, err := pl.Step(t)
		if err != nil {
			return err
		}
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
		if fl != nil && len(step.Quarantine)+len(step.Release) > 0 {
			// Let the health checker observe the new replica state so the
			// wave moves fleet membership, not just error rates.
			for i := 0; i < 4; i++ {
				fl.CheckHealth()
			}
		}
		events := strings.Join(step.Labels, ",")
		dec := serve(step.Problem, step.Demand)
		if dec.Splits == nil {
			shed++
			fmt.Printf("%4d  %-41s %-12s (no answer: %v)\n", t, events, dec.Tier, dec.Err)
			continue
		}
		// Rescale off dead tunnels — the controller-install convention —
		// before scoring, so cut-window MLU reflects installed routing.
		mlu := step.Problem.MLU(te.Rescale(step.Problem, dec.Splits), step.Demand)
		opt := lp.Solve(step.Problem, step.Demand).MLU
		norm := te.NormMLU(mlu, opt)
		if !step.Partitioned {
			if len(step.Labels) == 0 {
				quiet = append(quiet, norm)
			} else {
				disaster = append(disaster, norm)
			}
		}
		fmt.Printf("%4d  %-41s %-12s %8.4f  %8.4f  %7.3f\n", t, events, dec.Tier, mlu, opt, norm)
	}

	quietMean, disasterMean := mean(quiet), mean(disaster)
	degradation := 0.0
	if quietMean > 0 {
		degradation = disasterMean / quietMean
	}
	var st resilience.OODStats
	for _, s := range servers {
		o := s.Stats().OOD
		st.Suspect += o.Suspect
		st.Hostile += o.Hostile
		st.HostileDemotions += o.HostileDemotions
		st.CacheBypasses += o.CacheBypasses
	}
	total := pl.Steps()
	fmt.Printf("scenario summary: quiet NormMLU %.3f (n=%d), disaster NormMLU %.3f (n=%d), MLU degradation %.2fx, shed %d/%d (%.1f%%), ood suspect=%d hostile=%d demotions=%d cache-bypasses=%d\n",
		quietMean, len(quiet), disasterMean, len(disaster), degradation,
		shed, total, 100*float64(shed)/float64(total),
		st.Suspect, st.Hostile, st.HostileDemotions, st.CacheBypasses)
	if fl != nil {
		fst := fl.Stats()
		fmt.Printf("scenario fleet: ejections=%d readmits=%d quarantined=%d\n", fst.Ejections, fst.Readmissions, fst.Quarantined)
	}
	return nil
}

// mean returns the arithmetic mean, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// percentileRow formats p50/p99/p999 of a latency sample.
func percentileRow(lats []time.Duration) string {
	return fmt.Sprintf("p50=%v p99=%v p999=%v",
		percentile(lats, 0.50), percentile(lats, 0.99), percentile(lats, 0.999))
}

// percentile returns the q-quantile (nearest-rank on a sorted copy).
func percentile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s)-1) + 0.5)
	return s[idx]
}

// printCacheStats aggregates and prints split-cache effectiveness across
// the replicas, when the cache is enabled.
func printCacheStats(servers []*resilience.Server, cacheEnt int) {
	if cacheEnt <= 0 {
		return
	}
	var cs resilience.CacheStats
	for _, s := range servers {
		st := s.Stats()
		cs.Hits += st.Cache.Hits
		cs.Misses += st.Cache.Misses
		cs.Evictions += st.Cache.Evictions
		cs.Size += st.Cache.Size
		cs.Bytes += st.Cache.Bytes
	}
	total := cs.Hits + cs.Misses
	rate := 0.0
	if total > 0 {
		rate = float64(cs.Hits) / float64(total)
	}
	fmt.Printf("split cache: hits=%d misses=%d (hit-rate %.1f%%) evictions=%d entries=%d bytes=%d\n",
		cs.Hits, cs.Misses, 100*rate, cs.Evictions, cs.Size, cs.Bytes)
}
