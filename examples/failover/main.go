// Failover: what happens to GEANT when links fail?
//
// This example trains HARP on the healthy GEANT topology, then walks every
// single-link failure scenario and compares three reactions:
//
//   - HARP recomputing splits on the failed topology (no rescaling —
//     the recurrent adjustment unit steers traffic off dead tunnels);
//   - the pre-failure splits with local rescaling (what a fixed-topology
//     scheme like DOTE must do); and
//   - the exact LP optimum on the failed topology.
//
// Run with:
//
//	go run ./examples/failover [-replicas N] [-deadline D]
//	    [-max-concurrent N] [-max-queue N]
//	    [-breaker-threshold N] [-breaker-cooloff D]
//	    [-hedge-quantile Q] [-retry-budget R]
//	    [-metrics-addr host:port]
//
// The sweep is served through a self-healing fleet of -replicas model
// replicas (see README.md for the full flag table): health-checked
// dispatch, hedged requests after the adaptive -hedge-quantile latency
// delay, and failover retries bounded by the -retry-budget token bucket.
// With -metrics-addr the run serves the observability admin endpoint:
// training gauges, the per-stage request histograms
// (harp_request_stage_seconds, one observation per span of each served
// request) and the harp_fleet_* series appear on /metrics, and the
// retained traces on /debug/traces, while the failure sweep executes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"harpte/internal/core"
	"harpte/internal/fleet"
	"harpte/internal/lp"
	"harpte/internal/obs"
	"harpte/internal/obs/reqtrace"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/topology"
	"harpte/internal/traffic"
	"harpte/internal/tunnels"
)

func main() {
	log.SetFlags(0)
	var (
		replicas = flag.Int("replicas", 2, "model replicas behind the fleet dispatcher")
		deadline = flag.Duration("deadline", 10*time.Second, "per-request wall-clock budget; past it the RAU stops early, or the answer is ECMP (0 disables)")
		maxConc  = flag.Int("max-concurrent", 0, "per replica: concurrent serving slots (0 disables admission control)")
		maxQueue = flag.Int("max-queue", 0, "per replica: queued requests beyond the gate before shedding")
		brkN     = flag.Int("breaker-threshold", 3, "per replica: consecutive tier failures before its circuit opens (0 disables breakers)")
		brkCool  = flag.Duration("breaker-cooloff", 5*time.Second, "per replica: how long a tripped tier stays open before a half-open probe")
		hedgeQ   = flag.Float64("hedge-quantile", 0.95, "fleet: latency quantile after which a hedge fires on a second replica (0 disables hedging)")
		retryBud = flag.Float64("retry-budget", 0.1, "fleet: retry tokens earned per request; hedges and retries each spend one (negative disables)")
		metrics  = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this host:port")
	)
	flag.Parse()
	var reg *obs.Registry
	var rec *reqtrace.Recorder
	if *metrics != "" {
		reg = obs.NewRegistry()
		core.RegisterRuntimeGauges(reg)
		rec = reqtrace.NewRecorder(reqtrace.Options{})
		rec.EnableTelemetry(reg)
		admin, err := obs.ServeAdminOpts(*metrics, obs.AdminOptions{Registry: reg, Traces: rec})
		if err != nil {
			log.Fatal(err)
		}
		defer admin.Close()
		log.Printf("metrics: http://%s/metrics", admin.Addr())
	}
	g := topology.Geant()
	set := tunnels.Compute(g, 4)
	healthy := te.NewProblem(g, set)
	fmt.Printf("GEANT: %d nodes, %d links, %d flows\n",
		g.NumNodes, g.NumEdges()/2, healthy.NumFlows())

	// Train HARP on healthy traffic (capped below access capacity so core
	// links are the binding constraint, as in real WAN matrices).
	cfg := traffic.DefaultSeriesConfig(520)
	cfg.NoiseSigma = 0.3
	tms := traffic.Series(g, 36, cfg, 7)
	for _, tm := range tms {
		traffic.CapToAccess(tm, g, 0.35)
	}
	model := core.New(core.DefaultConfig())
	hctx := model.Context(healthy)
	var train, val []core.Sample
	for i, tm := range tms[:32] {
		s := core.Sample{Ctx: hctx, Demand: traffic.DemandVector(tm, set.Flows)}
		if i < 27 {
			train = append(train, s)
		} else {
			val = append(val, s)
		}
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs = 40
	tc.Metrics = reg
	model.Fit(train, val, tc)

	// Serve the sweep through a self-healing fleet over the guarded path:
	// each replica validates inputs, vets outputs, enforces the deadline,
	// and runs circuit breakers; the dispatcher on top health-checks the
	// replicas, hedges past slow ones, and retries past broken ones under
	// the token budget.
	if *replicas < 1 {
		*replicas = 1
	}
	demand := traffic.DemandVector(tms[34], set.Flows)
	backends := make([]fleet.Replica, *replicas)
	for i := range backends {
		srv := resilience.NewServer(model, resilience.Options{
			Deadline:         *deadline,
			MaxConcurrent:    *maxConc,
			MaxQueueDepth:    *maxQueue,
			BreakerThreshold: *brkN,
			BreakerCooloff:   *brkCool,
		})
		srv.EnableTelemetry(reg)
		backends[i] = fleet.Local{S: srv}
	}
	fl := fleet.New(backends, fleet.Options{
		Deadline:      *deadline,
		HedgeQuantile: *hedgeQ,
		RetryBudget:   *retryBud,
		Probe:         healthy,
		ProbeDemand:   demand,
	})
	defer fl.Close()
	fl.EnableTelemetry(reg)
	// One root span per served request; on a nil recorder (no
	// -metrics-addr) StartTrace hands the context back untouched.
	serve := func(p *te.Problem) fleet.Decision {
		ctx, root := rec.StartTrace(context.Background(), "request")
		defer root.End()
		return fl.ServeCtx(ctx, p, demand)
	}

	// The test matrix and the splits HARP chose before any failure.
	pre := serve(healthy)
	if pre.Err != nil {
		log.Fatalf("healthy serve failed: %v", pre.Err)
	}
	preSplits := pre.Splits
	fmt.Printf("healthy MLU: HARP %.4f (tier %v), optimal %.4f\n\n",
		healthy.MLU(preSplits, demand), pre.Tier, lp.Solve(healthy, demand).MLU)

	fmt.Println("link failure -> MLU (HARP recompute | rescale old splits | optimal)")
	worstHARP, worstRescale := 0.0, 0.0
	healthyOpt := lp.Solve(healthy, demand).MLU
	for _, link := range g.UndirectedLinks() {
		failedG := g.WithFailedLink(link[0], link[1])
		if !failedG.Connected() {
			continue
		}
		failed := te.NewProblem(failedG, set)
		optMLU := lp.Solve(failed, demand).MLU
		if optMLU > 10*healthyOpt {
			// This failure strands a flow (every provisioned tunnel crosses
			// the link); no TE scheme can route around it — skip.
			fmt.Printf("  %2d<->%-2d   (strands a flow; skipped)\n", link[0], link[1])
			continue
		}

		dec := serve(failed)
		if dec.Err != nil {
			fmt.Printf("  %2d<->%-2d   (serve failed: %v)\n", link[0], link[1], dec.Err)
			continue
		}
		harpMLU := failed.MLU(dec.Splits, demand)
		rescaled := te.Rescale(failed, preSplits)
		rescaleMLU := failed.MLU(rescaled, demand)

		hn, rn := te.NormMLU(harpMLU, optMLU), te.NormMLU(rescaleMLU, optMLU)
		if hn > worstHARP {
			worstHARP = hn
		}
		if rn > worstRescale {
			worstRescale = rn
		}
		fmt.Printf("  %2d<->%-2d   %.4f (%.2fx) | %.4f (%.2fx) | %.4f\n",
			link[0], link[1], harpMLU, hn, rescaleMLU, rn, optMLU)
	}
	fmt.Printf("\nworst-case NormMLU: HARP recompute %.2f, rescaling %.2f\n",
		worstHARP, worstRescale)
	counts := map[resilience.Tier]int64{}
	var trips, shorts int64
	for _, b := range backends {
		srv := b.(fleet.Local).S
		for tier, n := range srv.TierCounts() {
			counts[tier] += n
		}
		st := srv.Stats()
		trips += st.BreakerTrips
		shorts += st.BreakerShortCircuits
	}
	fmt.Printf("serving tiers: full=%d ecmp=%d | breaker trips=%d short-circuits=%d\n",
		counts[resilience.TierFull], counts[resilience.TierECMP], trips, shorts)
	fst := fl.Stats()
	fmt.Printf("fleet: replicas=%d (healthy=%d degraded=%d quarantined=%d) served=%d ecmp-fallback=%d hedges=%d (wins=%d) retries=%d (denied=%d) ejections=%d readmits=%d\n",
		fst.Replicas, fst.Healthy, fst.Degraded, fst.Quarantined,
		fst.Served, fst.LocalFallbacks, fst.Hedges, fst.HedgeWins,
		fst.Retries, fst.RetryBudgetDenied, fst.Ejections, fst.Readmissions)
}
