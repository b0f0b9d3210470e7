package fleet

// The registry view of the fleet and the plain-Go Stats snapshot: two
// readers of one set of atomics on Fleet.

import (
	"strconv"
	"sync/atomic"

	"harpte/internal/obs"
)

// Metric names emitted by this package.
const (
	// MetricFleetReplicaState gauges each replica's health (labels:
	// replica="0".."N-1"; 0=healthy, 1=degraded, 2=quarantined).
	MetricFleetReplicaState = "harp_fleet_replica_state"
	// MetricFleetServiceable gauges replicas currently in the dispatch
	// rotation (healthy + degraded).
	MetricFleetServiceable = "harp_fleet_serviceable_replicas"
	// MetricFleetRequests counts Serve calls by outcome (labels:
	// outcome="replica"|"fallback"|"rejected").
	MetricFleetRequests = "harp_fleet_requests_total"
	// MetricFleetHedges counts hedges fired; MetricFleetHedgeWins counts
	// requests the hedge answered first.
	MetricFleetHedges    = "harp_fleet_hedges_total"
	MetricFleetHedgeWins = "harp_fleet_hedge_wins_total"
	// MetricFleetHedgeDelay gauges the current adaptive hedge delay.
	MetricFleetHedgeDelay = "harp_fleet_hedge_delay_seconds"
	// MetricFleetRetries counts failover retries beyond the primary
	// attempt; MetricFleetRetryDenied counts hedges/retries refused by
	// the token budget.
	MetricFleetRetries     = "harp_fleet_retries_total"
	MetricFleetRetryDenied = "harp_fleet_retry_budget_denied_total"
	// MetricFleetProbes counts health-check probes by outcome (labels:
	// result="ok"|"error").
	MetricFleetProbes = "harp_fleet_probes_total"
	// MetricFleetEjections counts quarantine transitions;
	// MetricFleetReadmissions counts probation re-admissions.
	MetricFleetEjections    = "harp_fleet_ejections_total"
	MetricFleetReadmissions = "harp_fleet_readmissions_total"
	// MetricFleetRollingReloads counts RollingReload attempts (labels:
	// result="ok"|"error").
	MetricFleetRollingReloads = "harp_fleet_rolling_reloads_total"
)

// EnableTelemetry exposes the fleet on reg: per-replica health gauges, the
// serviceable-replica and hedge-delay gauges, and counters for requests by
// outcome, hedges (fired/won), retries (fired/denied), probes, ejections,
// re-admissions, and rolling reloads. Every series is a read-through view,
// evaluated at scrape time, of the state Stats reads — there is no second
// tally to drift, and attaching late loses no history. Call it once per
// fleet; several fleets on one registry report their sum. No-op on a nil
// registry. This does not reach into the replicas — enable their telemetry
// (e.g. resilience.Server.EnableTelemetry) separately, with distinct
// registries or shared ones as the deployment wants.
func (f *Fleet) EnableTelemetry(reg *obs.Registry) {
	if reg == nil {
		return
	}
	view := func(name, help string, v *atomic.Int64, labels ...obs.Label) {
		reg.CounterFunc(name, help, func() float64 { return float64(v.Load()) }, labels...)
	}
	const (
		requestsHelp = "Fleet Serve calls by outcome."
		probesHelp   = "Health-check probe inferences by outcome."
		reloadsHelp  = "Rolling reload attempts by outcome."
	)
	view(MetricFleetRequests, requestsHelp, &f.served, obs.L("outcome", "replica"))
	view(MetricFleetRequests, requestsHelp, &f.fallbacks, obs.L("outcome", "fallback"))
	view(MetricFleetRequests, requestsHelp, &f.rejected, obs.L("outcome", "rejected"))
	view(MetricFleetHedges, "Hedge attempts fired after the adaptive hedge delay.", &f.hedges)
	view(MetricFleetHedgeWins, "Requests answered first by their hedge attempt.", &f.hedgeWins)
	view(MetricFleetRetries, "Failover retries beyond the primary attempt.", &f.retries)
	view(MetricFleetRetryDenied, "Hedges and retries refused by the token retry budget.", &f.retryDenied)
	view(MetricFleetProbes, probesHelp, &f.probeOKs, obs.L("result", "ok"))
	view(MetricFleetProbes, probesHelp, &f.probeFails, obs.L("result", "error"))
	view(MetricFleetEjections, "Replicas quarantined (outlier ejections and draining replicas).", &f.ejections)
	view(MetricFleetReadmissions, "Quarantined replicas re-admitted after probation.", &f.readmits)
	view(MetricFleetRollingReloads, reloadsHelp, &f.reloadOK, obs.L("result", "ok"))
	view(MetricFleetRollingReloads, reloadsHelp, &f.reloadErr, obs.L("result", "error"))
	for _, r := range f.replicas {
		r := r
		reg.GaugeFunc(MetricFleetReplicaState,
			"Replica health (0=healthy, 1=degraded, 2=quarantined).",
			func() float64 { return float64(r.healthState()) },
			obs.L("replica", strconv.Itoa(r.id)))
	}
	reg.GaugeFunc(MetricFleetServiceable,
		"Replicas currently in the dispatch rotation (healthy + degraded).",
		func() float64 {
			n := 0
			for _, r := range f.replicas {
				if r.healthState() != Quarantined {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc(MetricFleetHedgeDelay,
		"Current adaptive hedge delay in seconds.",
		func() float64 { return f.hedgeDelay().Seconds() })
}

// Stats is a point-in-time snapshot of the fleet's operational counters —
// what the registry metrics read, available without telemetry enabled.
type Stats struct {
	// Replica census by health state.
	Replicas    int
	Healthy     int
	Degraded    int
	Quarantined int
	// Requests by outcome.
	Served         int64 // answered by a replica
	LocalFallbacks int64 // answered by the local ECMP fallback (ErrNoReplicas)
	Rejected       int64 // invalid input, no splits produced
	// Hedging and retries.
	Hedges            int64
	HedgeWins         int64
	Retries           int64
	RetryBudgetDenied int64
	// Health checking.
	Probes        int64
	ProbeFailures int64
	Ejections     int64
	Readmissions  int64
	// Rolling reloads.
	RollingReloads        int64
	RollingReloadFailures int64
}

// Stats snapshots the operational counters; the health census reads each
// replica's current state.
func (f *Fleet) Stats() Stats {
	st := Stats{
		Replicas:              len(f.replicas),
		Served:                f.served.Load(),
		LocalFallbacks:        f.fallbacks.Load(),
		Rejected:              f.rejected.Load(),
		Hedges:                f.hedges.Load(),
		HedgeWins:             f.hedgeWins.Load(),
		Retries:               f.retries.Load(),
		RetryBudgetDenied:     f.retryDenied.Load(),
		Probes:                f.probeOKs.Load() + f.probeFails.Load(),
		ProbeFailures:         f.probeFails.Load(),
		Ejections:             f.ejections.Load(),
		Readmissions:          f.readmits.Load(),
		RollingReloads:        f.reloadOK.Load(),
		RollingReloadFailures: f.reloadErr.Load(),
	}
	for _, r := range f.replicas {
		switch r.healthState() {
		case Healthy:
			st.Healthy++
		case Degraded:
			st.Degraded++
		case Quarantined:
			st.Quarantined++
		}
	}
	return st
}

// ReplicaHealth returns the health state of replica i (for CLIs and
// tests; metrics expose the same via MetricFleetReplicaState).
func (f *Fleet) ReplicaHealth(i int) Health { return f.replicas[i].healthState() }
