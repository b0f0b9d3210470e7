package resilience

// SLOSet bundles the three serving objectives the burn-rate alerts watch
// (RUNBOOK.md): availability (the request was answered at all), latency
// (it was answered within the objective), and quality (a sampled answer's
// MLU stayed within the ratio objective of the simplex optimum). The
// serve path records the first two inline — one mutex acquisition each,
// no allocations — and the quality monitor (internal/verify) feeds the
// third through RecordQuality.

import (
	"time"

	"harpte/internal/obs"
)

// The objectives: constants, because no caller ever served under others.
const (
	// sloAvailabilityTarget is the fraction of requests that must be
	// answered (not shed; rejected inputs do not count against it).
	sloAvailabilityTarget = 0.999
	// sloLatencyTarget is the fraction of answered requests that must
	// finish within sloLatencyObjective.
	sloLatencyTarget    = 0.99
	sloLatencyObjective = 50 * time.Millisecond
	// sloQualityTarget is the fraction of quality samples that must score
	// within the monitor's ratio objective.
	sloQualityTarget = 0.99
)

// SLOSet tracks the serving SLOs. Nil disables all recording; Serve
// calls it unconditionally.
type SLOSet struct {
	availability *obs.SLO
	latency      *obs.SLO
	quality      *obs.SLO
}

// NewSLOSet builds the three serving SLOs.
func NewSLOSet() *SLOSet {
	return &SLOSet{
		availability: obs.NewSLO("availability", sloAvailabilityTarget),
		latency:      obs.NewSLO("latency", sloLatencyTarget),
		quality:      obs.NewSLO("quality", sloQualityTarget),
	}
}

// Register exposes all burn-rate gauges on reg. Register the same SLOSet
// (not one per server) when several servers share a registry, since
// gauge registration is last-writer-wins per label set. Nil-safe.
func (s *SLOSet) Register(reg *obs.Registry) {
	if s == nil {
		return
	}
	s.availability.Register(reg)
	s.latency.Register(reg)
	s.quality.Register(reg)
}

// recordServe scores one finished request against the availability and
// latency objectives. Rejected inputs are the caller's fault and count
// against neither; sheds burn availability; answered tiers burn latency
// when they exceed the objective. Nil-safe, no allocations.
func (s *SLOSet) recordServe(t Tier, elapsed time.Duration) {
	if s == nil || t == TierRejected {
		return
	}
	answered := t != TierShed
	s.availability.Record(answered)
	if answered {
		s.latency.Record(elapsed <= sloLatencyObjective)
	}
}

// RecordQuality scores one quality-monitor sample. Wire it as the
// monitor's OnSample hook:
//
//	verify.QualityOptions{OnSample: func(_ float64, good bool) { slos.RecordQuality(good) }}
//
// Nil-safe.
func (s *SLOSet) RecordQuality(good bool) {
	if s == nil {
		return
	}
	s.quality.Record(good)
}

// SLOSnapshot reports each objective's burn rate over both alert
// windows, for operator summaries.
type SLOSnapshot struct {
	Name           string
	Burn5m, Burn1h float64
}

// Snapshot returns the current burn rates, one entry per objective.
// Nil-safe (returns nil).
func (s *SLOSet) Snapshot() []SLOSnapshot {
	if s == nil {
		return nil
	}
	out := make([]SLOSnapshot, 0, 3)
	for _, slo := range []*obs.SLO{s.availability, s.latency, s.quality} {
		out = append(out, SLOSnapshot{
			Name:   slo.Name(),
			Burn5m: slo.BurnRate(obs.SLOShortWindow),
			Burn1h: slo.BurnRate(obs.SLOLongWindow),
		})
	}
	return out
}
