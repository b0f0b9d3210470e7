package resilience

// Hot model reload. Retraining on a changed topology produces a new
// checkpoint while the old model keeps serving; Reload swaps the new
// weights in without dropping a single in-flight request. The new model is
// validated entirely off the serving path — structural checks and
// non-finite rejection in core.Load, then a canary inference on a pinned
// probe problem whose output must vet — and only then atomically published.
// A failed reload changes nothing: the old model keeps serving and the
// breaker does not trip.

import (
	"fmt"
	"os"

	"harpte/internal/core"
)

// Reload validates the model checkpoint at path and, if healthy, swaps it
// in as the serving model. Validation happens entirely off the serving
// path: core.Load's structural and non-finite checks, then a canary
// inference (on Options.Probe, or the most recently served problem when no
// probe is pinned) whose output must pass the same vetting Serve applies.
// On any failure the old model keeps serving and the error is returned.
func (s *Server) Reload(path string) error {
	fail := func(stage string, err error) error {
		s.reloadFailures.Add(1)
		return fmt.Errorf("resilience: reload %s: %s: %w", path, stage, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return fail("open", err)
	}
	m, err := core.Load(f)
	f.Close()
	if err != nil {
		return fail("decode", err)
	}
	if err := s.canary(m); err != nil {
		return fail("canary", err)
	}
	s.model.Store(m)
	// Cached answers embody the old weights; they must not outlive them.
	if s.cache != nil {
		s.cache.purge()
	}
	s.genGauge.Set(float64(s.generation.Add(1)))
	return nil
}

// canary runs one guarded inference on the candidate model and vets the
// output, so a model that decodes cleanly but panics or emits garbage is
// rejected before it can serve. With no pinned probe and no serving
// history yet, only the decode-time checks apply.
func (s *Server) canary(m *core.Model) (err error) {
	p, demand := s.opts.Probe, s.opts.ProbeDemand
	if p == nil {
		s.cacheMu.Lock()
		p = s.lastProb
		s.cacheMu.Unlock()
		demand = nil
		if p == nil {
			return nil
		}
	}
	if demand == nil {
		demand = zeroDemand(p)
	}
	if verr := ValidateInput(p, demand); verr != nil {
		return fmt.Errorf("probe problem invalid: %w", verr)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("canary inference panic: %v", r)
		}
	}()
	splits := m.Splits(m.Context(p), demand)
	if _, verr := VetSplits(p, splits); verr != nil {
		return fmt.Errorf("canary output rejected: %w", verr)
	}
	return nil
}

// Generation returns how many successful Reloads have been applied; the
// model NewServer was built with is generation 0.
func (s *Server) Generation() int64 { return s.generation.Load() }

// Stats is a point-in-time snapshot of the server's operational counters —
// the plain-Go mirror of the registry metrics, available without
// telemetry enabled.
type Stats struct {
	// Shed tallies turned-away requests, total and by reason.
	Shed              int64
	ShedQueueFull     int64
	ShedQueueDeadline int64
	ShedDraining      int64
	// QueueDepth / InFlight are instantaneous gauges.
	QueueDepth int64
	InFlight   int64
	Draining   bool
	// Breaker is the model tier's circuit breaker.
	BreakerTrips         int64
	BreakerShortCircuits int64
	BreakerState         BreakerState
	// Reload bookkeeping: Generation counts the successful reloads.
	Generation     int64
	ReloadFailures int64
	// The model rung's contexts that ended before full depth, and its
	// recovered panics.
	DeadlineExpirations int64
	PanicRecoveries     int64
	// Cache snapshots the split cache (all-zero when it is disabled).
	Cache CacheStats
	// OOD is this server's out-of-distribution tally (all-zero when
	// Options.OOD is nil).
	OOD OODStats
}

// Stats snapshots the operational counters. Counter fields are exact;
// gauge fields (QueueDepth, InFlight) are instantaneous reads.
func (s *Server) Stats() Stats {
	st := Stats{
		ShedQueueFull:       s.sheds[shedQueueFull].Load(),
		ShedQueueDeadline:   s.sheds[shedQueueDeadline].Load(),
		ShedDraining:        s.sheds[shedDraining].Load(),
		QueueDepth:          s.queued.Load(),
		InFlight:            s.inflight.Load(),
		Draining:            s.draining.Load(),
		Generation:          s.generation.Load(),
		ReloadFailures:      s.reloadFailures.Load(),
		DeadlineExpirations: s.deadlines.Load(),
		PanicRecoveries:     s.panics.Load(),
		OOD: OODStats{
			InProfile:        s.oodVerdicts[OODInProfile].Load(),
			Suspect:          s.oodVerdicts[OODSuspect].Load(),
			Hostile:          s.oodVerdicts[OODHostile].Load(),
			HostileDemotions: s.oodDemotions.Load(),
			CacheBypasses:    s.oodBypasses.Load(),
		},
	}
	st.Shed = st.ShedQueueFull + st.ShedQueueDeadline + st.ShedDraining
	if s.cache != nil {
		st.Cache = s.cache.stats()
	}
	st.BreakerState, st.BreakerTrips, st.BreakerShortCircuits = s.breaker.snapshot()
	return st
}
