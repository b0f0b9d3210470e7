package fleet

// Per-replica health: a three-state machine (healthy → degraded →
// quarantined) fed by vetted outcomes from real traffic and from probe
// inferences. Degraded replicas stay in the dispatch rotation — a single
// flaky response never amputates capacity, and continued traffic is what
// either heals a degraded replica or finishes ejecting it (the state is
// the early-warning tier operators watch, and it orders rolling
// reloads). Quarantine removes a replica from regular dispatch entirely;
// only probes reach it, and probationSuccesses consecutive probe
// successes re-admit it. Outlier ejection is capped: when quarantining
// one more replica would exceed maxQuarantinedFraction of the fleet, the
// replica stays degraded instead — if most of the fleet looks sick, the
// detector (or its probe) is the more likely fault.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"harpte/internal/te"
	"harpte/internal/tensor"
)

// Health is the dispatcher's view of one replica.
type Health int32

const (
	// Healthy: full member of the dispatch rotation.
	Healthy Health = iota
	// Degraded: recent failures; still in the dispatch rotation (that is
	// how it either heals or finishes failing toward quarantine), but
	// flagged for operators and reloaded last among serviceable replicas.
	Degraded
	// Quarantined: receives no regular traffic, probes only, until
	// probation re-admits it.
	Quarantined
)

// String returns the operator-facing label.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	}
	return "unknown"
}

// replica is the dispatcher's bookkeeping for one backend.
type replica struct {
	id      int
	backend Replica

	// state is the replica's Health, written under mu and read without
	// it: every request reads each candidate's state and reports each
	// success, and a healthy replica is the steady state.
	state atomic.Int32

	mu      sync.Mutex
	consec  int // consecutive failures; 0 whenever the state is Healthy
	probeOK int // consecutive probe successes while quarantined
}

// healthState reads the replica's current state.
func (r *replica) healthState() Health { return Health(r.state.Load()) }

// onSuccess records one vetted, successful answer (traffic or probe).
// Healthy and degraded replicas reset to healthy; quarantined replicas
// advance probation and re-admit after probationSuccesses in a row. On a
// healthy replica, which has no failure streak, it changes nothing, so it
// returns after reading the state.
func (f *Fleet) onSuccess(r *replica) {
	if r.healthState() == Healthy {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.healthState() == Quarantined {
		if r.probeOK++; r.probeOK < f.opts.probationSuccesses {
			return
		}
		r.probeOK = 0
		f.readmits.Add(1)
	}
	r.state.Store(int32(Healthy))
	r.consec = 0
}

// onFailure records one failed attempt (transport error, timeout, panic,
// byzantine answer, or a rejection of validated input). Thresholds move
// the replica healthy → degraded → quarantined, with quarantine subject
// to the ejection cap. A failure during probation resets the probation
// streak.
func (f *Fleet) onFailure(r *replica) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consec++
	switch {
	case r.healthState() == Quarantined:
		r.probeOK = 0
	case r.consec >= f.opts.quarantineThreshold && f.eject(r):
		// Quarantined, under the cap.
	default: // one failure degrades: still in rotation, flagged, on the path to quarantine
		r.state.Store(int32(Degraded))
	}
}

// eject quarantines r when one more quarantine stays under the ejection
// cap, counting the replicas quarantined now, and reports whether it did.
// With the default 0.5 cap a one-replica fleet can never quarantine its
// only replica (floor(0.5·1) = 0) — the dispatcher keeps trying it, which
// is the only useful behavior with nothing to fail over to. ejectMu makes
// the count and the move one step, so concurrent failures on two replicas
// cannot both pass the cap. r.mu held.
func (f *Fleet) eject(r *replica) bool {
	f.ejectMu.Lock()
	defer f.ejectMu.Unlock()
	n := 1
	for _, q := range f.replicas {
		if q.healthState() == Quarantined {
			n++
		}
	}
	if n > int(f.opts.maxQuarantinedFraction*float64(len(f.replicas))) {
		return false
	}
	f.quarantine(r)
	return true
}

// quarantineNow removes a replica from dispatch unconditionally — used
// when the replica itself announced it is going away (ErrDraining), a
// fact that needs no detector and bypasses the ejection cap.
func (f *Fleet) quarantineNow(r *replica) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f.quarantine(r)
}

// quarantine moves r to Quarantined, restarting its probation, and counts
// an ejection unless it was quarantined already. r.mu held.
func (f *Fleet) quarantine(r *replica) {
	if r.healthState() != Quarantined {
		f.ejections.Add(1)
	}
	r.state.Store(int32(Quarantined))
	r.probeOK = 0
}

// probeRequest returns the pinned probe (with a zero demand vector when
// none is pinned), or nil when probing is disabled.
func (f *Fleet) probeRequest() (*te.Problem, *tensor.Dense) {
	p := f.opts.Probe
	if p == nil {
		return nil, nil
	}
	d := f.opts.ProbeDemand
	if d == nil {
		d = tensor.New(p.NumFlows(), 1)
	}
	return p, d
}

// CheckHealth runs one synchronous probe round: every replica (including
// quarantined ones — that is how probation progresses) serves the pinned
// probe, and the outcome — vetted exactly like a real request — feeds its
// state machine. A no-op without a pinned Probe.
func (f *Fleet) CheckHealth() {
	p, d := f.probeRequest()
	if p == nil {
		return
	}
	var wg sync.WaitGroup
	for _, r := range f.replicas {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			if _, err := f.attempt(context.Background(), r, p, d); err != nil {
				f.probeFails.Add(1)
			} else {
				f.probeOKs.Add(1)
			}
		}(r)
	}
	wg.Wait()
}

// prober is the background health-check loop (HealthInterval > 0).
func (f *Fleet) prober() {
	defer f.wg.Done()
	t := time.NewTicker(f.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stopCh:
			return
		case <-t.C:
			f.CheckHealth()
		}
	}
}
