package resilience

// The model tier's circuit breaker. A model that keeps panicking, emitting
// invalid splits, or finishing no RAU iteration inside the request's budget
// burns that budget on every call before the fallback chain saves the
// request; the breaker remembers the failures and short-circuits the model
// for a cooloff instead. The classic three-state machine:
//
//	closed    — requests flow; N consecutive failures trip the breaker
//	open      — requests skip the model instantly until the cooloff ends
//	half-open — one probe request is let through; success closes the
//	            breaker, failure re-opens it for another cooloff
//
// Only the model carries a breaker: ECMP is pure arithmetic on validated
// inputs and cannot fail.

import (
	"sync"
	"time"
)

// BreakerState is the observable state of the circuit breaker.
type BreakerState int32

const (
	// BreakerClosed: requests flow normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: the cooloff elapsed; one probe is in flight.
	BreakerHalfOpen
	// BreakerOpen: the tier is short-circuited until the cooloff ends.
	BreakerOpen
)

// String returns the operator-facing label.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// breaker is the three-state machine. All methods are nil-safe: a nil
// breaker is permanently closed (the disabled state), costing one nil
// check and no lock on the serve path.
type breaker struct {
	threshold int
	cooloff   time.Duration
	now       func() time.Time // injectable clock for tests

	mu            sync.Mutex
	state         BreakerState
	consec        int  // consecutive failures while closed
	probing       bool // a half-open probe is in flight
	openedAt      time.Time
	trips         int64 // times the breaker opened
	shortCircuits int64 // requests skipped because the breaker was open
}

func newBreaker(threshold int, cooloff time.Duration) *breaker {
	if threshold <= 0 {
		return nil
	}
	if cooloff <= 0 {
		cooloff = 5 * time.Second
	}
	return &breaker{threshold: threshold, cooloff: cooloff, now: time.Now}
}

// allow reports whether a request may try the model, transitioning
// open→half-open when the cooloff has elapsed (the allowed request is the
// probe). A false return is a short-circuit: the model is skipped without
// consuming any latency budget.
func (b *breaker) allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooloff {
			b.state = BreakerHalfOpen
			b.probing = true
			return true
		}
	case BreakerHalfOpen:
		if !b.probing {
			b.probing = true
			return true
		}
	}
	b.shortCircuits++
	return false
}

// onSuccess records a healthy response, closing the breaker.
func (b *breaker) onSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.state = BreakerClosed
	b.consec = 0
	b.probing = false
	b.mu.Unlock()
}

// onFailure records a panic/invalid-output/no-iterate failure; it reports
// whether this failure tripped the breaker open (a half-open probe failing
// re-opens immediately; while closed, `threshold` consecutive failures
// are required).
func (b *breaker) onFailure() (tripped bool) {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	wasProbe := b.state == BreakerHalfOpen
	b.probing = false
	b.consec++
	if wasProbe || (b.state == BreakerClosed && b.consec >= b.threshold) {
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.consec = 0
		b.trips++
		return true
	}
	return false
}

// snapshot returns the breaker's state and counters (zero values for a nil
// breaker).
func (b *breaker) snapshot() (state BreakerState, trips, shortCircuits int64) {
	if b == nil {
		return BreakerClosed, 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.trips, b.shortCircuits
}
