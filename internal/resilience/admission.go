package resilience

// Admission control, load shedding, and graceful drain. Under overload a
// serving process that admits everything converts a demand spike into
// unbounded queueing: every request eventually misses its deadline and the
// controller emits nothing but stale ECMP answers. Bounding both the
// in-service concurrency (Options.MaxConcurrent, a channel semaphore) and
// the wait line behind it (Options.MaxQueueDepth) sheds the excess
// immediately with a typed error instead, keeping latency bounded for the
// requests that are admitted. Drain flips the same machinery into
// shutdown mode: new requests shed with ErrDraining while in-flight ones
// finish.
//
// When MaxConcurrent is 0 the whole gate compiles down to two atomic ops
// and a nil check per request — the PR-3 zero-allocation serve path is
// preserved.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"harpte/internal/obs/reqtrace"
)

// ErrOverload tags every load-shedding failure: the request was turned
// away before inference because the admission gate and its queue were
// full, or the request's context ended (deadline or cancellation) while it
// queued. Callers should
// treat it as retryable against another replica or after backoff.
var ErrOverload = errors.New("resilience: overloaded")

// ErrDraining tags requests turned away because the server is draining
// for shutdown or handoff. It is permanent for this server instance.
var ErrDraining = errors.New("resilience: draining")

// Pre-wrapped shed reasons: the overload path must not allocate per
// request, or shedding itself becomes the bottleneck it exists to prevent.
var (
	errQueueFull     = fmt.Errorf("%w: admission queue full", ErrOverload)
	errQueueDeadline = fmt.Errorf("%w: deadline expired while queued", ErrOverload)
)

// Shed reasons index the sheds tally (and label the shed metric).
const (
	shedQueueFull = iota
	shedQueueDeadline
	shedDraining
	numShedReasons
)

func shedReasonLabel(r int) string {
	switch r {
	case shedQueueFull:
		return "queue_full"
	case shedQueueDeadline:
		return "queue_deadline"
	case shedDraining:
		return "draining"
	}
	return "unknown"
}

// admit runs the admission gate: it registers the request as in-flight,
// then acquires a concurrency slot — immediately, or after a bounded wait
// in the queue that ends when ctx (narrowed to Options.Deadline) does. It
// returns admitted=false with a fully-formed shed Decision when the request
// must be turned away. A queued wait is recorded as a "queue.wait" child of
// sp; the no-gate and free-slot fast paths touch neither the span nor the
// context, preserving the zero-allocation pin.
func (s *Server) admit(ctx context.Context, start time.Time, sp *reqtrace.Span) (dec Decision, admitted bool) {
	s.inflight.Add(1)
	if s.draining.Load() {
		s.exitInflight()
		return s.shed(start, shedDraining, ErrDraining, sp), false
	}
	if s.sem == nil {
		return Decision{}, true
	}
	select {
	case s.sem <- struct{}{}:
		return Decision{}, true
	default:
	}
	// The gate is full: wait in the bounded queue.
	if depth := s.queued.Add(1); depth > int64(s.opts.MaxQueueDepth) {
		s.queued.Add(-1)
		s.exitInflight()
		return s.shed(start, shedQueueFull, errQueueFull, sp), false
	}
	defer s.queued.Add(-1)
	qsp := sp.StartChild("queue.wait")
	defer qsp.End()
	if s.opts.Deadline > 0 {
		dctx := lazyDeadline(ctx, start, s.opts.Deadline)
		defer dctx.Release()
		ctx = dctx
	}
	select {
	case s.sem <- struct{}{}:
		return Decision{}, true
	case <-ctx.Done():
		s.exitInflight()
		return s.shed(start, shedQueueDeadline, errQueueDeadline, sp), false
	case <-s.drainCh:
		s.exitInflight()
		return s.shed(start, shedDraining, ErrDraining, sp), false
	}
}

// release undoes admit for an admitted request: frees the concurrency
// slot and deregisters the request from the in-flight count.
func (s *Server) release() {
	if s.sem != nil {
		<-s.sem
	}
	s.exitInflight()
}

// exitInflight decrements the in-flight count, waking Drain when the last
// request finishes.
func (s *Server) exitInflight() {
	if s.inflight.Add(-1) == 0 && s.draining.Load() {
		select {
		case s.idleCh <- struct{}{}:
		default:
		}
	}
}

// shed records one turned-away request (tier "shed") and builds its
// Decision. No splits are produced; Err carries the typed reason. A shed
// is always retained by the flight recorder — a shed storm is exactly
// when the operator pulls traces.
func (s *Server) shed(start time.Time, reason int, err error, sp *reqtrace.Span) Decision {
	s.sheds[reason].Add(1)
	s.record(TierShed, start)
	if sp != nil {
		sp.Annotate("shed_reason", shedReasonLabel(reason))
		sp.ForceRetain("shed")
	}
	return Decision{Tier: TierShed, Err: err}
}

// Drain gracefully quiesces the server: it stops admitting new requests
// (they shed with ErrDraining, queued waiters are woken and shed too) and
// waits for all in-flight requests to finish, bounded by ctx. It returns
// nil once the server is idle, or the context error with in-flight
// requests still running. Drain is idempotent and safe to call
// concurrently; a drained server stays drained.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
	for {
		if s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-s.idleCh:
			// Re-check: the signal is a wakeup, not a guarantee.
		case <-ctx.Done():
			return fmt.Errorf("resilience: drain: %w (%d requests still in flight)",
				ctx.Err(), s.inflight.Load())
		}
	}
}
