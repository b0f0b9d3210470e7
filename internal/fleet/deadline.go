package fleet

// A request deadline that arms its timer only when someone waits on it.
// context.WithTimeout starts a runtime timer and allocates four objects on
// every request, and a split-cache hit never waits: the chain reads Err()
// between steps and returns. deadlineCtx answers Deadline and Err from the
// monotonic clock alone and creates the standard context.WithDeadline
// child the first time Done() is called — a queued admission, the model's
// RAU loop, a replica that blocks. From then on Done, Err and Value are
// that child's, so a context derived from this one joins the child's
// cancel tree directly, with no goroutine to propagate cancellation.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// The deadlineCtx states. A context leaves fresh at most once: armed by the
// first Done(), or released before any Done().
const (
	deadlineFresh uint32 = iota
	deadlineArmed
	deadlineReleased
)

// closedDone is what Done() returns for a deadline released before anyone
// waited on it.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// deadlineCtx is parent narrowed to d from start, as context.WithTimeout
// narrows it, without a timer until Done() is first called. Release it
// with release once the request is over. Safe for concurrent use.
type deadlineCtx struct {
	parent context.Context
	start  time.Time // carries the monotonic reading Err compares against
	d      time.Duration
	at     time.Time // the earlier of parent's deadline and start + d

	state atomic.Uint32
	mu    sync.Mutex // serialises arming and release
	// Written under mu before state leaves fresh, read after state is
	// loaded: inner and cancel once armed, err once released.
	inner  context.Context
	cancel context.CancelFunc
	err    error
}

// clockBase anchors monoNow.
var clockBase = time.Now()

// monoNow is the time now read from the monotonic clock alone, where
// time.Now reads the wall clock too: clockBase advanced by the monotonic
// time since. Its wall reading drifts from the real one only when the
// wall clock is stepped; Err and the armed timer only compare monotonic
// readings. resilience keeps its own copy: a shared one in a package
// linked before the model's kernels would shift their alignment, and with
// it every model-bound benchmark.
func monoNow() time.Time { return clockBase.Add(time.Since(clockBase)) }

// withLazyTimeout narrows parent to d from now; see deadlineCtx.
func withLazyTimeout(parent context.Context, d time.Duration) *deadlineCtx {
	start := monoNow()
	at := start.Add(d)
	if pd, ok := parent.Deadline(); ok && pd.Before(at) {
		at = pd
	}
	return &deadlineCtx{parent: parent, start: start, d: d, at: at}
}

// Deadline is the earlier of the parent's deadline and start + d.
func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.at, true }

// Done arms the deadline: the first call creates the timer context every
// later call (and Err, and Value) answers from.
func (c *deadlineCtx) Done() <-chan struct{} {
	switch c.state.Load() {
	case deadlineArmed:
		return c.inner.Done()
	case deadlineReleased:
		return closedDone
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state.Load() {
	case deadlineFresh:
		c.inner, c.cancel = context.WithDeadline(c.parent, c.at)
		c.state.Store(deadlineArmed)
		return c.inner.Done()
	case deadlineArmed:
		return c.inner.Done()
	}
	return closedDone
}

// Err is the armed child's error; before Done() is called, the parent's
// error, else DeadlineExceeded once d has passed on the monotonic clock.
func (c *deadlineCtx) Err() error {
	switch c.state.Load() {
	case deadlineArmed:
		return c.inner.Err()
	case deadlineReleased:
		return c.err
	}
	return c.errNow()
}

func (c *deadlineCtx) errNow() error {
	if err := c.parent.Err(); err != nil {
		return err
	}
	if time.Since(c.start) >= c.d {
		return context.DeadlineExceeded
	}
	return nil
}

// Value is the armed child's value, and the parent's before that. Once
// armed, the child answers the standard library's cancel-context lookup,
// which is what lets context.WithDeadline(c, …) register with it instead
// of starting a goroutine.
func (c *deadlineCtx) Value(key any) any {
	if c.state.Load() == deadlineArmed {
		return c.inner.Value(key)
	}
	return c.parent.Value(key)
}

// release ends the context, as the CancelFunc of context.WithTimeout does:
// it cancels the armed child, or — when nothing armed it — fixes Err at
// what it reads now, or Canceled.
func (c *deadlineCtx) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state.Load() {
	case deadlineArmed:
		c.cancel()
	case deadlineFresh:
		if c.err = c.errNow(); c.err == nil {
			c.err = context.Canceled
		}
		c.state.Store(deadlineReleased)
	}
}
