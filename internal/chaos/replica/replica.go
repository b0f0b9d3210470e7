// Package replica injects replica-level faults for the fleet torture
// tests: the failure modes a replicated serving fleet must survive —
// replicas that crash and stay down, hang mid-request, answer with a
// latency spike, or turn byzantine and return well-formed garbage (NaN
// or wrong-shape splits). Like the parent chaos package's CrashFS, every
// injector is deterministic: a Plan's seed fully determines the fault
// drawn at each serve call, so any torture failure replays from its seed
// alone (TestFaultDeterministic).
//
// This lives in its own package (not chaos proper) because it speaks the
// serving types (resilience.Decision), and resilience imports core whose
// white-box tests import chaos — a cycle the subpackage sidesteps.
package replica

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
)

// ErrDown tags every failure injected by a crashed (or released hung)
// replica.
var ErrDown = errors.New("chaos/replica: replica down")

// Kind is one fault decision drawn from the plan's stream.
type Kind int

const (
	// KindOK passes the call through to the wrapped backend.
	KindOK Kind = iota
	// KindCrash fails the call fast; once drawn, every later call is
	// also crashed (the process is gone).
	KindCrash
	// KindHang blocks the call until its context is done or Release is
	// called, then fails it — a wedged process or network black hole.
	KindHang
	// KindSlow sleeps Plan.SlowDelay (or until the call's context is
	// done), then passes through — a latency spike (GC pause, noisy
	// neighbor).
	KindSlow
	// KindNaN answers with a correctly shaped split matrix full of NaN —
	// byzantine output that only output vetting can catch.
	KindNaN
	// KindShape answers with a wrong-shape split matrix — byzantine
	// output violating the response schema.
	KindShape
)

// String returns the schedule-log label.
func (k Kind) String() string {
	switch k {
	case KindOK:
		return "ok"
	case KindCrash:
		return "crash"
	case KindHang:
		return "hang"
	case KindSlow:
		return "slow"
	case KindNaN:
		return "nan"
	case KindShape:
		return "shape"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Plan configures one replica's deterministic fault schedule. The
// per-call fault probabilities (PHang + PSlow + PNaN + PShape ≤ 1) are
// resolved by a single uniform draw per serve call from the seeded
// stream, so the k-th call always draws the same fault for a given seed.
type Plan struct {
	Seed int64
	// CrashAfter is the number of serve calls before the replica dies
	// permanently (0 = dead on arrival); negative means it never
	// crashes.
	CrashAfter int
	// Per-call fault probabilities.
	PHang  float64
	PSlow  float64
	PNaN   float64
	PShape float64
	// SlowDelay is the injected latency for KindSlow draws.
	SlowDelay time.Duration
}

// decide resolves the fault for one serve call. It always consumes
// exactly one draw from rng, even for crashed calls, so the decision
// stream stays aligned with Schedule no matter where the crash lands.
func (p Plan) decide(rng *rand.Rand, call int) Kind {
	u := rng.Float64()
	if p.CrashAfter >= 0 && call >= p.CrashAfter {
		return KindCrash
	}
	switch {
	case u < p.PHang:
		return KindHang
	case u < p.PHang+p.PSlow:
		return KindSlow
	case u < p.PHang+p.PSlow+p.PNaN:
		return KindNaN
	case u < p.PHang+p.PSlow+p.PNaN+p.PShape:
		return KindShape
	}
	return KindOK
}

// Schedule returns the fault decisions the plan makes for its first n
// serve calls — the reference schedule the determinism test pins a live
// Fault against.
func Schedule(plan Plan, n int) []Kind {
	rng := rand.New(rand.NewSource(plan.Seed))
	out := make([]Kind, n)
	for i := range out {
		out[i] = plan.decide(rng, i)
	}
	return out
}

// Backend is the serving surface Fault wraps — satisfied by fleet.Local
// (and by Fault itself, so injectors stack).
type Backend interface {
	Serve(ctx context.Context, p *te.Problem, demand *tensor.Dense) (resilience.Decision, error)
	Reload(path string) error
	Drain(ctx context.Context) error
}

// Fault wraps a replica backend and injects the plan's fault schedule
// into its Serve path. Safe for concurrent use; decisions are drawn
// sequentially under a lock, so the schedule (the i-th decision) is
// seed-deterministic even when request arrival order is not.
type Fault struct {
	inner Backend
	plan  Plan

	mu    sync.Mutex
	rng   *rand.Rand
	calls int
	down  bool
	log   []string

	releaseOnce sync.Once
	releaseCh   chan struct{} // closed by Release; unblocks hung calls
}

// New wraps inner with the plan's fault schedule.
func New(inner Backend, plan Plan) *Fault {
	return &Fault{
		inner:     inner,
		plan:      plan,
		rng:       rand.New(rand.NewSource(plan.Seed)),
		releaseCh: make(chan struct{}),
	}
}

// next draws the fault for this call and logs it.
func (r *Fault) next() Kind {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := r.plan.decide(r.rng, r.calls)
	r.log = append(r.log, fmt.Sprintf("serve %d: %s", r.calls, k))
	r.calls++
	if k == KindCrash {
		r.down = true
	}
	return k
}

// Serve injects the next scheduled fault, passing healthy (and slow)
// calls through to the wrapped backend. Like any backend it returns
// promptly once ctx is done: a hung call fails with ErrDown and ctx.Err(),
// a slow one cuts its sleep short.
func (r *Fault) Serve(ctx context.Context, p *te.Problem, demand *tensor.Dense) (resilience.Decision, error) {
	switch r.next() {
	case KindCrash:
		return resilience.Decision{}, fmt.Errorf("%w: crashed", ErrDown)
	case KindHang:
		select {
		case <-r.releaseCh:
			return resilience.Decision{}, fmt.Errorf("%w: hung call released", ErrDown)
		case <-ctx.Done():
			return resilience.Decision{}, fmt.Errorf("%w: hung call given up on: %w", ErrDown, ctx.Err())
		}
	case KindSlow:
		spike := time.NewTimer(r.plan.SlowDelay)
		defer spike.Stop()
		select {
		case <-spike.C:
		case <-ctx.Done():
		}
		return r.inner.Serve(ctx, p, demand)
	case KindNaN:
		s := tensor.New(p.NumFlows(), p.Tunnels.K)
		for i := range s.Data {
			s.Data[i] = math.NaN()
		}
		return resilience.Decision{Splits: s, Tier: resilience.TierFull}, nil
	case KindShape:
		return resilience.Decision{Splits: tensor.New(1, 1), Tier: resilience.TierFull}, nil
	}
	return r.inner.Serve(ctx, p, demand)
}

// Reload passes through unless the replica has crashed.
func (r *Fault) Reload(path string) error {
	if r.Down() {
		return fmt.Errorf("%w: reload refused", ErrDown)
	}
	return r.inner.Reload(path)
}

// Drain passes through unless the replica has crashed.
func (r *Fault) Drain(ctx context.Context) error {
	if r.Down() {
		return fmt.Errorf("%w: drain refused", ErrDown)
	}
	return r.inner.Drain(ctx)
}

// Release unblocks every hung call whose context has not already done so
// (they fail with ErrDown). Idempotent.
func (r *Fault) Release() {
	r.releaseOnce.Do(func() { close(r.releaseCh) })
}

// Down reports whether the crash point has been reached.
func (r *Fault) Down() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.down
}

// Calls returns how many serve calls have drawn a fault decision.
func (r *Fault) Calls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

// Log returns the fault schedule as drawn so far, one entry per serve
// call — the replay artifact compared by the determinism suite.
func (r *Fault) Log() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.log...)
}
