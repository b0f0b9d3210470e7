// Package fleet dispatches TE serving requests across N replicas, keeping
// split ratios flowing while the serving fleet itself churns: replicas
// die, stall, overload, and — in the worst case — return garbage. The
// dispatcher fronts any set of backends implementing Replica (in-process
// resilience.Servers via Local, or remote shims) and layers four guards
// over them:
//
//   - Health-checked dispatch. Every replica runs a healthy → degraded →
//     quarantined state machine fed by real traffic and by periodic probe
//     inferences that are vetted exactly like served requests
//     (health.go). Quarantined replicas receive no regular traffic, only
//     probes; enough consecutive probe successes re-admit them. An
//     ejection cap bounds how much of the fleet outlier detection may
//     quarantine at once — when most replicas look sick, the detector is
//     the more likely culprit.
//
//   - Hedged requests with a token retry budget. After an adaptive hedge
//     delay — a high quantile of recent request latency from a streaming
//     digest (digest.go) — a second replica is tried, the first answer
//     wins, and the loser is cancelled. Hedges and failover retries both
//     spend from one token bucket
//     that refills as a fraction of primary requests, so retry traffic is
//     a bounded ratio of offered load and can never storm the fleet.
//
//   - Fleet-wide graceful degradation. Replica answers are vetted
//     (resilience.VetSplits) before they win — a byzantine replica
//     returning NaN or wrong-shape splits counts as a failure. When zero
//     replicas produce a vetted answer within the deadline, the
//     dispatcher computes ECMP splits locally (pure arithmetic on the
//     already-validated input) and returns them with a typed
//     ErrNoReplicas, so callers always get routable ratios plus an
//     honest signal that the fleet is down.
//
// One context.Context carries a request's deadline and cancellation from
// ServeCtx through the attempt into the replica (a Local one takes it into
// the model's RAU loop); an attempt runs on the caller's goroutine unless
// hedging is on.
//
//   - Rolling reload (RollingReload): canary one replica onto the new
//     checkpoint, verify it with a probe inference, then wave through the
//     rest — each replica's own atomic swap (resilience.Reload) drops no
//     in-flight requests at any point.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"harpte/internal/obs/reqtrace"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
)

// Replica is one serving backend behind the dispatcher. Serve's error
// return is the transport/replica-process failure channel (a crashed or
// unreachable replica); an in-band serving failure (shed, rejection)
// arrives as a Decision with Err set, exactly as resilience.Server
// reports it. ctx carries the attempt's deadline, cancellation and trace
// span; Serve must return promptly once it is done — the dispatcher's only
// guard against a hung replica. Implementations must be safe for concurrent
// use.
type Replica interface {
	Serve(ctx context.Context, p *te.Problem, demand *tensor.Dense) (resilience.Decision, error)
	Reload(path string) error
	Drain(ctx context.Context) error
}

// Local adapts an in-process *resilience.Server to the Replica interface;
// the transport never fails, so Serve's error is always nil.
type Local struct{ S *resilience.Server }

// Serve delegates to the wrapped server.
func (l Local) Serve(ctx context.Context, p *te.Problem, demand *tensor.Dense) (resilience.Decision, error) {
	return l.S.ServeCtx(ctx, p, demand), nil
}

// Reload delegates to the wrapped server's canaried hot reload.
func (l Local) Reload(path string) error { return l.S.Reload(path) }

// Drain delegates to the wrapped server's graceful drain.
func (l Local) Drain(ctx context.Context) error { return l.S.Drain(ctx) }

// ErrNoReplicas tags every fleet-level degradation: zero replicas were
// serviceable, every attempt failed, or the request's context ended
// (deadline or cancellation — the error then wraps ctx.Err() too) before
// any replica answered. The Decision carrying it still holds a
// valid, locally computed ECMP split matrix — the typed error is the
// signal that the fleet, not the request, is in trouble.
var ErrNoReplicas = errors.New("fleet: no serviceable replicas")

// ErrReloadAborted tags every rolling-reload failure; the wrapped error
// says which replica and stage rejected the checkpoint. Replicas already
// reloaded before the abort keep the new generation (each per-replica
// swap is atomic and individually canaried); replicas after it keep the
// old one.
var ErrReloadAborted = errors.New("fleet: rolling reload aborted")

// Options configures a Fleet. The zero value gives sane defaults:
// traffic-driven health only (no background prober), hedging disabled,
// a 10%-of-traffic retry budget, and quarantine after 3 consecutive
// failures capped at half the fleet.
type Options struct {
	// Deadline bounds the wall clock per request across all attempts (a
	// timeout on the request's context); once exceeded the request
	// resolves to the local ECMP fallback with ErrNoReplicas. 0 disables
	// the fleet-level deadline.
	Deadline time.Duration
	// TryTimeout bounds each individual replica attempt (a child timeout);
	// a replica with no answer by then (hung process, network black hole)
	// counts as failed and the dispatcher moves on. 0 means attempts are
	// bounded only by the replica's own guards and the fleet Deadline.
	TryTimeout time.Duration

	// HedgeQuantile is the latency quantile of recent successful requests
	// after which a hedge fires on a second replica (e.g. 0.95: hedge
	// once the attempt is slower than 95% of recent traffic). 0 disables
	// hedging.
	HedgeQuantile float64
	// HedgeMinDelay / HedgeMaxDelay clamp the adaptive hedge delay
	// (defaults 1ms / 25ms). Before any latency samples exist the delay
	// is HedgeMaxDelay.
	HedgeMinDelay time.Duration
	HedgeMaxDelay time.Duration

	// RetryBudget is the retry tokens earned per primary request; hedges
	// and failover retries each spend one token, so retry traffic is
	// bounded to ~RetryBudget of offered load in steady state. 0 means
	// the default 0.1; negative disables retries and hedges entirely.
	RetryBudget float64
	// RetryBurst caps the token bucket (default 10), bounding how many
	// retries a quiet period can bank for a burst.
	RetryBurst float64

	// ShardByTopology routes requests by topology cluster: replicas are
	// ranked per topology fingerprint with rendezvous (highest-random-
	// weight) hashing, and every request for a topology goes to its
	// top-ranked serviceable replica. One replica therefore sees all the
	// traffic for a topology cluster, keeping its context cache, engine
	// plan, and split-ratio cache hot, instead of the round-robin
	// default spreading a cluster's requests (and their cache misses)
	// across the whole fleet. Failover and hedges walk down the same
	// per-topology ranking, so a quarantined shard owner's traffic moves
	// deterministically to the next-ranked replica and snaps back when the
	// owner is re-admitted — no remapping of unrelated topologies.
	ShardByTopology bool

	// HealthInterval is the period of the background prober; every tick
	// each replica serves the pinned probe and the vetted outcome feeds
	// its state machine. 0 disables the prober (health is then driven by
	// real traffic and manual CheckHealth calls).
	HealthInterval time.Duration
	// Probe and ProbeDemand pin the health-check request. With a nil
	// Probe, probing (background and CheckHealth) is a no-op.
	Probe       *te.Problem
	ProbeDemand *tensor.Dense

	// Test seams, zero in every program (withDefaults fills them in):
	// quarantineThreshold consecutive failures quarantine a replica — no
	// regular traffic, probes only (3); probationSuccesses consecutive
	// successful probes re-admit it (2); maxQuarantinedFraction caps how
	// much of the fleet outlier ejection may quarantine at once (0.5). A
	// replica past the threshold that cannot be ejected under the cap stays
	// degraded; draining replicas bypass the cap, as they will never serve
	// again.
	quarantineThreshold    int
	probationSuccesses     int
	maxQuarantinedFraction float64
}

// withDefaults returns opts with zero fields replaced by the documented
// defaults.
func (o Options) withDefaults() Options {
	if o.HedgeMinDelay <= 0 {
		o.HedgeMinDelay = time.Millisecond
	}
	if o.HedgeMaxDelay <= 0 {
		o.HedgeMaxDelay = 25 * time.Millisecond
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 0.1
	}
	if o.RetryBurst <= 0 {
		o.RetryBurst = 10
	}
	if o.quarantineThreshold <= 0 {
		o.quarantineThreshold = 3
	}
	if o.probationSuccesses <= 0 {
		o.probationSuccesses = 2
	}
	if o.maxQuarantinedFraction <= 0 {
		o.maxQuarantinedFraction = 0.5
	}
	return o
}

// Decision is the outcome of one Fleet.Serve call. It embeds the
// replica's resilience.Decision; unlike the single-server contract, Err
// may be non-nil alongside valid Splits — the local ECMP fallback answers
// with ErrNoReplicas so callers route traffic and page an operator.
type Decision struct {
	resilience.Decision
	// Replica is the index of the replica that answered, or -1 for the
	// local ECMP fallback and for rejected inputs.
	Replica int
	// Hedged reports whether a hedge was fired for this request.
	Hedged bool
	// Retries counts failover attempts beyond the primary (hedges are
	// counted separately, in Stats).
	Retries int
}

// Fleet dispatches requests across replicas. Safe for concurrent use.
type Fleet struct {
	opts     Options
	replicas []*replica

	rr     atomic.Uint64 // round-robin pick cursor
	digest *latencyDigest
	budget *tokenBucket

	quarantined atomic.Int64 // replicas currently quarantined (ejection cap)

	// The event tallies: Stats reads them, and EnableTelemetry exposes the
	// same atomics on a registry as read-through counters.
	served      atomic.Int64
	fallbacks   atomic.Int64
	rejected    atomic.Int64
	hedges      atomic.Int64
	hedgeWins   atomic.Int64
	retries     atomic.Int64
	retryDenied atomic.Int64
	probeOKs    atomic.Int64
	probeFails  atomic.Int64
	ejections   atomic.Int64
	readmits    atomic.Int64
	reloadOK    atomic.Int64
	reloadErr   atomic.Int64

	stopOnce sync.Once
	stopCh   chan struct{}
	// wg counts the prober and hedged requests' attempts, which outlive
	// their ServeCtx until the replica notices its context was cancelled.
	wg sync.WaitGroup
}

// New builds a Fleet over the given replicas (at least one) and starts
// the background prober when Options.HealthInterval > 0 and a Probe is
// pinned. Call Close to stop the prober.
func New(replicas []Replica, opts Options) *Fleet {
	if len(replicas) == 0 {
		panic("fleet: New needs at least one replica")
	}
	f := &Fleet{
		opts:   opts.withDefaults(),
		digest: newLatencyDigest(defaultDigestWindow),
		stopCh: make(chan struct{}),
	}
	f.budget = newTokenBucket(f.opts.RetryBudget, f.opts.RetryBurst)
	f.replicas = make([]*replica, len(replicas))
	for i, b := range replicas {
		f.replicas[i] = &replica{id: i, backend: b}
	}
	if f.opts.HealthInterval > 0 && f.opts.Probe != nil {
		f.wg.Add(1)
		go f.prober()
	}
	return f
}

// Close stops the background prober and waits for cancelled hedge losers;
// call it after the last Serve has returned. It does not drain the
// replicas; use Drain for that. Idempotent.
func (f *Fleet) Close() {
	f.stopOnce.Do(func() { close(f.stopCh) })
	f.wg.Wait()
}

// Serve is ServeCtx with no caller context.
func (f *Fleet) Serve(p *te.Problem, demand *tensor.Dense) Decision {
	return f.ServeCtx(context.Background(), p, demand)
}

// ServeCtx dispatches one request: validate locally, try replicas (hedging
// past slow ones, failing over past broken ones, spending the retry
// budget), vet every answer, and fall back to a locally computed ECMP
// answer with ErrNoReplicas when the fleet cannot answer in time.
//
// Every attempt runs under ctx narrowed to Options.Deadline; once it is
// done the request resolves to the local ECMP answer with an error wrapping
// both ErrNoReplicas and ctx.Err(), as soon as the running attempt notices
// (a Local replica: within one RAU iteration). Attempts run one at a time on
// the caller's goroutine; only with hedging on does each get its own, so a
// hedge can overtake the primary, and returning cancels the loser.
//
// When ctx carries a reqtrace span, the dispatch gets a "fleet.dispatch"
// child holding one "fleet.attempt" span per replica tried (primary, hedge,
// failover), each annotated with the replica id and outcome, and the
// attempt span rides the context into the replica. A hedge win pins the
// trace in the flight recorder.
func (f *Fleet) ServeCtx(ctx context.Context, p *te.Problem, demand *tensor.Dense) Decision {
	sp := reqtrace.FromContext(ctx)
	// Validate once, locally: a malformed request must not burn retry
	// budget proving each replica rejects it too.
	if err := resilience.ValidateInput(p, demand); err != nil {
		f.rejected.Add(1)
		sp.SetError(err)
		return Decision{
			Decision: resilience.Decision{Tier: resilience.TierRejected, Err: err},
			Replica:  -1,
		}
	}
	f.budget.earn()

	dsp := sp.StartChild("fleet.dispatch")
	defer dsp.End()

	var cancel context.CancelFunc
	if f.opts.Deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, f.opts.Deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	type attemptOut struct {
		dec     resilience.Decision
		err     error
		rep     *replica
		hedge   bool
		elapsed time.Duration
	}
	hedging := f.opts.HedgeQuantile > 0 && len(f.replicas) > 1
	// Buffered to the attempt bound (each replica is tried at most once
	// per request): an attempt on the caller's goroutine leaves its result
	// here for the loop below, and a cancelled hedge loser never blocks.
	resCh := make(chan attemptOut, len(f.replicas))
	tried := make([]bool, len(f.replicas))
	launch := func(r *replica, hedge bool) {
		tried[r.id] = true
		asp := dsp.StartChild("fleet.attempt")
		asp.AnnotateInt("replica", int64(r.id))
		asp.AnnotateBool("hedge", hedge)
		f.wg.Add(1)
		run := func() {
			defer f.wg.Done()
			t0 := time.Now()
			dec, err := f.attempt(reqtrace.NewContext(ctx, asp), r, p, demand)
			if err != nil {
				asp.SetError(err)
			}
			asp.End()
			resCh <- attemptOut{dec, err, r, hedge, time.Since(t0)}
		}
		if hedging {
			go run()
		} else {
			run()
		}
	}

	var dec Decision
	gaveUp := func(inFlight int) Decision {
		return f.fallback(p, dec, fmt.Errorf("%w: %w with %d attempts outstanding",
			ErrNoReplicas, ctx.Err(), inFlight), sp)
	}
	if ctx.Err() != nil {
		return gaveUp(0)
	}
	primary := f.pick(p, tried)
	if primary == nil {
		return f.fallback(p, dec, fmt.Errorf("%w: 0 of %d replicas serviceable",
			ErrNoReplicas, len(f.replicas)), sp)
	}
	launch(primary, false)
	inFlight := 1

	var hedgeC <-chan time.Time
	if hedging {
		ht := time.NewTimer(f.hedgeDelay())
		defer ht.Stop()
		hedgeC = ht.C
	}

	for {
		select {
		case out := <-resCh:
			inFlight--
			if ctx.Err() != nil {
				return gaveUp(inFlight)
			}
			if out.err == nil {
				f.digest.record(out.elapsed)
				if out.hedge {
					f.hedgeWins.Add(1)
					// A hedge that beat the primary is exactly the tail
					// latency the operator tunes HedgeQuantile against.
					dsp.Annotate("winner", "hedge")
					sp.ForceRetain("hedge_win")
				}
				f.served.Add(1)
				dsp.AnnotateInt("served_by", int64(out.rep.id))
				dec.Decision = out.dec
				dec.Replica = out.rep.id
				return dec
			}
			dec.Degraded = append(dec.Degraded, fmt.Sprintf("replica %d: %v", out.rep.id, out.err))
			if next := f.pick(p, tried); next != nil && f.spend(&f.retries) {
				dec.Retries++
				launch(next, false)
				inFlight++
				continue
			}
			if inFlight == 0 {
				return f.fallback(p, dec, fmt.Errorf("%w: all attempts failed", ErrNoReplicas), sp)
			}
		case <-hedgeC:
			hedgeC = nil
			if next := f.pick(p, tried); next != nil && f.spend(&f.hedges) {
				dec.Hedged = true
				launch(next, true)
				inFlight++
			}
		case <-ctx.Done():
			return gaveUp(inFlight)
		}
	}
}

// attempt runs one request against one replica under the per-try timeout
// and a recover guard, vets the answer, and feeds the replica's health
// state machine. A nil error return means the Decision holds vetted,
// routable splits.
func (f *Fleet) attempt(ctx context.Context, r *replica, p *te.Problem, demand *tensor.Dense) (dec resilience.Decision, err error) {
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	defer func() {
		if rec := recover(); rec != nil {
			f.onFailure(r)
			dec, err = resilience.Decision{}, fmt.Errorf("replica panic: %v", rec)
		}
	}()
	tctx := ctx
	if f.opts.TryTimeout > 0 {
		var cancel context.CancelFunc
		tctx, cancel = context.WithTimeout(ctx, f.opts.TryTimeout)
		defer cancel()
	}
	dec, err = r.backend.Serve(tctx, p, demand)
	switch {
	case ctx.Err() != nil:
		// The request is over — caller gone, deadline passed, or another
		// attempt won — so what came back says nothing about the replica.
		return resilience.Decision{}, ctx.Err()
	case err != nil:
		// Transport/process failure, or no answer inside TryTimeout: the
		// replica itself is in trouble.
		f.onFailure(r)
		return resilience.Decision{}, err
	case dec.Err != nil:
		switch {
		case errors.Is(dec.Err, resilience.ErrDraining):
			// Draining is permanent for the replica instance: quarantine
			// immediately (bypassing the ejection cap — this is a fact,
			// not a detector guess).
			f.quarantineNow(r)
		case errors.Is(dec.Err, resilience.ErrOverload):
			// Overload is load, not sickness: route away this request but
			// do not push the replica toward quarantine.
		default:
			// The replica rejected input the fleet already validated, or
			// returned an unknown typed error — treat as a fault.
			f.onFailure(r)
		}
		return resilience.Decision{}, dec.Err
	default:
		if _, err := resilience.VetSplits(p, dec.Splits); err != nil {
			// Byzantine answer: NaN, wrong shape, negative mass, a row
			// off 1. The replica is lying, which is worse than being down.
			f.onFailure(r)
			return resilience.Decision{}, fmt.Errorf("byzantine answer: %w", err)
		}
		f.onSuccess(r)
		return dec, nil
	}
}

// fallback resolves a request the fleet could not answer: a locally
// computed ECMP split matrix (uniform, rescaled off failed tunnels — pure
// arithmetic on the validated input) plus the typed reason no replica
// answered. The caller always gets routable ratios. The trace, when one
// exists, records the fleet-level degradation and is always retained.
func (f *Fleet) fallback(p *te.Problem, dec Decision, err error, sp *reqtrace.Span) Decision {
	f.fallbacks.Add(1)
	sp.SetError(err)
	dec.Splits = te.NormalizeRows(te.Rescale(p, p.UniformSplits()))
	dec.Tier = resilience.TierECMP
	dec.Replica = -1
	dec.Err = err
	return dec
}

// pick chooses the next replica for an attempt: by topology-cluster shard
// when Options.ShardByTopology is set, round-robin otherwise — in both
// cases over serviceable (healthy or degraded) replicas not yet tried for
// this request. Degraded replicas stay in the rotation on purpose — real
// traffic is what either heals them (one vetted success resets the
// streak) or finishes ejecting them (consecutive failures reach the
// quarantine threshold); shielding them would freeze the state machine
// at degraded whenever no prober runs. Quarantined replicas are never
// picked. Returns nil when every serviceable replica has been tried.
func (f *Fleet) pick(p *te.Problem, tried []bool) *replica {
	if f.opts.ShardByTopology && p != nil {
		return f.pickSharded(p.Fingerprint(), tried)
	}
	n := len(f.replicas)
	startAt := int(f.rr.Add(1)-1) % n
	for i := 0; i < n; i++ {
		r := f.replicas[(startAt+i)%n]
		if tried[r.id] || r.healthState() == Quarantined {
			continue
		}
		return r
	}
	return nil
}

// pickSharded returns the highest-ranked untried serviceable replica for
// the topology fingerprint. Rendezvous hashing gives each topology its own
// stable pseudo-random ranking of replicas: the top pick owns the shard,
// retries and hedges descend the same ranking, and quarantining one
// replica moves only that replica's shards (to each shard's next-ranked
// survivor) while every other topology keeps its owner.
func (f *Fleet) pickSharded(fp uint64, tried []bool) *replica {
	var best *replica
	var bestScore uint64
	for _, r := range f.replicas {
		if tried[r.id] || r.healthState() == Quarantined {
			continue
		}
		if s := shardScore(fp, r.id); best == nil || s > bestScore {
			best, bestScore = r, s
		}
	}
	return best
}

// shardScore mixes a topology fingerprint with a replica id (splitmix64
// finalizer) into that replica's rendezvous weight for the topology.
func shardScore(fp uint64, id int) uint64 {
	x := fp + (uint64(id)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// spend takes one retry token, tallying into counter on success and into
// the denied counter otherwise.
func (f *Fleet) spend(counter *atomic.Int64) bool {
	if !f.budget.spend() {
		f.retryDenied.Add(1)
		return false
	}
	counter.Add(1)
	return true
}

// hedgeDelay is the adaptive hedge trigger: the configured quantile of
// recent successful-request latency, clamped to [HedgeMinDelay,
// HedgeMaxDelay]; before any samples exist, HedgeMaxDelay.
func (f *Fleet) hedgeDelay() time.Duration {
	d, ok := f.digest.quantile(f.opts.HedgeQuantile)
	if !ok || d > f.opts.HedgeMaxDelay {
		d = f.opts.HedgeMaxDelay
	}
	if d < f.opts.HedgeMinDelay {
		d = f.opts.HedgeMinDelay
	}
	return d
}

// RollingReload rolls the fleet onto the checkpoint at path with zero
// dropped requests: reload one canary replica (serviceable replicas
// first), verify it with a vetted probe inference, then wave through the
// remaining replicas one at a time, verifying each. Any failure aborts
// the wave with ErrReloadAborted; replicas already swapped keep the new
// generation (each swap is atomic and individually canaried by
// resilience.Reload), replicas not yet reached keep the old one.
func (f *Fleet) RollingReload(path string) error {
	fail := func(err error) error {
		f.reloadErr.Add(1)
		return err
	}
	order := f.reloadOrder()
	canary := order[0]
	if err := canary.backend.Reload(path); err != nil {
		return fail(fmt.Errorf("%w: canary replica %d: %w", ErrReloadAborted, canary.id, err))
	}
	if err := f.verifyReplica(canary); err != nil {
		return fail(fmt.Errorf("%w: canary replica %d failed post-reload probe: %w",
			ErrReloadAborted, canary.id, err))
	}
	for _, r := range order[1:] {
		if err := r.backend.Reload(path); err != nil {
			return fail(fmt.Errorf("%w: replica %d (wave, canary already verified): %w",
				ErrReloadAborted, r.id, err))
		}
		if err := f.verifyReplica(r); err != nil {
			return fail(fmt.Errorf("%w: replica %d failed post-reload probe: %w",
				ErrReloadAborted, r.id, err))
		}
	}
	f.reloadOK.Add(1)
	return nil
}

// reloadOrder returns the replicas serviceable-first: the canary must be
// a replica whose verdict on the new checkpoint is trustworthy, and
// quarantined replicas would fail verification for reasons unrelated to
// the weights.
func (f *Fleet) reloadOrder() []*replica {
	order := make([]*replica, 0, len(f.replicas))
	for _, r := range f.replicas {
		if r.healthState() != Quarantined {
			order = append(order, r)
		}
	}
	for _, r := range f.replicas {
		if r.healthState() == Quarantined {
			order = append(order, r)
		}
	}
	return order
}

// verifyReplica runs one vetted probe inference through the replica (a
// no-op without a pinned probe — each replica's own Reload canary still
// applies).
func (f *Fleet) verifyReplica(r *replica) error {
	p, d := f.probeRequest()
	if p == nil {
		return nil
	}
	_, err := f.attempt(context.Background(), r, p, d)
	return err
}

// Drain gracefully drains every replica in parallel, bounded by ctx.
func (f *Fleet) Drain(ctx context.Context) error {
	errs := make([]error, len(f.replicas))
	var wg sync.WaitGroup
	for i, r := range f.replicas {
		wg.Add(1)
		go func(i int, r *replica) {
			defer wg.Done()
			if err := r.backend.Drain(ctx); err != nil {
				errs[i] = fmt.Errorf("replica %d: %w", i, err)
			}
		}(i, r)
	}
	wg.Wait()
	return errors.Join(errs...)
}
