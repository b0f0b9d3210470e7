package fleet

// The cancellation spine seen from the dispatcher: the request's context is
// the only thing that stops work, a request never leaves the caller's
// goroutine — its failover attempts included — and a caller that gives up
// gets the local ECMP answer at once, with no blame on the replica it
// walked away from.

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"harpte/internal/core"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

// goroutineID parses the calling goroutine's id out of its stack header
// ("goroutine 123 [running]:").
func goroutineID() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	id, _ := strconv.ParseInt(strings.Fields(string(buf[:n]))[1], 10, 64)
	return id
}

// assertNoLeakedGoroutines fails unless the process is back to at most
// `before` goroutines: everything the test and its fleet started has exited
// on its own — nothing is parked waiting for a Fault.Release.
func assertNoLeakedGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive Fleet.Close, %d ran before the test:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// geantServer is a replica worth cancelling: an all-pairs GEANT forward is
// milliseconds of RAU. It returns the server, the problem, distinct demands
// (so no request is a split-cache hit) and how long a plan-hit request
// takes.
func geantServer(t *testing.T) (*resilience.Server, *te.Problem, func() *tensor.Dense, time.Duration) {
	t.Helper()
	g := topology.Geant()
	p := te.NewProblem(g, tunnels.Compute(g, 4))
	srv := resilience.NewServer(core.New(core.DefaultConfig()), resilience.Options{})
	n := 0
	next := func() *tensor.Dense {
		n++
		d := tensor.New(p.NumFlows(), 1)
		for i := range d.Data {
			d.Data[i] = float64(1 + (i+n)%9)
		}
		return d
	}
	srv.Serve(p, next()) // builds the plan
	full := time.Hour
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if dec := srv.Serve(p, next()); dec.Tier != resilience.TierFull || len(dec.Degraded) != 0 {
			t.Fatalf("warm-up: tier %v, degraded %v", dec.Tier, dec.Degraded)
		}
		full = min(full, time.Since(t0))
	}
	return srv, p, next, full
}

// TestFleetServeRunsOnCallersGoroutine: the replica is called on the
// goroutine that called Serve — no hand-off, nothing to leave behind — and
// so is the replica a failover retry lands on.
func TestFleetServeRunsOnCallersGoroutine(t *testing.T) {
	p := twoPathProblem()
	fs, rs := fakes(2)
	f := New(rs, Options{Deadline: time.Second, TryTimeout: 100 * time.Millisecond})
	defer f.Close()
	dec := f.Serve(p, demand(p, 4, 2))
	if dec.Err != nil {
		t.Fatal(dec.Err)
	}
	if fs[dec.Replica].goid.Load() != goroutineID() {
		t.Fatal("the replica did not run on the caller's goroutine")
	}

	// The round-robin cursor is at replica 1 now: fail it, and the
	// request fails over to replica 0.
	fs[1].fail.Store(true)
	dec = f.Serve(p, demand(p, 4, 2))
	if dec.Err != nil || dec.Replica != 0 || dec.Retries != 1 {
		t.Fatalf("want a failover answer from replica 0, got replica %d, retries %d, err %v",
			dec.Replica, dec.Retries, dec.Err)
	}
	for i, fr := range fs {
		if fr.goid.Load() != goroutineID() {
			t.Fatalf("replica %d's attempt did not run on the caller's goroutine", i)
		}
	}
}

// TestFleetServeIsServeCtxBackground: Serve is ServeCtx with no caller
// context — same replica answer, and the fleet's own deadline still
// applies.
func TestFleetServeIsServeCtxBackground(t *testing.T) {
	p := twoPathProblem()
	fs, rs := fakes(1)
	f := New(rs, Options{Deadline: 20 * time.Millisecond})
	defer f.Close()
	a, b := f.Serve(p, demand(p, 4, 2)), f.ServeCtx(context.Background(), p, demand(p, 4, 2))
	if a.Err != nil || b.Err != nil || a.Replica != b.Replica || a.Tier != b.Tier {
		t.Fatalf("Serve %+v, ServeCtx %+v", a, b)
	}
	fs[0].delay = time.Minute
	for name, dec := range map[string]Decision{
		"Serve":    f.Serve(p, demand(p, 4, 2)),
		"ServeCtx": f.ServeCtx(context.Background(), p, demand(p, 4, 2)),
	} {
		if !errors.Is(dec.Err, ErrNoReplicas) || !errors.Is(dec.Err, context.DeadlineExceeded) || dec.Tier != resilience.TierECMP {
			t.Fatalf("%s past the fleet deadline: tier %v, err %v", name, dec.Tier, dec.Err)
		}
		assertValidSplits(t, p, dec.Splits)
	}
}

// TestFleetCallerCancellation: a caller that gives up — before the call, or
// from another goroutine while the replica is inside its RAU — gets the
// local ECMP answer, with an error that is both ErrNoReplicas and the
// context's, well before the forward would have finished; and the replica
// it walked away from is not blamed.
func TestFleetCallerCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, p, next, full := geantServer(t)
	f := New([]Replica{Local{S: srv}}, Options{quarantineThreshold: 1, maxQuarantinedFraction: 1})
	defer func() {
		f.Close()
		assertNoLeakedGoroutines(t, before)
	}()
	check := func(what string, dec Decision) {
		t.Helper()
		if !errors.Is(dec.Err, ErrNoReplicas) || !errors.Is(dec.Err, context.Canceled) {
			t.Fatalf("%s: err %v, want ErrNoReplicas and context.Canceled", what, dec.Err)
		}
		if dec.Tier != resilience.TierECMP || dec.Replica != -1 {
			t.Fatalf("%s: tier %v from replica %d, want the local ECMP answer", what, dec.Tier, dec.Replica)
		}
		assertValidSplits(t, p, dec.Splits)
		if h := f.ReplicaHealth(0); h != Healthy {
			t.Fatalf("%s: the replica the caller walked away from is %v", what, h)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	served := srv.TierCounts()[resilience.TierFull]
	check("cancelled before the call", f.ServeCtx(ctx, p, next()))
	if got := srv.TierCounts()[resilience.TierFull]; got != served {
		t.Fatal("a request cancelled before the call still ran the model")
	}

	// Mid-RAU: cancel a third of the way into a forward. One RAU iteration
	// is an eighth of one, so a cancelled request that still took a whole
	// forward did not stop early. A host stall can let the request win the
	// race, or lose it slowly; try again then.
	for try := 0; ; try++ {
		ctx, cancel := context.WithCancel(context.Background())
		stop := time.AfterFunc(full/3, cancel)
		t0 := time.Now()
		dec := f.ServeCtx(ctx, p, next())
		took := time.Since(t0)
		stop.Stop()
		cancel()
		if (dec.Err == nil || took >= full) && try < 20 {
			continue
		}
		check("cancelled mid-RAU", dec)
		if took >= full {
			t.Fatalf("cancelled %v into a %v forward, returned after %v", full/3, full, took)
		}
		break
	}
}
