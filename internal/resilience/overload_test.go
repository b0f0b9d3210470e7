package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"harpte/internal/core"
)

// waitFor polls cond for up to a second — the tests use it to sequence
// goroutines on the server's own atomics instead of sleeping.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestServeOverloadShedsWithTypedErrors: with the only concurrency slot
// held and the queue full, further requests must shed immediately with an
// error wrapping ErrOverload, and queued requests must shed when their
// deadline expires while still waiting.
func TestServeOverloadShedsWithTypedErrors(t *testing.T) {
	p := twoPathProblem()
	srv := NewServer(core.New(tinyConfig()), Options{
		MaxConcurrent: 1, MaxQueueDepth: 2, Deadline: 50 * time.Millisecond,
	})
	srv.sem <- struct{}{} // occupy the only slot so everything queues

	var wg sync.WaitGroup
	queued := make([]Decision, 2)
	for i := range queued {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			queued[i] = srv.Serve(p, demand(p, 4, 2))
		}(i)
	}
	waitFor(t, "both requests to queue", func() bool { return srv.queued.Load() == 2 })

	// Queue full: these must shed synchronously, fast, and typed.
	for i := 0; i < 3; i++ {
		begin := time.Now()
		dec := srv.Serve(p, demand(p, 4, 2))
		if dec.Tier != TierShed || !errors.Is(dec.Err, ErrOverload) {
			t.Fatalf("over-queue request %d: tier=%v err=%v, want shed/ErrOverload", i, dec.Tier, dec.Err)
		}
		if dec.Splits != nil {
			t.Fatal("shed decision carries splits")
		}
		if took := time.Since(begin); took > 20*time.Millisecond {
			t.Fatalf("shed took %v; shedding must not wait for capacity", took)
		}
	}

	// The queued pair never gets the slot; their deadline expires in queue.
	wg.Wait()
	for i, dec := range queued {
		if dec.Tier != TierShed || !errors.Is(dec.Err, ErrOverload) {
			t.Fatalf("queued request %d: tier=%v err=%v, want shed/ErrOverload", i, dec.Tier, dec.Err)
		}
	}
	<-srv.sem

	st := srv.Stats()
	if st.ShedQueueFull != 3 || st.ShedQueueDeadline != 2 || st.Shed != 5 {
		t.Fatalf("stats %+v: want 3 queue_full + 2 queue_deadline sheds", st)
	}
	if got := srv.TierCounts()[TierShed]; got != 5 {
		t.Fatalf("TierCounts[shed] = %d, want 5", got)
	}
	// Capacity back: the server must serve normally again.
	if dec := srv.Serve(p, demand(p, 4, 2)); dec.Tier != TierFull {
		t.Fatalf("post-overload serve got tier %v (err %v)", dec.Tier, dec.Err)
	}
}

// TestServeOverloadBurstBoundedLatency: a burst far beyond the gate's
// total capacity (slot + queue) while the slot is blocked. The excess must
// shed fast — p99 of the shed requests stays trivially bounded — and the
// one queued request must be admitted and served once capacity returns.
func TestServeOverloadBurstBoundedLatency(t *testing.T) {
	p := twoPathProblem()
	srv := NewServer(core.New(tinyConfig()), Options{
		MaxConcurrent: 1, MaxQueueDepth: 1,
	})
	srv.sem <- struct{}{} // gate blocked: total capacity while blocked is 1 queued request

	const burst = 20 // 10x the gate's total capacity
	type outcome struct {
		dec  Decision
		took time.Duration
	}
	results := make([]outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			begin := time.Now()
			dec := srv.Serve(p, demand(p, 4, 2))
			results[i] = outcome{dec, time.Since(begin)}
		}(i)
	}
	waitFor(t, "the burst to shed down to one queued request", func() bool {
		return srv.Stats().ShedQueueFull == burst-1
	})
	<-srv.sem // restore capacity; the queued request proceeds
	wg.Wait()

	var served, shed int
	var worstShed time.Duration
	for _, r := range results {
		switch {
		case r.dec.Tier == TierShed:
			shed++
			if !errors.Is(r.dec.Err, ErrOverload) {
				t.Fatalf("shed with untyped error %v", r.dec.Err)
			}
			if r.took > worstShed {
				worstShed = r.took
			}
		default:
			served++
			assertValidSplits(t, p, r.dec.Splits)
		}
	}
	if served != 1 || shed != burst-1 {
		t.Fatalf("served=%d shed=%d, want 1 and %d", served, shed, burst-1)
	}
	// Shed latency is the time to lose two atomic races — bound it far
	// below any inference time while keeping slack for CI scheduling.
	if worstShed > 100*time.Millisecond {
		t.Fatalf("worst shed latency %v; shedding must be immediate", worstShed)
	}
}

// TestDrainShedsNewAndWakesQueued: Drain must (a) wake queued waiters and
// shed them with ErrDraining, (b) turn away later requests the same way,
// and (c) return once the server is idle.
func TestDrainShedsNewAndWakesQueued(t *testing.T) {
	p := twoPathProblem()
	srv := NewServer(core.New(tinyConfig()), Options{MaxConcurrent: 1, MaxQueueDepth: 4})
	srv.sem <- struct{}{} // hold the slot so the next request queues

	var queuedDec Decision
	done := make(chan struct{})
	go func() {
		queuedDec = srv.Serve(p, demand(p, 4, 2))
		close(done)
	}()
	waitFor(t, "the request to queue", func() bool { return srv.queued.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-done
	if queuedDec.Tier != TierShed || !errors.Is(queuedDec.Err, ErrDraining) {
		t.Fatalf("queued request during drain: tier=%v err=%v, want shed/ErrDraining", queuedDec.Tier, queuedDec.Err)
	}
	<-srv.sem

	dec := srv.Serve(p, demand(p, 4, 2))
	if dec.Tier != TierShed || !errors.Is(dec.Err, ErrDraining) {
		t.Fatalf("post-drain request: tier=%v err=%v, want shed/ErrDraining", dec.Tier, dec.Err)
	}
	st := srv.Stats()
	if !st.Draining || st.ShedDraining != 2 {
		t.Fatalf("stats %+v: want draining, 2 draining sheds", st)
	}
	// Idempotent: a second drain of an idle server returns immediately.
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if !srv.Stats().Draining {
		t.Fatal("a drained server stopped draining")
	}
}

// TestDrainTimesOutWithRequestsInFlight: when in-flight work outlives the
// drain context, Drain must return the context error (and report the
// stragglers) instead of hanging.
func TestDrainTimesOutWithRequestsInFlight(t *testing.T) {
	srv := NewServer(core.New(tinyConfig()), Options{})
	srv.inflight.Add(1) // simulate a wedged in-flight request

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := srv.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with wedged request: %v, want context.DeadlineExceeded", err)
	}
	// The straggler finishes; a fresh drain completes.
	srv.exitInflight()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain after straggler finished: %v", err)
	}
}

// TestAdmissionDisabledPathUnchanged: with a zero Options the gate is off
// — no sheds, no queueing, and the serve path still answers on TierFull.
func TestAdmissionDisabledPathUnchanged(t *testing.T) {
	p := twoPathProblem()
	srv := NewServer(core.New(tinyConfig()), Options{})
	if srv.sem != nil {
		t.Fatal("MaxConcurrent=0 must not build a gate")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec := srv.Serve(p, demand(p, 4, 2))
			if dec.Tier == TierShed {
				t.Errorf("shed with admission control disabled: %v", dec.Err)
			}
		}()
	}
	wg.Wait()
	if st := srv.Stats(); st.Shed != 0 || st.InFlight != 0 {
		t.Fatalf("stats %+v: want no sheds, no residual in-flight", st)
	}
}
