package resilience

import (
	"math"
	"strings"
	"testing"
	"time"

	"harpte/internal/core"
)

// fakeClock drives a breaker's injectable clock in tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func testBreaker(threshold int, cooloff time.Duration) (*breaker, *fakeClock) {
	b := newBreaker(threshold, cooloff)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	b, _ := testBreaker(3, time.Minute)
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("breaker open after %d failures, threshold is 3", i)
		}
		if b.onFailure() {
			t.Fatalf("breaker tripped on failure %d, threshold is 3", i+1)
		}
	}
	b.allow()
	if !b.onFailure() {
		t.Fatal("third consecutive failure did not trip the breaker")
	}
	if b.allow() {
		t.Fatal("open breaker allowed a request inside the cooloff")
	}
	if _, trips, shorts := b.snapshot(); trips != 1 || shorts != 1 {
		t.Fatalf("trips=%d shorts=%d, want 1 and 1", trips, shorts)
	}
}

func TestBreakerSuccessResetsConsecutiveCount(t *testing.T) {
	b, _ := testBreaker(3, time.Minute)
	b.onFailure()
	b.onFailure()
	b.onSuccess()
	b.onFailure()
	b.onFailure()
	if tripped := b.onFailure(); !tripped {
		t.Fatal("want trip on the 3rd consecutive failure after the reset")
	}
	if _, trips, _ := b.snapshot(); trips != 1 {
		t.Fatalf("trips=%d, want 1 (successes must reset the streak, not delay it)", trips)
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	b, clk := testBreaker(1, time.Minute)
	b.onFailure() // trips (threshold 1)
	if b.allow() {
		t.Fatal("open breaker allowed a request")
	}
	clk.advance(time.Minute)
	// Cooloff elapsed: exactly one probe goes through, concurrent
	// requests still short-circuit.
	if !b.allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if state, _, _ := b.snapshot(); state != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", state)
	}
	if b.allow() {
		t.Fatal("second request admitted while the probe is in flight")
	}
	b.onSuccess()
	if state, _, _ := b.snapshot(); state != BreakerClosed {
		t.Fatalf("state %v after probe success, want closed", state)
	}
	if !b.allow() {
		t.Fatal("closed breaker refused a request")
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	b, clk := testBreaker(2, time.Minute)
	b.onFailure()
	b.onFailure() // trip #1
	clk.advance(time.Minute)
	if !b.allow() {
		t.Fatal("probe refused")
	}
	if !b.onFailure() {
		t.Fatal("failed probe must re-open immediately (no second streak)")
	}
	if b.allow() {
		t.Fatal("breaker admitted a request right after a failed probe")
	}
	if _, trips, _ := b.snapshot(); trips != 2 {
		t.Fatalf("trips=%d, want 2", trips)
	}
}

func TestBreakerNilIsDisabled(t *testing.T) {
	var b *breaker
	if b != newBreaker(0, time.Minute) && newBreaker(0, time.Minute) != nil {
		t.Fatal("threshold 0 must return the nil (disabled) breaker")
	}
	for i := 0; i < 10; i++ {
		if !b.allow() {
			t.Fatal("nil breaker must always allow")
		}
		if b.onFailure() {
			t.Fatal("nil breaker must never trip")
		}
	}
	b.onSuccess()
	if state, trips, shorts := b.snapshot(); state != BreakerClosed || trips != 0 || shorts != 0 {
		t.Fatal("nil breaker snapshot must be zero")
	}
}

// TestServeBreakerShortCircuitsPoisonedTiers: end-to-end through Serve —
// NaN weights fail the model on every request; once the breaker trips,
// later requests must skip it (degradation reason "circuit open") instead
// of re-running doomed inference.
func TestServeBreakerShortCircuitsPoisonedTiers(t *testing.T) {
	p := twoPathProblem()
	m := core.New(tinyConfig())
	m.Params()[0].Val.Data[0] = math.NaN()
	srv := NewServer(m, Options{BreakerThreshold: 2, BreakerCooloff: time.Hour})

	for i := 0; i < 2; i++ {
		dec := srv.Serve(p, demand(p, 4, 2))
		if dec.Tier != TierECMP {
			t.Fatalf("request %d: tier %v, want ecmp", i, dec.Tier)
		}
		for _, d := range dec.Degraded {
			if strings.Contains(d, "circuit open") {
				t.Fatalf("request %d short-circuited before the threshold: %v", i, dec.Degraded)
			}
		}
	}
	dec := srv.Serve(p, demand(p, 4, 2))
	if dec.Tier != TierECMP {
		t.Fatalf("tier %v, want ecmp", dec.Tier)
	}
	opens := 0
	for _, d := range dec.Degraded {
		if strings.Contains(d, "circuit open") {
			opens++
		}
	}
	if opens != 1 {
		t.Fatalf("want the model short-circuited, got degradations %v", dec.Degraded)
	}
	st := srv.Stats()
	if st.BreakerTrips != 1 || st.BreakerState != BreakerOpen || st.BreakerShortCircuits != 1 {
		t.Fatalf("stats %+v: want 1 trip, an open breaker, 1 short circuit", st)
	}
}

// TestServeBreakerRecoversAfterModelHealed: trip the breaker on a
// poisoned model, heal the weights, advance past the cooloff — the
// half-open probe must succeed and close the breaker, restoring TierFull.
func TestServeBreakerRecoversAfterModelHealed(t *testing.T) {
	p := twoPathProblem()
	m := core.New(tinyConfig())
	healthy := m.Params()[0].Val.Data[0]
	m.Params()[0].Val.Data[0] = math.NaN()
	srv := NewServer(m, Options{BreakerThreshold: 1, BreakerCooloff: time.Minute})
	clk := &fakeClock{t: time.Unix(1000, 0)}
	srv.breaker.now = clk.now

	if dec := srv.Serve(p, demand(p, 4, 2)); dec.Tier != TierECMP {
		t.Fatalf("poisoned serve got tier %v", dec.Tier)
	}
	if st := srv.Stats(); st.BreakerState != BreakerOpen {
		t.Fatalf("breaker not tripped: %+v", st)
	}
	m.Params()[0].Val.Data[0] = healthy // model healed (e.g. weights restored)
	// Inside the cooloff the model stays short-circuited even though it is
	// healthy again.
	if dec := srv.Serve(p, demand(p, 4, 2)); dec.Tier != TierECMP {
		t.Fatalf("tier %v inside cooloff, want ecmp", dec.Tier)
	}
	clk.advance(2 * time.Minute)
	dec := srv.Serve(p, demand(p, 4, 2))
	if dec.Tier != TierFull {
		t.Fatalf("tier %v after heal+cooloff, want full (degraded: %v)", dec.Tier, dec.Degraded)
	}
	if st := srv.Stats(); st.BreakerState != BreakerClosed {
		t.Fatalf("a successful probe left the breaker %v: %+v", st.BreakerState, st)
	}
}
