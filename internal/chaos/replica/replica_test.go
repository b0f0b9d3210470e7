package replica_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"harpte/internal/chaos/replica"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

// twoPathProblem: 0→1 via a 10G direct link or a 5G two-hop detour.
func twoPathProblem() *te.Problem {
	g := topology.New("twopath", 3)
	g.AddBidirectional(0, 1, 10)
	g.AddBidirectional(0, 2, 5)
	g.AddBidirectional(2, 1, 5)
	g.EdgeNodes = []int{0, 1}
	return te.NewProblem(g, tunnels.Compute(g, 2))
}

// ecmpBackend answers every request with valid ECMP splits.
type ecmpBackend struct{ serves, reloads, drains int }

func (b *ecmpBackend) Serve(_ context.Context, p *te.Problem, d *tensor.Dense) (resilience.Decision, error) {
	b.serves++
	return resilience.Decision{
		Splits: te.NormalizeRows(te.Rescale(p, p.UniformSplits())),
		Tier:   resilience.TierECMP,
	}, nil
}

func (b *ecmpBackend) Reload(path string) error { b.reloads++; return nil }

func (b *ecmpBackend) Drain(ctx context.Context) error { b.drains++; return nil }

// TestFaultDeterministic pins the chaos discipline: the same seed and
// plan yield the identical fault schedule — both across two live Fault
// instances and against the Schedule reference — so any torture failure
// replays from its seed alone.
func TestFaultDeterministic(t *testing.T) {
	p := twoPathProblem()
	plan := replica.Plan{
		Seed:       42,
		CrashAfter: 40,
		PSlow:      0.2,
		PNaN:       0.3,
		PShape:     0.2,
	}
	const n = 50
	want := replica.Schedule(plan, n)
	ctx := context.Background()

	a := replica.New(&ecmpBackend{}, plan)
	b := replica.New(&ecmpBackend{}, plan)
	for i := 0; i < n; i++ {
		decA, errA := a.Serve(ctx, p, nil)
		b.Serve(ctx, p, nil)
		// Behavior must match the scheduled kind, call by call.
		switch want[i] {
		case replica.KindCrash:
			if !errors.Is(errA, replica.ErrDown) {
				t.Fatalf("call %d scheduled %v, got err %v", i, want[i], errA)
			}
		case replica.KindNaN:
			if errA != nil || decA.Splits.Rows != p.NumFlows() || decA.Splits.Cols != p.Tunnels.K {
				t.Fatalf("call %d scheduled nan: err=%v splits=%v", i, errA, decA.Splits)
			}
			if !math.IsNaN(decA.Splits.Data[0]) {
				t.Fatalf("call %d scheduled nan, got finite splits", i)
			}
		case replica.KindShape:
			if errA != nil || decA.Splits.Rows != 1 || decA.Splits.Cols != 1 {
				t.Fatalf("call %d scheduled shape fault: err=%v", i, errA)
			}
		case replica.KindOK, replica.KindSlow:
			if errA != nil || decA.Splits == nil {
				t.Fatalf("call %d scheduled %v: err=%v", i, want[i], errA)
			}
		}
	}

	logA, logB := a.Log(), b.Log()
	if len(logA) != n || len(logB) != n {
		t.Fatalf("log lengths %d/%d, want %d", len(logA), len(logB), n)
	}
	for i := range logA {
		if logA[i] != logB[i] {
			t.Fatalf("same seed diverged at call %d: %q vs %q", i, logA[i], logB[i])
		}
	}
	if !a.Down() || a.Calls() != n {
		t.Fatalf("after %d calls past CrashAfter=%d: down=%v calls=%d",
			n, plan.CrashAfter, a.Down(), a.Calls())
	}

	// A different seed must produce a different schedule (else the seed
	// is not actually driving the stream).
	other := replica.Schedule(replica.Plan{Seed: 43, CrashAfter: 40, PSlow: 0.2, PNaN: 0.3, PShape: 0.2}, n)
	same := true
	for i := range want {
		if want[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
}

// TestFaultCrashRefusesControlPlane: a crashed replica refuses Reload and
// Drain too, tagged ErrDown.
func TestFaultCrashRefusesControlPlane(t *testing.T) {
	p := twoPathProblem()
	inner := &ecmpBackend{}
	f := replica.New(inner, replica.Plan{Seed: 1, CrashAfter: 0})
	if _, err := f.Serve(context.Background(), p, nil); !errors.Is(err, replica.ErrDown) {
		t.Fatalf("serve after crash: %v", err)
	}
	if err := f.Reload("x"); !errors.Is(err, replica.ErrDown) {
		t.Fatalf("reload after crash: %v", err)
	}
	if err := f.Drain(context.Background()); !errors.Is(err, replica.ErrDown) {
		t.Fatalf("drain after crash: %v", err)
	}
	if inner.serves+inner.reloads+inner.drains != 0 {
		t.Fatal("crashed fault leaked calls to the backend")
	}
}

// TestFaultHangBlocksUntilRelease: a hung call parks until its context is
// done or Release is called, whichever is first, and then fails with
// ErrDown (and the context's error, when that is what ended it) — the hung-
// replica shape the fleet's TryTimeout and the torture tests rely on. A slow
// call cuts its sleep short the same way.
func TestFaultHangBlocksUntilRelease(t *testing.T) {
	p := twoPathProblem()
	f := replica.New(&ecmpBackend{}, replica.Plan{Seed: 1, CrashAfter: -1, PHang: 1})
	serve := func(ctx context.Context) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := f.Serve(ctx, p, nil)
			done <- err
		}()
		return done
	}
	await := func(what string, done chan error) error {
		t.Helper()
		select {
		case err := <-done:
			return err
		case <-time.After(2 * time.Second):
			t.Fatalf("%s never returned", what)
			return nil
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancelled, parked := serve(ctx), serve(context.Background())
	select {
	case err := <-cancelled:
		t.Fatalf("hung call returned early: %v", err)
	case err := <-parked:
		t.Fatalf("hung call returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	if err := await("cancelled hung call", cancelled); !errors.Is(err, replica.ErrDown) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled hung call: %v, want ErrDown and context.Canceled", err)
	}
	f.Release()
	f.Release() // idempotent
	if err := await("released hung call", parked); !errors.Is(err, replica.ErrDown) || errors.Is(err, context.Canceled) {
		t.Fatalf("released hung call: %v, want ErrDown alone", err)
	}

	slow := replica.New(&ecmpBackend{}, replica.Plan{Seed: 1, CrashAfter: -1, PSlow: 1, SlowDelay: time.Hour})
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if dec, err := slow.Serve(ctx, p, nil); err != nil || dec.Splits == nil {
		t.Fatalf("slow call whose context ended: %v, %v — want the pass-through answer", dec.Splits, err)
	}
}
