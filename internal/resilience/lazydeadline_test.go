package resilience

// The oracle for LazyDeadline: every scenario below runs once on
// context.WithTimeout and once on WithLazyTimeout, and what each observes
// must be the same. Run under -race (make race covers this package).

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// closeBound is how late after its deadline a Done channel may close:
// a timer's firing delay, with room for a loaded or race-instrumented run.
const closeBound = 250 * time.Millisecond

type timeoutFunc func(context.Context, time.Duration) (context.Context, func())

var timeoutImpls = []struct {
	name string
	mk   timeoutFunc
}{
	{"WithTimeout", func(parent context.Context, d time.Duration) (context.Context, func()) {
		return context.WithTimeout(parent, d)
	}},
	{"lazy", func(parent context.Context, d time.Duration) (context.Context, func()) {
		c := WithLazyTimeout(parent, d)
		return c, c.Release
	}},
}

// closed reports whether done is closed, without waiting.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// waitErr polls ctx.Err() — never Done() — until it is set or a second
// has passed, and returns it.
func waitErr(ctx context.Context) error {
	for end := time.Now().Add(time.Second); ctx.Err() == nil && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	return ctx.Err()
}

// waitDone waits up to d + closeBound for done and reports whether it
// closed in that time.
func waitDone(done <-chan struct{}, d time.Duration) bool {
	select {
	case <-done:
		return true
	case <-time.After(d + closeBound):
		return false
	}
}

func TestLazyDeadlineMatchesWithTimeout(t *testing.T) {
	type key struct{}
	scenarios := []struct {
		name string
		run  func(mk timeoutFunc) []string
	}{
		{"err before and after the deadline, never waited on", func(mk timeoutFunc) []string {
			ctx, release := mk(context.Background(), 20*time.Millisecond)
			defer release()
			obs := []string{fmt.Sprint("before: ", ctx.Err())}
			time.Sleep(20 * time.Millisecond)
			return append(obs, fmt.Sprint("after: ", waitErr(ctx)))
		}},
		{"done closes after the deadline", func(mk timeoutFunc) []string {
			const d = 20 * time.Millisecond
			start := time.Now()
			ctx, release := mk(context.Background(), d)
			defer release()
			in := waitDone(ctx.Done(), d)
			return []string{
				fmt.Sprint("closed in bound: ", in),
				fmt.Sprint("not early: ", time.Since(start) >= d),
				fmt.Sprint("err: ", ctx.Err()),
			}
		}},
		{"deadline is the earlier of the parent's and its own", func(mk timeoutFunc) []string {
			parent, cancel := context.WithTimeout(context.Background(), time.Hour)
			defer cancel()
			pd, _ := parent.Deadline()
			ctx, release := mk(parent, time.Minute)
			defer release()
			own, ok := ctx.Deadline()
			obs := []string{fmt.Sprint("own: ", ok, own.Before(pd))}
			ctx2, release2 := mk(parent, 2*time.Hour)
			defer release2()
			late, ok := ctx2.Deadline()
			return append(obs, fmt.Sprint("parent's: ", ok, late.Equal(pd)))
		}},
		{"parent cancelled before the first Done", func(mk timeoutFunc) []string {
			parent, cancel := context.WithCancel(context.Background())
			ctx, release := mk(parent, time.Hour)
			defer release()
			cancel()
			obs := []string{fmt.Sprint("err: ", waitErr(ctx))}
			return append(obs, fmt.Sprint("done: ", waitDone(ctx.Done(), 0), " err: ", ctx.Err()))
		}},
		{"parent cancelled after the first Done", func(mk timeoutFunc) []string {
			parent, cancel := context.WithCancel(context.Background())
			ctx, release := mk(parent, time.Hour)
			defer release()
			done := ctx.Done()
			obs := []string{fmt.Sprint("open: ", !closed(done), " err: ", ctx.Err())}
			cancel()
			return append(obs, fmt.Sprint("done: ", waitDone(done, 0), " err: ", ctx.Err()))
		}},
		{"parent expires before its child's own deadline", func(mk timeoutFunc) []string {
			parent, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			ctx, release := mk(parent, time.Hour)
			defer release()
			return []string{fmt.Sprint("done: ", waitDone(ctx.Done(), 20*time.Millisecond), " err: ", ctx.Err())}
		}},
		{"a WithDeadline child is cancelled when its parent expires", func(mk timeoutFunc) []string {
			const d = 20 * time.Millisecond
			ctx, release := mk(context.Background(), d)
			defer release()
			// The fleet hands its context on wrapped in a trace value.
			child, cancel := context.WithDeadline(context.WithValue(ctx, key{}, 1), time.Now().Add(time.Hour))
			defer cancel()
			return []string{
				fmt.Sprint("value: ", child.Value(key{})),
				fmt.Sprint("done: ", waitDone(child.Done(), d), " err: ", child.Err()),
			}
		}},
		{"deriving WithDeadline children starts no goroutine", func(mk timeoutFunc) []string {
			const n = 64
			before := runtime.NumGoroutine()
			var cancels []func()
			for i := 0; i < n; i++ {
				ctx, release := mk(context.Background(), time.Hour)
				_, cancel := context.WithDeadline(context.WithValue(ctx, key{}, i), time.Now().Add(time.Minute))
				cancels = append(cancels, cancel, release)
			}
			grew := runtime.NumGoroutine() - before
			for _, c := range cancels {
				c()
			}
			return []string{fmt.Sprint("goroutines grew: ", grew > 0)}
		}},
		// The fleet's Deadline over its TryTimeout, and either over the
		// server's Options.Deadline, each behind a trace value.
		{"a deadline under a deadline, inner earlier", func(mk timeoutFunc) []string {
			const d = 20 * time.Millisecond
			outer, releaseOuter := mk(context.Background(), time.Hour)
			defer releaseOuter()
			inner, release := mk(context.WithValue(outer, key{}, 1), d)
			defer release()
			od, _ := outer.Deadline()
			id, _ := inner.Deadline()
			obs := []string{
				fmt.Sprint("inner's own: ", id.Before(od)),
				fmt.Sprint("value: ", inner.Value(key{})),
				fmt.Sprint("before: ", inner.Err()),
			}
			time.Sleep(d)
			obs = append(obs, fmt.Sprint("after: ", waitErr(inner), " outer: ", outer.Err()))
			return append(obs, fmt.Sprint("done: ", waitDone(inner.Done(), 0),
				" outer open: ", !closed(outer.Done()), " err: ", inner.Err()))
		}},
		{"a deadline under a deadline, outer earlier, never waited on", func(mk timeoutFunc) []string {
			const d = 20 * time.Millisecond
			outer, releaseOuter := mk(context.Background(), d)
			defer releaseOuter()
			inner, release := mk(context.WithValue(outer, key{}, 1), time.Hour)
			defer release()
			od, _ := outer.Deadline()
			id, _ := inner.Deadline()
			obs := []string{fmt.Sprint("outer's: ", id.Equal(od)), fmt.Sprint("before: ", inner.Err())}
			time.Sleep(d)
			obs = append(obs, fmt.Sprint("after: ", waitErr(inner), " outer: ", waitErr(outer)))
			return append(obs, fmt.Sprint("done: ", waitDone(inner.Done(), 0), " err: ", inner.Err()))
		}},
		{"a deadline under a deadline, outer earlier, inner waited on", func(mk timeoutFunc) []string {
			const d = 20 * time.Millisecond
			start := time.Now()
			outer, releaseOuter := mk(context.Background(), d)
			defer releaseOuter()
			inner, release := mk(context.WithValue(outer, key{}, 1), time.Hour)
			defer release()
			in := waitDone(inner.Done(), d)
			return []string{
				fmt.Sprint("closed in bound: ", in),
				fmt.Sprint("not early: ", time.Since(start) >= d),
				fmt.Sprint("err: ", inner.Err(), " outer: ", outer.Err()),
			}
		}},
		{"a deadline under a deadline, outer earlier, inner never ends first", func(mk timeoutFunc) []string {
			// Both deadlines fall on the outer's instant; only the outer
			// may end the inner, as WithDeadline under a parent whose
			// deadline is earlier has no timer of its own.
			first := 0
			for i := 0; i < 200; i++ {
				outer, releaseOuter := mk(context.Background(), time.Millisecond)
				inner, release := mk(context.WithValue(outer, key{}, i), time.Hour)
				<-inner.Done()
				if outer.Err() == nil {
					first++
				}
				release()
				releaseOuter()
			}
			return []string{fmt.Sprint("inner ended first: ", first)}
		}},
		{"outer released under a waiting inner", func(mk timeoutFunc) []string {
			outer, releaseOuter := mk(context.Background(), time.Hour)
			inner, release := mk(context.WithValue(outer, key{}, 1), time.Minute)
			defer release()
			done := inner.Done()
			obs := []string{fmt.Sprint("open: ", !closed(done))}
			releaseOuter()
			return append(obs, fmt.Sprint("done: ", waitDone(done, 0), " err: ", inner.Err()))
		}},
		{"outer released under an inner nothing waits on", func(mk timeoutFunc) []string {
			outer, releaseOuter := mk(context.Background(), time.Hour)
			inner, release := mk(context.WithValue(outer, key{}, 1), time.Minute)
			defer release()
			releaseOuter()
			obs := []string{fmt.Sprint("err: ", waitErr(inner))}
			return append(obs, fmt.Sprint("done: ", waitDone(inner.Done(), 0), " err: ", inner.Err()))
		}},
		{"release before Done", func(mk timeoutFunc) []string {
			ctx, release := mk(context.Background(), time.Hour)
			release()
			obs := []string{fmt.Sprint("err: ", ctx.Err())}
			child, cancel := context.WithCancel(ctx)
			defer cancel()
			return append(obs,
				fmt.Sprint("done: ", closed(ctx.Done()), " err: ", ctx.Err()),
				fmt.Sprint("child done: ", closed(child.Done()), " err: ", child.Err()))
		}},
		{"release after Done", func(mk timeoutFunc) []string {
			ctx, release := mk(context.Background(), time.Hour)
			done := ctx.Done()
			release()
			return []string{fmt.Sprint("done: ", closed(done), " err: ", ctx.Err())}
		}},
		{"release after the deadline keeps DeadlineExceeded", func(mk timeoutFunc) []string {
			ctx, release := mk(context.Background(), 5*time.Millisecond)
			time.Sleep(5 * time.Millisecond)
			first := waitErr(ctx)
			release()
			return []string{fmt.Sprint("before release: ", first, " after: ", ctx.Err(), " done: ", closed(ctx.Done()))}
		}},
		{"released twice", func(mk timeoutFunc) []string {
			ctx, release := mk(context.Background(), time.Hour)
			release()
			release()
			return []string{fmt.Sprint("err: ", ctx.Err())}
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			want := sc.run(timeoutImpls[0].mk)
			if got := sc.run(timeoutImpls[1].mk); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s observed %q, %s %q", timeoutImpls[1].name, got, timeoutImpls[0].name, want)
			}
		})
	}
}

// TestLazyDeadlineConcurrent: Done, Err, Value and release from several
// goroutines at once, around the deadline. Every goroutine that waits on
// Done is released, and every context ends with Done closed and the error
// of whatever ended it first.
func TestLazyDeadlineConcurrent(t *testing.T) {
	for round := 0; round < 50; round++ {
		ctx := WithLazyTimeout(context.Background(), time.Duration(round%5)*time.Millisecond)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g {
				case 0:
					<-ctx.Done()
				case 1:
					for i := 0; i < 100; i++ {
						_ = ctx.Err()
						_ = ctx.Value(g)
					}
				case 2:
					child, cancel := context.WithCancel(ctx)
					<-child.Done()
					cancel()
				case 3:
					time.Sleep(time.Duration(round%3) * time.Millisecond)
					ctx.Release()
				}
			}(g)
		}
		wg.Wait()
		if !closed(ctx.Done()) {
			t.Fatalf("round %d: Done still open after release", round)
		}
		if err := ctx.Err(); err != context.Canceled && err != context.DeadlineExceeded {
			t.Fatalf("round %d: err %v", round, err)
		}
	}
}
