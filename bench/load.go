package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"harpte/internal/fleet"
	"harpte/internal/obs/reqtrace"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/verify"
)

// answer is one request as its client saw it. Answers are kept so every
// one is checked after the clock stops, not on the timed path. hot_cache
// keeps over a million of them, so the record is 32 bytes and holds no
// pointer: the collector never scans the log (scanning 100 MB of it every
// cycle halved hot_cache throughput on some runs and not on others).
type answer struct {
	span
	idx     int32 // position in the stream
	splits  int32 // index into the client's matrices
	tier    int8  // resilience.Tier
	replica int8
	// failed marks an answer that came back with an error or from the
	// wrong tier; the reason is in the client's failures.
	failed bool
}

// clientLog is everything one client recorded, in send order.
type clientLog struct {
	answers []answer
	// matrices holds each distinct split matrix the client was answered
	// with once (cache hits return the cached matrix itself); ids finds
	// it again.
	matrices []*tensor.Dense
	ids      map[*tensor.Dense]int32
	failures []error // one per failed answer
}

func (l *clientLog) intern(m *tensor.Dense) int32 {
	id, ok := l.ids[m]
	if !ok {
		id = int32(len(l.matrices))
		l.matrices = append(l.matrices, m)
		l.ids[m] = id
	}
	return id
}

// serveFunc sends one request through the system under test.
type serveFunc func(p *te.Problem, d *tensor.Dense) fleet.Decision

// tracedServe wraps every request in a bench.request root span on rec.
func tracedServe(f *fleet.Fleet, rec *reqtrace.Recorder) serveFunc {
	return func(p *te.Problem, d *tensor.Dense) fleet.Decision {
		ctx, root := rec.StartTrace(context.Background(), rootSpanName)
		dec := f.ServeCtx(ctx, p, d)
		root.End()
		return dec
	}
}

// phase is one closed-loop run: `clients` goroutines each take the next
// stream position, send it, wait for the answer, and repeat until the
// duration has passed or maxRequests have been started (0 = no cap).
type phase struct {
	clients []clientLog
	elapsed time.Duration
}

func runPhase(serve serveFunc, st *stream, dur time.Duration, maxRequests int) phase {
	ph := phase{clients: make([]clientLog, clients)}
	limit := int64(math.MaxInt64)
	room := int(2*st.w.baselineRPS*dur.Seconds()/clients) + 16
	if maxRequests > 0 {
		limit = st.pos.Load() + int64(maxRequests)
		room = min(room, maxRequests)
	}
	for c := range ph.clients {
		// Room for twice the baseline, allocated (and so touched) before
		// the clock starts: the slice neither regrows nor page-faults
		// inside the window.
		ph.clients[c] = clientLog{answers: make([]answer, 0, room), ids: map[*tensor.Dense]int32{}}
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(log *clientLog) {
			defer wg.Done()
			for now := start; now.Before(deadline); {
				i := st.pos.Add(1) - 1
				if i >= limit {
					break
				}
				p, d := st.request(int(i))
				t0 := time.Now()
				dec := serve(p, d)
				t1 := time.Now()
				a := answer{
					span:   span{start: t0.Sub(start).Nanoseconds(), end: t1.Sub(start).Nanoseconds()},
					splits: log.intern(dec.Splits), idx: int32(i), tier: int8(dec.Tier), replica: int8(dec.Replica),
				}
				if dec.Err != nil || dec.Tier != st.w.wantTier {
					a.failed = true
					log.failures = append(log.failures, fmt.Errorf("request %d: tier %v (want %v), degraded %v, err %v",
						i, dec.Tier, st.w.wantTier, dec.Degraded, dec.Err))
				}
				log.answers = append(log.answers, a)
				now = t1
			}
		}(&ph.clients[c])
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// count returns how many requests the phase attempted.
func (ph phase) count() int {
	n := 0
	for _, c := range ph.clients {
		n += len(c.answers)
	}
	return n
}

// latenciesMS returns every request's client-side latency, sorted.
func (ph phase) latenciesMS() []float64 {
	out := make([]float64, 0, ph.count())
	for _, c := range ph.clients {
		for _, a := range c.answers {
			out = append(out, float64(a.end-a.start)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func (ph phase) spans() [][]span {
	out := make([][]span, len(ph.clients))
	for c, log := range ph.clients {
		out[c] = make([]span, len(log.answers))
		for i, a := range log.answers {
			out[c][i] = a.span
		}
	}
	return out
}

// verdict is the outcome of checking a phase's answers.
type verdict struct {
	attempted, ok, withinLimit int
	tierFull, tierCached       int
	perReplica                 map[int]int
	firstFailure               error
}

// check vets every answer of the phase: no error, the workload's tier, a
// positive latency, and splits that pass both the serving layer's vet and
// the routing invariant check. A failed request also misses the latency limit. A
// matrix that several answers share (cache hits return the cached one) is
// vetted once.
func (ph phase) check(st *stream) verdict {
	v := verdict{perReplica: map[int]int{}}
	vetted := map[*tensor.Dense]error{}
	for _, log := range ph.clients {
		if len(log.failures) > 0 && v.firstFailure == nil {
			v.firstFailure = log.failures[0]
		}
		for _, a := range log.answers {
			v.attempted++
			v.perReplica[int(a.replica)]++
			switch resilience.Tier(a.tier) {
			case resilience.TierFull:
				v.tierFull++
			case resilience.TierCached:
				v.tierCached++
			}
			if a.failed {
				continue
			}
			if err := vetAnswer(st, a, log.matrices[a.splits], vetted); err != nil {
				if v.firstFailure == nil {
					v.firstFailure = fmt.Errorf("request %d: %w", a.idx, err)
				}
				continue
			}
			v.ok++
			if float64(a.end-a.start)/1e6 < st.w.limitMS {
				v.withinLimit++
			}
		}
	}
	return v
}

func vetAnswer(st *stream, a answer, splits *tensor.Dense, vetted map[*tensor.Dense]error) error {
	if a.end <= a.start {
		return fmt.Errorf("latency %d ns", a.end-a.start)
	}
	err, seen := vetted[splits]
	if !seen {
		p := st.shapeProblem(int(a.idx))
		if _, err = resilience.VetSplits(p, splits); err == nil {
			err = verify.CheckSplits(p, splits, 1e-6)
		}
		vetted[splits] = err
	}
	return err
}

// cacheCounts sums the split caches of all replicas.
func cacheCounts(servers []*resilience.Server) (hits, misses int64) {
	for _, s := range servers {
		c := s.Stats().Cache
		hits += c.Hits
		misses += c.Misses
	}
	return hits, misses
}

// cacheInvariant is the workload's design made checkable: a miss workload
// that hits, or the hit workload that misses, is not measuring what its
// name says.
func cacheInvariant(w *workload, hits, misses int64) error {
	if w.replay && misses != 0 {
		return fmt.Errorf("%s: %d split-cache misses in the window, want 0", w.name, misses)
	}
	if !w.replay && hits != 0 {
		return fmt.Errorf("%s: %d split-cache hits in the window, want 0", w.name, hits)
	}
	return nil
}
