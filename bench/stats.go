package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of sorted by nearest
// rank: the smallest value with at least q of the samples at or below it.
// It returns NaN on an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the median of values (mean of the two middle ones for an
// even count) without modifying them; NaN when empty.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile of values by the
// exclusive method (what Python's statistics.quantiles(v, n=4) returns),
// so spreads computed here match the ones the acceptance check computes.
// It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(i int) float64 {
		n := len(s)
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure every bound is compared against. Zero for fewer
// than two values or a zero median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	m := median(values)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return math.Abs((q3 - q1) / m)
}

// span is one request as a client saw it: offsets in nanoseconds from the
// start of the measurement window.
type span struct{ start, end int64 }

// sliceThroughput cuts each client's request sequence into `slices` runs
// of equal request count, adds the clients' rates slice by slice and
// returns the median slice, in requests per second. Slices end on request
// boundaries rather than wall-clock ticks, so a workload that completes
// twenty 0.3 s requests per slice is not quantised to ±5 %; the median
// keeps one stalled slice (a GC, a noisy neighbour) from moving the
// result. A client with fewer requests than slices contributes its whole
// run to every slice.
func sliceThroughput(clients [][]span, slices int) float64 {
	rates := make([]float64, slices)
	for _, reqs := range clients {
		if len(reqs) == 0 {
			continue
		}
		for i := 0; i < slices; i++ {
			lo, hi := i*len(reqs)/slices, (i+1)*len(reqs)/slices
			if len(reqs) < slices {
				lo, hi = 0, len(reqs)
			}
			dur := reqs[hi-1].end - reqs[lo].start
			if lo > 0 {
				// Charge the gap since the previous request (the
				// client's own think time) to this slice.
				dur = reqs[hi-1].end - reqs[lo-1].end
			}
			if dur > 0 {
				rates[i] += float64(hi-lo) / (float64(dur) / 1e9)
			}
		}
	}
	return median(rates)
}
