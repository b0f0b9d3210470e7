package main

import (
	"fmt"
	"io"
	"sort"

	"harpte/internal/obs/reqtrace"
)

// rootSpanName is the span the harness opens around every traced request.
const rootSpanName = "bench.request"

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// selfTimes returns the self time in nanoseconds of every span of one
// trace, in the order of spans: a span's effective interval (its own,
// clipped to its parent's effective interval) minus the union of its
// children's effective intervals. A span that never ended (DurUS < 0, an
// attempt still in flight when the trace was exported) is taken to run to
// its parent's end. Clipping makes the self times of a trace without
// concurrent siblings sum to the root's duration exactly.
func selfTimes(spans []reqtrace.SpanDump) []int64 {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	eff := make([]interval, len(spans))
	done := make([]bool, len(spans))
	var resolve func(i int) interval
	resolve = func(i int) interval {
		if done[i] {
			return eff[i]
		}
		done[i] = true
		s := spans[i]
		iv := interval{lo: s.Start, hi: s.Start + int64(s.DurUS*1e3)}
		pi, hasParent := byID[s.Parent]
		if s.Parent == 0 || !hasParent {
			if s.DurUS < 0 {
				iv.hi = iv.lo
			}
			eff[i] = iv
			return iv
		}
		p := resolve(pi)
		if s.DurUS < 0 || iv.hi > p.hi {
			iv.hi = p.hi
		}
		if iv.lo < p.lo {
			iv.lo = p.lo
		}
		if iv.hi < iv.lo {
			iv.hi = iv.lo
		}
		eff[i] = iv
		return iv
	}
	children := make([][]interval, len(spans))
	for i, s := range spans {
		iv := resolve(i)
		if pi, ok := byID[s.Parent]; ok && s.Parent != 0 {
			children[pi] = append(children[pi], iv)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = (eff[i].hi - eff[i].lo) - unionLength(children[i])
	}
	return self
}

// unionLength returns the total length covered by the intervals.
func unionLength(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// stageBudget is one row of the per-layer budget: every span of one name
// across the traced run.
type stageBudget struct {
	Name     string
	Count    int     // spans of this name
	P50SelfU float64 // median over the requests that emitted it of the request's self time under this name, µs
	Share    float64 // share of total root time
}

// budget aggregates a traced run by whatever span names the program
// emitted. rootP50U is the median root duration in µs; sumShare is the sum
// of all self time over total root time, 1 when the budget is complete.
type budget struct {
	Traces   int
	RootP50U float64
	SumShare float64
	Stages   []stageBudget
}

func aggregate(dump reqtrace.Dump) budget {
	selfByName := map[string][]float64{}
	totalByName := map[string]float64{}
	counts := map[string]int{}
	var rootDurs []float64
	var totalRoot, totalSelf float64
	b := budget{}
	for _, tr := range dump.Traces {
		rootUS := -1.0
		for _, s := range tr.Spans {
			if s.Parent == 0 && s.Name == rootSpanName {
				rootUS = s.DurUS
			}
		}
		if rootUS < 0 {
			continue // not one of the harness's requests, or never finished
		}
		b.Traces++
		rootDurs = append(rootDurs, rootUS)
		totalRoot += rootUS
		perReq := map[string]float64{}
		for i, ns := range selfTimes(tr.Spans) {
			name := tr.Spans[i].Name
			perReq[name] += float64(ns) / 1e3
			counts[name]++
		}
		for name, us := range perReq {
			selfByName[name] = append(selfByName[name], us)
			totalByName[name] += us
			totalSelf += us
		}
	}
	if b.Traces == 0 {
		return b
	}
	b.RootP50U = median(rootDurs)
	b.SumShare = totalSelf / totalRoot
	for name, selves := range selfByName {
		b.Stages = append(b.Stages, stageBudget{
			Name:     name,
			Count:    counts[name],
			P50SelfU: median(selves),
			Share:    totalByName[name] / totalRoot,
		})
	}
	sort.Slice(b.Stages, func(i, j int) bool {
		if b.Stages[i].Share != b.Stages[j].Share {
			return b.Stages[i].Share > b.Stages[j].Share
		}
		return b.Stages[i].Name < b.Stages[j].Name
	})
	return b
}

// stage returns the budget row for a span name (zero row when the program
// emitted no such span on this workload).
func (b budget) stage(name string) stageBudget {
	for _, s := range b.Stages {
		if s.Name == name {
			return s
		}
	}
	return stageBudget{Name: name}
}

func (b budget) print(w io.Writer) {
	fmt.Fprintf(w, "per-layer budget from %d traced requests (root p50 %.1f µs, self times sum to %.4f of root):\n",
		b.Traces, b.RootP50U, b.SumShare)
	fmt.Fprintf(w, "  %-20s %9s %14s %8s\n", "span", "count", "p50 self µs", "share")
	for _, s := range b.Stages {
		fmt.Fprintf(w, "  %-20s %9d %14.2f %7.2f%%\n", s.Name, s.Count, s.P50SelfU, 100*s.Share)
	}
}
