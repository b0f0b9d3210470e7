// Package te defines the traffic-engineering problem shared by the
// optimization solvers and the neural models: a topology, a tunnel set, a
// demand vector, and the evaluation of split ratios into link loads and
// Maximum Link Utilization (MLU), plus the local rescaling policy the paper
// applies to DOTE and TEAL under complete link failures.
package te

import (
	"fmt"
	"math"
	"sync"

	"harpte/internal/autograd"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

// Problem bundles a topology with a tunnel configuration. Split ratios are
// F×K matrices (rows = flows in Tunnels.Flows order, columns = tunnels in
// per-flow order); every row must sum to 1.
type Problem struct {
	Graph   *topology.Graph
	Tunnels *tunnels.Set

	incidence *tensor.CSR // E×T, cached

	once sync.Once // runs scan
	fp   uint64
	err  error // why the problem is malformed; nil when well-formed
}

// NewProblem builds a Problem and caches the edge-tunnel incidence.
func NewProblem(g *topology.Graph, set *tunnels.Set) *Problem {
	return &Problem{Graph: g, Tunnels: set, incidence: set.IncidenceCSR(g.NumEdges())}
}

// Incidence returns the cached E×T edge-tunnel incidence matrix.
func (p *Problem) Incidence() *tensor.CSR { return p.incidence }

// Fingerprint returns a 64-bit structural hash of the problem: node count,
// every edge's endpoints and capacity bits, the edge-node set, and the
// full tunnel structure (K, flow endpoints, per-tunnel edge sequences).
// Two problems with the same fingerprint route identically for the same
// demand vector, so the serving layer uses it as the topology half of
// split-cache keys and as the shard key for topology-cluster routing.
//
// The hash is computed lazily on first call, in the walk Validate's verdict
// comes from, and cached (Problems are immutable once built); it is safe
// for concurrent use. It tolerates Problems assembled as struct literals
// (nil Graph or Tunnels hash as empty) and malformed ones, since tests and
// tools build them without NewProblem.
func (p *Problem) Fingerprint() uint64 {
	p.once.Do(p.scan)
	return p.fp
}

// Validate reports why the problem is malformed, or nil: it needs a graph
// with at least one link, every capacity positive and finite, and a tunnel
// set with K > 0 and at least one flow, each flow with exactly K non-empty
// tunnels over edge ids the graph has. The verdict is computed once, with
// the fingerprint, so a server may ask on every request.
func (p *Problem) Validate() error {
	p.once.Do(p.scan)
	return p.err
}

// FNV-1a, the same mixing the stdlib's hash/fnv uses, inlined so hashing a
// problem allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (v >> s) & 0xff
		h *= fnvPrime
	}
	return h
}

// scan computes the fingerprint and Validate's verdict, the first fault
// found, in one walk over the edges and the tunnels' edge ids.
func (p *Problem) scan() {
	g, set := p.Graph, p.Tunnels
	fail := func(format string, args ...any) {
		if p.err == nil {
			p.err = fmt.Errorf("te: "+format, args...)
		}
	}
	switch {
	case g == nil || set == nil:
		fail("nil graph or tunnel set")
	case len(g.Edges) == 0:
		fail("topology has no links")
	case set.K <= 0:
		fail("tunnel set has K=%d", set.K)
	case len(set.Flows) == 0:
		fail("tunnel set has no flows")
	case len(set.PerFlow) != len(set.Flows):
		fail("tunnel set lists %d flows but has paths for %d", len(set.Flows), len(set.PerFlow))
	}
	h := uint64(fnvOffset)
	numEdges := 0
	if g != nil {
		numEdges = len(g.Edges)
		h = fnvMix(h, uint64(g.NumNodes))
		h = fnvMix(h, uint64(numEdges))
		for i, e := range g.Edges {
			if !(e.Capacity > 0) || math.IsInf(e.Capacity, 0) {
				fail("link %d (%d->%d) has capacity %v", i, e.Src, e.Dst, e.Capacity)
			}
			h = fnvMix(h, uint64(e.Src))
			h = fnvMix(h, uint64(e.Dst))
			h = fnvMix(h, math.Float64bits(e.Capacity))
		}
		h = fnvMix(h, uint64(len(g.EdgeNodes)))
		for _, n := range g.EdgeNodes {
			h = fnvMix(h, uint64(n))
		}
	}
	if set != nil {
		h = fnvMix(h, uint64(set.K))
		h = fnvMix(h, uint64(len(set.Flows)))
		for f, fl := range set.Flows {
			h = fnvMix(h, uint64(fl.Src))
			h = fnvMix(h, uint64(fl.Dst))
			if f >= len(set.PerFlow) {
				continue // a count mismatch, failed above
			}
			if len(set.PerFlow[f]) != set.K {
				fail("flow %d has %d tunnels, want K=%d", f, len(set.PerFlow[f]), set.K)
			}
			for k, tun := range set.PerFlow[f] {
				if len(tun.Edges) == 0 {
					fail("flow %d tunnel %d is empty", f, k)
				}
				h = fnvMix(h, uint64(len(tun.Edges)))
				for _, e := range tun.Edges {
					if e < 0 || e >= numEdges {
						fail("flow %d tunnel %d references link %d, topology has %d", f, k, e, numEdges)
					}
					h = fnvMix(h, uint64(e))
				}
			}
		}
	}
	p.fp = h
}

// NumFlows returns the flow count.
func (p *Problem) NumFlows() int { return len(p.Tunnels.Flows) }

// checkSplits validates the split matrix shape.
func (p *Problem) checkSplits(splits *tensor.Dense) {
	if splits.Rows != p.NumFlows() || splits.Cols != p.Tunnels.K {
		panic(fmt.Sprintf("te: splits shape %dx%d, want %dx%d",
			splits.Rows, splits.Cols, p.NumFlows(), p.Tunnels.K))
	}
}

// LinkLoads returns the E×1 vector of per-link traffic for the given splits
// and per-flow demands (F×1).
func (p *Problem) LinkLoads(splits, demand *tensor.Dense) *tensor.Dense {
	p.checkSplits(splits)
	x := tensor.New(p.Tunnels.NumTunnels(), 1)
	for f := 0; f < p.NumFlows(); f++ {
		d := demand.Data[f]
		row := splits.Row(f)
		for k := 0; k < p.Tunnels.K; k++ {
			x.Data[f*p.Tunnels.K+k] = d * row[k]
		}
	}
	loads := tensor.New(p.Graph.NumEdges(), 1)
	p.incidence.MulDense(loads, x)
	return loads
}

// Utilizations returns per-link load/capacity.
func (p *Problem) Utilizations(splits, demand *tensor.Dense) *tensor.Dense {
	loads := p.LinkLoads(splits, demand)
	for i, e := range p.Graph.Edges {
		loads.Data[i] /= e.Capacity
	}
	return loads
}

// MLU returns the maximum link utilization under the given splits.
func (p *Problem) MLU(splits, demand *tensor.Dense) float64 {
	u := p.Utilizations(splits, demand)
	m, _ := u.Max()
	return m
}

// LossMLU is MLU on a tape, the objective every learned router here trains
// on: x is the T×1 per-tunnel traffic node, invCap the E×1 reciprocal
// capacities in x's units, and the result is the 1×1 maximum of the link
// utilizations incidence·x ⊙ invCap — smoothed at temperature temp when
// temp > 0 (gradient on every near-maximal link), the hard max otherwise.
func LossMLU(tp *autograd.Tape, p *Problem, x, invCap *autograd.Tensor, temp float64) *autograd.Tensor {
	util := tp.Mul(tp.CSRMul(p.incidence, x), invCap)
	if temp > 0 {
		return tp.SmoothMax(util, temp)
	}
	return tp.Max(util)
}

// UniformSplits returns the F×K matrix that spreads every flow evenly.
func (p *Problem) UniformSplits() *tensor.Dense {
	s := tensor.New(p.NumFlows(), p.Tunnels.K)
	s.Fill(1 / float64(p.Tunnels.K))
	return s
}

// NormalizeRows scales each row of splits to sum to 1; rows summing to ~0
// are replaced by a uniform distribution. The input is modified in place
// and returned.
func NormalizeRows(splits *tensor.Dense) *tensor.Dense {
	for i := 0; i < splits.Rows; i++ {
		row := splits.Row(i)
		var s float64
		for _, v := range row {
			s += v
		}
		if s < 1e-12 {
			for j := range row {
				row[j] = 1 / float64(len(row))
			}
			continue
		}
		for j := range row {
			row[j] /= s
		}
	}
	return splits
}

// TunnelAlive reports whether every edge of the tunnel is active on g.
func TunnelAlive(g *topology.Graph, t tunnels.Tunnel) bool {
	for _, e := range t.Edges {
		if !g.IsActive(e) {
			return false
		}
	}
	return true
}

// Rescale implements the local rescaling policy of §4: traffic on tunnels
// that traverse a completely failed link is redistributed to the flow's
// surviving tunnels in proportion to their existing shares. Flows with no
// surviving tunnel keep their splits unchanged (their traffic is stuck, and
// the resulting utilization spike is exactly what the paper's MLU=∞
// discussion refers to). Returns a new matrix.
func Rescale(p *Problem, splits *tensor.Dense) *tensor.Dense {
	p.checkSplits(splits)
	out := splits.Clone()
	for f := 0; f < p.NumFlows(); f++ {
		row := out.Row(f)
		var alive float64
		anyDead := false
		for k := 0; k < p.Tunnels.K; k++ {
			if TunnelAlive(p.Graph, p.Tunnels.Tunnel(f, k)) {
				alive += row[k]
			} else {
				anyDead = true
			}
		}
		if !anyDead {
			continue
		}
		if alive < 1e-12 {
			// No surviving share to scale proportionally; split evenly over
			// surviving tunnels if any exist.
			var survivors []int
			for k := 0; k < p.Tunnels.K; k++ {
				if TunnelAlive(p.Graph, p.Tunnels.Tunnel(f, k)) {
					survivors = append(survivors, k)
				}
			}
			if len(survivors) == 0 {
				continue
			}
			for j := range row {
				row[j] = 0
			}
			for _, k := range survivors {
				row[k] = 1 / float64(len(survivors))
			}
			continue
		}
		for k := 0; k < p.Tunnels.K; k++ {
			if TunnelAlive(p.Graph, p.Tunnels.Tunnel(f, k)) {
				row[k] /= alive
			} else {
				row[k] = 0
			}
		}
	}
	return out
}

// NormMLU returns achieved/optimal, the paper's headline metric. It guards
// against division by ~0 (no demand).
func NormMLU(achieved, optimal float64) float64 {
	if optimal < 1e-12 {
		if achieved < 1e-12 {
			return 1
		}
		return math.Inf(1)
	}
	return achieved / optimal
}
