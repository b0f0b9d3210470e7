// Package verify is the correctness subsystem: the routing invariant checks
// (CheckSplits, which resilience.VetSplits runs on every served answer, and
// CheckRouting), plus the differential oracles (finite differences vs
// autograd, LP duality certificates, MWU vs simplex) that the test suite runs
// over randomized instances. The package sits below internal/core on purpose,
// so verify must never import core (the HARP-specific oracles live in this
// package's external test files, where the import is legal).
package verify

import (
	"fmt"
	"math"

	"harpte/internal/te"
	"harpte/internal/tensor"
)

// DefaultTol is the tolerance the routing invariant checks use: loose
// enough for float64 accumulation over thousands of tunnels, tight enough
// that any real bookkeeping bug (a lost flow, an aliased row, a negative
// split) trips it immediately.
const DefaultTol = 1e-6

// CheckSplits verifies that splits is a valid F×K routing decision for p:
// right shape, every entry finite and nonnegative, every row summing to 1
// within tol per entry. It only reads splits.
func CheckSplits(p *te.Problem, splits *tensor.Dense, tol float64) error {
	if splits.Rows != p.NumFlows() || splits.Cols != p.Tunnels.K {
		return fmt.Errorf("verify: splits shape %dx%d, want %dx%d",
			splits.Rows, splits.Cols, p.NumFlows(), p.Tunnels.K)
	}
	for f := 0; f < splits.Rows; f++ {
		row := splits.Row(f)
		var s float64
		for k, v := range row {
			// One compare per entry: false for NaN, ±Inf and negatives.
			// Which of them it was is asked only on the way out.
			if !(v >= 0 && v <= math.MaxFloat64) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("verify: split[%d,%d] = %v is not finite", f, k, v)
				}
				return fmt.Errorf("verify: split[%d,%d] = %g is negative", f, k, v)
			}
			s += v
		}
		if math.Abs(s-1) > tol*float64(len(row)) {
			return fmt.Errorf("verify: splits row %d sums to %.12g, want 1", f, s)
		}
	}
	return nil
}

// CheckLinkLoads verifies that the link loads induced by (splits, demand)
// are finite and nonnegative on every edge.
func CheckLinkLoads(p *te.Problem, splits, demand *tensor.Dense, tol float64) error {
	loads := p.LinkLoads(splits, demand)
	for e, v := range loads.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("verify: load on edge %d is %v", e, v)
		}
		if v < -tol {
			return fmt.Errorf("verify: load on edge %d is negative (%g)", e, v)
		}
	}
	return nil
}

// CheckFlowConservation verifies Kirchhoff's law per flow: walking every
// tunnel's edges with its assigned traffic, the net flow out of the source
// must equal the demand, the net into the destination must equal the
// demand, and every other node must balance. This catches tunnels that are
// not actual src→dst paths, edge-id corruption, and demand that leaks or
// duplicates — independent of the edge order within each tunnel (the sum is
// over an edge multiset), so it holds for shuffled tunnel sets too.
func CheckFlowConservation(p *te.Problem, splits, demand *tensor.Dense, tol float64) error {
	net := make([]float64, p.Graph.NumNodes)
	for f, fl := range p.Tunnels.Flows {
		d := demand.Data[f]
		for i := range net {
			net[i] = 0
		}
		row := splits.Row(f)
		for k := 0; k < p.Tunnels.K; k++ {
			x := d * row[k]
			if x == 0 {
				continue
			}
			for _, e := range p.Tunnels.Tunnel(f, k).Edges {
				edge := p.Graph.Edges[e]
				net[edge.Src] += x
				net[edge.Dst] -= x
			}
		}
		scale := math.Max(1, math.Abs(d))
		for n, v := range net {
			want := 0.0
			switch n {
			case fl.Src:
				want = d
			case fl.Dst:
				want = -d
			}
			if math.Abs(v-want) > tol*scale {
				return fmt.Errorf("verify: flow %d (%d→%d): node %d has net flow %.12g, want %.12g",
					f, fl.Src, fl.Dst, n, v, want)
			}
		}
	}
	return nil
}

// CheckRouting runs every routing invariant — valid splits, nonnegative
// finite link loads, per-flow conservation — with DefaultTol.
func CheckRouting(p *te.Problem, splits, demand *tensor.Dense) error {
	if err := CheckSplits(p, splits, DefaultTol); err != nil {
		return err
	}
	if err := CheckLinkLoads(p, splits, demand, DefaultTol); err != nil {
		return err
	}
	return CheckFlowConservation(p, splits, demand, DefaultTol)
}
