// Package verify is the correctness subsystem: optional runtime invariant
// checks behind an atomic gate, plus the differential oracles (finite
// differences vs autograd, LP duality certificates, MWU vs simplex) that the
// test suite runs over randomized instances. The package sits below
// internal/core on purpose — core wires the gate into its inference path, so
// verify must never import core (the HARP-specific oracles live in this
// package's external test files, where the import is legal).
//
// The runtime gate costs a single atomic load when disabled, so enabling
// the build-time machinery never disturbs the PR-2 allocation pins; flip it
// on in tests, debugging sessions, or canary deployments with SetEnabled.
package verify

import (
	"fmt"
	"math"
	"sync/atomic"

	"harpte/internal/te"
	"harpte/internal/tensor"
)

// enabled gates the runtime invariant checks. An atomic.Bool load is one
// instruction on the hot path and allocates nothing.
var enabled atomic.Bool

// Enabled reports whether runtime invariant checking is on.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns runtime invariant checking on or off. Safe for
// concurrent use.
func SetEnabled(on bool) { enabled.Store(on) }

// failHandler, when set, receives invariant violations instead of the
// default panic — tests use it to observe Fail without dying.
var failHandler atomic.Value // func(error)

// SetFailHandler installs fn as the sink for invariant violations reported
// via Fail; nil restores the default (panic). The handler must be safe for
// concurrent use.
func SetFailHandler(fn func(error)) { failHandler.Store(fn) }

// Fail reports a violated invariant: to the registered handler if any,
// otherwise by panicking — an invariant violation means the process is
// already computing garbage, and the gate is only ever enabled in contexts
// (tests, debugging, canaries) where dying loudly beats serving it.
func Fail(err error) {
	if fn, ok := failHandler.Load().(func(error)); ok && fn != nil {
		fn(err)
		return
	}
	panic(err)
}

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
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("verify: split[%d,%d] = %v is not finite", f, k, v)
			}
			if v < 0 {
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
// finite link loads, per-flow conservation — with DefaultTol. It is what
// the core inference path calls when the runtime gate is enabled.
func CheckRouting(p *te.Problem, splits, demand *tensor.Dense) error {
	if err := CheckSplits(p, splits, DefaultTol); err != nil {
		return err
	}
	if err := CheckLinkLoads(p, splits, demand, DefaultTol); err != nil {
		return err
	}
	return CheckFlowConservation(p, splits, demand, DefaultTol)
}
