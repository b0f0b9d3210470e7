package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
)

// dirtyShares is, for each of n seeded RandomPartialFailures variants of
// p's graph (one link loses 50–90 % of its capacity; tunnels unchanged, the
// paper's failure convention), the share of p's tunnels that cross at least
// one edge whose embedding row differs from the unperturbed graph's in any
// bit — the tunnels a segment-level delta build (ROADMAP item 2(b)) would
// have to run SETTRANS over again. Sorted ascending.
func dirtyShares(m *Model, p *te.Problem, n int, seed int64) []float64 {
	edgeRows := func(p *te.Problem) *tensor.Dense {
		return m.embedEdges(autograd.NewTape(), buildContext(p)).Val
	}
	base := edgeRows(p)
	shares := make([]float64, 0, n)
	for _, g := range p.Graph.RandomPartialFailures(n, rand.New(rand.NewSource(seed))) {
		emb := edgeRows(te.NewProblem(g, p.Tunnels))
		changed := make([]bool, base.Rows)
		for e := range changed {
			for j, v := range emb.Row(e) {
				if math.Float64bits(v) != math.Float64bits(base.Row(e)[j]) {
					changed[e] = true
					break
				}
			}
		}
		dirty := 0
		for _, ts := range p.Tunnels.PerFlow {
			for _, tun := range ts {
				for _, e := range tun.Edges {
					if changed[e] {
						dirty++
						break
					}
				}
			}
		}
		shares = append(shares, float64(dirty)/float64(p.Tunnels.NumTunnels()))
	}
	sort.Float64s(shares)
	return shares
}

// TestDirtyTunnelShare is the measurement that gates ROADMAP item 2(b): how
// much of a build one capacity event invalidates. Through a 2-layer GCN an
// event reaches the nodes within two hops of the touched link — most of
// GEANT's 22 nodes, a corner of KDL's 754 — and every tunnel over an edge
// at one of them. The figures are logged (EXPERIMENTS.md quotes them); only
// their ordering is asserted.
func TestDirtyTunnelShare(t *testing.T) {
	m := New(DefaultConfig())
	report := func(name string, s []float64) float64 {
		p50 := s[len(s)/2]
		t.Logf("%s: share of tunnels with a changed edge-embedding row over %d events: min %.2f p50 %.2f max %.2f",
			name, len(s), s[0], p50, s[len(s)-1])
		return p50
	}
	geant := report("GEANT", dirtyShares(m, allPairsProblem(topology.Geant()), 64, 1))
	if geant == 0 {
		t.Fatal("no GEANT tunnel is dirty after a capacity event: the comparison is not seeing the event")
	}
	if testing.Short() {
		t.Skip("KDL all-pairs tunnels and 32 GNN passes; skipped with -short")
	}
	if kdl := report("KDL", dirtyShares(m, benchKDLProblem(), 32, 1)); kdl >= geant {
		t.Errorf("KDL p50 dirty share %.2f is not below GEANT's %.2f: a delta build has nothing to save", kdl, geant)
	}
}
