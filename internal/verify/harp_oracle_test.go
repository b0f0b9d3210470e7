package verify_test

// HARP-specific differential oracles. They live in the external test
// package because verify itself must not import core.

import (
	"fmt"
	"math/rand"
	"testing"

	"harpte/internal/core"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
	"harpte/internal/verify"
)

func oracleModel() *core.Model {
	return core.New(core.Config{
		EmbedDim: 8, GNNLayers: 2, GNNHidden: 4,
		SetTransLayers: 1, Heads: 2, FFDim: 16,
		MLP1Hidden: 8, RAUHidden: 12, RAUIterations: 3,
		LossTemp: 0.05, Seed: 21,
	})
}

func randomHarpInstance(i int) (*topology.Graph, *tunnels.Set, *te.Problem, *tensor.Dense) {
	n := 6 + i%4
	g := topology.RandomConnected(fmt.Sprintf("harp-rnd%d", i), n, 2.6, []float64{1, 2, 4}, int64(4000+i))
	set := tunnels.Compute(g, 3)
	p := te.NewProblem(g, set)
	rng := rand.New(rand.NewSource(int64(31 + i)))
	d := tensor.New(p.NumFlows(), 1)
	for j := range d.Data {
		d.Data[j] = 0.2 + rng.Float64()
	}
	return g, set, p, d
}

// shuffleTunnelEdges returns a deep copy of set with the edge order inside
// every tunnel permuted. The edge multiset — and hence the routing — is
// unchanged; only the token order SETTRANS consumes moves.
func shuffleTunnelEdges(set *tunnels.Set, rng *rand.Rand) *tunnels.Set {
	out := &tunnels.Set{Flows: append([]tunnels.Flow(nil), set.Flows...), K: set.K}
	out.PerFlow = make([][]tunnels.Tunnel, len(set.PerFlow))
	for f, ts := range set.PerFlow {
		out.PerFlow[f] = make([]tunnels.Tunnel, len(ts))
		for k, tun := range ts {
			edges := append([]int(nil), tun.Edges...)
			rng.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
			out.PerFlow[f][k] = tunnels.Tunnel{Edges: edges}
		}
	}
	return out
}

// TestHarpNodePermutationOracle: relabeling nodes jointly in topology and
// flow endpoints must leave the forward pass bit-near-identical, on
// randomized instances (Table 1's permutation-equivariance claim).
func TestHarpNodePermutationOracle(t *testing.T) {
	m := oracleModel()
	for i := 0; i < 6; i++ {
		g, set, p, d := randomHarpInstance(i)
		base := m.Splits(m.Context(p), d)

		rng := rand.New(rand.NewSource(int64(900 + i)))
		perm := rng.Perm(g.NumNodes)
		g2 := g.Permute(perm)
		set2 := &tunnels.Set{K: set.K, PerFlow: set.PerFlow}
		for _, f := range set.Flows {
			set2.Flows = append(set2.Flows, tunnels.Flow{Src: perm[f.Src], Dst: perm[f.Dst]})
		}
		got := m.Splits(m.Context(te.NewProblem(g2, set2)), d)
		if !tensor.Equal(base, got, 1e-7) {
			t.Fatalf("instance %d: forward not invariant under node permutation", i)
		}
	}
}

// TestHarpTunnelEdgeOrderOracle: SETTRANS treats a tunnel's edges as a
// multiset, so permuting the edge order inside each tunnel must not change
// any split (Table 1's set-invariance claim; TEAL's bug class).
func TestHarpTunnelEdgeOrderOracle(t *testing.T) {
	m := oracleModel()
	for i := 0; i < 6; i++ {
		g, set, p, d := randomHarpInstance(i)
		base := m.Splits(m.Context(p), d)

		rng := rand.New(rand.NewSource(int64(1300 + i)))
		shuf := shuffleTunnelEdges(set, rng)
		got := m.Splits(m.Context(te.NewProblem(g, shuf)), d)
		if !tensor.Equal(base, got, 1e-7) {
			t.Fatalf("instance %d: forward not invariant under tunnel-edge-order shuffle", i)
		}
	}
}

// TestCheckRoutingCatchesCorruptedRouting: a routing whose first row no
// longer sums to 1 on a HARP oracle instance is rejected by CheckRouting.
func TestCheckRoutingCatchesCorruptedRouting(t *testing.T) {
	_, _, p, d := randomHarpInstance(0)
	uniform := p.UniformSplits()
	uniform.Row(0)[0] += 0.5 // break row-sum invariant
	if err := verify.CheckRouting(p, uniform, d); err == nil {
		t.Fatal("CheckRouting accepted corrupted splits")
	}
}
