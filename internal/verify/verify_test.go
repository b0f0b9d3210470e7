package verify

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"harpte/internal/autograd"
	"harpte/internal/lp"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

// randomInstance builds a connected random topology with k tunnels per flow
// and a positive random demand vector. Deterministic per index.
func randomInstance(i, k int) (*te.Problem, *tensor.Dense) {
	n := 6 + i%5
	g := topology.RandomConnected(fmt.Sprintf("rnd%d", i), n, 2.6, []float64{1, 2, 4}, int64(1000+i))
	set := tunnels.Compute(g, k)
	p := te.NewProblem(g, set)
	rng := rand.New(rand.NewSource(int64(77 + i)))
	d := tensor.New(p.NumFlows(), 1)
	for j := range d.Data {
		d.Data[j] = 0.1 + 2*rng.Float64()
	}
	return p, d
}

// TestGradientOracleRandomTopologies runs the finite-difference oracle over
// 24 random topologies. The pipeline exercises the graph-structured smooth
// ops the model is built from — CSRMul over the normalized adjacency and the
// tunnel incidence, row softmax, Tanh/Sigmoid/Squash/Log1p/Div, SmoothMax —
// and must agree with central differences to better than 1e-6 relative
// error on every parameter entry.
func TestGradientOracleRandomTopologies(t *testing.T) {
	for i := 0; i < 24; i++ {
		p, d := randomInstance(i, 3)
		numTunnels := p.Tunnels.NumTunnels()
		adj := p.Graph.NormalizedAdjacency()
		inc := p.Incidence()

		invCap := tensor.New(p.Graph.NumEdges(), 1)
		for e, ed := range p.Graph.Edges {
			invCap.Data[e] = 1 / ed.Capacity
		}
		load := tensor.New(numTunnels, 1)
		for f := 0; f < p.NumFlows(); f++ {
			for k := 0; k < p.Tunnels.K; k++ {
				load.Data[f*p.Tunnels.K+k] = d.Data[f]
			}
		}

		rng := rand.New(rand.NewSource(int64(500 + i)))
		logits := autograd.XavierParam(rng, p.NumFlows(), p.Tunnels.K)
		nodeW := autograd.XavierParam(rng, p.Graph.NumNodes, 4)

		loss := func(tp *autograd.Tape) *autograd.Tensor {
			// Two smooth message-passing hops over the topology.
			h1 := tp.Tanh(tp.CSRMul(adj, nodeW))
			h2 := tp.Sigmoid(tp.CSRMul(adj, h1))
			nodeTerm := tp.MeanAll(tp.Squash(h2))
			// Route softmaxed splits and measure a smooth MLU surrogate.
			splits := tp.SoftmaxRows(logits)
			x := tp.Mul(tp.Reshape(splits, numTunnels, 1), tp.Const(load))
			loads := tp.CSRMul(inc, x)
			util := tp.Mul(loads, tp.Const(invCap))
			smooth := tp.SmoothMax(tp.Log1p(util, 1), 0.1)
			return tp.Add(smooth, tp.Scale(nodeTerm, 0.05))
		}

		rel := GradientMaxRelError([]*autograd.Tensor{logits, nodeW}, loss, 1e-5)
		if rel >= 1e-6 {
			t.Fatalf("instance %d: gradient max relative error %.3g >= 1e-6", i, rel)
		}
	}
}

// TestGradientOracleDetectsBrokenGradient proves the oracle has teeth: a
// custom op whose backward is off by a factor must score far above the
// threshold.
func TestGradientOracleDetectsBrokenGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := autograd.XavierParam(rng, 2, 2)
	loss := func(tp *autograd.Tape) *autograd.Tensor {
		val := w.Val.Clone()
		for i, v := range val.Data {
			val.Data[i] = 2 * v
		}
		doubled := tp.Custom(val, func(out *autograd.Tensor) {
			for i, g := range out.Grad.Data {
				w.Grad.Data[i] += 3 * g // wrong: forward is 2x, backward claims 3x
			}
		}, w)
		return tp.SumAll(doubled)
	}
	if rel := GradientMaxRelError([]*autograd.Tensor{w}, loss, 1e-5); rel < 0.3 {
		t.Fatalf("oracle failed to flag a broken gradient (rel %.3g)", rel)
	}
}

// seedInstances are the named instances every LP certificate must validate
// on: the paper's two small WANs plus a padded-tunnel two-path corner case.
func seedInstances() []struct {
	name string
	p    *te.Problem
	d    *tensor.Dense
} {
	var out []struct {
		name string
		p    *te.Problem
		d    *tensor.Dense
	}
	add := func(name string, g *topology.Graph, k int, seed int64) {
		set := tunnels.Compute(g, k)
		p := te.NewProblem(g, set)
		rng := rand.New(rand.NewSource(seed))
		d := tensor.New(p.NumFlows(), 1)
		for j := range d.Data {
			d.Data[j] = 0.5 + 3*rng.Float64()
		}
		out = append(out, struct {
			name string
			p    *te.Problem
			d    *tensor.Dense
		}{name, p, d})
	}
	ab := topology.Abilene()
	ab.EdgeNodes = []int{0, 3, 5, 8, 9}
	add("abilene", ab, 3, 11)
	ge := topology.Geant()
	ge.EdgeNodes = []int{0, 4, 9, 13, 17, 21}
	add("geant", ge, 3, 12)
	tp := topology.New("twopath", 3)
	tp.AddBidirectional(0, 1, 10)
	tp.AddBidirectional(0, 2, 5)
	tp.AddBidirectional(2, 1, 5)
	tp.EdgeNodes = []int{0, 1}
	add("twopath-padded", tp, 4, 13) // k=4 > available paths → padded duplicates
	return out
}

// TestDualityCertificateSeedInstances: the simplex optimum on every seed
// instance must carry a dual certificate that validates it.
func TestDualityCertificateSeedInstances(t *testing.T) {
	for _, tc := range seedInstances() {
		res, err := lp.SolveWithOptions(tc.p, tc.d, lp.Options{Method: "simplex"})
		if err != nil {
			t.Fatalf("%s: simplex: %v", tc.name, err)
		}
		if err := DualityCertificate(tc.p, tc.d, res, 1e-6); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestDualityCertificateRandomInstances extends the certificate check to
// randomized topologies and demands.
func TestDualityCertificateRandomInstances(t *testing.T) {
	for i := 0; i < 12; i++ {
		p, d := randomInstance(i, 3)
		res, err := lp.SolveWithOptions(p, d, lp.Options{Method: "simplex"})
		if err != nil {
			t.Fatalf("instance %d: simplex: %v", i, err)
		}
		if err := DualityCertificate(p, d, res, 1e-6); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
}

// TestDualityCertificateRejectsSuboptimal: pairing the optimal duals with a
// suboptimal primal (uniform splits) must fail the certificate whenever
// uniform routing is measurably worse than optimal.
func TestDualityCertificateRejectsSuboptimal(t *testing.T) {
	for i := 0; i < 12; i++ {
		p, d := randomInstance(i, 3)
		res, err := lp.SolveWithOptions(p, d, lp.Options{Method: "simplex"})
		if err != nil {
			t.Fatalf("instance %d: simplex: %v", i, err)
		}
		uniform := p.UniformSplits()
		uniformMLU := p.MLU(uniform, d)
		if uniformMLU <= res.MLU*(1+1e-3) {
			continue // uniform happens to be (near-)optimal here
		}
		fake := lp.Result{MLU: uniformMLU, Splits: uniform, Method: "simplex", LinkDuals: res.LinkDuals}
		if err := DualityCertificate(p, d, fake, 1e-6); err == nil {
			t.Fatalf("instance %d: certificate accepted a suboptimal primal (uniform %.6g vs optimal %.6g)",
				i, uniformMLU, res.MLU)
		}
		return // one genuine rejection is enough
	}
	t.Skip("uniform splits were near-optimal on every instance")
}

// TestMWUWithinSimplexSmallNets cross-checks the two engines on random
// small nets with the 5% bound the MWU tests established.
func TestMWUWithinSimplexSmallNets(t *testing.T) {
	for i := 0; i < 8; i++ {
		p, d := randomInstance(i, 3)
		if err := MWUWithinSimplex(p, d, 0.05); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
}

// TestCheckRoutingAcceptsLPOptima: exact LP splits satisfy every runtime
// invariant.
func TestCheckRoutingAcceptsLPOptima(t *testing.T) {
	for i := 0; i < 6; i++ {
		p, d := randomInstance(i, 3)
		res := lp.Solve(p, d)
		if err := CheckRouting(p, res.Splits, d); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
}

// TestCheckRoutingDetectsViolations: each invariant trips on the matching
// corruption.
func TestCheckRoutingDetectsViolations(t *testing.T) {
	p, d := randomInstance(0, 3)
	base := p.UniformSplits()

	t.Run("negative-split", func(t *testing.T) {
		s := base.Clone()
		s.Row(0)[0] = -0.2
		s.Row(0)[1] += 0.2
		if err := CheckSplits(p, s, DefaultTol); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Fatalf("want negative-split error, got %v", err)
		}
	})
	t.Run("row-sum", func(t *testing.T) {
		s := base.Clone()
		s.Row(1)[0] += 0.5
		if err := CheckSplits(p, s, DefaultTol); err == nil || !strings.Contains(err.Error(), "sums to") {
			t.Fatalf("want row-sum error, got %v", err)
		}
	})
	t.Run("nan-split", func(t *testing.T) {
		s := base.Clone()
		s.Row(0)[0] = nan()
		if err := CheckSplits(p, s, DefaultTol); err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Fatalf("want non-finite error, got %v", err)
		}
	})
	t.Run("broken-conservation", func(t *testing.T) {
		// Corrupt one tunnel into a non-path edge multiset: conservation at
		// the endpoints of the stray edge must break.
		set := p.Tunnels
		bad := &tunnels.Set{Flows: set.Flows, K: set.K, PerFlow: make([][]tunnels.Tunnel, len(set.PerFlow))}
		for i, ts := range set.PerFlow {
			bad.PerFlow[i] = append([]tunnels.Tunnel(nil), ts...)
		}
		orig := bad.PerFlow[0][0].Edges
		stray := (orig[len(orig)-1] + 1) % p.Graph.NumEdges()
		bad.PerFlow[0][0] = tunnels.Tunnel{Edges: append(append([]int(nil), orig...), stray)}
		p2 := te.NewProblem(p.Graph, bad)
		if err := CheckFlowConservation(p2, p2.UniformSplits(), d, DefaultTol); err == nil {
			t.Fatal("conservation check accepted a corrupted tunnel")
		}
	})
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}
