package resilience

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"harpte/internal/core"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

func tinyConfig() core.Config {
	return core.Config{
		EmbedDim: 8, GNNLayers: 2, GNNHidden: 4,
		SetTransLayers: 1, Heads: 2, FFDim: 16,
		MLP1Hidden: 8, RAUHidden: 12, RAUIterations: 3,
		LossTemp: 0.05, Seed: 7,
	}
}

// twoPathProblem: 0→1 via a 10G direct link or a 5G two-hop detour.
func twoPathProblem() *te.Problem {
	g := topology.New("twopath", 3)
	g.AddBidirectional(0, 1, 10)
	g.AddBidirectional(0, 2, 5)
	g.AddBidirectional(2, 1, 5)
	g.EdgeNodes = []int{0, 1}
	return te.NewProblem(g, tunnels.Compute(g, 2))
}

func demand(p *te.Problem, vals ...float64) *tensor.Dense {
	d := tensor.New(p.NumFlows(), 1)
	copy(d.Data, vals)
	return d
}

func assertValidSplits(t *testing.T, p *te.Problem, s *tensor.Dense) {
	t.Helper()
	if s == nil {
		t.Fatal("nil splits")
	}
	if s.Rows != p.NumFlows() || s.Cols != p.Tunnels.K {
		t.Fatalf("splits shape %dx%d, want %dx%d", s.Rows, s.Cols, p.NumFlows(), p.Tunnels.K)
	}
	for f := 0; f < s.Rows; f++ {
		var sum float64
		for _, v := range s.Row(f) {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("flow %d has invalid split %v", f, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("flow %d splits sum to %v", f, sum)
		}
	}
}

func TestServeHealthyModelUsesFullTier(t *testing.T) {
	p := twoPathProblem()
	srv := NewServer(core.New(tinyConfig()), Options{})
	dec := srv.Serve(p, demand(p, 4, 2))
	if dec.Tier != TierFull {
		t.Fatalf("tier %v (degraded: %v), want full", dec.Tier, dec.Degraded)
	}
	assertValidSplits(t, p, dec.Splits)
	if got := srv.TierCounts()[TierFull]; got != 1 {
		t.Fatalf("full-tier count %d, want 1", got)
	}
}

func TestServeRejectsMalformedInput(t *testing.T) {
	p := twoPathProblem()
	srv := NewServer(core.New(tinyConfig()), Options{})
	cases := []struct {
		name string
		p    *te.Problem
		d    *tensor.Dense
	}{
		{"nil problem", nil, demand(p, 1, 1)},
		{"nil demand", p, nil},
		{"short demand", p, tensor.New(p.NumFlows()-1, 1)},
		{"long demand", p, tensor.New(p.NumFlows()+3, 1)},
		{"NaN demand", p, demand(p, math.NaN(), 1)},
		{"Inf demand", p, demand(p, math.Inf(1), 1)},
		{"negative demand", p, demand(p, -4, 1)},
	}
	for _, tc := range cases {
		dec := srv.Serve(tc.p, tc.d)
		if dec.Tier != TierRejected {
			t.Fatalf("%s: tier %v, want rejected", tc.name, dec.Tier)
		}
		if !errors.Is(dec.Err, ErrInvalidInput) {
			t.Fatalf("%s: err %v does not wrap ErrInvalidInput", tc.name, dec.Err)
		}
		if dec.Splits != nil {
			t.Fatalf("%s: rejected request still produced splits", tc.name)
		}
	}
	if got := srv.TierCounts()[TierRejected]; got != int64(len(cases)) {
		t.Fatalf("rejected count %d, want %d", got, len(cases))
	}
}

func TestValidateInputTunnelEdgeOutOfRange(t *testing.T) {
	g := topology.New("bad", 2)
	g.AddBidirectional(0, 1, 10)
	set := &tunnels.Set{
		Flows:   []tunnels.Flow{{Src: 0, Dst: 1}},
		PerFlow: [][]tunnels.Tunnel{{{Edges: []int{99}}}},
		K:       1,
	}
	p := &te.Problem{Graph: g, Tunnels: set}
	if err := ValidateInput(p, tensor.New(1, 1)); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("out-of-range tunnel edge: %v", err)
	}
}

// TestServePoisonedModelFallsBackToECMP: NaN weights make the model emit
// NaN splits; the guarded path must detect that and serve valid ECMP splits
// instead — the request is never answered with garbage.
func TestServePoisonedModelFallsBackToECMP(t *testing.T) {
	p := twoPathProblem()
	m := core.New(tinyConfig())
	m.Params()[0].Val.Data[0] = math.NaN()
	srv := NewServer(m, Options{})
	dec := srv.Serve(p, demand(p, 4, 2))
	if dec.Tier != TierECMP {
		t.Fatalf("tier %v, want ecmp (degraded: %v)", dec.Tier, dec.Degraded)
	}
	if len(dec.Degraded) != 1 {
		t.Fatalf("expected the model tier degraded, got %v", dec.Degraded)
	}
	assertValidSplits(t, p, dec.Splits)
}

// TestServeDeadTunnelTopology: with the direct link failed and the model
// poisoned, the ECMP tier must still route around the dead tunnels.
func TestServeDeadTunnelTopology(t *testing.T) {
	g := topology.New("deadpath", 3)
	g.AddBidirectional(0, 1, 10)
	g.AddBidirectional(0, 2, 5)
	g.AddBidirectional(2, 1, 5)
	g.EdgeNodes = []int{0, 1}
	g = g.WithFailedLink(0, 1) // direct tunnel dies, detour survives
	p := te.NewProblem(g, tunnels.Compute(g, 2))

	m := core.New(tinyConfig())
	m.Params()[0].Val.Data[0] = math.NaN()
	srv := NewServer(m, Options{})
	dec := srv.Serve(p, demand(p, 4, 2))
	if dec.Tier != TierECMP {
		t.Fatalf("tier %v, want ecmp", dec.Tier)
	}
	assertValidSplits(t, p, dec.Splits)
	// No weight may remain on tunnels crossing the failed link.
	for f := 0; f < p.NumFlows(); f++ {
		for k := 0; k < p.Tunnels.K; k++ {
			if dec.Splits.At(f, k) > 0 && !te.TunnelAlive(g, p.Tunnels.Tunnel(f, k)) {
				t.Fatalf("flow %d sends %v down a dead tunnel", f, dec.Splits.At(f, k))
			}
		}
	}
}

func TestServeDeadlineDegradesToECMP(t *testing.T) {
	p := twoPathProblem()
	srv := NewServer(core.New(tinyConfig()), Options{Deadline: time.Nanosecond})
	dec := srv.Serve(p, demand(p, 4, 2))
	if dec.Tier != TierECMP {
		t.Fatalf("tier %v, want ecmp under an impossible deadline", dec.Tier)
	}
	assertValidSplits(t, p, dec.Splits)
	if len(dec.Degraded) == 0 || !strings.Contains(dec.Degraded[0], "deadline") {
		t.Fatalf("degradation reasons missing deadline: %v", dec.Degraded)
	}
}

// TestServeRecoversFromPanic: a Problem assembled without NewProblem has a
// nil incidence operator, which makes the model's forward pass panic. The
// guarded path must convert that panic into a degradation and still serve.
func TestServeRecoversFromPanic(t *testing.T) {
	healthy := twoPathProblem()
	broken := &te.Problem{Graph: healthy.Graph, Tunnels: healthy.Tunnels}
	srv := NewServer(core.New(tinyConfig()), Options{})
	dec := srv.Serve(broken, demand(broken, 4, 2))
	if dec.Tier != TierECMP {
		t.Fatalf("tier %v, want ecmp after inference panic (degraded: %v)", dec.Tier, dec.Degraded)
	}
	assertValidSplits(t, broken, dec.Splits)
	found := false
	for _, d := range dec.Degraded {
		if strings.Contains(d, "panic") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no panic recorded in degradation reasons: %v", dec.Degraded)
	}
}

func TestContextCacheReuse(t *testing.T) {
	p := twoPathProblem()
	srv := NewServer(core.New(tinyConfig()), Options{})
	d := demand(p, 4, 2)
	for i := 0; i < 3; i++ {
		if dec := srv.Serve(p, d); dec.Tier != TierFull {
			t.Fatalf("request %d: tier %v", i, dec.Tier)
		}
	}
	if got := srv.TierCounts()[TierFull]; got != 3 {
		t.Fatalf("full count %d, want 3", got)
	}
}
