package resilience

import (
	"errors"
	"fmt"
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

// TestValidateInputDemandMessages pins the demand check's verdicts: NaN,
// ±Inf and negatives are refused with the message they always had, and -0
// and the largest finite demand pass.
func TestValidateInputDemandMessages(t *testing.T) {
	p := twoPathProblem()
	for _, c := range []struct {
		v    float64
		want string
	}{
		{math.NaN(), "resilience: invalid input: demand[1] = NaN"},
		{math.Inf(1), "resilience: invalid input: demand[1] = +Inf"},
		{math.Inf(-1), "resilience: invalid input: demand[1] = -Inf"},
		{-2.5, "resilience: invalid input: demand[1] = -2.5"},
		{-math.SmallestNonzeroFloat64, "resilience: invalid input: demand[1] = -5e-324"},
		{math.Copysign(0, -1), ""},
		{math.MaxFloat64, ""},
	} {
		got := ""
		if err := ValidateInput(p, demand(p, 3, c.v)); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("demand %v: got %q, want %q", c.v, got, c.want)
		}
	}
}

// validateScalar is ValidateInput as an entry-by-entry check: the
// verdict and message the one-pass demand check must reproduce.
func validateScalar(p *te.Problem, demand *tensor.Dense) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidInput, fmt.Sprintf(format, args...))
	}
	if p == nil {
		return fail("nil problem")
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	if demand == nil {
		return fail("nil demand")
	}
	if len(demand.Data) != p.NumFlows() {
		return fail("demand has %d entries, want one per flow (%d)", len(demand.Data), p.NumFlows())
	}
	for i, v := range demand.Data {
		if !(v >= 0 && v <= math.MaxFloat64) {
			return fail("demand[%d] = %v", i, v)
		}
	}
	return nil
}

// demandEdgeCases are the values either side of every line the demand
// check draws: ±0, the subnormals, the normal range's ends, ±Inf, and NaNs
// quiet and signalling with the sign bit clear and set.
var demandEdgeCases = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000FFFFFFFFFFFFF), -math.Float64frombits(0x000FFFFFFFFFFFFF),
	0x1p-1022, 1, 2.5, -2.5, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Copysign(math.NaN(), -1),
	math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF0000000000001),
}

// TestValidateInputMatchesScalarCheck: on demands of 2, 6 and 132 flows
// (all-tail, part-tail and no-tail for the four-lane pass), each edge case
// at each position — alone, and before a second bad entry — gets the
// entry-by-entry check's verdict and message, and a valid demand's peak is
// the `v > peak` scan's, bit for bit.
func TestValidateInputMatchesScalarCheck(t *testing.T) {
	three := topology.New("three", 3)
	three.AddBidirectional(0, 1, 10)
	three.AddBidirectional(1, 2, 10)
	three.AddBidirectional(2, 0, 10)
	three.EdgeNodes = []int{0, 1, 2}
	for _, p := range []*te.Problem{
		twoPathProblem(),
		te.NewProblem(three, tunnels.Compute(three, 2)),
		te.NewProblem(topology.Abilene(), tunnels.Compute(topology.Abilene(), 2)),
	} {
		n := p.NumFlows()
		for _, v := range demandEdgeCases {
			for i := 0; i < n; i++ {
				for _, second := range []float64{1, -1} {
					d := tensor.New(n, 1)
					for j := range d.Data {
						d.Data[j] = float64(j%7) / 3
					}
					d.Data[i] = v
					if i+1 < n {
						d.Data[i+1] = second
					}
					peak, err := validateInput(p, d)
					if want := validateScalar(p, d); fmt.Sprint(err) != fmt.Sprint(want) {
						t.Fatalf("%d flows, demand[%d] = %v: got %v, want %v", n, i, v, err, want)
					}
					if err != nil {
						continue
					}
					var want float64
					for _, x := range d.Data {
						if x > want {
							want = x
						}
					}
					if math.Float64bits(peak) != math.Float64bits(want) {
						t.Fatalf("%d flows, demand[%d] = %v: peak %v, want %v", n, i, v, peak, want)
					}
				}
			}
		}
	}
}

// TestDemandPeakLaneTails: over lengths 1–9 (every tail of the four-lane
// pass), demandPeak's verdict is the entry-by-entry check's with any edge
// case at any position, and an all-zero demand of either sign peaks at +0.
func TestDemandPeakLaneTails(t *testing.T) {
	for n := 1; n <= 9; n++ {
		zeros := make([]float64, n)
		for i := range zeros {
			zeros[i] = math.Copysign(0, float64(i%2)-0.5)
		}
		if peak, valid := demandPeak(zeros); !valid || math.Float64bits(peak) != 0 {
			t.Fatalf("length %d of ±0: peak %v (bits %x), valid %v", n, peak, math.Float64bits(peak), valid)
		}
		for _, v := range demandEdgeCases {
			for i := 0; i < n; i++ {
				d := make([]float64, n)
				for j := range d {
					d[j] = float64(j + 1)
				}
				d[i] = v
				_, valid := demandPeak(d)
				if want := v >= 0 && v <= math.MaxFloat64; valid != want {
					t.Fatalf("length %d, d[%d] = %v: valid %v, want %v", n, i, v, valid, want)
				}
			}
		}
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
