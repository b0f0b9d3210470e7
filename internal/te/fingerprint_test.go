package te

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

func fpProblem(capScale float64) *Problem {
	g := topology.New("fp", 4)
	g.AddEdge(0, 1, 10*capScale)
	g.AddEdge(1, 2, 20*capScale)
	g.AddEdge(2, 3, 10*capScale)
	g.AddEdge(0, 3, 5*capScale)
	set := tunnels.Compute(g, 2)
	return NewProblem(g, set)
}

func TestFingerprintDeterministic(t *testing.T) {
	a, b := fpProblem(1), fpProblem(1)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("structurally identical problems hash differently: %x vs %x",
			a.Fingerprint(), b.Fingerprint())
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpProblem(1)
	if got := fpProblem(2).Fingerprint(); got == base.Fingerprint() {
		t.Fatal("capacity change did not change the fingerprint")
	}
	g := topology.New("fp", 5) // extra node, same edges
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 20)
	g.AddEdge(2, 3, 10)
	g.AddEdge(0, 3, 5)
	if got := NewProblem(g, tunnels.Compute(g, 2)).Fingerprint(); got == base.Fingerprint() {
		t.Fatal("node-count change did not change the fingerprint")
	}
	// Swap the two tunnels of some flow whose tunnels differ (padding by
	// cycling can make a flow's K tunnels identical, where a swap is a
	// no-op — and a seeded Shuffled call can happen to preserve order).
	swapped := base.Tunnels.Shuffled(rand.New(rand.NewSource(1))) // deep copy
	copy(swapped.PerFlow, base.Tunnels.PerFlow)
	found := false
	for i := range swapped.PerFlow {
		a, b := swapped.PerFlow[i][0], swapped.PerFlow[i][1]
		if len(a.Edges) != len(b.Edges) || a.Edges[0] != b.Edges[0] {
			per := append([]tunnels.Tunnel(nil), swapped.PerFlow[i]...)
			per[0], per[1] = per[1], per[0]
			swapped.PerFlow[i] = per
			found = true
			break
		}
	}
	if !found {
		t.Fatal("test topology has no flow with two distinct tunnels")
	}
	if got := NewProblem(base.Graph, swapped).Fingerprint(); got == base.Fingerprint() {
		t.Fatal("tunnel reorder did not change the fingerprint")
	}
}

// TestFingerprintLiteralProblem: tests and tools build Problems as struct
// literals without NewProblem; Fingerprint must tolerate that, including
// nil Graph/Tunnels.
func TestFingerprintLiteralProblem(t *testing.T) {
	base := fpProblem(1)
	lit := &Problem{Graph: base.Graph, Tunnels: base.Tunnels}
	if lit.Fingerprint() != base.Fingerprint() {
		t.Fatal("literal problem hashes differently from NewProblem")
	}
	empty := &Problem{}
	if empty.Fingerprint() == base.Fingerprint() {
		t.Fatal("empty problem collides with a real one")
	}
}

func TestFingerprintZeroAllocsAfterFirst(t *testing.T) {
	p := fpProblem(1)
	p.Fingerprint()
	if n := testing.AllocsPerRun(100, func() { p.Fingerprint() }); n != 0 {
		t.Fatalf("cached Fingerprint allocates %v times per call", n)
	}
}

// TestFingerprintPinned: the fingerprint is a serving key — the split
// cache and the fleet's shard routing store it — so its value for the
// benchmark topologies must not drift.
func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		g    *topology.Graph
		want uint64
	}{
		{topology.Abilene(), 0x260cfccf6b807798},
		{topology.Geant(), 0xb4bd0a70b06a14c5},
	} {
		p := NewProblem(tc.g, tunnels.Compute(tc.g, 4))
		if got := p.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %x, want %x", tc.g.Name, got, tc.want)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", tc.g.Name, err)
		}
	}
}

// TestValidateRejectsMalformed: each malformed shape is refused for its own
// reason, the verdict is stable across calls, and fingerprinting the
// problem does not panic.
func TestValidateRejectsMalformed(t *testing.T) {
	type malformed struct {
		name   string
		mutate func(p *Problem)
		want   string
	}
	cases := []malformed{
		{"nil graph", func(p *Problem) { p.Graph = nil }, "nil graph"},
		{"nil tunnels", func(p *Problem) { p.Tunnels = nil }, "nil graph"},
		{"no links", func(p *Problem) { p.Graph.Edges = nil }, "no links"},
		{"K=0", func(p *Problem) { p.Tunnels.K = 0 }, "K=0"},
		{"K<0", func(p *Problem) { p.Tunnels.K = -3 }, "K=-3"},
		{"no flows", func(p *Problem) { p.Tunnels.Flows, p.Tunnels.PerFlow = nil, nil }, "no flows"},
		{"PerFlow short", func(p *Problem) { p.Tunnels.PerFlow = p.Tunnels.PerFlow[:1] }, "has paths for 1"},
		{"PerFlow long", func(p *Problem) {
			p.Tunnels.PerFlow = append(p.Tunnels.PerFlow, p.Tunnels.PerFlow[0])
		}, "but has paths for"},
		{"wrong tunnel count", func(p *Problem) {
			p.Tunnels.PerFlow[1] = p.Tunnels.PerFlow[1][:1]
		}, "flow 1 has 1 tunnels, want K=2"},
		{"empty tunnel", func(p *Problem) {
			p.Tunnels.PerFlow[2] = []tunnels.Tunnel{p.Tunnels.PerFlow[2][0], {}}
		}, "flow 2 tunnel 1 is empty"},
		{"edge id past the end", func(p *Problem) {
			p.Tunnels.PerFlow[0] = []tunnels.Tunnel{p.Tunnels.PerFlow[0][0], {Edges: []int{0, 4}}}
		}, "flow 0 tunnel 1 references link 4, topology has 4"},
		{"negative edge id", func(p *Problem) {
			p.Tunnels.PerFlow[0] = []tunnels.Tunnel{{Edges: []int{-1}}, p.Tunnels.PerFlow[0][1]}
		}, "flow 0 tunnel 0 references link -1"},
	}
	for _, c := range []float64{0, -5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases = append(cases, malformed{fmt.Sprintf("capacity %v", c),
			func(p *Problem) { p.Graph.Edges[2].Capacity = c },
			fmt.Sprintf("link 2 (2->3) has capacity %v", c)})
	}

	for _, tc := range cases {
		base := fpProblem(1)
		p := &Problem{Graph: base.Graph, Tunnels: base.Tunnels}
		tc.mutate(p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
			continue
		}
		p.Fingerprint()
		if again := p.Validate(); again != err {
			t.Errorf("%s: second Validate = %v, first %v", tc.name, again, err)
		}
	}
	if err := fpProblem(1).Validate(); err != nil {
		t.Fatalf("well-formed problem: %v", err)
	}
}

// TestValidateConcurrentFirstCall: the first Validate and Fingerprint on a
// Problem may race from many goroutines (a fleet's requests share one);
// each sees one walk's results. Run under -race (make race).
func TestValidateConcurrentFirstCall(t *testing.T) {
	want := fpProblem(1).Fingerprint()
	p := fpProblem(1)
	var wg sync.WaitGroup
	fps := make([]uint64, 8)
	errs := make([]error, 8)
	start := make(chan struct{})
	for i := range fps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				errs[i] = p.Validate()
				fps[i] = p.Fingerprint()
			} else {
				fps[i] = p.Fingerprint()
				errs[i] = p.Validate()
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range fps {
		if fps[i] != want || errs[i] != nil {
			t.Fatalf("goroutine %d: fingerprint %x err %v, want %x and nil", i, fps[i], errs[i], want)
		}
	}
}
