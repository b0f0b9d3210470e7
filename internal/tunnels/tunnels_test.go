package tunnels

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"harpte/internal/topology"
)

// diamond builds the classic 4-node diamond: 0→1→3 and 0→2→3 plus a direct
// 0→3 link, giving three loop-free paths from 0 to 3.
func diamond() *topology.Graph {
	g := topology.New("diamond", 4)
	g.AddBidirectional(0, 1, 10)
	g.AddBidirectional(1, 3, 10)
	g.AddBidirectional(0, 2, 10)
	g.AddBidirectional(2, 3, 10)
	g.AddBidirectional(0, 3, 10)
	return g
}

func pathNodes(g *topology.Graph, t Tunnel) []int {
	if len(t.Edges) == 0 {
		return nil
	}
	nodes := []int{g.Edges[t.Edges[0]].Src}
	for _, e := range t.Edges {
		nodes = append(nodes, g.Edges[e].Dst)
	}
	return nodes
}

func TestKShortestDiamond(t *testing.T) {
	g := diamond()
	paths := KShortestPaths(g, 0, 3, 3)
	if len(paths) != 3 {
		t.Fatalf("got %d paths want 3", len(paths))
	}
	// Shortest must be the direct link (1 hop).
	if len(paths[0].Edges) != 1 {
		t.Fatalf("first path has %d hops, want 1", len(paths[0].Edges))
	}
	// Next two are the 2-hop alternatives.
	if len(paths[1].Edges) != 2 || len(paths[2].Edges) != 2 {
		t.Fatalf("expected two 2-hop paths, got %d and %d hops",
			len(paths[1].Edges), len(paths[2].Edges))
	}
}

func TestPathsAreValidAndLoopFree(t *testing.T) {
	g := topology.Geant()
	for _, pair := range [][2]int{{0, 21}, {5, 14}, {3, 19}} {
		paths := KShortestPaths(g, pair[0], pair[1], 8)
		if len(paths) == 0 {
			t.Fatalf("no paths for %v", pair)
		}
		for pi, p := range paths {
			nodes := pathNodes(g, p)
			if nodes[0] != pair[0] || nodes[len(nodes)-1] != pair[1] {
				t.Fatalf("path %d endpoints wrong: %v", pi, nodes)
			}
			seen := make(map[int]bool)
			for _, n := range nodes {
				if seen[n] {
					t.Fatalf("path %d revisits node %d: %v", pi, n, nodes)
				}
				seen[n] = true
			}
			// Consecutive edges must chain.
			for i := 1; i < len(p.Edges); i++ {
				if g.Edges[p.Edges[i-1]].Dst != g.Edges[p.Edges[i]].Src {
					t.Fatalf("path %d edges do not chain", pi)
				}
			}
		}
	}
}

func TestPathsSortedByLengthAndDistinct(t *testing.T) {
	g := topology.Abilene()
	paths := KShortestPaths(g, 0, 8, 8)
	if len(paths) < 2 {
		t.Fatal("expected multiple paths")
	}
	keys := make(map[string]bool)
	for i, p := range paths {
		if i > 0 && len(p.Edges) < len(paths[i-1].Edges) {
			t.Fatal("paths not sorted by length")
		}
		k := p.Key(g)
		if keys[k] {
			t.Fatalf("duplicate path %s", k)
		}
		keys[k] = true
	}
}

func TestKShortestDeterministic(t *testing.T) {
	g := topology.Geant()
	a := KShortestPaths(g, 2, 17, 8)
	b := KShortestPaths(g, 2, 17, 8)
	if len(a) != len(b) {
		t.Fatal("nondeterministic path count")
	}
	for i := range a {
		if a[i].Key(g) != b[i].Key(g) {
			t.Fatalf("path %d differs across runs", i)
		}
	}
}

// TestShuffledDoesNotAliasParent: Shuffled must deep-copy every tunnel's
// edge slice — the original copied only the Tunnel struct, so its Edges
// backing array was shared and mutating a shuffled tunnel silently
// corrupted the parent set (and, via padding-by-cycling, possibly a second
// tunnel of the parent too).
func TestShuffledDoesNotAliasParent(t *testing.T) {
	g := diamond()
	g.EdgeNodes = []int{0, 3}
	set := Compute(g, 3)

	rng := rand.New(rand.NewSource(4))
	sh := set.Shuffled(rng)
	for f := range sh.PerFlow {
		for k := range sh.PerFlow[f] {
			for i := range sh.PerFlow[f][k].Edges {
				sh.PerFlow[f][k].Edges[i] = -999 // scribble over the copy
			}
		}
	}
	for f, ts := range set.PerFlow {
		for k, tun := range ts {
			for i, e := range tun.Edges {
				if e == -999 {
					t.Fatalf("parent tunnel [%d][%d] edge %d mutated through shuffled copy", f, k, i)
				}
			}
		}
	}
}

func TestComputeAllPairs(t *testing.T) {
	g := topology.Abilene()
	set := Compute(g, 4)
	wantFlows := 12 * 11
	if len(set.Flows) != wantFlows {
		t.Fatalf("got %d flows want %d", len(set.Flows), wantFlows)
	}
	for f, ts := range set.PerFlow {
		if len(ts) != 4 {
			t.Fatalf("flow %d has %d tunnels, want 4", f, len(ts))
		}
	}
	if set.NumTunnels() != wantFlows*4 {
		t.Fatalf("NumTunnels = %d", set.NumTunnels())
	}
}

func TestComputePadsWhenFewPaths(t *testing.T) {
	// A line 0-1-2 has exactly one loop-free path per pair; K=3 must pad.
	g := topology.New("line", 3)
	g.AddBidirectional(0, 1, 10)
	g.AddBidirectional(1, 2, 10)
	set := Compute(g, 3)
	f := set.FlowIndex(0, 2)
	if f < 0 {
		t.Fatal("missing flow")
	}
	if len(set.PerFlow[f]) != 3 {
		t.Fatalf("padding failed: %d tunnels", len(set.PerFlow[f]))
	}
	key := set.PerFlow[f][0].Key(g)
	for _, tun := range set.PerFlow[f][1:] {
		if tun.Key(g) != key {
			t.Fatal("padded tunnels should repeat the available path")
		}
	}
}

// TestComputePacksWithoutChangingTheSet: packing is a storage change only.
// The set equals the per-pair KShortestPaths results padded by cycling, and
// every tunnel and flow is capacity-clipped, so an append reallocates
// instead of overwriting the neighbour that follows it in the backing array.
func TestComputePacksWithoutChangingTheSet(t *testing.T) {
	g := topology.New("line+diamond", 6)
	g.AddBidirectional(0, 1, 10)
	g.AddBidirectional(1, 3, 10)
	g.AddBidirectional(0, 2, 10)
	g.AddBidirectional(2, 3, 10)
	g.AddBidirectional(3, 4, 10)
	g.AddBidirectional(4, 5, 10) // 4→5 has one path: padded at K=3
	const k = 3
	pairs := [][2]int{{0, 3}, {4, 5}, {0, 5}, {5, 1}}
	want := &Set{K: k}
	for _, p := range pairs {
		paths := KShortestPaths(g, p[0], p[1], k)
		for orig := len(paths); len(paths) < k; {
			paths = append(paths, Tunnel{Edges: append([]int(nil), paths[len(paths)-orig].Edges...)})
		}
		want.Flows = append(want.Flows, Flow{Src: p[0], Dst: p[1]})
		want.PerFlow = append(want.PerFlow, paths)
	}
	got := ComputeForPairs(g, pairs, k)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("packed set differs from the unpacked one:\n got %+v\nwant %+v", got, want)
	}
	for f := range got.PerFlow {
		for j := range got.PerFlow[f] {
			_ = append(got.PerFlow[f][j].Edges, -999)
		}
		_ = append(got.PerFlow[f], Tunnel{Edges: []int{-999}})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("appending to a tunnel's Edges or a flow's tunnels overwrote a neighbour")
	}
}

func TestEdgeNodesRestrictFlows(t *testing.T) {
	g := topology.Abilene()
	g.EdgeNodes = []int{0, 4, 9}
	set := Compute(g, 2)
	if len(set.Flows) != 6 {
		t.Fatalf("got %d flows want 6", len(set.Flows))
	}
	for _, f := range set.Flows {
		if f.Src != 0 && f.Src != 4 && f.Src != 9 {
			t.Fatalf("flow source %d is not an edge node", f.Src)
		}
	}
}

func TestShuffledPreservesMultiset(t *testing.T) {
	g := topology.Abilene()
	set := Compute(g, 4)
	sh := set.Shuffled(rand.New(rand.NewSource(5)))
	if sh.NumTunnels() != set.NumTunnels() {
		t.Fatal("tunnel count changed")
	}
	changed := false
	for f := range set.PerFlow {
		orig := map[string]int{}
		news := map[string]int{}
		for k := 0; k < set.K; k++ {
			orig[set.PerFlow[f][k].Key(g)]++
			news[sh.PerFlow[f][k].Key(g)]++
			if set.PerFlow[f][k].Key(g) != sh.PerFlow[f][k].Key(g) {
				changed = true
			}
		}
		for k, v := range orig {
			if news[k] != v {
				t.Fatalf("flow %d tunnel multiset changed", f)
			}
		}
	}
	if !changed {
		t.Fatal("shuffle produced identical ordering everywhere (suspicious)")
	}
}

func TestIncidenceCSR(t *testing.T) {
	g := diamond()
	pairs := [][2]int{{0, 3}}
	set := ComputeForPairs(g, pairs, 3)
	inc := set.IncidenceCSR(g.NumEdges())
	if inc.Rows != g.NumEdges() || inc.Cols != 3 {
		t.Fatalf("incidence shape %dx%d", inc.Rows, inc.Cols)
	}
	// Total entries = total hops across tunnels = 1 + 2 + 2.
	if inc.NNZ() != 5 {
		t.Fatalf("nnz = %d want 5", inc.NNZ())
	}
}

func TestUnreachablePairOmitted(t *testing.T) {
	g := topology.New("split", 4)
	g.AddBidirectional(0, 1, 10)
	g.AddBidirectional(2, 3, 10)
	set := Compute(g, 2)
	for _, f := range set.Flows {
		if (f.Src < 2) != (f.Dst < 2) {
			t.Fatalf("cross-component flow %v should be omitted", f)
		}
	}
}

func TestKShortestOnKDLScaleSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("large topology")
	}
	g := topology.KDLScale(2)
	paths := KShortestPaths(g, 0, g.NumNodes-1, 4)
	if len(paths) == 0 {
		t.Fatal("no paths on KDL-scale graph")
	}
}

// Property: on random connected graphs, every Yen path is valid, loop-free
// and sorted by length.
func TestKShortestPropertyRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		g := topology.RandomConnected("r", n, 2.8, []float64{10}, seed)
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			return true
		}
		paths := KShortestPaths(g, src, dst, 5)
		if len(paths) == 0 {
			return false // connected graph must have a path
		}
		prevLen := 0
		seen := map[string]bool{}
		for _, p := range paths {
			if len(p.Edges) < prevLen {
				return false // not sorted
			}
			prevLen = len(p.Edges)
			key := p.Key(g)
			if seen[key] {
				return false // duplicate
			}
			seen[key] = true
			// valid chain src → dst
			at := src
			visited := map[int]bool{src: true}
			for _, e := range p.Edges {
				if g.Edges[e].Src != at {
					return false
				}
				at = g.Edges[e].Dst
				if visited[at] {
					return false // loop
				}
				visited[at] = true
			}
			if at != dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRingHasExactlyTwoPaths(t *testing.T) {
	g := topology.Ring(6, 10)
	paths := KShortestPaths(g, 0, 3, 4)
	// On a 6-ring, 0→3 has exactly two loop-free paths (clockwise and
	// counter-clockwise), both of length 3.
	if len(paths) != 2 {
		t.Fatalf("got %d paths want 2", len(paths))
	}
	if len(paths[0].Edges) != 3 || len(paths[1].Edges) != 3 {
		t.Fatalf("ring path lengths %d/%d", len(paths[0].Edges), len(paths[1].Edges))
	}
}

func TestComputeConcurrencyDeterminism(t *testing.T) {
	// ComputeForPairs runs workers concurrently; results must not depend on
	// scheduling.
	g := topology.Geant()
	a := Compute(g, 4)
	b := Compute(g, 4)
	if len(a.Flows) != len(b.Flows) {
		t.Fatal("flow count nondeterministic")
	}
	for f := range a.Flows {
		if a.Flows[f] != b.Flows[f] {
			t.Fatal("flow order nondeterministic")
		}
		for k := 0; k < a.K; k++ {
			if a.Tunnel(f, k).Key(g) != b.Tunnel(f, k).Key(g) {
				t.Fatalf("tunnel (%d,%d) nondeterministic", f, k)
			}
		}
	}
}
