package tunnels

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"harpte/internal/tensor"
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

// referenceIncidence is IncidenceCSR as it was first written: one COO
// entry per (edge, tunnel) hop, normalized by tensor.NewCSR.
func referenceIncidence(s *Set, numEdges int) *tensor.CSR {
	var entries []tensor.COO
	for f, ts := range s.PerFlow {
		for k, tun := range ts {
			for _, e := range tun.Edges {
				entries = append(entries, tensor.E(e, f*s.K+k, 1))
			}
		}
	}
	return tensor.NewCSR(numEdges, s.NumTunnels(), entries)
}

// TestIncidenceCSREqualsNewCSR: the directly built incidence matrix is
// tensor.NewCSR's over the same entries — on the tunnel sets of every
// oracle graph and kdl_large, and on a hand-built set whose first tunnel
// lists an edge twice (summed to 2, as NewCSR sums duplicates).
func TestIncidenceCSREqualsNewCSR(t *testing.T) {
	repeated := &Set{
		Flows:   []Flow{{0, 2}, {1, 2}},
		PerFlow: [][]Tunnel{{{Edges: []int{0, 2, 0}}, {Edges: []int{1}}}, {{Edges: []int{2, 2}}, {Edges: []int{}}}},
		K:       2,
	}
	type tc struct {
		name     string
		set      *Set
		numEdges int
	}
	cases := []tc{{"repeated-edge", repeated, 4}, {"no-tunnels", &Set{K: 3}, 2}}
	graphs := oracleGraphs()
	if !testing.Short() {
		graphs = append(graphs, benchKDL())
	}
	for _, g := range graphs {
		pairs := oraclePairs(g)
		if g.NumNodes > 500 {
			pairs = allOrderedPairs(g)
		}
		for _, k := range []int{1, 4, 15} {
			cases = append(cases, tc{fmt.Sprintf("%s/k=%d", g.Name, k), ComputeForPairs(g, pairs, k), g.NumEdges()})
		}
	}
	for _, c := range cases {
		got, want := c.set.IncidenceCSR(c.numEdges), referenceIncidence(c.set, c.numEdges)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", c.name, got, want)
		}
	}
	if got := repeated.IncidenceCSR(4); got.Val[0] != 2 || got.NNZ() != 4 {
		t.Fatalf("repeated edge: %+v, want a 2 at (0, 0) and 4 entries", got)
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

// ---- reference: the seed's Yen, verbatim ----
//
// A container/heap Dijkstra over unit weights with map ban sets and string
// path keys — the implementation every tunnel set was computed by before
// the breadth-first pathFinder replaced it. Kept here, test-only, as the
// oracle KShortestPaths is held to with reflect.DeepEqual.

type dijkstraItem struct {
	node int
	dist float64
	idx  int
}

type priorityQueue []*dijkstraItem

func (pq priorityQueue) Len() int           { return len(pq) }
func (pq priorityQueue) Less(i, j int) bool { return pq[i].dist < pq[j].dist }
func (pq priorityQueue) Swap(i, j int)      { pq[i], pq[j] = pq[j], pq[i]; pq[i].idx, pq[j].idx = i, j }
func (pq *priorityQueue) Push(x interface{}) {
	it := x.(*dijkstraItem)
	it.idx = len(*pq)
	*pq = append(*pq, it)
}
func (pq *priorityQueue) Pop() interface{} {
	old := *pq
	n := len(old)
	it := old[n-1]
	*pq = old[:n-1]
	return it
}

// shortestPath runs Dijkstra over hop count with deterministic tie-breaking
// (lower node id wins), honoring banned edges and banned nodes. Returns the
// path as edge ids, or nil if unreachable.
func shortestPath(g *topology.Graph, out [][]int, src, dst int, bannedEdges map[int]bool, bannedNodes map[int]bool) []int {
	const inf = 1 << 30
	dist := make([]float64, g.NumNodes)
	prevEdge := make([]int, g.NumNodes)
	for i := range dist {
		dist[i] = inf
		prevEdge[i] = -1
	}
	dist[src] = 0
	pq := &priorityQueue{}
	heap.Push(pq, &dijkstraItem{node: src, dist: 0})
	done := make([]bool, g.NumNodes)
	for pq.Len() > 0 {
		it := heap.Pop(pq).(*dijkstraItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, eid := range out[u] {
			if bannedEdges[eid] {
				continue
			}
			e := g.Edges[eid]
			if bannedNodes[e.Dst] {
				continue
			}
			nd := dist[u] + 1
			if nd < dist[e.Dst] || (nd == dist[e.Dst] && referenceBetter(g, prevEdge[e.Dst], eid)) {
				dist[e.Dst] = nd
				prevEdge[e.Dst] = eid
				heap.Push(pq, &dijkstraItem{node: e.Dst, dist: nd})
			}
		}
	}
	if prevEdge[dst] == -1 {
		return nil
	}
	var path []int
	for n := dst; n != src; {
		e := prevEdge[n]
		path = append(path, e)
		n = g.Edges[e].Src
	}
	// Reverse.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// referenceBetter resolves Dijkstra ties deterministically by preferring the
// edge whose source node id is smaller (then smaller edge id).
func referenceBetter(g *topology.Graph, cur, cand int) bool {
	if cur == -1 {
		return true
	}
	cs, ns := g.Edges[cur].Src, g.Edges[cand].Src
	if ns != cs {
		return ns < cs
	}
	return cand < cur
}

// referenceKShortestPaths is the seed's KShortestPaths.
func referenceKShortestPaths(g *topology.Graph, src, dst, k int) []Tunnel {
	out := g.OutEdges()
	first := shortestPath(g, out, src, dst, nil, nil)
	if first == nil {
		return nil
	}
	paths := []Tunnel{{Edges: first}}
	type candidate struct {
		path []int
		cost int
	}
	var candidates []candidate
	seen := map[string]bool{pathKey(first): true}

	for len(paths) < k {
		prev := paths[len(paths)-1].Edges
		// Spur from every node along the previous path.
		for i := 0; i <= len(prev)-1; i++ {
			rootEdges := prev[:i]
			spurNode := src
			if i > 0 {
				spurNode = g.Edges[prev[i-1]].Dst
			}
			bannedEdges := make(map[int]bool)
			for _, p := range paths {
				if sharesRoot(p.Edges, rootEdges) && len(p.Edges) > i {
					bannedEdges[p.Edges[i]] = true
				}
			}
			for _, c := range candidates {
				if sharesRoot(c.path, rootEdges) && len(c.path) > i {
					bannedEdges[c.path[i]] = true
				}
			}
			bannedNodes := make(map[int]bool)
			n := src
			for _, e := range rootEdges {
				bannedNodes[n] = true
				n = g.Edges[e].Dst
			}
			spur := shortestPath(g, out, spurNode, dst, bannedEdges, bannedNodes)
			if spur == nil {
				continue
			}
			full := append(append([]int(nil), rootEdges...), spur...)
			if key := pathKey(full); !seen[key] {
				seen[key] = true
				candidates = append(candidates, candidate{path: full, cost: len(full)})
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool {
			if candidates[a].cost != candidates[b].cost {
				return candidates[a].cost < candidates[b].cost
			}
			return lexLess(candidates[a].path, candidates[b].path)
		})
		paths = append(paths, Tunnel{Edges: candidates[0].path})
		candidates = candidates[1:]
	}
	return paths
}

// pathKey returns a canonical string for an edge-id path.
func pathKey(p []int) string {
	key := ""
	for _, e := range p {
		key += fmt.Sprintf("%d,", e)
	}
	return key
}

// ---- oracles against the reference ----

// benchKDL is the benchmark's kdl_large topology (bench/workloads.go):
// KDLScale(301) with 48 evenly spaced edge nodes, 2,256 flows.
func benchKDL() *topology.Graph {
	g := topology.KDLScale(301)
	for i := 0; i < 48; i++ {
		g.EdgeNodes = append(g.EdgeNodes, i*g.NumNodes/48)
	}
	return g
}

// randomDirected is a graph in which every unordered node pair is absent,
// one-way (either direction) or two-way with equal odds of the four, so
// it has asymmetric distances and unreachable pairs.
func randomDirected(n int, rng *rand.Rand) *topology.Graph {
	g := topology.New("directed", n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			switch rng.Intn(4) {
			case 1:
				g.AddEdge(u, v, 10)
			case 2:
				g.AddEdge(v, u, 10)
			case 3:
				g.AddBidirectional(u, v, 10)
			}
		}
	}
	return g
}

// allOrderedPairs is every (src, dst) of g's edge nodes, src == dst included.
func allOrderedPairs(g *topology.Graph) [][2]int {
	var pairs [][2]int
	for _, s := range g.EdgeNodeList() {
		for _, d := range g.EdgeNodeList() {
			pairs = append(pairs, [2]int{s, d})
		}
	}
	return pairs
}

// sample is n seeded (src, dst) pairs of g's nodes, src == dst allowed.
func sample(g *topology.Graph, n int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(g.NumNodes), rng.Intn(g.NumNodes)}
	}
	return pairs
}

// oracleGraphs is every graph the reference oracles run on but kdl_large:
// the named topologies, the zoo, a GEANT with a failed link, twelve seeded
// random directed graphs and a UsCarrier-scale graph.
func oracleGraphs() []*topology.Graph {
	gs := []*topology.Graph{
		topology.Abilene(), topology.Geant(), topology.B4(), topology.Ring(7, 10), topology.Grid(4, 3, 10),
		topology.RandomConnected("r", 14, 2.8, []float64{10, 40}, 7), topology.Geant().WithFailedLink(0, 1),
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 12; i++ {
		gs = append(gs, randomDirected(5+rng.Intn(8), rng))
	}
	return append(gs, topology.UsCarrierScale(301))
}

// oraclePairs is every ordered pair of g's edge nodes, or 60 seeded pairs
// on a graph too large for that.
func oraclePairs(g *topology.Graph) [][2]int {
	if g.NumNodes > 100 {
		return sample(g, 60, 1)
	}
	return allOrderedPairs(g)
}

// TestKShortestPathsEqualReference: the tunnels are the seed's tunnels —
// same paths, same order, every pair, k ∈ {1, 2, 4, 8, 15} — on the named
// topologies, the zoo, the two scale generators, a GEANT with a failed
// link (FailedCapacity: still an edge, still routed over) and seeded random
// directed graphs with one-way links and unreachable pairs. On kdl_large it
// also covers seeded pairs at k ∈ {8, 15}, where bans force the longest
// detours and the goal-directed search prunes least, and every flow with
// the link its k = 4 tunnels use most failed.
func TestKShortestPathsEqualReference(t *testing.T) {
	type tc struct {
		g     *topology.Graph
		pairs [][2]int
		ks    []int // nil: 1, 2, 4, 8, 15
	}
	var cases []tc
	for _, g := range oracleGraphs() {
		cases = append(cases, tc{g, oraclePairs(g), nil})
	}
	if !testing.Short() && !tensor.RaceEnabled { // the reference alone is minutes under -race
		// The reference takes 5 s per k over every kdl_large flow, and
		// about 2 ms per pair at k = 15.
		kdl := benchKDL()
		var flows [][2]int
		for _, p := range allOrderedPairs(kdl) {
			if p[0] != p[1] {
				flows = append(flows, p)
			}
		}
		uses := make([]int, kdl.NumEdges())
		for _, ts := range Compute(kdl, 4).PerFlow {
			for _, tun := range ts {
				for _, e := range tun.Edges {
					uses[e]++
				}
			}
		}
		busiest := 0
		for e, n := range uses {
			if n > uses[busiest] {
				busiest = e
			}
		}
		failed := kdl.WithFailedLink(kdl.Edges[busiest].Src, kdl.Edges[busiest].Dst)
		cases = append(cases, tc{kdl, flows, []int{4}}, tc{kdl, sample(kdl, 64, 2), []int{8, 15}},
			tc{failed, flows, []int{4}})
	}
	checked, unreachable := 0, 0
	for _, c := range cases {
		ks := c.ks
		if ks == nil {
			ks = []int{1, 2, 4, 8, 15}
		}
		for _, k := range ks {
			for _, p := range c.pairs {
				want := referenceKShortestPaths(c.g, p[0], p[1], k)
				got := KShortestPaths(c.g, p[0], p[1], k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %d→%d k=%d:\n got %v\nwant %v", c.g.Name, p[0], p[1], k, got, want)
				}
				checked++
				if want == nil && p[0] != p[1] {
					unreachable++
				}
			}
		}
	}
	if unreachable == 0 {
		t.Error("no unreachable pair among the cases: the directed graphs are not doing their job")
	}
	t.Logf("%d (graph, k, pair) cases equal, %d of them unreachable", checked, unreachable)
}

// TestReusedPathFinderEqualsReference: a ComputeForPairs worker reuses its
// pathFinder across the pairs it draws, so stamps and bucket entries left by
// one flow must never leak into the next: one scratch serving every GEANT
// pair in turn equals the reference pair by pair.
func TestReusedPathFinderEqualsReference(t *testing.T) {
	g := topology.Geant()
	pairs := allOrderedPairs(g)
	pf := newPathFinder(g, newEdgeCSR(g, srcOf), hopsTo(g, pairs))
	for _, p := range pairs {
		want := referenceKShortestPaths(g, p[0], p[1], 8)
		if got := pf.kShortest(p[0], p[1], 8); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d→%d on a reused scratch:\n got %v\nwant %v", p[0], p[1], got, want)
		}
	}
	// An epoch about to wrap clears the stamps instead of trusting them.
	pf.epoch = ^uint32(0) - 3
	for _, p := range [][2]int{{0, 21}, {5, 14}} {
		want := referenceKShortestPaths(g, p[0], p[1], 8)
		if got := pf.kShortest(p[0], p[1], 8); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d→%d across an epoch wrap:\n got %v\nwant %v", p[0], p[1], got, want)
		}
	}
}

// FuzzKShortestPaths decodes bytes into a small directed graph and a
// (src, dst, k) query: the paths equal the reference's and are loop-free,
// non-decreasing in hops and pairwise distinct.
func FuzzKShortestPaths(f *testing.F) {
	f.Add([]byte{5, 0, 4, 3, 0x12, 0x23, 0x34, 0x41, 0x13, 0x31})
	f.Add([]byte{3, 0, 2, 8, 0x01, 0x12})
	f.Add([]byte{9, 8, 0, 15, 0x87, 0x76, 0x65, 0x54, 0x43, 0x32, 0x21, 0x10, 0x80, 0x08, 0x26, 0x62})
	// dst 0 has one in-edge, from 1, which only 2 reaches: nodes 3–7 cannot
	// reach it, so no search may enqueue them.
	f.Add([]byte{6, 2, 0, 4, 0x10, 0x21, 0x34, 0x45, 0x56, 0x67, 0x73, 0x23, 0x53})
	// A 4-cycle with both chords has 5 loop-free 0→2 paths; k = 16 asks for
	// more, so Yen runs out of candidates.
	f.Add([]byte{2, 0, 2, 16, 0x01, 0x10, 0x12, 0x21, 0x23, 0x32, 0x30, 0x03, 0x02, 0x20, 0x13, 0x31})
	// h is the unbanned distance, so a ban makes it underestimate: the second
	// 7→3 path spurs from 5 with 7 banned, where 11 still looks 3 hops from 3
	// (through 7). The search reaches 2 through 4 and 11 at d = 3 before it
	// expands 6, and must re-queue 2 at d = 2 when it does.
	f.Add([]byte{10, 7, 3, 2, 0xa3, 0x4b, 0x62, 0x75, 0x01, 0xb7, 0x1a, 0xb2, 0x20, 0x53, 0x56, 0x54})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%14
		src, dst, k := int(data[1])%n, int(data[2])%n, int(data[3])%17
		g := topology.New("fuzz", n)
		for _, b := range data[4:] {
			u, v := int(b>>4)%n, int(b&15)%n
			if _, dup := g.EdgeID(u, v); u != v && !dup {
				g.AddEdge(u, v, 10)
			}
		}
		got := KShortestPaths(g, src, dst, k)
		if want := referenceKShortestPaths(g, src, dst, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d %d→%d k=%d edges %v:\n got %v\nwant %v", n, src, dst, k, g.Edges, got, want)
		}
		for i, p := range got {
			if i > 0 && len(p.Edges) < len(got[i-1].Edges) {
				t.Fatalf("path %d is shorter than path %d", i, i-1)
			}
			for j := 0; j < i; j++ {
				if reflect.DeepEqual(p.Edges, got[j].Edges) {
					t.Fatalf("paths %d and %d are the same", j, i)
				}
			}
			nodes := pathNodes(g, p)
			seen := map[int]bool{}
			for _, v := range nodes {
				if seen[v] {
					t.Fatalf("path %d revisits node %d: %v", i, v, nodes)
				}
				seen[v] = true
			}
			if nodes[0] != src || nodes[len(nodes)-1] != dst {
				t.Fatalf("path %d runs %d→%d, want %d→%d", i, nodes[0], nodes[len(nodes)-1], src, dst)
			}
		}
	})
}

// TestConcurrentComputeForPairsOnOneGraph: two ComputeForPairs calls on the
// same graph at once, each fanning out to its own workers with their own
// scratch, share only read-only state (run under make race).
func TestConcurrentComputeForPairsOnOneGraph(t *testing.T) {
	g := topology.Geant()
	want := Compute(g, 4)
	var wg sync.WaitGroup
	sets := make([]*Set, 2)
	for i := range sets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sets[i] = Compute(g, 4)
		}(i)
	}
	wg.Wait()
	for i, got := range sets {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("concurrent call %d computed a different set", i)
		}
	}
}

// TestTunnelKeyFormat pins Key's bytes: source, then "-" and the far node
// of every hop.
func TestTunnelKeyFormat(t *testing.T) {
	g := topology.New("line", 12)
	for u := 0; u < 11; u++ {
		g.AddBidirectional(u, u+1, 10)
	}
	paths := KShortestPaths(g, 8, 11, 1)
	if got := paths[0].Key(g); got != "8-9-10-11" {
		t.Errorf("Key = %q, want %q", got, "8-9-10-11")
	}
	if got := (Tunnel{}).Key(g); got != "" {
		t.Errorf("empty tunnel Key = %q, want empty", got)
	}
	back := KShortestPaths(g, 1, 0, 1)
	if got := back[0].Key(g); got != "1-0" {
		t.Errorf("Key = %q, want %q", got, "1-0")
	}
}

// ---- ledger rows (BENCH_1.json) ----

var benchSet *Set

// benchCompute times Compute(g, 4) — the tunnel half of a new topology's
// set-up — stating the problem's size.
func benchCompute(b *testing.B, g *topology.Graph) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSet = Compute(g, 4)
	}
	b.ReportMetric(float64(g.NumNodes), "nodes")
	b.ReportMetric(float64(g.NumEdges()), "edges")
	b.ReportMetric(float64(len(benchSet.Flows)), "flows")
	b.ReportMetric(4, "k")
}

func BenchmarkComputeTunnels(b *testing.B) {
	b.Run("Abilene", func(b *testing.B) { benchCompute(b, topology.Abilene()) })
	b.Run("Geant", func(b *testing.B) { benchCompute(b, topology.Geant()) })
	b.Run("UsCarrier", func(b *testing.B) {
		g := topology.UsCarrierScale(301)
		for i := 0; i < 24; i++ {
			g.EdgeNodes = append(g.EdgeNodes, i*g.NumNodes/24)
		}
		benchCompute(b, g)
	})
	b.Run("KDL", func(b *testing.B) {
		benchCompute(b, benchKDL())
	})
}
