// Package tunnels computes and manages the tunnel (path) sets TE schemes
// route over. The paper provisions k shortest paths per source-destination
// flow (15 for AnonNet, 4 for KDL, 8 elsewhere) and recomputes them whenever
// the topology changes across snapshot clusters.
package tunnels

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"harpte/internal/tensor"
	"harpte/internal/topology"
)

// Tunnel is a loop-free path represented as the ordered edge ids it
// traverses on its graph.
type Tunnel struct {
	Edges []int
}

// Flow identifies a source-destination demand pair.
type Flow struct {
	Src, Dst int
}

// Set is the tunnel configuration for a topology: for every flow, exactly K
// tunnels (padded by cycling when fewer loop-free paths exist, so the
// "same T for all flows" assumption of the paper's Table 2 always holds).
type Set struct {
	Flows   []Flow
	PerFlow [][]Tunnel
	K       int
}

// NumTunnels returns the total tunnel count (len(Flows) × K).
func (s *Set) NumTunnels() int { return len(s.Flows) * s.K }

// FlowIndex returns the index of the flow src→dst, or -1.
func (s *Set) FlowIndex(src, dst int) int {
	for i, f := range s.Flows {
		if f.Src == src && f.Dst == dst {
			return i
		}
	}
	return -1
}

// Tunnel returns tunnel k of flow f. Tunnels are globally indexed
// flow-major: global id = f*K + k.
func (s *Set) Tunnel(f, k int) Tunnel { return s.PerFlow[f][k] }

// Shuffled returns a copy of the set with the tunnels of every flow
// reordered by rng — the §5.4 "shuffled tunnels" perturbation. The copy is
// deep: every tunnel's edge slice is cloned, so mutating the shuffled set
// can never alias the parent (padding by cycling means a parent set can even
// share one backing array between two of its own tunnels).
func (s *Set) Shuffled(rng *rand.Rand) *Set {
	out := &Set{Flows: append([]Flow(nil), s.Flows...), K: s.K}
	out.PerFlow = make([][]Tunnel, len(s.PerFlow))
	for i, ts := range s.PerFlow {
		perm := rng.Perm(len(ts))
		shuffled := make([]Tunnel, len(ts))
		for j, p := range perm {
			shuffled[j] = Tunnel{Edges: append([]int(nil), ts[p].Edges...)}
		}
		out.PerFlow[i] = shuffled
	}
	return out
}

// IncidenceCSR returns the E×T 0/1 matrix with a 1 where edge e lies on
// (global) tunnel t. Multiplying it by per-tunnel traffic yields link loads;
// it is the structural constant both the optimizer and the neural models
// share.
func (s *Set) IncidenceCSR(numEdges int) *tensor.CSR {
	var entries []tensor.COO
	for f, ts := range s.PerFlow {
		for k, tun := range ts {
			col := f*s.K + k
			for _, e := range tun.Edges {
				entries = append(entries, tensor.E(e, col, 1))
			}
		}
	}
	return tensor.NewCSR(numEdges, s.NumTunnels(), entries)
}

// Key returns a canonical string for a tunnel given its graph, used to
// compare tunnel sets across clusters (Fig 3c).
func (t Tunnel) Key(g *topology.Graph) string {
	if len(t.Edges) == 0 {
		return ""
	}
	key := fmt.Sprintf("%d", g.Edges[t.Edges[0]].Src)
	for _, e := range t.Edges {
		key += fmt.Sprintf("-%d", g.Edges[e].Dst)
	}
	return key
}

// ---- k-shortest paths (Yen's algorithm over hop count) ----

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
			if nd < dist[e.Dst] || (nd == dist[e.Dst] && better(g, prevEdge[e.Dst], eid)) {
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

// better resolves Dijkstra ties deterministically by preferring the edge
// whose source node id is smaller (then smaller edge id).
func better(g *topology.Graph, cur, cand int) bool {
	if cur == -1 {
		return true
	}
	cs, ns := g.Edges[cur].Src, g.Edges[cand].Src
	if ns != cs {
		return ns < cs
	}
	return cand < cur
}

// KShortestPaths returns up to k loop-free shortest paths (by hop count)
// from src to dst using Yen's algorithm. Paths are returned shortest first
// with deterministic ordering.
func KShortestPaths(g *topology.Graph, src, dst, k int) []Tunnel {
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

func sharesRoot(path, root []int) bool {
	if len(path) < len(root) {
		return false
	}
	for i := range root {
		if path[i] != root[i] {
			return false
		}
	}
	return true
}

// pathKey returns a canonical string for an edge-id path.
func pathKey(p []int) string {
	key := ""
	for _, e := range p {
		key += fmt.Sprintf("%d,", e)
	}
	return key
}

func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Compute builds the tunnel set for every ordered pair of edge nodes of g,
// with exactly k tunnels per flow (cycling existing paths when fewer
// loop-free paths exist). Pairs with no path at all are omitted.
func Compute(g *topology.Graph, k int) *Set {
	nodes := g.EdgeNodeList()
	var pairs [][2]int
	for _, s := range nodes {
		for _, d := range nodes {
			if s != d {
				pairs = append(pairs, [2]int{s, d})
			}
		}
	}
	return ComputeForPairs(g, pairs, k)
}

// ComputeForPairs builds the tunnel set for the given ordered pairs.
// Pairs are processed concurrently (they are independent); the resulting
// flow order matches the input pair order, so results are deterministic.
func ComputeForPairs(g *topology.Graph, pairs [][2]int, k int) *Set {
	results := make([][]Tunnel, len(pairs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = KShortestPaths(g, pairs[i][0], pairs[i][1], k)
			}
		}()
	}
	for i := range pairs {
		next <- i
	}
	close(next)
	wg.Wait()

	set := &Set{K: k}
	for i, p := range pairs {
		paths := results[i]
		if len(paths) == 0 {
			continue
		}
		// Cycle existing paths to pad up to exactly k tunnels.
		for orig := len(paths); len(paths) < k; {
			paths = append(paths, paths[len(paths)-orig])
		}
		set.Flows = append(set.Flows, Flow{Src: p[0], Dst: p[1]})
		set.PerFlow = append(set.PerFlow, paths[:k])
	}
	set.pack()
	return set
}

// pack moves every tunnel's Edges into one backing array and every flow's
// tunnels into one []Tunnel, both in flow-major order: validation,
// fingerprinting and the RAU bottleneck scan walk all tunnels on every
// request, and thousands of separately allocated few-element slices make
// each of those walks a pointer chase. Capacities are clipped (3-index
// slices), so appending to one tunnel or flow reallocates instead of
// overwriting its neighbour; padded tunnels stop sharing a backing array.
func (s *Set) pack() {
	numTunnels, numEdges := 0, 0
	for _, ts := range s.PerFlow {
		numTunnels += len(ts)
		for _, t := range ts {
			numEdges += len(t.Edges)
		}
	}
	tuns := make([]Tunnel, 0, numTunnels)
	edges := make([]int, 0, numEdges)
	for f, ts := range s.PerFlow {
		t0 := len(tuns)
		for _, t := range ts {
			e0 := len(edges)
			edges = append(edges, t.Edges...)
			tuns = append(tuns, Tunnel{Edges: edges[e0:len(edges):len(edges)]})
		}
		s.PerFlow[f] = tuns[t0:len(tuns):len(tuns)]
	}
}
