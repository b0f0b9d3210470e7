// Package tunnels computes and manages the tunnel (path) sets TE schemes
// route over. The paper provisions k shortest paths per source-destination
// flow (15 for AnonNet, 4 for KDL, 8 elsewhere) and recomputes them whenever
// the topology changes across snapshot clusters.
package tunnels

import (
	"math/rand"
	"runtime"
	"sort"
	"strconv"
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
	key := strconv.AppendInt(nil, int64(g.Edges[t.Edges[0]].Src), 10)
	for _, e := range t.Edges {
		key = strconv.AppendInt(append(key, '-'), int64(g.Edges[e].Dst), 10)
	}
	return string(key)
}

// ---- k-shortest paths (Yen's algorithm over hop count) ----

// outCSR is a graph's out-edge lists in one array: node u's outgoing edge
// ids are edge[start[u]:start[u+1]]. Read-only once built, so the workers
// of one ComputeForPairs call share it.
type outCSR struct{ start, edge []int32 }

func newOutCSR(g *topology.Graph) outCSR {
	c := outCSR{start: make([]int32, g.NumNodes+1), edge: make([]int32, len(g.Edges))}
	for _, e := range g.Edges {
		c.start[e.Src+1]++
	}
	for u := 0; u < g.NumNodes; u++ {
		c.start[u+1] += c.start[u]
	}
	fill := append([]int32(nil), c.start[:g.NumNodes]...)
	for id, e := range g.Edges {
		c.edge[fill[e.Src]] = int32(id)
		fill[e.Src]++
	}
	return c
}

// pathFinder is one goroutine's scratch for Yen's algorithm on g: the
// breadth-first search's distance, predecessor-edge and queue arrays, and
// three stamp arrays — a node is visited, or a node or edge banned, in the
// current search exactly when its stamp equals epoch — so starting a search
// is one increment: nothing is cleared and nothing allocated per spur.
type pathFinder struct {
	g                               *topology.Graph
	out                             outCSR
	dist, prev, queue               []int32
	visited, bannedNode, bannedEdge []uint32
	epoch                           uint32
}

func newPathFinder(g *topology.Graph, out outCSR) *pathFinder {
	n := g.NumNodes
	return &pathFinder{
		g: g, out: out,
		dist: make([]int32, n), prev: make([]int32, n), queue: make([]int32, 0, n),
		visited: make([]uint32, n), bannedNode: make([]uint32, n), bannedEdge: make([]uint32, len(g.Edges)),
	}
}

// nextEpoch forgets the last search's visits and bans.
func (pf *pathFinder) nextEpoch() uint32 {
	if pf.epoch++; pf.epoch == 0 { // wrapped: stamps from 2³² searches ago would read as current
		clear(pf.visited)
		clear(pf.bannedNode)
		clear(pf.bannedEdge)
		pf.epoch = 1
	}
	return pf.epoch
}

// search returns root followed by the shortest path (by hop count) from src
// to dst that avoids the edges and nodes banned in the current epoch, or
// nil if there is none. Ties are broken by better, which is a strict total
// order on edges, so the predecessor it keeps for a node — the least edge
// entering it from the previous level — does not depend on visiting order:
// a Dijkstra over unit weights settles every node at distance d−1 before
// it pops one at distance d and so keeps the same edge. The search stops
// when the level that discovers dst is complete.
func (pf *pathFinder) search(root []int, src, dst int) []int {
	if src == dst {
		return nil
	}
	g, ep := pf.g, pf.epoch
	pf.visited[src], pf.dist[src] = ep, 0
	q := append(pf.queue[:0], int32(src))
	for head := 0; head < len(q); head++ {
		u := q[head]
		du := pf.dist[u]
		if pf.visited[dst] == ep && du >= pf.dist[dst] {
			break
		}
		for _, eid := range pf.out.edge[pf.out.start[u]:pf.out.start[u+1]] {
			v := g.Edges[eid].Dst
			switch {
			case pf.bannedEdge[eid] == ep || pf.bannedNode[v] == ep:
			case pf.visited[v] != ep:
				pf.visited[v], pf.dist[v], pf.prev[v] = ep, du+1, eid
				q = append(q, int32(v))
			case pf.dist[v] == du+1 && better(g, int(pf.prev[v]), int(eid)):
				pf.prev[v] = eid
			}
		}
	}
	if pf.visited[dst] != ep {
		return nil
	}
	path := make([]int, len(root)+int(pf.dist[dst]))
	copy(path, root)
	for n, i := dst, len(path)-1; n != src; i-- {
		path[i] = int(pf.prev[n])
		n = g.Edges[path[i]].Src
	}
	return path
}

// better resolves shortest-path ties deterministically by preferring the
// edge whose source node id is smaller (then smaller edge id).
func better(g *topology.Graph, cur, cand int) bool {
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
	return newPathFinder(g, newOutCSR(g)).kShortest(src, dst, k)
}

func (pf *pathFinder) kShortest(src, dst, k int) []Tunnel {
	pf.nextEpoch()
	first := pf.search(nil, src, dst)
	if first == nil {
		return nil
	}
	paths := []Tunnel{{Edges: first}}
	// A spur search bans the next edge of every path and candidate that
	// shares its root, so what it finds is never one of them: candidates
	// need no de-duplication.
	var candidates [][]int
	for len(paths) < k {
		prev := paths[len(paths)-1].Edges
		// Spur from every node along the previous path.
		for i := range prev {
			root := prev[:i]
			ep := pf.nextEpoch()
			for _, p := range paths {
				if len(p.Edges) > i && sharesRoot(p.Edges, root) {
					pf.bannedEdge[p.Edges[i]] = ep
				}
			}
			for _, c := range candidates {
				if len(c) > i && sharesRoot(c, root) {
					pf.bannedEdge[c[i]] = ep
				}
			}
			spurNode := src
			for _, e := range root {
				pf.bannedNode[spurNode] = ep
				spurNode = pf.g.Edges[e].Dst
			}
			if full := pf.search(root, spurNode, dst); full != nil {
				candidates = append(candidates, full)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool {
			if len(candidates[a]) != len(candidates[b]) {
				return len(candidates[a]) < len(candidates[b])
			}
			return lexLess(candidates[a], candidates[b])
		})
		paths = append(paths, Tunnel{Edges: candidates[0]})
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
	out := newOutCSR(g)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pf := newPathFinder(g, out)
			for i := range next {
				results[i] = pf.kShortest(pairs[i][0], pairs[i][1], k)
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
