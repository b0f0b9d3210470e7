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
	"sync/atomic"

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
// share. Columns arrive in order, so rows come out sorted; an edge listed twice reads 2.
func (s *Set) IncidenceCSR(numEdges int) *tensor.CSR {
	c := &tensor.CSR{Rows: numEdges, Cols: s.NumTunnels(), RowPtr: make([]int, numEdges+1)}
	at := make([]int, numEdges) // per row: 1 + the last column counted, then the next free slot
	for f, ts := range s.PerFlow {
		for k, tun := range ts {
			for _, e := range tun.Edges {
				if col := f*s.K + k; at[e] != col+1 {
					at[e] = col + 1
					c.RowPtr[e+1]++
				}
			}
		}
	}
	for e := 0; e < numEdges; e++ {
		c.RowPtr[e+1] += c.RowPtr[e]
	}
	c.ColIdx, c.Val = make([]int, c.RowPtr[numEdges]), make([]float64, c.RowPtr[numEdges])
	copy(at, c.RowPtr)
	for f, ts := range s.PerFlow {
		for k, tun := range ts {
			for _, e := range tun.Edges {
				if p, col := at[e], f*s.K+k; p > c.RowPtr[e] && c.ColIdx[p-1] == col {
					c.Val[p-1]++
				} else {
					c.ColIdx[p], c.Val[p] = col, 1
					at[e]++
				}
			}
		}
	}
	return c
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

// edgeCSR is a graph's edge ids grouped by node in one array: node u's are
// edge[start[u]:start[u+1]]. Read-only once built, so the workers of one
// ComputeForPairs call share it.
type edgeCSR struct{ start, edge []int32 }

// newEdgeCSR groups g's edge ids by end(edge): their source or destination.
func newEdgeCSR(g *topology.Graph, end func(topology.Edge) int) edgeCSR {
	c := edgeCSR{start: make([]int32, g.NumNodes+1), edge: make([]int32, len(g.Edges))}
	for _, e := range g.Edges {
		c.start[end(e)+1]++
	}
	for u := 0; u < g.NumNodes; u++ {
		c.start[u+1] += c.start[u]
	}
	fill := append([]int32(nil), c.start[:g.NumNodes]...)
	for id, e := range g.Edges {
		c.edge[fill[end(e)]] = int32(id)
		fill[end(e)]++
	}
	return c
}

func srcOf(e topology.Edge) int { return e.Src }

// hopsTo returns hops[t][v], the hop distance from v to t in g (−1: none),
// for every pair's destination t, by one reverse breadth-first search each
// over one in-edge CSR; other rows are nil. Shared read-only, like edgeCSR.
func hopsTo(g *topology.Graph, pairs [][2]int) [][]int32 {
	in, hops := newEdgeCSR(g, func(e topology.Edge) int { return e.Dst }), make([][]int32, g.NumNodes)
	var queue []int32
	for _, p := range pairs {
		t := p[1]
		if hops[t] != nil {
			continue
		}
		h := make([]int32, g.NumNodes)
		for v := range h {
			h[v] = -1
		}
		h[t] = 0
		queue = append(queue[:0], int32(t))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, eid := range in.edge[in.start[v]:in.start[v+1]] {
				if u := g.Edges[eid].Src; h[u] < 0 {
					h[u] = h[v] + 1
					queue = append(queue, int32(u))
				}
			}
		}
		hops[t] = h
	}
	return hops
}

// pathFinder is one goroutine's scratch for Yen's algorithm on g: the spur
// search's distance and predecessor-edge arrays, its bucket queue, and
// three stamp arrays — a node is visited, or a node or edge banned, in the
// current search exactly when its stamp equals epoch — so starting a search
// is one increment: nothing is cleared and nothing allocated per spur.
type pathFinder struct {
	g                               *topology.Graph
	out                             edgeCSR
	hops, buckets                   [][]int32
	dist, prev                      []int32
	visited, bannedNode, bannedEdge []uint32
	epoch                           uint32
}

func newPathFinder(g *topology.Graph, out edgeCSR, hops [][]int32) *pathFinder {
	n := g.NumNodes
	return &pathFinder{
		g: g, out: out, hops: hops,
		dist: make([]int32, n), prev: make([]int32, n), buckets: make([][]int32, 2*n),
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
// nil if there is none. Ties are broken by better, a strict total order on
// edges, so the predecessor kept for a node does not depend on visiting
// order. Nodes are expanded in order of f = d + h, h = hops[dst], from a
// bucket per f; a node that cannot reach dst is never enqueued, dst is never
// expanded, and the search stops once the bucket that discovers dst is
// drained. It keeps a breadth-first search's predecessors (DESIGN §5i).
func (pf *pathFinder) search(root []int, src, dst int) []int {
	h := pf.hops[dst]
	if src == dst || h[src] < 0 {
		return nil
	}
	g, ep := pf.g, pf.epoch
	pf.visited[src], pf.dist[src] = ep, 0
	lo, hi := h[src], h[src] // the buckets this search may have filled
	pf.buckets[lo] = append(pf.buckets[lo], int32(src))
	for f := lo; f <= hi && pf.visited[dst] != ep; f++ {
		for i := 0; i < len(pf.buckets[f]); i++ {
			u := pf.buckets[f][i]
			du := pf.dist[u]
			if du+h[u] != f { // re-queued in a lower bucket since
				continue
			}
			for _, eid := range pf.out.edge[pf.out.start[u]:pf.out.start[u+1]] {
				v := g.Edges[eid].Dst
				switch {
				case pf.bannedEdge[eid] == ep || pf.bannedNode[v] == ep || h[v] < 0:
				case pf.visited[v] != ep || du+1 < pf.dist[v]:
					pf.visited[v], pf.dist[v], pf.prev[v] = ep, du+1, eid
					if fv := du + 1 + h[v]; v != dst {
						pf.buckets[fv] = append(pf.buckets[fv], int32(v))
						hi = max(hi, fv)
					}
				case pf.dist[v] == du+1 && better(g, int(pf.prev[v]), int(eid)):
					pf.prev[v] = eid
				}
			}
		}
	}
	for f := lo; f <= hi; f++ {
		pf.buckets[f] = pf.buckets[f][:0]
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
	return newPathFinder(g, newEdgeCSR(g, srcOf), hopsTo(g, [][2]int{{src, dst}})).kShortest(src, dst, k)
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
	out, hops := newEdgeCSR(g, srcOf), hopsTo(g, pairs)
	var wg sync.WaitGroup
	var next atomic.Int64 // workers claim pairs by index: a channel hand-off per pair costs more than a small graph's Yen
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pf := newPathFinder(g, out, hops)
			for i := int(next.Add(1)) - 1; i < len(pairs); i = int(next.Add(1)) - 1 {
				results[i] = pf.kShortest(pairs[i][0], pairs[i][1], k)
			}
		}()
	}
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
