package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/traffic"
	"harpte/internal/tunnels"
)

const (
	tunnelsPerFlow = 4
	// accessShare caps every node's aggregate demand at this share of its
	// incident capacity, so core links — where TE decides — bind.
	accessShare = 0.35
	// kdlEdgeNodes is how many of KDL's 754 nodes originate traffic: 48
	// all-pairs is 2,256 flows (all 754 would be 567k).
	kdlEdgeNodes = 48
	kdlSeed      = 301
	// hotTMs is how many traffic matrices hot_cache replays per topology.
	hotTMs = 32
	// lapScale rescales a pool's demands each time the stream wraps around
	// it: 8 % moves the split cache's peak-scale bucket (1 % steps), so a
	// wrapped request is still a miss.
	lapScale = 1.08
)

// topo builds one of the fixed benchmark topologies. Topology, edge-node
// set and tunnels never depend on the seed, so problem sizes are facts.
type topo func() *topology.Graph

func kdl() *topology.Graph {
	g := topology.KDLScale(kdlSeed)
	for i := 0; i < kdlEdgeNodes; i++ {
		g.EdgeNodes = append(g.EdgeNodes, i*g.NumNodes/kdlEdgeNodes)
	}
	return g
}

// workload is one request stream against one set of problems.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why   string
	topos []topo
	// churn gives every request its own never-seen capacity variant of
	// the topology; replay repeats a small fixed set of (topology, TM)
	// pairs so every timed request is a split-cache hit.
	churn, replay bool
	// limitMS is the latency a request must beat to count in
	// within_limit_share: above the slow mode seen on the reference
	// machine, below what a controller would call a stall.
	limitMS float64
	// baselineRPS sizes the demand pool (twice the requests the baseline
	// completes) so the stream does not wrap; wrapping is still handled.
	baselineRPS float64
	// wantTier is the tier every answer must come from.
	wantTier resilience.Tier
	// qualityN requests are re-solved against lp.Solve; tracedN is the
	// length of the traced run; setupPasses is how often set-up is
	// repeated, setup_s being the fastest pass.
	qualityN, tracedN, setupPasses int
}

var workloads = []*workload{
	{
		name:  "abilene_steady",
		why:   "Abilene, 132 flows, 2774 tokens, one topology, every TM distinct (0 cache hits): the forward pass is the request and its topology-only half repeats, so plan caches, engine and kernel changes show here",
		topos: []topo{topology.Abilene}, limitMS: 30, baselineRPS: 260, wantTier: resilience.TierFull,
		qualityN: 16, tracedN: 2000, setupPasses: 41,
	},
	{
		name:  "geant_churn",
		why:   "GEANT, 462 flows, 9140 tokens, every request a never-seen capacity variant and TM: nothing is shared, so anything keyed by topology must show no change and its per-topology bookkeeping shows as cost",
		topos: []topo{topology.Geant}, churn: true, limitMS: 120, baselineRPS: 60, wantTier: resilience.TierFull,
		qualityN: 8, tracedN: 500, setupPasses: 15,
	},
	{
		name:  "kdl_large",
		why:   "KDL-scale 754 nodes, 2256 flows, 93670 tokens, one topology, distinct TMs: 0.3 s of sparse kernels and per-flow work per request; the only workload with large set-up and memory",
		topos: []topo{kdl}, limitMS: 1000, baselineRPS: 8, wantTier: resilience.TierFull,
		qualityN: 4, tracedN: 60, setupPasses: 3,
	},
	{
		name:  "hot_cache",
		why:   "32 TMs x {Abilene, GEANT} replayed, every timed request a split-cache hit: the model does nothing, so validation, hashing, dispatch and vetting are the whole 30 us and any per-request overhead shows",
		topos: []topo{topology.Abilene, topology.Geant}, replay: true, limitMS: 0.25, baselineRPS: 100000, wantTier: resilience.TierCached,
		qualityN: 16, tracedN: 20000, setupPasses: 15,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// problemSize is what a ledger row must state about its problem.
type problemSize struct {
	Topology string `json:"topology"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	Flows    int    `json:"flows"`
	Tunnels  int    `json:"tunnels"`
	// Tokens is the SETTRANS sequence total: every tunnel's edges plus
	// one CLS token per tunnel.
	Tokens int `json:"tokens"`
}

func sizeOf(p *te.Problem) problemSize {
	tokens := 0
	for _, paths := range p.Tunnels.PerFlow {
		for _, t := range paths {
			tokens += len(t.Edges) + 1
		}
	}
	return problemSize{
		Topology: p.Graph.Name, Nodes: p.Graph.NumNodes, Edges: p.Graph.NumEdges(),
		Flows: p.NumFlows(), Tunnels: p.Tunnels.NumTunnels(), Tokens: tokens,
	}
}

// demandPool returns n distinct F×1 demand vectors for g: gravity model,
// diurnal cycle, per-cell lognormal noise σ 0.3, capped to the access
// links. The n×n matrices are generated a few at a time and dropped at
// once — a KDL matrix is 4.5 MB, a KDL demand vector 18 KB.
func demandPool(g *topology.Graph, flows []tunnels.Flow, n int, seed int64) []*tensor.Dense {
	var capacity float64
	for _, e := range g.Edges {
		capacity += e.Capacity
	}
	cfg := traffic.SeriesConfig{
		// Enough volume that the access cap binds at the busiest nodes.
		Total:            0.25 * capacity,
		DiurnalPeriod:    48,
		DiurnalAmplitude: 0.3,
		NoiseSigma:       0.3,
	}
	const chunk = 8
	out := make([]*tensor.Dense, 0, n)
	for len(out) < n {
		k := n - len(out)
		if k > chunk {
			k = chunk
		}
		for _, tm := range traffic.Series(g, k, cfg, seed+int64(len(out))) {
			out = append(out, traffic.DemandVector(traffic.CapToAccess(tm, g, accessShare), flows))
		}
	}
	return out
}

// stream is a workload's request sequence: request i is a pure function
// of (seed, i), so any phase can be replayed.
type stream struct {
	w     *workload
	probs []*te.Problem
	// demands is the pool. On replay, demands[j] belongs to
	// probs[j%len(probs)]; otherwise every demand is for probs[0].
	demands []*tensor.Dense
	// variants holds one capacity variant of probs[0].Graph per pool
	// slot (churn only). The problem around it is built per request.
	variants []*topology.Graph
	// pos is the next stream position to send; extra counts the unseen
	// requests handed out on replay, which live beyond the pool.
	pos, extra atomic.Int64
}

func newStream(w *workload, probs []*te.Problem, seed int64, poolSize int) *stream {
	s := &stream{w: w, probs: probs}
	switch {
	case w.replay:
		pools := make([][]*tensor.Dense, len(probs))
		for j, p := range probs {
			pools[j] = demandPool(p.Graph, p.Tunnels.Flows, hotTMs, seed+int64(j)*1_000_003)
		}
		for i := 0; i < hotTMs; i++ {
			for j := range probs {
				s.demands = append(s.demands, pools[j][i])
			}
		}
	default:
		p := probs[0]
		s.demands = demandPool(p.Graph, p.Tunnels.Flows, poolSize, seed)
		if w.churn {
			s.variants = p.Graph.RandomPartialFailures(poolSize, rand.New(rand.NewSource(seed)))
		}
	}
	return s
}

// request returns position i of the workload's stream: on replay the pool
// round-robin, otherwise the unbounded sequence of at.
func (s *stream) request(i int) (*te.Problem, *tensor.Dense) {
	if s.w.replay {
		i %= len(s.demands)
	}
	return s.at(i)
}

// unseen returns a request the system has not served before: the next
// stream position, or on replay one from beyond the pool.
func (s *stream) unseen() (*te.Problem, *tensor.Dense) {
	if s.w.replay {
		return s.at(len(s.demands) + int(s.extra.Add(1)))
	}
	return s.at(int(s.pos.Add(1) - 1))
}

// at returns position i of the unbounded sequence over the pool; every lap
// around the pool rescales the demands, so no position repeats another's
// cache key. On churn the problem is built here, by the caller of the
// system: a controller that sees a new topology has to describe it, so
// that cost sits in the client's think time (it lowers throughput_rps)
// and outside the latency of the Serve call. Nothing has called
// Fingerprint on the returned problem.
func (s *stream) at(i int) (*te.Problem, *tensor.Dense) {
	slot, lap := i%len(s.demands), i/len(s.demands)
	d := s.demands[slot]
	if lap > 0 {
		d = d.Clone()
		scale := math.Pow(lapScale, float64(lap))
		for k := range d.Data {
			d.Data[k] *= scale
		}
	}
	switch {
	case s.w.replay:
		return s.probs[slot%len(s.probs)], d
	case s.w.churn:
		return te.NewProblem(s.variants[slot], s.probs[0].Tunnels), d
	}
	return s.probs[0], d
}

// shapeProblem returns a problem with the shape (flows × tunnels per
// flow) of request i's answer, for vetting it after the clock stops.
// Capacity variants share the base problem's tunnel set.
func (s *stream) shapeProblem(i int) *te.Problem {
	if s.w.replay {
		return s.probs[(i%len(s.demands))%len(s.probs)]
	}
	return s.probs[0]
}
