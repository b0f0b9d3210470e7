package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"time"

	"harpte/internal/core"
	"harpte/internal/fleet"
	"harpte/internal/resilience"
	"harpte/internal/te"
	"harpte/internal/tunnels"
)

// weights is the one model every workload serves: core.DefaultConfig()
// trained on Abilene by `-train-weights` (train.go). Serving GEANT and
// KDL from Abilene weights is the paper's transfer claim.
//
//go:embed testdata/harp_abilene.model
var weights []byte

// weightsSHA256 pins the committed weights: results from different
// weights are not comparable, so the harness refuses to run on a mismatch.
const weightsSHA256 = "b294bcc6187803280d18ee3134e8ba392cf8b9ad27410df8e80888d13a21dc4e"

const (
	// coldSeed generates set-up's first request, far from any stream seed
	// so the stream never repeats it (that would be a cache hit).
	coldSeed = -1 << 40
	replicas = 2
	// clients is the closed-loop concurrency: TE controllers that each
	// send a TM and wait for the splits. Sized for nproc = 2.
	clients = 2
)

func checkWeights() error {
	sum := sha256.Sum256(weights)
	if got := hex.EncodeToString(sum[:]); got != weightsSHA256 {
		return fmt.Errorf("testdata/harp_abilene.model has SHA-256 %s, want %s (retrain with -train-weights and update weightsSHA256)", got, weightsSHA256)
	}
	return nil
}

// setupTimes is where one set-up pass spent its time, in seconds,
// indexed by the constants below.
type setupTimes [5]float64

const (
	tTopology = iota
	tTunnels
	tNewProblem
	tLoad
	tTotal
)

// sut is the system under test: one model behind two in-process replicas
// behind one fleet, everything not named here zero-valued (no hedging, no
// admission gate, no batching, no OOD guard, no breakers).
type sut struct {
	probs   []*te.Problem
	model   *core.Model
	servers []*resilience.Server
	fleet   *fleet.Fleet
	times   setupTimes
}

// buildSUT is one set-up pass, from nothing to a system that has served
// its first (cold) request on every topology of the workload. start is
// when the pass began: process start for the first one.
func buildSUT(w *workload, start time.Time) (*sut, error) {
	s := &sut{}
	for _, build := range w.topos {
		t0 := time.Now()
		g := build()
		t1 := time.Now()
		set := tunnels.Compute(g, tunnelsPerFlow)
		t2 := time.Now()
		s.probs = append(s.probs, te.NewProblem(g, set))
		t3 := time.Now()
		s.times[tTopology] += t1.Sub(t0).Seconds()
		s.times[tTunnels] += t2.Sub(t1).Seconds()
		s.times[tNewProblem] += t3.Sub(t2).Seconds()
	}
	t0 := time.Now()
	m, err := core.Load(bytes.NewReader(weights))
	if err != nil {
		return nil, fmt.Errorf("load weights: %w", err)
	}
	s.times[tLoad] = time.Since(t0).Seconds()
	s.model = m
	backends := make([]fleet.Replica, replicas)
	for i := range backends {
		srv := resilience.NewServer(m, resilience.Options{CacheEntries: 256, Deadline: 5 * time.Second})
		s.servers = append(s.servers, srv)
		backends[i] = fleet.Local{S: srv}
	}
	s.fleet = fleet.New(backends, fleet.Options{ShardByTopology: true, Deadline: 10 * time.Second})
	for _, p := range s.probs {
		d := demandPool(p.Graph, p.Tunnels.Flows, 1, coldSeed)[0]
		if dec := s.fleet.Serve(p, d); dec.Err != nil {
			s.fleet.Close()
			return nil, fmt.Errorf("cold request on %s: %w", p.Graph.Name, dec.Err)
		}
	}
	s.times[tTotal] = time.Since(start).Seconds()
	return s, nil
}

// setUp runs `passes` set-up passes and returns the last system with the
// times of the fastest pass. Later PRs are held to setup_s, and one pass of
// a 12 ms set-up is a noisy sample: whether a collection emptied the
// model's tape pool just before the cold request, and what the host's
// other tenants were doing, only ever add time, and move the median pass
// by 40 % from one process to the next where the fastest moves by 7 %.
func setUp(w *workload, passes int, processStart time.Time) (*sut, error) {
	var s *sut
	var best setupTimes
	for i := 0; i < passes; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if s != nil {
			s.fleet.Close()
		}
		var err error
		if s, err = buildSUT(w, start); err != nil {
			return nil, err
		}
		if i == 0 || s.times[tTotal] < best[tTotal] {
			best = s.times
		}
	}
	s.times = best
	return s, nil
}
