package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

// fuzzSeedCheckpoint returns the bytes of a small valid checkpoint so the
// fuzzer starts from a structurally interesting input.
func fuzzSeedCheckpoint(f *testing.F) []byte {
	f.Helper()
	var buf bytes.Buffer
	ck := &Checkpoint{Cfg: tinyConfig(), Epoch: 2, Seed: 9, BestValMLU: 1.25}
	if err := WriteCheckpoint(&buf, ck); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadCheckpoint: ReadCheckpoint must never panic or allocate
// unboundedly on arbitrary bytes — it either returns a checkpoint or an
// error. Historical find (seeded under testdata/fuzz/FuzzReadCheckpoint): a
// flipped header length field drove a multi-GiB allocation before any
// integrity check ran.
func FuzzReadCheckpoint(f *testing.F) {
	valid := fuzzSeedCheckpoint(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("HARPCKPT"))
	// The allocation-bomb regression: valid magic+version, absurd length.
	bomb := append([]byte(nil), valid...)
	for i := 12; i < 20; i++ {
		bomb[i] = 0xff
	}
	f.Add(bomb)
	// Truncated payload.
	f.Add(valid[:len(valid)-7])
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := ReadCheckpoint(bytes.NewReader(data))
		if err == nil && ck == nil {
			t.Fatal("nil checkpoint with nil error")
		}
	})
}

// FuzzModelLoad: Load must never panic on arbitrary bytes. The legacy v0
// path (raw gob, no CRC) is the dangerous one — a crafted Config used to
// reach New() and panic or allocate unboundedly before Validate was added
// (seeded under testdata/fuzz/FuzzModelLoad).
func FuzzModelLoad(f *testing.F) {
	var buf bytes.Buffer
	if err := New(tinyConfig()).Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("HARPMODL"))
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err == nil {
			if m == nil {
				t.Fatal("nil model with nil error")
			}
			// Anything Load accepts must have survived Config validation.
			if verr := m.Cfg.Validate(); verr != nil {
				t.Fatalf("Load accepted invalid config: %v", verr)
			}
		}
	})
}

// fuzzBytes reads a fuzz input one byte at a time, as zeros once it runs
// out, so that every input decodes to some case.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// capacity decodes one link capacity: 0, two subnormals (the smallest and
// 1e-310), topology.FailedCapacity, or 1…32.
func (b *fuzzBytes) capacity() float64 {
	v := b.next()
	switch v % 8 {
	case 0:
		return 0
	case 1:
		return math.SmallestNonzeroFloat64
	case 2:
		return 1e-310
	case 3:
		return topology.FailedCapacity
	}
	return float64(1 + v/8)
}

// fuzzCase decodes a model, a problem on a graph of 3–12 nodes and a series
// of demands. Byte by byte: Heads (1–3) and the head width (1–6), FFDim,
// MLP1Hidden and RAUHidden (1–24 each: every 8/4/1 tile remainder), encoder
// layers (0–2) and the mean-pool ablation, RAU iterations (0–4), GNN depth
// (1–2) and width (1–8), the seed; the node count and each ring link's
// capacity, then a count of chords and each one's ends and capacity; K (1–3)
// and the flow count (1–4), and per flow its first node and per tunnel a
// length (1–12, or 52–80 links, longer than a build block) and the out link
// taken at each step — a walk, so a tunnel may list a link twice; then the
// demand count (2–4), which call stops after how many iterations (as many as
// the model runs: none), and each flow's demand: 0, −0, 1e300 or a quarter
// of the byte.
func fuzzCase(data []byte) (cfg Config, p *te.Problem, demands []*tensor.Dense, stopCall, stopAt int) {
	b := fuzzBytes(data)
	heads := 1 + b.next()%3
	cfg = DefaultConfig()
	cfg.Heads, cfg.EmbedDim = heads, heads*(1+b.next()%6)
	cfg.FFDim, cfg.MLP1Hidden, cfg.RAUHidden = 1+b.next()%24, 1+b.next()%24, 1+b.next()%24
	enc := b.next()
	cfg.SetTransLayers, cfg.MeanPoolTunnels = enc%3, enc/3%2 == 1
	cfg.RAUIterations = b.next() % 5
	gnn := b.next()
	cfg.GNNLayers, cfg.GNNHidden = 1+gnn%2, 1+gnn/2%8
	cfg.Seed = int64(b.next())

	n := 3 + b.next()%10
	g := topology.New("fuzz", n)
	for i := 0; i < n; i++ {
		g.AddBidirectional(i, (i+1)%n, b.capacity())
	}
	for c := b.next() % n; c > 0; c-- {
		u, v, capacity := b.next()%n, b.next()%n, b.capacity()
		if _, dup := g.EdgeID(u, v); u != v && !dup {
			g.AddBidirectional(u, v, capacity)
		}
	}
	out := g.OutEdges()
	set := &tunnels.Set{K: 1 + b.next()%3}
	for f := 1 + b.next()%4; f > 0; f-- {
		src := b.next() % n
		flow := tunnels.Flow{Src: src, Dst: src}
		var tuns []tunnels.Tunnel
		for k := 0; k < set.K; k++ {
			v, steps := b.next(), 0
			if steps = 1 + v%12; v > 240 {
				steps = 50 + 2*(v-240)
			}
			var tun tunnels.Tunnel
			for u := src; len(tun.Edges) < steps; {
				e := out[u][b.next()%len(out[u])]
				tun.Edges = append(tun.Edges, e)
				u = g.Edges[e].Dst
			}
			tuns = append(tuns, tun)
		}
		flow.Dst = g.Edges[tuns[0].Edges[len(tuns[0].Edges)-1]].Dst
		set.Flows, set.PerFlow = append(set.Flows, flow), append(set.PerFlow, tuns)
	}
	g.EdgeNodes = []int{0}
	p = te.NewProblem(g, set)

	demands = make([]*tensor.Dense, 2+b.next()%3)
	stopCall, stopAt = b.next()%len(demands), b.next()%(cfg.RAUIterations+1)
	for i := range demands {
		d := tensor.New(len(set.Flows), 1)
		for j := range d.Data {
			switch v := b.next(); v % 8 {
			case 0:
			case 1:
				d.Data[j] = math.Copysign(0, -1)
			case 2:
				d.Data[j] = 1e300
			default:
				d.Data[j] = float64(v) / 4
			}
		}
		demands[i] = d
	}
	return cfg, p, demands, stopCall, stopAt
}

// FuzzSplitsMatchForward holds the inference engine to the tape forward on
// problems and models the fuzzer makes up (fuzzCase): every SplitsCtx call on
// one Context — the first builds the plan, the rest find it and fill the rows
// their bottlenecks newly pick — must equal Forward on a gradient tape bit
// for bit, and the one call the input stops after k iterations the tape
// forward at RAUIterations = k, or nothing at k = 0.
func FuzzSplitsMatchForward(f *testing.F) {
	// The layouts TestSplitsBatchBitIdentical runs: the default widths, no
	// RAU, the mean-pool ablation, widths with 4- and 1-wide remainders, two
	// encoder layers and none; each on a ring of 6 whose tunnels are a
	// single link, a walk that lists a link six times, and one of 70 links,
	// longer than a build block; and an all-zero demand between two real
	// ones, the second call stopped after 2 iterations. Then the default
	// model on the same tunnels over links of capacity 0, the two
	// subnormals and FailedCapacity.
	problem := func(caps ...byte) []byte {
		b := append([]byte{6 - 3}, caps...)
		b = append(b, 0, 1, 2) // no chords; K 2, 3 flows
		b = append(b, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
		b = append(b, 3, 8, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 0, 1, 0)
		b = append(b, 5, 250)
		for i := 0; i < 70; i++ {
			b = append(b, byte(i%3))
		}
		b = append(b, 0, 1)
		return append(b, 1, 1, 2, 44, 52, 60, 0, 0, 0, 60, 68, 76)
	}
	ring, failed := problem(44, 36, 28, 20, 12, 4), problem(0, 1, 2, 3, 4, 12)
	_, p, demands, stopCall, stopAt := fuzzCase(append([]byte{1, 5, 23, 15, 23, 1, 4, 15, 1}, ring...))
	if ctx := buildContext(p); !slices.Contains(p.Incidence().Val, 2) || ctx.maxSeg <= planBlockTokens || ctx.segs[0].Len() != 2 ||
		len(demands) != 3 || slices.ContainsFunc(demands[1].Data, func(v float64) bool { return v != 0 }) || stopCall != 1 || stopAt != 2 {
		f.Fatalf("the seed layout lost a case: %d tokens in the longest tunnel, first tunnel %d tokens, %d demands, stop call %d after %d", ctx.maxSeg, ctx.segs[0].Len(), len(demands), stopCall, stopAt)
	}
	for _, c := range []struct{ cfg, problem []byte }{
		{[]byte{1, 5, 23, 15, 23, 1, 4, 15, 1}, ring},
		{[]byte{1, 5, 23, 15, 23, 1, 0, 15, 1}, ring},
		{[]byte{1, 5, 23, 15, 23, 3, 4, 15, 1}, ring},
		{[]byte{1, 2, 23, 6, 12, 1, 4, 15, 1}, ring},
		{[]byte{1, 5, 23, 15, 23, 2, 4, 15, 1}, ring},
		{[]byte{1, 5, 23, 15, 23, 0, 4, 15, 1}, ring},
		{[]byte{1, 5, 23, 15, 23, 1, 4, 15, 1}, failed},
	} {
		f.Add(append(append([]byte{}, c.cfg...), c.problem...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, p, demands, stopCall, stopAt := fuzzCase(data)
		m := New(cfg)
		ctx := m.Context(p)
		for i, d := range demands {
			var c context.Context = context.Background()
			ref := m
			if i == stopCall && stopAt < cfg.RAUIterations {
				c = &stopAfter{Context: c, left: stopAt}
				ref = m.shadow()
				ref.Cfg.RAUIterations = stopAt
			}
			want := tapeSplits(ref, ctx, d)
			got, iterations := m.SplitsCtx(c, ctx, d)
			what := fmt.Sprintf("demand %d of %d, %d iterations", i, len(demands), iterations)
			if iterations != ref.Cfg.RAUIterations {
				t.Fatalf("%s: want %d", what, ref.Cfg.RAUIterations)
			}
			if iterations == 0 && cfg.RAUIterations > 0 {
				if got != nil {
					t.Fatalf("%s: engine returned MLP1's guess as an answer", what)
				}
				continue
			}
			// Bit for bit, but a NaN equals any NaN: the tape and the engine
			// can reach one by different valid steps (a negated NaN, which
			// NaN of two an operation keeps), as TestRAURowBitIdentical allows.
			for j, w := range want.Data {
				if g := got.Data[j]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("%s entry %d: engine %v != tape %v", what, j, g, w)
				}
			}
		}
	})
}
