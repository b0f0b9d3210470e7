package resilience

// FuzzCacheKey drives the split-cache key (topology fingerprint + quantized
// TM hash) through randomized topologies, demands, and quantization steps,
// checking the invariants correct caching rests on: equal inputs always
// produce equal keys, and structurally distinct topologies (or uniformly
// rescaled demands) never share one. A violation of the second kind would
// silently serve one topology's splits to another.

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"harpte/internal/core"
	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/tunnels"
)

// fuzzDemand decodes data into a non-negative, finite demand vector with
// entries in [0, 1e6]; positive values are floored at 1e-9 so quantization
// steps never underflow.
func fuzzDemand(data []byte, n int) *tensor.Dense {
	d := tensor.New(n, 1)
	if len(data) == 0 {
		data = []byte{1}
	}
	var buf [8]byte
	for i := 0; i < n; i++ {
		for j := 0; j < 8; j++ {
			buf[j] = data[(i*8+j)%len(data)]
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = float64(buf[0])
		}
		v = math.Abs(v)
		if v > 1e6 {
			v = 1e6
		}
		if v > 0 && v < 1e-9 {
			v = 0
		}
		d.Data[i] = v
	}
	return d
}

// fuzzProblem builds a ring-plus-chord topology with data-derived
// capacities — enough structural variety to exercise the fingerprint
// without rejection-sampling unroutable graphs.
func fuzzProblem(nodes uint8, data []byte, capScale float64) *te.Problem {
	n := 3 + int(nodes)%6
	g := topology.New("fuzz", n)
	if len(data) == 0 {
		data = []byte{1}
	}
	for i := 0; i < n; i++ {
		cap := capScale * float64(1+int(data[i%len(data)]))
		g.AddBidirectional(i, (i+1)%n, cap)
	}
	if n >= 4 { // for n=3 the chord would duplicate a ring edge
		g.AddBidirectional(0, n/2, capScale*7)
	}
	g.EdgeNodes = []int{0, 1}
	return te.NewProblem(g, tunnels.Compute(g, 2))
}

func FuzzCacheKey(f *testing.F) {
	f.Add(uint8(4), uint8(10), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(0), uint8(0), []byte{0})
	f.Add(uint8(7), uint8(255), []byte("\x00\x00\x00\x00\x00\x00\xf0\x7f")) // NaN bits
	// float32 round-trip seeds: 0.1 (not float32-representable, so the
	// first narrowing perturbs it) and float64(MaxFloat32) (the largest
	// float32 value).
	f.Add(uint8(5), uint8(9), []byte{0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0x3f})
	f.Add(uint8(5), uint8(9), []byte{0x00, 0x00, 0x00, 0xe0, 0xff, 0xff, 0xef, 0x47})
	// Near-boundary quantization seeds: 1.005 and 0.995 sit half a
	// DefaultCacheQuantum step either side of 1.0, and 100.5 lands exactly
	// on a bucket edge at quantum 0.01 with peak 100 — the values an
	// adversary probing the rounding would choose.
	f.Add(uint8(4), uint8(9), []byte{0x14, 0xae, 0x47, 0xe1, 0x7a, 0x14, 0xf0, 0x3f})
	f.Add(uint8(4), uint8(9), []byte{0xd7, 0xa3, 0x70, 0x3d, 0x0a, 0xd7, 0xef, 0x3f})
	f.Add(uint8(4), uint8(9), []byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x59, 0x40})
	f.Fuzz(func(t *testing.T, nodes, qRaw uint8, data []byte) {
		quantum := float64(1+int(qRaw)%500) / 1000 // 0.001 .. 0.5
		p := fuzzProblem(nodes, data, 1)
		d := fuzzDemand(data, p.NumFlows())

		// Determinism: the same logical input, hashed twice and rebuilt
		// from scratch, must produce the same key.
		t1, m1 := CacheKey(p, d, quantum)
		t2, m2 := CacheKey(p, d, quantum)
		if t1 != t2 || m1 != m2 {
			t.Fatalf("repeated CacheKey differs: (%x,%x) vs (%x,%x)", t1, m1, t2, m2)
		}
		rebuilt := fuzzProblem(nodes, data, 1)
		t3, m3 := CacheKey(rebuilt, d.Clone(), quantum)
		if t1 != t3 || m1 != m3 {
			t.Fatalf("rebuilt input keys differently: (%x,%x) vs (%x,%x)", t1, m1, t3, m3)
		}

		// Distinct topologies must not collide: scaling every capacity and
		// growing the node count each change the structure.
		if tc, _ := CacheKey(fuzzProblem(nodes, data, 2), d, quantum); tc == t1 {
			t.Fatalf("capacity-scaled topology collides: %x", tc)
		}
		if tc, _ := CacheKey(fuzzProblem(nodes+1, data, 1), d, quantum); tc == t1 {
			t.Fatalf("different-size topology collides: %x", tc)
		}

		// A uniformly rescaled demand changes the TM hash (the peak-scale
		// bucket moves by log(4)/log(1+quantum) >= 3 steps), unless the
		// demand is all-zero, where scaling is a no-op.
		var dmax float64
		for _, v := range d.Data {
			if v > dmax {
				dmax = v
			}
		}
		if dmax > 0 {
			scaled := d.Clone()
			for i := range scaled.Data {
				scaled.Data[i] *= 4
			}
			if _, ms := CacheKey(p, scaled, quantum); ms == m1 {
				t.Fatalf("4x-scaled demand collides: %x", ms)
			}
		}

		// Float32 round-trip fixed point: the first narrowing may move a
		// value across a bucket edge (allowed — it is an epsilon-sized
		// perturbation), but narrowing an already-narrowed demand is the
		// identity, so a controller that stores demands in float32 must key
		// identically no matter how many times the demand re-enters.
		r1 := narrowed(d)
		r2 := narrowed(r1)
		t4, m4 := CacheKey(p, r1, quantum)
		t5, m5 := CacheKey(p, r2, quantum)
		if t4 != t5 || m4 != m5 {
			t.Fatalf("float32 round-trip keys differ: (%x,%x) vs (%x,%x)", t4, m4, t5, m5)
		}
		if t4 != t1 {
			t.Fatalf("demand narrowing changed the topology hash: %x vs %x", t4, t1)
		}
	})
}

// TestCacheKeyAdversarialNearBoundary pins the quantization contract an
// attacker probing the cache would try to break: perturbations well inside
// one quantum step must share a key (that sharing is the cache's whole
// point — see TestOODHostileNeverServedFromCache for why it is safe even
// against crafted traffic), while TMs more than one step apart must never
// collide, no matter how close to a rounding boundary the values land.
// A collision there would let a planted entry answer other requests.
func TestCacheKeyAdversarialNearBoundary(t *testing.T) {
	p := twoPathProblem()
	q := DefaultCacheQuantum
	step := q * 100 // peak pinned at 100 in every probe below

	_, base := CacheKey(p, demand(p, 100, 50), q)

	// Sub-quantum probing around the bucket centre must not split the key.
	for _, off := range []float64{-0.49, -0.25, 0.25, 0.49} {
		if _, m := CacheKey(p, demand(p, 100, 50+off*step), q); m != base {
			t.Fatalf("sub-quantum offset %+.2f steps split the key", off)
		}
	}
	// Offsets beyond 1.5 steps round to a different bucket whatever side
	// of a boundary they land on, so they must always split the key.
	for _, off := range []float64{1.51, 2, 2.49, 10, 1000} {
		for _, sign := range []float64{1, -1} {
			if _, m := CacheKey(p, demand(p, 100, 50+sign*off*step), q); m == base {
				t.Fatalf("offset %+.2f steps collides with the base key", sign*off)
			}
		}
	}

	// Uniformly rescaling the TM by two quantum steps leaves every
	// relative bucket index unchanged; only the peak-scale bucket keeps
	// the keys apart. An attacker replaying a scaled-down flood must not
	// hit the benign entry.
	s := math.Pow(1+q, 2)
	if _, m := CacheKey(p, demand(p, 100*s, 50*s), q); m == base {
		t.Fatal("two-step rescaled demand collides with the base key")
	}
	if _, m := CacheKey(p, demand(p, 100/s, 50/s), q); m == base {
		t.Fatal("two-step downscaled demand collides with the base key")
	}

	// An exact-boundary value (bucket edge k+0.5) keys deterministically:
	// whichever bucket Round picks, repeated hashing picks the same one.
	edge := demand(p, 100, 50.5)
	_, e1 := CacheKey(p, edge, q)
	_, e2 := CacheKey(p, edge.Clone(), q)
	if e1 != e2 {
		t.Fatalf("boundary value keys nondeterministically: %x vs %x", e1, e2)
	}
}

// fuzzBytes reads a fuzz input one byte at a time, cycling; an empty input
// reads as ones.
type fuzzBytes struct {
	data []byte
	i    int
}

func (b *fuzzBytes) next() byte {
	if len(b.data) == 0 {
		return 1
	}
	v := b.data[b.i%len(b.data)]
	b.i++
	return v
}

// fuzzValue maps a byte to a capacity or demand: mostly the byte itself,
// with 0 and the top three values standing for the malformed ones.
func fuzzValue(v byte) float64 {
	switch v {
	case 253:
		return -1
	case 254:
		return math.Inf(1)
	case 255:
		return math.NaN()
	}
	return float64(v)
}

// fuzzRequest builds a small literal problem and demand from data: a ring
// graph (mode byte 0 drops it, 1 drops the tunnel set) with data-chosen
// capacities, and a tunnel set whose K, flow count, per-flow tunnel counts,
// tunnel lengths and edge ids (-1 and E included) all come from data.
func fuzzRequest(data []byte) (*te.Problem, *tensor.Dense) {
	b := &fuzzBytes{data: data}
	mode := b.next()
	n := 3 + int(b.next()%4)
	g := topology.New("fuzz", n)
	for i := 0; i < n; i++ {
		g.AddBidirectional(i, (i+1)%n, fuzzValue(b.next()))
	}
	numEdges := g.NumEdges()
	set := &tunnels.Set{K: int(b.next() % 4)}
	for f := int(b.next() % 4); f > 0; f-- {
		set.Flows = append(set.Flows, tunnels.Flow{Src: int(b.next()) % n, Dst: int(b.next()) % n})
		count := set.K
		if v := b.next(); v%16 == 0 {
			count = int(v/16) % 5
		}
		paths := make([]tunnels.Tunnel, count)
		for k := range paths {
			for l := int(b.next() % 4); l > 0; l-- {
				paths[k].Edges = append(paths[k].Edges, int(b.next())%(numEdges+2)-1)
			}
		}
		set.PerFlow = append(set.PerFlow, paths)
	}
	if v := b.next(); v%16 == 0 && len(set.PerFlow) > 0 {
		set.PerFlow = set.PerFlow[:len(set.PerFlow)-1]
	}
	d := tensor.New(len(set.Flows)+int(b.next()%8)/7, 1)
	for i := range d.Data {
		d.Data[i] = fuzzValue(b.next())
	}
	p := &te.Problem{Graph: g, Tunnels: set}
	switch mode {
	case 0:
		p.Graph = nil
	case 1:
		p.Tunnels = nil
	}
	return p, d
}

// FuzzValidateInput: Validate, Fingerprint and ValidateInput never panic
// on a malformed problem, and whatever ValidateInput accepts a Server
// serves — no recovered panic, a routable answer — under the same
// fingerprint once the problem is built with te.NewProblem.
func FuzzValidateInput(f *testing.F) {
	// Two well-formed requests (one flow at K=2, two at K=3); the malformed
	// shapes are the committed corpus under testdata/fuzz.
	f.Add([]byte{2, 1, 10, 20, 30, 40, 2, 1, 0, 1, 1, 1, 1, 2, 3, 5, 1, 0, 7})
	f.Add([]byte{2, 2, 50, 60, 70, 80, 90, 3, 2, 0, 2, 1, 1, 1, 1, 2, 1, 3, 1, 4, 2, 1, 9, 2, 5, 6, 3, 7, 8, 9, 1, 0, 9, 9})
	srv := NewServer(core.New(tinyConfig()), Options{})
	f.Fuzz(func(t *testing.T, data []byte) {
		lit, d := fuzzRequest(data)
		verr := lit.Validate()
		fp := lit.Fingerprint()
		err := ValidateInput(lit, d)
		if verr != nil && err == nil {
			t.Fatalf("ValidateInput accepted a problem Validate refused: %v", verr)
		}
		if err != nil {
			if !errors.Is(err, ErrInvalidInput) {
				t.Fatalf("rejection %v does not wrap ErrInvalidInput", err)
			}
			return
		}
		p := te.NewProblem(lit.Graph, lit.Tunnels)
		if p.Fingerprint() != fp || p.Validate() != nil {
			t.Fatalf("the built problem fingerprints %x (literal %x), validates %v", p.Fingerprint(), fp, p.Validate())
		}
		dec := srv.Serve(p, d)
		for _, why := range dec.Degraded {
			if strings.Contains(why, "panic") {
				t.Fatalf("accepted request panicked: %v", dec.Degraded)
			}
		}
		if dec.Tier != TierFull && dec.Tier != TierECMP {
			t.Fatalf("accepted request answered by tier %v: %v", dec.Tier, dec.Err)
		}
		if _, err := VetSplits(p, dec.Splits); err != nil {
			t.Fatalf("accepted request served an answer that fails its own vet: %v", err)
		}
	})
}
