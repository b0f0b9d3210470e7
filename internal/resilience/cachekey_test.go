package resilience

// The TM hash behind the split-cache key: a one-bucket move of any flow on
// a served-shaped TM changes the key, random quantized TMs do not collide,
// and the ledger's cost of one key.

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"harpte/internal/te"
	"harpte/internal/tensor"
	"harpte/internal/topology"
	"harpte/internal/traffic"
	"harpte/internal/tunnels"
)

// benchShaped builds what bench/workloads.go serves on g — every ordered
// pair of its edge nodes, 4 tunnels per flow — and n of its demand vectors:
// gravity TMs with a diurnal cycle and lognormal noise, capped at 35 % of
// every node's access capacity.
func benchShaped(g *topology.Graph, n int, seed int64) (*te.Problem, []*tensor.Dense) {
	p := te.NewProblem(g, tunnels.Compute(g, 4))
	var capacity float64
	for _, e := range g.Edges {
		capacity += e.Capacity
	}
	cfg := traffic.SeriesConfig{Total: 0.25 * capacity, DiurnalPeriod: 48, DiurnalAmplitude: 0.3, NoiseSigma: 0.3}
	var ds []*tensor.Dense
	for _, tm := range traffic.Series(g, n, cfg, seed) {
		ds = append(ds, traffic.DemandVector(traffic.CapToAccess(tm, g, 0.35), p.Tunnels.Flows))
	}
	return p, ds
}

// kdlGraph is the benchmark's kdl_large topology: KDLScale(301) with 48
// evenly spaced edge nodes, 2,256 flows.
func kdlGraph() *topology.Graph {
	g := topology.KDLScale(301)
	for i := 0; i < 48; i++ {
		g.EdgeNodes = append(g.EdgeNodes, i*g.NumNodes/48)
	}
	return g
}

// TestTMHashSeparatesBuckets: on Abilene and GEANT TMs shaped like the
// benchmark's, moving any one flow up or down by one bucket (quantum·peak)
// gives a new key; and 10⁵ random quantized 462-flow TMs — a random walk
// that moves one to three flows by one bucket per step, so neighbours
// differ in a few buckets — never share a key unless they are the same TM.
func TestTMHashSeparatesBuckets(t *testing.T) {
	q := DefaultCacheQuantum
	for _, g := range []*topology.Graph{topology.Abilene(), topology.Geant()} {
		p, ds := benchShaped(g, 4, 7)
		for _, d := range ds {
			_, base := CacheKey(p, d, q)
			var dmax float64
			for _, v := range d.Data {
				dmax = max(dmax, v)
			}
			step := q * dmax
			moved := 0
			for i, v := range d.Data {
				for _, delta := range []float64{step, -step} {
					// The peak flow's move would rescale every bucket,
					// and a demand is never negative.
					if w := v + delta; w < 0 || w >= dmax {
						continue
					}
					d.Data[i] = v + delta
					if _, k := CacheKey(p, d, q); k == base {
						t.Fatalf("%s: flow %d moved by %+g (one bucket) keeps the key", g.Name, i, delta)
					}
					moved++
				}
				d.Data[i] = v
			}
			if moved < p.NumFlows() {
				t.Fatalf("%s: only %d one-bucket moves tried over %d flows", g.Name, moved, p.NumFlows())
			}
		}
	}

	const flows, tms, peak = 462, 100_000, 100
	rng := rand.New(rand.NewSource(1))
	buckets := make([]byte, flows)
	for i := range buckets {
		buckets[i] = byte(rng.Intn(peak))
	}
	buckets[0] = peak // the peak flow pins the bucket width
	d := tensor.New(flows, 1)
	seen := make(map[uint64]uint64, tms) // TM key → an independent hash of its buckets
	for n := 0; n < tms; n++ {
		for m := 1 + rng.Intn(3); m > 0; m-- {
			i := 1 + rng.Intn(flows-1)
			if b := int(buckets[i]) + 2*rng.Intn(2) - 1; b >= 0 && b < peak {
				buckets[i] = byte(b)
			}
		}
		for i, b := range buckets {
			d.Data[i] = float64(b) / peak
		}
		fh := fnv.New64a()
		fh.Write(buckets)
		id := fh.Sum64()
		key := tmHash(d.Data, 1, q) // buckets[0] pins the peak at 1
		if prev, ok := seen[key]; ok && prev != id {
			t.Fatalf("TM %d collides with an earlier, different TM: key %x", n, key)
		}
		seen[key] = id
	}
	if len(seen) < tms/2 {
		t.Fatalf("only %d distinct keys over %d TMs", len(seen), tms)
	}
}

// TestTMHashLaneTails: over demand lengths 1–33, which cover every tail
// of the packed words at every bucket width, and at one quantum of every
// width FuzzCacheKey's quanta produce (0.001 → 10 bits down to 0.5 → 2
// bits), moving any one bucket to any other value a valid demand reaches
// changes the key, and demands whose entries quantize to the same buckets
// share it.
func TestTMHashLaneTails(t *testing.T) {
	quanta := map[uint]float64{} // width → the finest FuzzCacheKey quantum of it
	for k := 500; k >= 1; k-- {
		q := float64(k) / 1000
		quanta[bucketBits(q)] = q
	}
	if len(quanta) != 9 || bucketBits(0.001) != 10 || bucketBits(0.5) != 2 {
		t.Fatalf("bucket widths %v, want 2–10 bits, 10 at 0.001 and 2 at 0.5", quanta)
	}
	rng := rand.New(rand.NewSource(3))
	for width := uint(2); width <= 10; width++ {
		q := quanta[width]
		top := int(1/q) + 1 // the largest bucket a valid demand reaches
		for n := 1; n <= 33; n++ {
			buckets := make([]int, n)
			for i := range buckets {
				buckets[i] = rng.Intn(top + 1)
			}
			// Entries in bucket units of a peak-1 demand: b·quantum,
			// give or take less than half a bucket.
			at := func(jitter float64) []float64 {
				d := make([]float64, n)
				for i, b := range buckets {
					d[i] = max(0, (float64(b)+jitter*(rng.Float64()-0.5))*q)
				}
				return d
			}
			base := tmHash(at(0), 1, q)
			if k := tmHash(at(0.8), 1, q); k != base {
				t.Fatalf("%d bits, length %d: buckets %v keyed %x, and %x with sub-bucket jitter", width, n, buckets, base, k)
			}
			for i := range buckets {
				was := buckets[i]
				for b := 0; b <= top; b++ {
					if b == was {
						continue
					}
					buckets[i] = b
					if tmHash(at(0), 1, q) == base {
						t.Fatalf("%d bits, length %d: bucket %d moved %d → %d keeps the key", width, n, i, was, b)
					}
				}
				buckets[i] = was
			}
		}
	}
}

// TestBucketIsRound: bucket is math.RoundToEven's index for 0 <= x < 2⁵²,
// the domain a valid demand scaled by its peak reaches — at and either
// side of every half-way point, the largest value below ½, 0 and -0, and
// up to 2⁵², where the spacing reaches ½ and a tie rounds up into the
// exponent's carry.
func TestBucketIsRound(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), math.Nextafter(0.5, 0), 0x1p52 - 0.5, 0x1p52 - 1, 0x1p52 - 1.5, 0x1p51 + 0.5, 0x1p51 + 1.5}
	for k := 0.0; k <= 1000; k++ {
		for _, x := range []float64{k, k + 0.5} {
			xs = append(xs, x, math.Nextafter(x, -1), math.Nextafter(x, math.Inf(1)))
		}
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100_000; i++ {
		xs = append(xs, rng.ExpFloat64()*float64(int(1)<<rng.Intn(52)))
	}
	for _, x := range xs {
		if x < 0 || x >= 0x1p52 {
			continue
		}
		if got, want := bucket(x), uint64(math.RoundToEven(x)); got != want {
			t.Fatalf("bucket(%v) = %d, want %d", x, got, want)
		}
	}
}

// keySink keeps the benchmarked hash live.
var keySink uint64

// BenchmarkCacheKey is one request's split-cache key on the benchmark's
// problems: the topology fingerprint (computed once per Problem, so a
// read) and the quantized TM hash, two passes over the demand (its peak,
// then the buckets, packed 9 to a hashed word).
func BenchmarkCacheKey(b *testing.B) {
	for _, c := range []struct {
		name string
		g    func() *topology.Graph
	}{{"Abilene", topology.Abilene}, {"Geant", topology.Geant}, {"KDL", kdlGraph}} {
		b.Run(c.name, func(b *testing.B) {
			p, ds := benchShaped(c.g(), 1, 1)
			CacheKey(p, ds[0], DefaultCacheQuantum)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, keySink = CacheKey(p, ds[0], DefaultCacheQuantum)
			}
			b.ReportMetric(float64(p.NumFlows()), "flows")
		})
	}
}
