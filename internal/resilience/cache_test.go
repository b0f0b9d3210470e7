package resilience

// Split-ratio cache tests: hit/miss semantics through Serve, the zero-alloc
// hit path, LRU eviction order and the byte bound, the epsilon MLU bound
// for colliding demands, and the reload purge.

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"harpte/internal/core"
	"harpte/internal/tensor"
)

func cachedServer(t *testing.T, entries int) *Server {
	t.Helper()
	return NewServer(core.New(tinyConfig()), Options{CacheEntries: entries})
}

func TestSplitCacheHitServesCachedTier(t *testing.T) {
	p := twoPathProblem()
	srv := cachedServer(t, 8)
	d := demand(p, 4, 2)

	first := srv.Serve(p, d)
	if first.Tier != TierFull {
		t.Fatalf("cold request tier %v, want full", first.Tier)
	}
	second := srv.Serve(p, d)
	if second.Tier != TierCached {
		t.Fatalf("warm request tier %v, want cached", second.Tier)
	}
	assertValidSplits(t, p, second.Splits)
	for i := range first.Splits.Data {
		if first.Splits.Data[i] != second.Splits.Data[i] {
			t.Fatalf("cached split %d = %v, fresh %v", i, second.Splits.Data[i], first.Splits.Data[i])
		}
	}
	if counts := srv.TierCounts(); counts[TierCached] != 1 || counts[TierFull] != 1 {
		t.Fatalf("tier counts %v, want 1 full + 1 cached", counts)
	}
	st := srv.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Size != 1 {
		t.Fatalf("cache stats %+v, want 1 hit, 1 miss, 1 entry", st.Cache)
	}
}

// TestSplitCacheHitZeroAllocs pins the acceptance criterion: cache hits
// serve with zero allocations per request.
func TestSplitCacheHitZeroAllocs(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	p := twoPathProblem()
	srv := cachedServer(t, 8)
	d := demand(p, 4, 2)
	if dec := srv.Serve(p, d); dec.Tier != TierFull {
		t.Fatalf("warmup tier %v", dec.Tier)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if dec := srv.Serve(p, d); dec.Tier != TierCached {
			t.Fatalf("tier %v, want cached", dec.Tier)
		}
	}); avg != 0 {
		t.Fatalf("cache hit allocates %.1f/op, want 0", avg)
	}
}

// TestSplitCacheEpsilonBound: a demand that collides with a cached entry
// (perturbed by less than half a quantization step) must be served an
// answer whose MLU is within a small multiple of the quantum of what fresh
// inference would have achieved.
func TestSplitCacheEpsilonBound(t *testing.T) {
	const quantum = DefaultCacheQuantum
	p := twoPathProblem()
	m := core.New(tinyConfig())
	srv := NewServer(m, Options{CacheEntries: 8})

	base := demand(p, 4, 2)
	if dec := srv.Serve(p, base); dec.Tier != TierFull {
		t.Fatalf("cold tier %v", dec.Tier)
	}
	// Perturb the non-peak entry by 0.4 quantization steps. The peak must
	// stay put: it anchors both the scale bucket and the step size, so
	// moving it re-keys the whole matrix (by design — a demand whose scale
	// shifted deserves fresh inference).
	perturbed := demand(p, 4, 2+0.4*quantum*4)
	dec := srv.Serve(p, perturbed)
	if dec.Tier != TierCached {
		t.Fatalf("perturbed demand missed the cache (tier %v); quantization too fine", dec.Tier)
	}
	fresh := m.Splits(m.Context(p), perturbed)
	cachedMLU := p.MLU(dec.Splits, perturbed)
	freshMLU := p.MLU(fresh, perturbed)
	if freshMLU <= 0 {
		t.Fatalf("degenerate fresh MLU %v", freshMLU)
	}
	rel := (cachedMLU - freshMLU) / freshMLU
	if rel < 0 {
		rel = -rel
	}
	if rel > 10*quantum {
		t.Fatalf("cached answer MLU %v vs fresh %v: relative error %.4f exceeds %.4f",
			cachedMLU, freshMLU, rel, 10*quantum)
	}
	// A demand outside the collision radius must miss.
	far := demand(p, 4*1.1, 2)
	if dec := srv.Serve(p, far); dec.Tier != TierFull {
		t.Fatalf("distant demand tier %v, want full (miss)", dec.Tier)
	}
}

func TestSplitCacheLRUEviction(t *testing.T) {
	p := twoPathProblem()
	srv := cachedServer(t, 2)
	d1, d2, d3 := demand(p, 1, 1), demand(p, 2, 1), demand(p, 3, 1)

	for _, d := range []*tensor.Dense{d1, d2, d3} {
		if dec := srv.Serve(p, d); dec.Tier != TierFull {
			t.Fatalf("cold tier %v", dec.Tier)
		}
	}
	// d1 is the LRU victim of inserting d3.
	if dec := srv.Serve(p, d1); dec.Tier != TierFull {
		t.Fatalf("evicted demand tier %v, want full (miss)", dec.Tier)
	}
	if dec := srv.Serve(p, d3); dec.Tier != TierCached {
		t.Fatalf("recent demand tier %v, want cached", dec.Tier)
	}
	st := srv.Stats()
	if st.Cache.Evictions < 1 || st.Cache.Size != 2 {
		t.Fatalf("cache stats %+v, want >=1 eviction at capacity 2", st.Cache)
	}
}

// TestSplitCacheByteBound: the cache holds CacheEntries answers of up to
// 32 KiB and fewer of larger ones, and its byte tally stays exact through
// inserts, evictions, replacement in place and purge.
func TestSplitCacheByteBound(t *testing.T) {
	p := twoPathProblem()
	// Distinct peak-scale buckets, so every i is its own key.
	key := func(i int) cacheKey {
		topo, tm := CacheKey(p, demand(p, math.Pow(1.05, float64(i)), 1), DefaultCacheQuantum)
		return cacheKey{topo, tm}
	}
	check := func(c *SplitCache, size, bytes int, evictions int64) {
		t.Helper()
		if st := c.stats(); st.Size != size || st.Bytes != bytes || st.Evictions != evictions {
			t.Fatalf("cache stats %+v, want size %d, bytes %d, evictions %d", st, size, bytes, evictions)
		}
	}

	// KDL-shaped answers (2,256 flows × 4 tunnels = 72,192 B): 256 entries'
	// worth of bytes is 116 of them.
	kdl := tensor.New(2256, 4)
	c := newSplitCache(256)
	for i := 0; i < 116; i++ {
		c.put(key(i), kdl)
	}
	check(c, 116, 116*72192, 0)
	c.put(key(116), kdl)
	check(c, 116, 116*72192, 1)
	if c.get(key(0)) != nil || c.get(key(1)) == nil {
		t.Fatal("byte-bound eviction did not take the least recently used entry")
	}

	// Abilene-shaped answers (4,224 B) never reach the byte bound: the
	// entry count binds, exactly as without it.
	small := tensor.New(132, 4)
	c = newSplitCache(4)
	for i := 0; i < 6; i++ {
		c.put(key(i), small)
	}
	check(c, 4, 4*4224, 2)

	// Replacing an entry in place re-counts it; purge zeroes the tally.
	c.put(key(5), kdl)
	check(c, 4, 3*4224+72192, 2)
	c.put(key(5), small)
	check(c, 4, 4*4224, 2)
	c.purge()
	check(c, 0, 0, 2)
	c.put(key(0), small)
	check(c, 1, 4224, 2)

	// One answer larger than the whole budget is still kept: the cache
	// never evicts below its newest entry.
	c = newSplitCache(1)
	c.put(key(0), kdl)
	check(c, 1, 72192, 0)
	c.put(key(1), kdl)
	check(c, 1, 72192, 1)
}

// TestSplitCacheConcurrent: in each of 10 rounds, four goroutines get,
// put and now and then purge over eight times more keys than the cache
// holds, with homes that collide and answers of two sizes, so lock-free
// gets race inserts, byte-bound and count-bound evictions and purges. A
// get never returns another key's answer. After every round the cache
// holds at most cap entries, its byte tally is the sum of its entries',
// get finds every entry in the table, and hits plus misses is the number
// of gets.
func TestSplitCacheConcurrent(t *testing.T) {
	const capacity, keys, workers, rounds, ops = 8, 64, 4, 10, 500
	// Keys 0..63 of one topology: their homes are 1 ^ i, so runs form.
	key := func(i int) cacheKey { return cacheKey{topo: 1, tm: uint64(i)} }
	answers := make([]*tensor.Dense, keys)
	for i := range answers {
		rows := 2
		if i%5 == 0 {
			rows = 2256 // 72 KB: three of them pass the byte bound
		}
		answers[i] = tensor.New(rows, 4)
		answers[i].Data[0] = float64(i)
	}
	c := newSplitCache(capacity)
	var gets atomic.Int64
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for n := 0; n < ops; n++ {
					i := rng.Intn(keys)
					switch r := rng.Intn(1000); {
					case r < 700:
						gets.Add(1)
						if got := c.get(key(i)); got != nil && got.Data[0] != float64(i) {
							t.Errorf("get(%d) returned key %v's answer", i, got.Data[0])
							return
						}
					case r < 998:
						c.put(key(i), answers[i])
					default:
						c.purge()
					}
				}
			}(int64(workers*round + w))
		}
		wg.Wait()

		st := c.stats()
		if st.Size > capacity {
			t.Fatalf("round %d: %d entries in a cache of %d", round, st.Size, capacity)
		}
		if st.Hits+st.Misses != gets.Load() {
			t.Fatalf("round %d: hits %d + misses %d, want %d gets", round, st.Hits, st.Misses, gets.Load())
		}
		var present []*cacheEntry
		bytes := 0
		for i := range c.slots {
			if e := c.slots[i].Load(); e != nil {
				present = append(present, e)
				bytes += e.bytes()
			}
		}
		if len(present) != st.Size || bytes != st.Bytes {
			t.Fatalf("round %d: table holds %d entries of %d B, tally says %d of %d B", round, len(present), bytes, st.Size, st.Bytes)
		}
		for _, e := range present {
			gets.Add(1)
			if got := c.get(e.key); got != e.splits {
				t.Fatalf("round %d: entry %v is in the table but get does not find it", round, e.key)
			}
		}
	}
}

// TestReloadPurgesSplitCache: cached answers embody the old generation's
// weights and must not survive a model swap.
func TestReloadPurgesSplitCache(t *testing.T) {
	p := twoPathProblem()
	srv := cachedServer(t, 8)
	d := demand(p, 4, 2)
	srv.Serve(p, d)
	if dec := srv.Serve(p, d); dec.Tier != TierCached {
		t.Fatalf("warm tier %v", dec.Tier)
	}

	next := core.New(tinyConfig())
	path := filepath.Join(t.TempDir(), "next.model")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := srv.Reload(path); err != nil {
		t.Fatal(err)
	}
	if dec := srv.Serve(p, d); dec.Tier != TierCached {
		// Expected: the purge forces a fresh TierFull inference.
		if dec.Tier != TierFull {
			t.Fatalf("post-reload tier %v", dec.Tier)
		}
	} else {
		t.Fatal("cache survived a model reload")
	}
	if st := srv.Stats(); st.Cache.Purges != 1 {
		t.Fatalf("cache purges %d, want 1", st.Cache.Purges)
	}
}

// narrowed returns d with every entry rounded through float32.
func narrowed(d *tensor.Dense) *tensor.Dense {
	out := d.Clone()
	for i, v := range out.Data {
		out.Data[i] = float64(float32(v))
	}
	return out
}

// TestCacheKeyFloat32RoundTripFixedPoint: a demand that has already been
// narrowed to float32 (a controller storing demands half-width) must key
// stably — one narrowing may move a value across a bucket edge, but a
// second pass through float32 is the identity, so the key cannot flip-flop.
func TestCacheKeyFloat32RoundTripFixedPoint(t *testing.T) {
	p := twoPathProblem()
	// 0.1 and 4.3 are not float32-representable; MaxFloat32 is the edge.
	d := demand(p, 0.1, 4.3)
	d.Data[0] = math.MaxFloat32

	r1 := narrowed(d)
	r2 := narrowed(r1)
	for i := range r1.Data {
		if r1.Data[i] != r2.Data[i] {
			t.Fatalf("float32 narrowing not idempotent at %d: %v vs %v", i, r1.Data[i], r2.Data[i])
		}
	}
	t1, m1 := CacheKey(p, r1, 0)
	t2, m2 := CacheKey(p, r2, 0)
	if t1 != t2 || m1 != m2 {
		t.Fatalf("round-tripped demand keys differ: (%x,%x) vs (%x,%x)", t1, m1, t2, m2)
	}
}
