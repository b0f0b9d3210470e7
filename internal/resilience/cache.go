package resilience

// Split-ratio caching: repeated or near-identical demands on a known
// topology are answered from an LRU of previously served TierFull answers
// — zero inference, zero allocations on a hit.
//
// The key quantizes the traffic matrix relative to its own peak demand:
// every entry is bucketed to a multiple of quantum·max(demand), and the
// peak itself is bucketed on a (1+quantum) log scale, with quantum fixed at
// DefaultCacheQuantum. Two demands that collide therefore differ per entry
// by at most ~quantum of the peak (plus one log bucket of overall scale),
// and since link loads are linear in demand under fixed splits, the MLU of
// a cached answer is within an O(quantum) relative factor of a fresh
// inference for the colliding demand — the epsilon bound
// TestSplitCacheEpsilonBound measures.
//
// The key costs one pass over the demand for the buckets, folded into four
// independent hash lanes with one multiply–xorshift each (mix64). The peak
// comes from the pass that validates the demand (demandPeak), so the
// server reads a request's demand twice. A hit is not vetted again on the
// way out: the entry was vetted (VetSplits) before put, so the server
// returns it as it is, and a fleet takes a hit from its own in-process
// server (fleet.Local) without a second vet; only answers through other
// replicas are vetted again.
//
// Cached matrices are shared read-only across hits. Nothing on the serving
// path writes to a matrix it did not allocate: VetSplits only reads, and
// callers of Serve treat Decision.Splits as read-only. Put stores a private
// clone, so later caller mutations of a served matrix cannot poison the
// cache.
//
// The cache is bounded by bytes as well as by entries: Options.CacheEntries
// answers of up to cacheEntryBytes each. One number still sizes it, and it
// means what it says up to 1,024 flows; past that (a KDL-scale answer is
// 70 KB) the byte bound binds first and the cache holds fewer, so what a
// replica retains does not scale with the topology it happens to serve.

import (
	"math"
	"sync"

	"harpte/internal/te"
	"harpte/internal/tensor"
)

// DefaultCacheQuantum is the TM quantization step of the server's cache
// keys: demand entries within 1% of the peak demand of each other land in
// the same bucket.
const DefaultCacheQuantum = 0.01

// cacheEntryBytes is the answer size CacheEntries is denominated in:
// 1,024 flows × 4 tunnels × 8 B.
const cacheEntryBytes = 32 << 10

type cacheKey struct {
	topo uint64 // te.Problem.Fingerprint
	tm   uint64 // quantized traffic-matrix hash
}

type cacheEntry struct {
	key        cacheKey
	splits     *tensor.Dense
	prev, next *cacheEntry // LRU list, head = most recent
}

// bytes is what the entry's answer occupies: 8 B per split ratio.
func (e *cacheEntry) bytes() int { return 8 * len(e.splits.Data) }

// SplitCache is an LRU of vetted split matrices keyed by (topology
// fingerprint, quantized TM), holding at most cap entries and at most
// cap × cacheEntryBytes of answers (but always the newest one). Safe for
// concurrent use. The zero value is unusable; construct with newSplitCache.
type SplitCache struct {
	mu         sync.Mutex
	entries    map[cacheKey]*cacheEntry
	head, tail *cacheEntry
	cap        int
	bytes      int // Σ entry.bytes()

	hits, misses, evictions, purges int64
}

func newSplitCache(capacity int) *SplitCache {
	return &SplitCache{
		entries: make(map[cacheKey]*cacheEntry, capacity),
		cap:     capacity,
	}
}

// demandPeak returns the largest entry of data and whether every entry is
// a valid demand: +0, -0 or positive finite. For those values float order
// is the order of their bits read as uint64, so one unsigned max over the
// bits finds the peak — bit for bit the value a `v > peak` scan from 0
// finds — and the max lies below +Inf's bits exactly when no entry is
// negative, infinite or NaN (a set sign bit or an all-ones exponent lifts
// it there). Each entry is read as v+0, which is +0 for -0 and v for every
// other v (a NaN stays a NaN). The loop has no branch on the data and keeps
// four running maxima. The peak is meaningless when valid is false.
func demandPeak(data []float64) (peak float64, valid bool) {
	var m0, m1, m2, m3 uint64
	d := data
	for len(d) >= 4 {
		m0 = max(m0, math.Float64bits(d[0]+0))
		m1 = max(m1, math.Float64bits(d[1]+0))
		m2 = max(m2, math.Float64bits(d[2]+0))
		m3 = max(m3, math.Float64bits(d[3]+0))
		d = d[4:]
	}
	for _, v := range d {
		m0 = max(m0, math.Float64bits(v+0))
	}
	m := max(m0, m1, m2, m3)
	return math.Float64frombits(m), m < 0x7FF0000000000000
}

// tmHash quantizes a demand whose peak is dmax and hashes the bucket
// indices. Allocation-free.
func tmHash(data []float64, dmax, quantum float64) uint64 {
	h := uint64(14695981039346656037)
	if dmax <= 0 {
		return mix64(h, uint64(len(data))) // all-zero demand: one bucket per flow count
	}
	// Peak-scale bucket: log base (1+quantum), so demands whose absolute
	// scale differs by more than one quantum step cannot collide even when
	// their shapes quantize identically.
	h = mix64(h, uint64(int64(math.Round(math.Log(dmax)/math.Log1p(quantum)))))
	// Per-flow buckets of quantum·dmax, by a multiply with the hoisted
	// reciprocal: it can differ from v/step in the last bit, which moves
	// only a value within an ulp of a bucket edge, and always the same way.
	// Entry i feeds lane i mod 4: the four chains are independent, so their
	// multiplies overlap, and the lanes fold into h in order at the end.
	inv := 1 / (quantum * dmax)
	h0, h1, h2, h3 := h, h+1, h+2, h+3
	d := data
	for len(d) >= 4 {
		h0 = mix64(h0, bucket(d[0]*inv))
		h1 = mix64(h1, bucket(d[1]*inv))
		h2 = mix64(h2, bucket(d[2]*inv))
		h3 = mix64(h3, bucket(d[3]*inv))
		d = d[4:]
	}
	switch len(d) {
	case 3:
		h2 = mix64(h2, bucket(d[2]*inv))
		fallthrough
	case 2:
		h1 = mix64(h1, bucket(d[1]*inv))
		fallthrough
	case 1:
		h0 = mix64(h0, bucket(d[0]*inv))
	}
	return mix64(mix64(mix64(mix64(mix64(h, h0), h1), h2), h3), uint64(len(data)))
}

// bucket is the quantized index of a demand scaled to bucket units,
// uint64(int64(math.Round(x))) for every 0 <= x < 2⁶³ — every valid demand
// scaled by its own peak. It truncates and adds one when the fraction is
// at least ½: the fraction x − k is exact, and so is the sign of
// fraction − ½, so it rounds half away from zero as math.Round does,
// without math.Round's branches on the exponent, which a demand's spread of
// magnitudes mispredicts. Any other x (CacheKey takes a demand
// ValidateInput refuses) gets some fixed index.
func bucket(x float64) uint64 {
	k := int64(x)
	return uint64(k) + ^math.Float64bits(x-float64(k)-0.5)>>63
}

// mix64 folds one 64-bit value into the running hash with one
// multiply–xorshift, the mixer core's weights stamp uses. It is injective
// in each argument with the other fixed (xor, a multiply by an odd
// constant and an xorshift are each bijections), so two bucket sequences
// of one length that differ in a single bucket never collide: the length
// puts every bucket in the same lane on both sides, the lane holding the
// changed bucket parts there and every later step of it keeps the two
// apart, the other lanes end equal, and each step of the fold is injective
// in the one lane value that differs.
func mix64(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// CacheKey returns the (topology, quantized-TM) cache key for a request as
// two raw 64-bit hashes. Exported for the cache-key fuzz target and for
// operators debugging hit rates; equal inputs always produce equal keys.
// It takes any demand, one ValidateInput would refuse included.
func CacheKey(p *te.Problem, demand *tensor.Dense, quantum float64) (topo, tm uint64) {
	if quantum <= 0 {
		quantum = DefaultCacheQuantum
	}
	dmax, valid := demandPeak(demand.Data)
	if !valid {
		// The peak of the positive entries, as the key has always taken it.
		dmax = 0
		for _, v := range demand.Data {
			if v > dmax {
				dmax = v
			}
		}
	}
	return p.Fingerprint(), tmHash(demand.Data, dmax, quantum)
}

// get returns the cached splits for key, or nil. The returned matrix is
// shared and read-only. Allocation-free on hit and miss.
func (c *SplitCache) get(key cacheKey) *tensor.Dense {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		c.misses++
		c.mu.Unlock()
		return nil
	}
	c.moveToFront(e)
	c.hits++
	splits := e.splits
	c.mu.Unlock()
	return splits
}

// put inserts a vetted TierFull answer, cloning it so the cache owns its
// copy, and evicts least-recently-used entries beyond either bound.
func (c *SplitCache) put(key cacheKey, splits *tensor.Dense) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e != nil {
		c.bytes -= e.bytes()
		c.moveToFront(e)
	} else {
		e = &cacheEntry{key: key}
		c.entries[key] = e
		c.pushFront(e)
	}
	e.splits = splits.Clone()
	c.bytes += e.bytes()
	for len(c.entries) > 1 && (len(c.entries) > c.cap || c.bytes > c.cap*cacheEntryBytes) {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.key)
		c.bytes -= lru.bytes()
		c.evictions++
	}
}

// purge empties the cache. Reload calls it: cached answers embody the old
// weights.
func (c *SplitCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[cacheKey]*cacheEntry, c.cap)
	c.head, c.tail = nil, nil
	c.bytes = 0
	c.purges++
}

// CacheStats is a point-in-time snapshot of split-cache effectiveness.
type CacheStats struct {
	Size, Capacity int
	// Bytes is what the cached answers occupy (8 B per split ratio).
	Bytes                           int
	Hits, Misses, Evictions, Purges int64
}

func (c *SplitCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size: len(c.entries), Capacity: c.cap, Bytes: c.bytes,
		Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Purges: c.purges,
	}
}

// ---- intrusive LRU list (no allocations on the hit path) ----

func (c *SplitCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *SplitCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *SplitCache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
