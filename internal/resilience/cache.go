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
// The key costs one pass over the demand for the buckets. Each bucket is
// one add (bucket), and the buckets pack into 64-bit words, 8 to a word at
// the default quantum, so the hash runs one multiply–xorshift (mix64) per
// word, not per entry. The peak comes from the pass that validates the
// demand (demandPeak), so the server reads a request's demand twice. A
// hit is not vetted again on the way out: the entry was vetted
// (VetSplits) before put, so the server returns it as it is, and a fleet
// takes a hit from its own in-process server (fleet.Local) without a
// second vet; only answers through other replicas are vetted again.
//
// A hit takes no lock: get probes an open-addressed table of atomic
// pointers and stamps the entry it finds with the cache's next tick;
// put and purge serialise on the cache's mutex, and put evicts the entry
// with the oldest stamp — exact LRU order, found by a scan on the miss
// path only (SplitCache).
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
	"math/bits"
	"sync"
	"sync/atomic"

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
	key    cacheKey
	splits *tensor.Dense
	stamp  atomic.Uint64 // the cache's tick at the entry's last hit or put
}

// bytes is what the entry's answer occupies: 8 B per split ratio.
func (e *cacheEntry) bytes() int { return 8 * len(e.splits.Data) }

// SplitCache is an LRU of vetted split matrices keyed by (topology
// fingerprint, quantized TM), holding at most cap entries and at most
// cap × cacheEntryBytes of answers (but always the newest one). Safe for
// concurrent use. The zero value is unusable; construct with newSplitCache.
//
// A hit takes no lock. The entries sit in an open-addressed table of
// atomic pointers (linear probing, at most half full) that get reads
// with plain loads while put and purge write it under mu. An entry never
// changes once published but for its stamp: every hit and every put takes
// the next value of one tick, so the entry with the smallest stamp is the
// least recently used, and put evicts it by a scan of the table, on the
// miss path only. Eviction shifts later entries of a probe run back into
// the freed slot, so a get racing it can miss an entry that is present:
// the request then runs the model and puts the answer again.
type SplitCache struct {
	slots []atomic.Pointer[cacheEntry] // len a power of two
	mask  uint64                       // len(slots) − 1

	// tick is the recency clock. Only hits and puts take values of it, so
	// the hit count is tick less puts, with no second counter on a hit.
	tick   atomic.Uint64
	misses atomic.Int64

	mu                      sync.Mutex // serialises put and purge
	cap                     int
	size                    int
	bytes                   int // Σ entry.bytes()
	puts, evictions, purges int64
}

func newSplitCache(capacity int) *SplitCache {
	// More than twice the slots the cache can fill (capacity, and the one
	// put inserts before it evicts), so a probe always ends at a nil slot.
	n := 1 << bits.Len(uint(2*capacity+2))
	return &SplitCache{
		slots: make([]atomic.Pointer[cacheEntry], n),
		mask:  uint64(n - 1),
		cap:   capacity,
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
	// A valid entry's bucket is at most ⌊1/quantum⌋+1, so it fits in
	// bucketBits(quantum) bits, and the buckets of consecutive entries pack
	// into one 64-bit word, which mix64 folds in as one value: a byte each
	// (8 to a word) up to 8 bits, as at the default quantum, where the
	// shifts are constants, and one field of the bucket's width each past
	// that.
	inv := 1 / (quantum * dmax)
	lane := max(8, bucketBits(quantum))
	d := data
	if lane == 8 {
		for ; len(d) >= 8; d = d[8:] {
			h = mix64(h, bucket(d[0]*inv)|bucket(d[1]*inv)<<8|bucket(d[2]*inv)<<16|bucket(d[3]*inv)<<24|
				bucket(d[4]*inv)<<32|bucket(d[5]*inv)<<40|bucket(d[6]*inv)<<48|bucket(d[7]*inv)<<56)
		}
	}
	for per := 64 / int(lane); len(d) > 0; {
		n := min(per, len(d))
		var w, shift uint64
		for _, v := range d[:n] {
			// shift stays below 64; the mask only spares the compiler's
			// check for a larger one.
			w |= bucket(v*inv) << (shift & 63)
			shift += uint64(lane)
		}
		h = mix64(h, w)
		d = d[n:]
	}
	return mix64(h, uint64(len(data)))
}

// bucketBits is how many bits a bucket index takes at quantum: those of
// ⌊1/quantum⌋+1, the largest index a valid demand reaches (its peak entry
// scales to 1/quantum, within an ulp either side). 64 — one index a word —
// when 1/quantum is too large for the indices to be exact.
func bucketBits(quantum float64) uint {
	n := 1 / quantum
	if !(n < 0x1p52) {
		return 64
	}
	return uint(bits.Len64(uint64(n) + 1))
}

// bucket is the quantized index of a demand scaled to bucket units,
// math.RoundToEven(x) as an integer for every 0 <= x < 2⁵² — every valid
// demand scaled by its own peak — in one add: from 2⁵² to 2⁵³ the float64
// spacing is 1, so x + 2⁵² rounds x to the nearest integer, ties to even,
// and the sum's bits less 2⁵²'s are that integer (the exponent's carry
// makes it 2⁵² when x rounds up to 2⁵²). Any other x (CacheKey takes a
// demand ValidateInput refuses) gets some fixed value, which may spill
// into the word's later buckets.
func bucket(x float64) uint64 {
	return math.Float64bits(x+0x1p52) - math.Float64bits(0x1p52)
}

// mix64 folds one 64-bit value into the running hash with one
// multiply–xorshift, the mixer core's weights stamp uses. It is injective
// in each argument with the other fixed (xor, a multiply by an odd
// constant and an xorshift are each bijections), so two bucket sequences
// of one length that differ in a single bucket never collide: the length
// puts every bucket at the same place of the same word on both sides, so
// exactly one word differs (the packing is injective: each bucket has its
// own bits of the word), the chain parts at that word, and every later step,
// each injective in the running hash, keeps the two apart.
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

// home is the key's first slot. Both halves are hashes already.
func (c *SplitCache) home(key cacheKey) uint64 { return (key.topo ^ key.tm) & c.mask }

// get returns the cached splits for key, or nil. The returned matrix is
// shared and read-only. Allocation-free and lock-free on hit and miss.
func (c *SplitCache) get(key cacheKey) *tensor.Dense {
	// A probe ends at a nil slot long before it has read every slot; the
	// bound only keeps a get racing a run of evictions finite.
	for i, n := c.home(key), 0; n <= int(c.mask); i, n = (i+1)&c.mask, n+1 {
		e := c.slots[i].Load()
		if e == nil {
			break
		}
		if e.key == key {
			e.stamp.Store(c.tick.Add(1))
			return e.splits
		}
	}
	c.misses.Add(1)
	return nil
}

// put inserts a vetted TierFull answer, cloning it so the cache owns its
// copy, and evicts least-recently-used entries beyond either bound.
func (c *SplitCache) put(key cacheKey, splits *tensor.Dense) {
	e := &cacheEntry{key: key, splits: splits.Clone()}
	c.mu.Lock()
	defer c.mu.Unlock()
	e.stamp.Store(c.tick.Add(1))
	c.puts++
	i := c.home(key)
	for ; ; i = (i + 1) & c.mask {
		old := c.slots[i].Load()
		if old == nil {
			c.size++
			break
		}
		if old.key == key {
			c.bytes -= old.bytes()
			break
		}
	}
	c.slots[i].Store(e)
	c.bytes += e.bytes()
	for c.size > 1 && (c.size > c.cap || c.bytes > c.cap*cacheEntryBytes) {
		c.evict(c.lru())
	}
}

// lru returns the slot of the entry with the smallest stamp. c.mu held;
// the table is not empty.
func (c *SplitCache) lru() uint64 {
	var at uint64
	oldest := uint64(math.MaxUint64)
	for i := range c.slots {
		if e := c.slots[i].Load(); e != nil {
			if s := e.stamp.Load(); s <= oldest {
				at, oldest = uint64(i), s
			}
		}
	}
	return at
}

// evict removes the entry in slot i and closes the gap the way linear
// probing needs: each later entry of the run whose home does not lie
// cyclically in (i, j] moves back into the gap, which then moves to its
// old slot. c.mu held.
func (c *SplitCache) evict(i uint64) {
	c.size--
	c.bytes -= c.slots[i].Load().bytes()
	c.evictions++
	for j := (i + 1) & c.mask; ; j = (j + 1) & c.mask {
		e := c.slots[j].Load()
		if e == nil {
			break
		}
		if h := c.home(e.key); (j-h)&c.mask >= (j-i)&c.mask {
			c.slots[i].Store(e)
			i = j
		}
	}
	c.slots[i].Store(nil)
}

// purge empties the cache. Reload calls it: cached answers embody the old
// weights.
func (c *SplitCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.slots {
		c.slots[i].Store(nil)
	}
	c.size, c.bytes = 0, 0
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
	// Every put took its tick under c.mu, so tick − puts is exact here.
	return CacheStats{
		Size: c.size, Capacity: c.cap, Bytes: c.bytes,
		Hits: int64(c.tick.Load()) - c.puts, Misses: c.misses.Load(),
		Evictions: c.evictions, Purges: c.purges,
	}
}
