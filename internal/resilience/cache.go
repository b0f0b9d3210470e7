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
// The key costs one pass over the demand for its peak and one more for
// the buckets, each folded into the hash with a single multiply–xorshift
// (mix64). A hit is not vetted again on the way out: the entry was vetted
// (VetSplits) before put, so the server returns it as it is, and a fleet
// takes a hit from its own in-process server (fleet.Local) without a
// second vet; only answers through other replicas are vetted again.
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

// tmHash quantizes demand and hashes the bucket indices. Exported logic
// (via CacheKey) so the fuzz target can drive it directly. Allocation-free.
func tmHash(demand *tensor.Dense, quantum float64) uint64 {
	dmax := 0.0
	for _, v := range demand.Data {
		if v > dmax {
			dmax = v
		}
	}
	h := uint64(14695981039346656037)
	if dmax <= 0 {
		return mix64(h, uint64(len(demand.Data))) // all-zero demand: one bucket per flow count
	}
	// Peak-scale bucket: log base (1+quantum), so demands whose absolute
	// scale differs by more than one quantum step cannot collide even when
	// their shapes quantize identically.
	h = mix64(h, uint64(int64(math.Round(math.Log(dmax)/math.Log1p(quantum)))))
	// Per-flow buckets of quantum·dmax, by a multiply with the hoisted
	// reciprocal: it can differ from v/step in the last bit, which moves
	// only a value within an ulp of a bucket edge, and always the same way.
	inv := 1 / (quantum * dmax)
	for _, v := range demand.Data {
		h = mix64(h, uint64(int64(math.Round(v*inv))))
	}
	return h
}

// mix64 folds one 64-bit value into the running hash with one
// multiply–xorshift, the mixer core's weights stamp uses. Each step is a
// bijection of the state (xor with v, multiply by an odd constant,
// xorshift), so two bucket sequences of one length that differ in a single
// bucket never collide: the states part at that bucket and every later
// step keeps them apart.
func mix64(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// CacheKey returns the (topology, quantized-TM) cache key for a request as
// two raw 64-bit hashes. Exported for the cache-key fuzz target and for
// operators debugging hit rates; equal inputs always produce equal keys.
func CacheKey(p *te.Problem, demand *tensor.Dense, quantum float64) (topo, tm uint64) {
	if quantum <= 0 {
		quantum = DefaultCacheQuantum
	}
	return p.Fingerprint(), tmHash(demand, quantum)
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
