package resilience

// Serving-path benchmarks for the BENCH_2.json ledger (make bench):
// the split-cache hit path (the planet-scale fast path — must stay
// allocation-free) against a full inference.

import (
	"testing"

	"harpte/internal/core"
)

// BenchmarkServeCacheHit measures the warm path: every request after the
// first is answered from the split-ratio LRU with zero inference.
func BenchmarkServeCacheHit(b *testing.B) {
	p := twoPathProblem()
	srv := NewServer(core.New(tinyConfig()), Options{CacheEntries: 8})
	d := demand(p, 4, 2)
	if dec := srv.Serve(p, d); dec.Err != nil {
		b.Fatal(dec.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dec := srv.Serve(p, d); dec.Tier != TierCached {
			b.Fatalf("tier %v, want cached", dec.Tier)
		}
	}
}

// BenchmarkServeCacheMiss is the cold counterpart: a model inference per
// request (on the engine's cached plan after the first). The cache-hit
// speedup is this time divided by the hit time.
func BenchmarkServeCacheMiss(b *testing.B) {
	p := twoPathProblem()
	srv := NewServer(core.New(tinyConfig()), Options{})
	d := demand(p, 4, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dec := srv.Serve(p, d); dec.Err != nil {
			b.Fatal(dec.Err)
		}
	}
}
