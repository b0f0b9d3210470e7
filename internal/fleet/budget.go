package fleet

// The token bucket behind the retry budget. It earns a fraction of a
// token per primary request and every failover retry spends one, so retry
// traffic is a bounded ratio of offered load — retries can never storm the
// fleet no matter how many replicas are failing.

import (
	"math"
	"sync/atomic"
)

// retryBurst caps the bucket (and is where it starts), bounding how many
// retries a quiet period can bank for a burst.
const retryBurst = 10

// tokenBucket is the retry budget: earn `rate` tokens per primary
// request (capped at `burst`, starting full), spend one per failover
// retry. A non-positive rate disables spending entirely.
type tokenBucket struct {
	rate  float64
	burst float64
	// tokens is the bucket's level, a float64's bits, moved by
	// compare-and-swap: every request earns, and a bucket nothing spends
	// from stays full, where earning is one load.
	tokens atomic.Uint64
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	b := &tokenBucket{rate: rate, burst: burst}
	b.tokens.Store(math.Float64bits(burst))
	return b
}

// earn credits the bucket for one primary request; on a full bucket it
// returns after one load.
func (b *tokenBucket) earn() {
	if b.rate <= 0 {
		return
	}
	for {
		old := b.tokens.Load()
		n := math.Float64frombits(old)
		if n >= b.burst || b.tokens.CompareAndSwap(old, math.Float64bits(min(n+b.rate, b.burst))) {
			return
		}
	}
}

// spend takes one token, reporting whether the retry may proceed.
func (b *tokenBucket) spend() bool {
	if b.rate <= 0 {
		return false
	}
	for {
		old := b.tokens.Load()
		n := math.Float64frombits(old)
		if n < 1 {
			return false
		}
		if b.tokens.CompareAndSwap(old, math.Float64bits(n-1)) {
			return true
		}
	}
}
