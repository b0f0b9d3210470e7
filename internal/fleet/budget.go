package fleet

// The token bucket behind the retry budget. It earns a fraction of a
// token per primary request and every failover retry spends one, so retry
// traffic is a bounded ratio of offered load — retries can never storm the
// fleet no matter how many replicas are failing.

import (
	"math"
	"sync"
	"sync/atomic"
)

// retryBurst caps the bucket (and is where it starts), bounding how many
// retries a quiet period can bank for a burst.
const retryBurst = 10

// tokenBucket is the retry budget: earn `rate` tokens per primary
// request (capped at `burst`, starting full), spend one per failover
// retry. A non-positive rate disables spending entirely.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	rate   float64
	burst  float64

	// level mirrors tokens (its float64 bits), written under mu: every
	// request earns, and a bucket nothing spends from stays full, where
	// earning changes nothing.
	level atomic.Uint64
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	b := &tokenBucket{rate: rate, burst: burst}
	b.set(burst)
	return b
}

// set moves the bucket to n tokens and its mirror with it. b.mu held, or b
// not yet shared.
func (b *tokenBucket) set(n float64) {
	b.tokens = n
	b.level.Store(math.Float64bits(n))
}

// earn credits the bucket for one primary request; on a full bucket it
// returns after reading the mirror.
func (b *tokenBucket) earn() {
	if b.rate <= 0 || math.Float64frombits(b.level.Load()) >= b.burst {
		return
	}
	b.mu.Lock()
	b.set(min(b.tokens+b.rate, b.burst))
	b.mu.Unlock()
}

// spend takes one token, reporting whether the retry may proceed.
func (b *tokenBucket) spend() bool {
	if b.rate <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.set(b.tokens - 1)
	return true
}
