package fleet

// The token bucket behind the retry budget. It earns a fraction of a
// token per primary request and every failover retry spends one, so retry
// traffic is a bounded ratio of offered load — retries can never storm the
// fleet no matter how many replicas are failing.

import "sync"

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
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	return &tokenBucket{tokens: burst, rate: rate, burst: burst}
}

// earn credits the bucket for one primary request.
func (b *tokenBucket) earn() {
	if b.rate <= 0 {
		return
	}
	b.mu.Lock()
	b.tokens += b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
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
	b.tokens--
	return true
}
