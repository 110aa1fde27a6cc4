package netcast

import (
	"sync"
	"time"
)

// tokenBucket is a classic token-bucket rate limiter in the shape the
// fan-out path needs: callers reserve a whole batch of tokens at once
// and are told how long to sleep before the batch is covered, instead
// of blocking inside the limiter. Reservations commit immediately (the
// balance may go negative), so concurrent writers serialize fairly:
// each reservation's wait accounts for every reservation before it.
//
// One bucket per subscriber caps a single client's egress; one bucket
// shared by a channel's subscribers caps the channel's aggregate
// egress. A subscriber throttled below the broadcast rate simply lags,
// and the ring's tiered backpressure (resync, then drop) takes over —
// the limiter never blocks the caster itself.
type tokenBucket struct {
	// mu guards tokens and last; rate and burst are immutable after
	// newTokenBucket.
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // maximum banked tokens
	tokens float64
	last   time.Time
}

// newTokenBucket returns a bucket refilling at rate tokens/second with
// the given burst capacity (a full burst is banked at start). rate
// must be positive; burst is floored at rate/100 so tiny bursts cannot
// stall progress entirely.
func newTokenBucket(rate, burst float64) *tokenBucket {
	if burst < rate/100 {
		burst = rate / 100
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

// reserve debits n tokens and returns how long the caller must wait
// before they are covered (zero when the balance allows it now).
func (b *tokenBucket) reserve(n int) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	//diverselint:ignore detrand rate limiting is intrinsically wall-clock: tokens refill with elapsed real time and never feed a simulated cost
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	b.tokens -= float64(n)
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / b.rate * float64(time.Second))
}
