package client

import (
	"math/rand"
	"sync"
	"time"
)

// retryBudget bounds retries as a fraction of primary traffic: every
// primary request deposits ratio tokens (capped at burst, which is also
// the starting balance), and every retry withdraws one whole token. Under
// a broad outage retries therefore converge to ratio × primary QPS
// instead of multiplying load by the failover-ladder length — the retry
// storm the paper's availability story (§III-G) has to avoid.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	ratio  float64
	burst  float64
}

func newRetryBudget(ratio, burst float64) *retryBudget {
	if ratio < 0 {
		ratio = 0
	}
	if burst < 0 {
		burst = 0
	}
	b := &retryBudget{ratio: ratio, burst: burst}
	b.tokens = burst * ratioNonZero(ratio)
	return b
}

// ratioNonZero makes a zero ratio start with an empty bucket too, so a
// zero-budget client never retries at all.
func ratioNonZero(ratio float64) float64 {
	if ratio == 0 {
		return 0
	}
	return 1
}

// onPrimary deposits the per-primary earn.
func (b *retryBudget) onPrimary() {
	b.mu.Lock()
	b.tokens = min(b.tokens+b.ratio, b.burst)
	b.mu.Unlock()
}

// allow withdraws one retry token, reporting false when the budget is
// exhausted (the retry must not be issued).
func (b *retryBudget) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// balance reads the current token count, for tests.
func (b *retryBudget) balance() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// backoff produces jittered exponential retry delays: attempt n waits
// jitter × min(base·2ⁿ, cap) with jitter drawn uniformly from [0.5, 1), so
// synchronized failures don't retry in lockstep. Seeded, the sequence is
// fully deterministic, which the chaos tests rely on.
type backoff struct {
	mu   sync.Mutex
	rng  *rand.Rand
	base time.Duration
	cap  time.Duration
}

func newBackoff(base, cap time.Duration, seed int64) *backoff {
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	if cap <= 0 {
		cap = 100 * time.Millisecond
	}
	if cap < base {
		cap = base
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &backoff{rng: rand.New(rand.NewSource(seed)), base: base, cap: cap}
}

// delay returns the wait before retry attempt n (0-based).
func (b *backoff) delay(attempt int) time.Duration {
	d := b.base
	for i := 0; i < attempt && d < b.cap; i++ {
		d *= 2
	}
	d = min(d, b.cap)
	b.mu.Lock()
	jitter := 0.5 + 0.5*b.rng.Float64()
	b.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}
