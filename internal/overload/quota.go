package overload

import (
	"sync"
	"sync/atomic"
	"time"
)

// QuotaSpec configures a per-domain quota. Zero values mean "no limit
// of that kind", so a spec can express rate-only, concurrency-only, or
// both.
type QuotaSpec struct {
	// Rate is the sustained request budget in requests/second; <= 0
	// leaves the rate unlimited.
	Rate float64
	// Burst is the token-bucket size — how far above Rate a short burst
	// may spike. <= 0 defaults to Rate (minimum 1).
	Burst float64
	// MaxInFlight caps the domain's concurrently executing requests;
	// <= 0 leaves concurrency unlimited.
	MaxInFlight int
}

// Quota is a token-bucket rate limit plus an in-flight cap for one
// protection domain. It is the first overload check on the wire path:
// a flooded tenant is rejected here, before its excess can occupy the
// shared admission queue, so neighbors never see its load. Methods are
// safe for concurrent use and nil-safe.
type Quota struct {
	rate        float64
	burst       float64
	maxInFlight int64

	inflight atomic.Int64
	rejected atomic.Int64

	mu     sync.Mutex // guards tokens and last
	tokens float64
	last   time.Time

	now func() time.Time // injectable clock for tests
}

// NewQuota builds a quota from spec; a spec with no limits yields a
// quota that admits everything (callers may prefer nil in that case).
func NewQuota(spec QuotaSpec) *Quota {
	if spec.Burst <= 0 {
		spec.Burst = spec.Rate
	}
	if spec.Burst < 1 {
		spec.Burst = 1
	}
	q := &Quota{
		rate:        spec.Rate,
		burst:       spec.Burst,
		maxInFlight: int64(spec.MaxInFlight),
		tokens:      spec.Burst,
		now:         time.Now,
	}
	q.last = q.now()
	return q
}

// quotaInFlightRetry is the hint for in-flight rejections: the right
// wait is "until one of the domain's requests completes", which the
// quota cannot know, so it suggests one typical service burst.
const quotaInFlightRetry = 10 * time.Millisecond

// Acquire charges one request against the quota. On success the caller
// MUST Release when the request completes (the in-flight slot is held
// either way). On refusal retryAfter carries the backoff hint.
func (q *Quota) Acquire() (ok bool, retryAfter time.Duration) {
	if q == nil {
		return true, 0
	}
	if q.maxInFlight > 0 {
		// Compare-and-swap, not add-then-roll-back: InFlight() — the
		// /metrics gauge — must never show max+1, even for an instant.
		for {
			cur := q.inflight.Load()
			if cur >= q.maxInFlight {
				q.rejected.Add(1)
				return false, clampRetryAfter(quotaInFlightRetry)
			}
			if q.inflight.CompareAndSwap(cur, cur+1) {
				break
			}
		}
	} else {
		q.inflight.Add(1)
	}
	if q.rate > 0 {
		q.mu.Lock()
		now := q.now()
		q.tokens += now.Sub(q.last).Seconds() * q.rate
		if q.tokens > q.burst {
			q.tokens = q.burst
		}
		q.last = now
		if q.tokens < 1 {
			// Hint: time for the bucket to refill to one token.
			deficit := (1 - q.tokens) / q.rate
			q.mu.Unlock()
			q.inflight.Add(-1)
			q.rejected.Add(1)
			return false, clampRetryAfter(time.Duration(deficit * float64(time.Second)))
		}
		q.tokens--
		q.mu.Unlock()
	}
	return true, 0
}

// Release returns the in-flight slot taken by a successful Acquire.
func (q *Quota) Release() {
	if q == nil {
		return
	}
	q.inflight.Add(-1)
}

// InFlight reports the domain's currently executing requests.
func (q *Quota) InFlight() int64 {
	if q == nil {
		return 0
	}
	return q.inflight.Load()
}

// Rejected reports requests the quota refused.
func (q *Quota) Rejected() int64 {
	if q == nil {
		return 0
	}
	return q.rejected.Load()
}
