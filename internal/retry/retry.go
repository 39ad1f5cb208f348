// Package retry implements capped exponential backoff with deterministic
// jitter and typed error classification, shared by every retrying client in
// the control plane: the HTTP SDK, the Delta log commit loop, and STS
// credential minting.
//
// The design goals, in order:
//
//   - correctness: callers declare which errors are retryable for *their*
//     operation (a non-idempotent POST must not retry a Timeout, while a
//     Throttled rejection is always safe to retry);
//   - server cooperation: errors carrying a Retry-After hint (the faults
//     package's Throttled/Unavailable, or an HTTP 429/503 response) extend
//     the computed backoff rather than being ignored;
//   - determinism: jitter derives from a caller-provided seed, so tests and
//     chaos runs replay identically; and
//   - testability: sleeping is injectable, so unit tests run in microseconds
//     and fake-clock harnesses can observe the chosen delays.
package retry

import (
	"errors"
	"math/rand"
	"time"

	"unitycatalog/internal/faults"
)

// Policy configures a retry loop. The zero value is usable and means:
// 4 attempts, 10ms base delay doubling to a 1s cap, jitter seeded from 1,
// real sleeping.
type Policy struct {
	// MaxAttempts is the total number of tries, including the first
	// (0 = default 4). 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (0 = default 10ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 = default 1s).
	MaxDelay time.Duration
	// Multiplier grows the backoff per attempt (0 = default 2).
	Multiplier float64
	// Seed makes the jitter sequence deterministic (0 = default 1).
	Seed int64
	// Sleep is the delay function (nil = time.Sleep). Tests inject a
	// recorder; fake-clock harnesses inject clock advancement.
	Sleep func(time.Duration)
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = time.Second
	}
	if p.Multiplier == 0 {
		p.Multiplier = 2
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Backoff returns the pre-jitter delay before retry number attempt (0-based).
func (p Policy) Backoff(attempt int) time.Duration {
	p = p.withDefaults()
	d := float64(p.BaseDelay)
	for i := 0; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			return p.MaxDelay
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	return time.Duration(d)
}

// RetryAfterHinter is implemented by errors that carry a server-suggested
// pause (faults.Error, the client's APIError).
type RetryAfterHinter interface {
	RetryAfterHint() (time.Duration, bool)
}

// RetryAfter extracts a retry-after hint from err, unwrapping as needed.
func RetryAfter(err error) (time.Duration, bool) {
	var h RetryAfterHinter
	if errors.As(err, &h) {
		return h.RetryAfterHint()
	}
	return 0, false
}

// Retryable is the default classifier: injected faults of every class are
// retryable, anything else is not. A Timeout's outcome is unknown, so a
// caller whose operation is not idempotent passes a classifier of its own.
func Retryable(err error) bool {
	return faults.IsFault(err)
}

// Do runs fn up to p.MaxAttempts times, sleeping a jittered capped
// exponential backoff between attempts, extended by any Retry-After hint on
// the error. It returns nil on the first success, the last error when
// attempts are exhausted, and immediately propagates errors the classifier
// rejects.
func Do(p Policy, retryable func(error) bool, fn func() error) error {
	_, err := DoValue(p, retryable, func() (struct{}, error) { return struct{}{}, fn() })
	return err
}

// DoValue is Do for functions returning a value.
func DoValue[T any](p Policy, retryable func(error) bool, fn func() (T, error)) (T, error) {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	var zero T
	var err error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		var v T
		v, err = fn()
		if err == nil {
			return v, nil
		}
		if !retryable(err) {
			return zero, err
		}
		if attempt == p.MaxAttempts-1 {
			break
		}
		d := p.Backoff(attempt)
		// Deterministic jitter in [d/2, d): decorrelates a thundering herd
		// without ever exceeding the cap.
		if half := int64(d / 2); half > 0 {
			d = d/2 + time.Duration(rng.Int63n(half))
		}
		if hint, ok := RetryAfter(err); ok && hint > d {
			d = hint
		}
		p.Sleep(d)
	}
	return zero, err
}
