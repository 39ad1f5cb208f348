package retry

import (
	"errors"
	"testing"
	"time"

	"unitycatalog/internal/faults"
)

func noSleep(rec *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *rec = append(*rec, d) }
}

func TestDoSucceedsAfterTransients(t *testing.T) {
	var slept []time.Duration
	calls := 0
	err := Do(Policy{MaxAttempts: 5, Sleep: noSleep(&slept)}, Retryable, func() error {
		calls++
		if calls < 3 {
			return &faults.Error{Class: faults.Transient, Op: "get"}
		}
		return nil
	})
	if err != nil || calls != 3 || len(slept) != 2 {
		t.Fatalf("err=%v calls=%d slept=%v", err, calls, slept)
	}
}

func TestDoStopsOnNonRetryable(t *testing.T) {
	boom := errors.New("permanent")
	calls := 0
	err := Do(Policy{Sleep: func(time.Duration) {}}, Retryable, func() error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	err := Do(Policy{MaxAttempts: 3, Sleep: func(time.Duration) {}}, Retryable, func() error {
		calls++
		return &faults.Error{Class: faults.Unavailable}
	})
	if !faults.Is(err, faults.Unavailable) || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestBackoffCappedExponential(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 60 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{10, 20, 40, 60, 60}
	for i, w := range want {
		if got := p.Backoff(i); got != w*time.Millisecond {
			t.Fatalf("Backoff(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	run := func() []time.Duration {
		var slept []time.Duration
		Do(Policy{MaxAttempts: 6, Seed: 99, Sleep: noSleep(&slept)}, Retryable, func() error {
			return &faults.Error{Class: faults.Transient}
		})
		return slept
	}
	a, b := run(), run()
	if len(a) != 5 {
		t.Fatalf("slept %d times", len(a))
	}
	p := Policy{}.withDefaults()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic: %v vs %v", a, b)
		}
		base := p.Backoff(i)
		if a[i] < base/2 || a[i] >= base {
			t.Fatalf("delay %d = %v outside [%v, %v)", i, a[i], base/2, base)
		}
	}
}

func TestRetryAfterHintExtendsDelay(t *testing.T) {
	var slept []time.Duration
	hint := 500 * time.Millisecond
	calls := 0
	Do(Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, Sleep: noSleep(&slept)}, Retryable, func() error {
		calls++
		return &faults.Error{Class: faults.Throttled, RetryAfter: hint}
	})
	if len(slept) != 1 || slept[0] < hint {
		t.Fatalf("retry-after not honored: %v", slept)
	}
}

func TestDoValueReturnsValue(t *testing.T) {
	calls := 0
	v, err := DoValue(Policy{Sleep: func(time.Duration) {}}, Retryable, func() (int, error) {
		calls++
		if calls == 1 {
			return 0, &faults.Error{Class: faults.Transient}
		}
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("v=%d err=%v", v, err)
	}
}
