// Package faults is a deterministic, seeded fault injector for the control
// plane. It models the failure behaviour of the remote services the paper's
// architecture depends on — the ACID metadata DB (§4.5) and the cloud
// object store + STS — so availability-under-fault experiments and chaos
// tests can drive the whole stack through reproducible failure schedules.
//
// Faults come in four typed classes, chosen to match how real clients must
// react to them:
//
//   - Transient: a one-off failure (connection reset, lost packet). Safe to
//     retry immediately with backoff.
//   - Throttled: the service rejected the request before doing any work and
//     suggests a pause (HTTP 429 / Retry-After). Always safe to retry, even
//     for non-idempotent operations.
//   - Timeout: the operation may or may not have executed. Only idempotent
//     operations may be retried blindly.
//   - Unavailable: the service is down for a stretch (HTTP 503). Retry with
//     backoff; caches should degrade to bounded-stale serving.
//
// Injection decisions come from two deterministic sources consulted per
// operation, in order:
//
//   - scheduled outage Windows: half-open intervals [From, To) over the
//     injector's global operation sequence number during which every
//     matching operation fails;
//   - probabilistic Rules: each matching rule fires with probability P drawn
//     from the injector's seeded generator.
//
// Both sources use the same op/path matchers (exact op name or "" for any;
// path substring or "" for any). Because the sequence counter and the
// random stream advance only inside Check under one lock, the same seed and
// the same serialized operation sequence always produce the same injected
// fault sequence — the property the chaos determinism test asserts.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Class is the typed category of an injected fault.
type Class int

// Fault classes.
const (
	// Transient is a one-off failure, safe to retry with backoff.
	Transient Class = iota
	// Throttled is an admission-control rejection carrying a retry-after
	// hint; the request was not processed.
	Throttled
	// Timeout means the operation's outcome is unknown; only idempotent
	// operations may be retried.
	Timeout
	// Unavailable means the service is down for an extended window.
	Unavailable
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Throttled:
		return "throttled"
	case Timeout:
		return "timeout"
	case Unavailable:
		return "unavailable"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Error is an injected fault. It records what failed and how, and carries
// the retry-after hint for Throttled/Unavailable classes.
type Error struct {
	Class      Class
	Op         string
	Path       string
	RetryAfter time.Duration // 0 = no hint
	Seq        uint64        // injector sequence number of the faulted op
}

// Error implements error.
func (e *Error) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("faults: %s on %s %s (retry after %s)", e.Class, e.Op, e.Path, e.RetryAfter)
	}
	return fmt.Sprintf("faults: %s on %s %s", e.Class, e.Op, e.Path)
}

// RetryAfterHint exposes the server-suggested pause to retry policies.
func (e *Error) RetryAfterHint() (time.Duration, bool) {
	return e.RetryAfter, e.RetryAfter > 0
}

// ClassOf reports the fault class of err, if err is (or wraps) an injected
// fault.
func ClassOf(err error) (Class, bool) {
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Class, true
	}
	return 0, false
}

// Is reports whether err is an injected fault of class c.
func Is(err error, c Class) bool {
	got, ok := ClassOf(err)
	return ok && got == c
}

// IsFault reports whether err is any injected fault.
func IsFault(err error) bool {
	_, ok := ClassOf(err)
	return ok
}

// Rule injects a fault with probability P on every matching operation.
type Rule struct {
	// Op matches the operation name exactly; "" matches any operation.
	Op string
	// PathContains matches operations whose path contains the substring;
	// "" matches any path.
	PathContains string
	// Class is the fault class to inject.
	Class Class
	// P is the per-operation injection probability in [0, 1].
	P float64
	// RetryAfter is attached to the injected error (Throttled/Unavailable).
	RetryAfter time.Duration
}

func (r Rule) matches(op, path string) bool {
	if r.Op != "" && r.Op != op {
		return false
	}
	return r.PathContains == "" || strings.Contains(path, r.PathContains)
}

// Window is a scheduled outage: every matching operation whose sequence
// number falls in [From, To) fails with Class. Windows are expressed in
// operation counts, not wall time, so a schedule replays identically
// regardless of machine speed.
type Window struct {
	// Op matches the operation name exactly; "" matches any operation.
	Op string
	// PathContains matches paths containing the substring; "" matches any.
	PathContains string
	// Class is the fault class injected during the window.
	Class Class
	// From and To bound the outage on the injector's op sequence, half-open.
	From, To uint64
	// RetryAfter is attached to the injected error.
	RetryAfter time.Duration
}

func (w Window) matches(op, path string, seq uint64) bool {
	if seq < w.From || seq >= w.To {
		return false
	}
	if w.Op != "" && w.Op != op {
		return false
	}
	return w.PathContains == "" || strings.Contains(path, w.PathContains)
}

// Injector decides, per operation, whether to inject a fault. A nil
// *Injector is valid and injects nothing, so components can hold one
// unconditionally. All methods are safe for concurrent use.
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	rules    []Rule
	windows  []Window
	seq      uint64
	disabled bool

	checked  uint64
	injected [4]uint64 // per-class injection counts, indexed by Class
}

// New returns an Injector whose probabilistic decisions derive from seed.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// AddRule installs a probabilistic injection rule.
func (i *Injector) AddRule(r Rule) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rules = append(i.rules, r)
	return i
}

// Schedule installs an outage window.
func (i *Injector) Schedule(w Window) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.windows = append(i.windows, w)
	return i
}

// SetEnabled turns injection on or off without clearing the schedule. The
// sequence counter and random stream still advance while disabled, so
// enabling later does not shift subsequent decisions.
func (i *Injector) SetEnabled(on bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.disabled = !on
}

// Check consults the schedule for one operation and returns the fault to
// inject, or nil. Each call advances the op sequence; probabilistic draws
// happen for every matching rule whether or not an earlier source already
// fired, keeping the random stream aligned across schedule edits.
func (i *Injector) Check(op, path string) error {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	seq := i.seq
	i.seq++
	i.checked++

	var hit *Error
	for _, w := range i.windows {
		if w.matches(op, path, seq) {
			hit = &Error{Class: w.Class, Op: op, Path: path, RetryAfter: w.RetryAfter, Seq: seq}
			break
		}
	}
	for _, r := range i.rules {
		if !r.matches(op, path) {
			continue
		}
		// Draw for every matching rule so the stream stays deterministic.
		fired := i.rng.Float64() < r.P
		if fired && hit == nil {
			hit = &Error{Class: r.Class, Op: op, Path: path, RetryAfter: r.RetryAfter, Seq: seq}
		}
	}
	if hit == nil || i.disabled {
		return nil
	}
	i.injected[hit.Class]++
	return hit
}

// Seq returns the number of operations checked so far. Useful for placing
// outage windows relative to a workload's progress.
func (i *Injector) Seq() uint64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.seq
}

// Stats reports (ops checked, per-class injections).
func (i *Injector) Stats() (checked uint64, byClass map[Class]uint64) {
	if i == nil {
		return 0, nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	byClass = map[Class]uint64{}
	for c, n := range i.injected {
		if n > 0 {
			byClass[Class(c)] = n
		}
	}
	return i.checked, byClass
}

// InjectedTotal returns the total number of injected faults.
func (i *Injector) InjectedTotal() uint64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	var n uint64
	for _, c := range i.injected {
		n += c
	}
	return n
}
