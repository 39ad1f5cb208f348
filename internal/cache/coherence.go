// Event-driven cache coherence (paper §4.5): instead of validating the
// node's known version against the database on every read miss, a Coherer
// follows the change-event stream and invalidates exactly the entries each
// commit touched — no database round trip on the common path. A gap, in the
// follower's cursor or in the versions it is handed, is recovered the one way
// the cache recovers from anything: Refresh, which replays the store's
// change log and evicts everything only if that log has been trimmed too.
package cache

import (
	"sync"
	"sync/atomic"
	"time"

	"unitycatalog/internal/events"
	"unitycatalog/internal/obs"
)

// CohererOptions tunes a coherence loop.
type CohererOptions struct {
	// Staleness, if non-nil, observes the publish→apply latency of every
	// applied event: the window during which this node could have served a
	// read that predates the commit.
	Staleness *obs.Histogram
}

// CohererMetrics is a point-in-time snapshot of one coherence loop.
type CohererMetrics struct {
	// EventsApplied advanced the known version via their invalidation set.
	EventsApplied int64
	// EventsStale were already covered (own write-through or a reconcile).
	EventsStale int64
	// EventsSkipped carried no version (out-of-band announcements) or named
	// a metastore this node does not cache.
	EventsSkipped int64
	// Invalidated counts cache entries dropped by applied events;
	// FullEvictEquivalent counts the entries that were resident at those
	// moments — what a full-evict reconcile would have dropped instead.
	Invalidated         int64
	FullEvictEquivalent int64
	// GapReconciles recovered via Refresh from a gap: the follower's cursor
	// fell off the event ring, or an event skipped a version.
	GapReconciles int64
}

// Coherer drives one cache from one event follower.
type Coherer struct {
	c        *Cache
	follower *events.Follower
	opts     CohererOptions
	closed   sync.Once

	applied, stale, skipped atomic.Int64
	invalidated, fullEquiv  atomic.Int64
	versionGaps             atomic.Int64
}

// StartCoherer begins following bus and applying its events to c, after
// bringing every owned metastore up to date. Close stops it.
func StartCoherer(c *Cache, bus *events.Bus, opts CohererOptions) *Coherer {
	co := &Coherer{c: c, opts: opts}
	c.feeds.Add(1)
	co.follower = bus.Follow("cache", co.handle, co.resync)
	return co
}

// resync stands in for the invalidation sets of events that are gone. A
// failed Refresh leaves the cache behind; the next event then reports
// ApplyGap and handle retries.
func (co *Coherer) resync() {
	for _, ms := range co.c.OwnedMetastores() {
		_ = co.c.Refresh(ms)
	}
}

func (co *Coherer) handle(e events.Event) {
	if e.Version == 0 {
		// Out-of-band announcement (e.g. table data commits published by the
		// transaction coordinator) — not a metastore version transition.
		co.skipped.Add(1)
		return
	}
	inv, resident, res := co.c.ApplyChanges(e.Metastore, e.Version, e.Changes)
	switch res {
	case ApplyAdvanced:
		co.applied.Add(1)
		co.invalidated.Add(int64(inv))
		co.fullEquiv.Add(resident)
		if co.opts.Staleness != nil {
			if d := time.Since(e.Time); d > 0 {
				co.opts.Staleness.ObserveDuration(d)
			}
		}
	case ApplyStale:
		co.stale.Add(1)
	case ApplyGap:
		co.versionGaps.Add(1)
		_ = co.c.Refresh(e.Metastore)
	default: // ApplyNotOwned
		co.skipped.Add(1)
	}
}

// Close stops the follower and waits for it.
func (co *Coherer) Close() {
	co.closed.Do(func() {
		co.follower.Close()
		co.c.feeds.Add(-1)
	})
}

// Sync blocks until every event published so far has been applied.
func (co *Coherer) Sync() { co.follower.Sync() }

// Metrics returns a snapshot of the loop's counters.
func (co *Coherer) Metrics() CohererMetrics {
	return CohererMetrics{
		EventsApplied:       co.applied.Load(),
		EventsStale:         co.stale.Load(),
		EventsSkipped:       co.skipped.Load(),
		Invalidated:         co.invalidated.Load(),
		FullEvictEquivalent: co.fullEquiv.Load(),
		GapReconciles:       co.versionGaps.Load() + co.follower.Resyncs(),
	}
}
