// Event-driven cache coherence (paper §4.5): instead of validating the
// node's known version against the database on every read miss, a Coherer
// consumes the change-event stream and invalidates exactly the entries each
// commit touched — no database round trip on the common path. The
// subscription's Dropped() counter is the safety valve: lost events mean
// lost invalidation sets, so a drop triggers one full reconcile per episode
// and selective application resumes from the fresh version.
package cache

import (
	"sync/atomic"
	"time"

	"unitycatalog/internal/events"
	"unitycatalog/internal/obs"
	"unitycatalog/internal/store"
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
	// GapReconciles recovered from a version gap via Refresh;
	// DropReconciles recovered from subscription loss via ReconcileFull.
	GapReconciles  int64
	DropReconciles int64
}

// Coherer drives one cache from one event subscription.
type Coherer struct {
	c    *Cache
	sub  *events.Subscription
	opts CohererOptions
	done chan struct{}

	lastDropped int64 // only touched by the run goroutine

	applied, stale, skipped       atomic.Int64
	invalidated, fullEquiv        atomic.Int64
	gapReconciles, dropReconciles atomic.Int64
}

// StartCoherer begins consuming sub and applying its events to c. The loop
// exits when sub is cancelled (or its bus closes the channel); Close does
// both and waits.
func StartCoherer(c *Cache, sub *events.Subscription, opts CohererOptions) *Coherer {
	co := &Coherer{c: c, sub: sub, opts: opts, done: make(chan struct{})}
	c.feeds.Add(1)
	go co.run()
	return co
}

func (co *Coherer) run() {
	defer close(co.done)
	defer co.c.feeds.Add(-1)
	for e := range co.sub.C {
		co.handle(e)
	}
}

func (co *Coherer) handle(e events.Event) {
	// Loss first: if the bus dropped events for this subscriber, some
	// invalidation sets are gone for good. Evict everything once per drop
	// episode; the event in hand is covered by the reconcile (it reads the
	// database's current version, which is ≥ e.Version).
	if d := co.sub.Dropped(); d > co.lastDropped {
		co.lastDropped = d
		co.dropReconciles.Add(1)
		for _, ms := range co.c.OwnedMetastores() {
			// A failed reconcile leaves the gap in place; the next event
			// reports ApplyGap and recovery retries via Refresh.
			_ = co.c.ReconcileFull(ms)
		}
		return
	}
	if e.Version == 0 {
		// Out-of-band announcement (e.g. table data commits published by the
		// transaction coordinator) — not a metastore version transition.
		co.skipped.Add(1)
		return
	}
	changes := make([]store.Change, len(e.Changes))
	for i, ch := range e.Changes {
		changes[i] = store.Change{Version: e.Version, Table: ch.Table, Key: ch.Key, Deleted: ch.Deleted}
	}
	inv, resident, res := co.c.ApplyChanges(e.Metastore, e.Version, changes)
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
		co.gapReconciles.Add(1)
		_ = co.c.Refresh(e.Metastore)
	default: // ApplyNotOwned
		co.skipped.Add(1)
	}
}

// Close cancels the subscription and waits for the loop to exit.
func (co *Coherer) Close() {
	co.sub.Cancel()
	<-co.done
}

// Metrics returns a snapshot of the loop's counters.
func (co *Coherer) Metrics() CohererMetrics {
	return CohererMetrics{
		EventsApplied:       co.applied.Load(),
		EventsStale:         co.stale.Load(),
		EventsSkipped:       co.skipped.Load(),
		Invalidated:         co.invalidated.Load(),
		FullEvictEquivalent: co.fullEquiv.Load(),
		GapReconciles:       co.gapReconciles.Load(),
		DropReconciles:      co.dropReconciles.Load(),
	}
}
