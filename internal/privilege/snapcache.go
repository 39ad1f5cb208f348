package privilege

import (
	"hash/maphash"
	"sync"
	"time"

	"unitycatalog/internal/obs"
)

// SnapshotCache keeps compiled Snapshots across requests and across
// versions, keyed by (scope, principal). A snapshot's memo describes the
// scope's hierarchy and grants at one version; a lookup at a later version
// moves it there along the scope's change log (Snapshot.advance), dropping
// the entries of the securables the commits in between wrote and keeping
// the rest — what the metadata cache does for records on a version
// mismatch (paper §4.5). A commit that writes neither a securable's row nor
// a grant costs the snapshots nothing.
//
// The rule that keeps this sound: a memo entry computed from readers at
// version v is only ever read by a request whose readers are at the version
// the snapshot describes. A snapshot's version and memo change only under
// its lock; an engine bound at v that finds the snapshot describing another
// version (a request pinned to an old view, or one that raced an advance)
// evaluates on a memo of its own (Compiled.lock), and a lookup below the
// snapshot's version is handed a transient snapshot, so slow readers can
// never roll the cache backwards. The memo is discarded whole only where
// the log cannot say what changed; see advance for the three cases.
//
// Group membership is compiled into a snapshot but group changes do not
// bump metadata versions, so entries additionally expire after MaxAge —
// the same bounded-staleness contract the directory's group cache already
// provides (its TTL bounds how stale a membership read can be; this TTL
// bounds how long a snapshot can keep using one). MaxAge is also what
// bounds a memo's lifetime and with it its growth.
//
// The cache is lock-striped into 32 shards by key hash with per-shard LRU
// eviction, and counts its outcomes on atomics so concurrent checks never
// serialize on metrics (PR 1's cache discipline).

const snapShardCount = 32

// SnapshotCacheMetrics is a point-in-time copy of the cache counters.
type SnapshotCacheMetrics struct {
	// Hits counts lookups served by a cached snapshot with its memo kept,
	// patched or not; Misses the rest.
	Hits   int64
	Misses int64
	// Builds counts snapshot compilations, including transient ones that
	// were never stored (stale-view requests racing a newer cached entry).
	Builds int64
	// Invalidations counts misses where a cached snapshot moved to a new
	// version with its memo discarded whole.
	Invalidations int64
	// Expirations counts misses where the snapshot had outlived MaxAge
	// (group-closure staleness bound).
	Expirations int64
	Evictions   int64
	Entries     int64
	// Patches counts hits that moved a snapshot to a new version along the
	// change log; MemoDropped the memo entries commits have cost, one by
	// one in a patch or all at once in an invalidation.
	Patches     int64
	MemoDropped int64
}

// SnapshotCacheOptions tunes the cache; zero values select the defaults.
type SnapshotCacheOptions struct {
	// MaxEntries caps the number of cached snapshots across all shards
	// (approximately — eviction is per shard). Default 4096.
	MaxEntries int
	// MaxAge bounds how long a snapshot's compiled group closure may be
	// reused. Default 30s, matching the directory's group-cache TTL.
	MaxAge time.Duration
}

type snapKey struct {
	scope     string
	principal Principal
}

type snapEntry struct {
	snap     *Snapshot
	built    time.Time
	lastUsed int64 // unix nanoseconds, guarded by the shard lock
}

type snapShard struct {
	mu      sync.Mutex
	entries map[snapKey]*snapEntry
}

// SnapshotCache is safe for concurrent use.
type SnapshotCache struct {
	opts    SnapshotCacheOptions
	touched Touched
	seed    maphash.Seed
	shards  [snapShardCount]snapShard
	now     func() time.Time // test hook

	hits          obs.Counter
	misses        obs.Counter
	builds        obs.Counter
	invalidations obs.Counter
	expirations   obs.Counter
	evictions     obs.Counter
	entries       obs.Gauge
	patches       obs.Counter
	memoDropped   obs.Counter
}

// NewSnapshotCache builds an empty cache whose snapshots follow the change
// log touched reads. With touched nil every version change discards the
// memo of the snapshot it reaches.
func NewSnapshotCache(opts SnapshotCacheOptions, touched Touched) *SnapshotCache {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 4096
	}
	if opts.MaxAge <= 0 {
		opts.MaxAge = 30 * time.Second
	}
	c := &SnapshotCache{opts: opts, touched: touched, seed: maphash.MakeSeed(), now: time.Now}
	for i := range c.shards {
		c.shards[i].entries = map[snapKey]*snapEntry{}
	}
	return c
}

func (c *SnapshotCache) shardFor(k snapKey) *snapShard {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteString(k.scope)
	h.WriteByte(0)
	h.WriteString(string(k.principal))
	return &c.shards[h.Sum64()%snapShardCount]
}

// Snapshot returns the compiled snapshot for (scope, principal), describing
// version; the caller binds it at that version. Scope names the metadata
// domain the version belongs to (for the catalog service, the metastore
// ID). A cached snapshot at an earlier version is moved forward; with none
// cached, or one older than MaxAge, a new one is compiled via groups.
//
// If the cache holds a *newer* version than requested — a request pinned to
// a stale view racing writers — the entry is left in place and a transient
// snapshot is compiled for the caller without being stored.
func (c *SnapshotCache) Snapshot(scope string, p Principal, version uint64, groups GroupResolver) *Snapshot {
	return c.SnapshotT(obs.SpanContext{}, scope, p, version, groups)
}

// SnapshotT is Snapshot with a trace context: a compilation records an
// "authz.build" span (group-closure expansion). Hits record nothing — they
// are the per-decision hot path.
func (c *SnapshotCache) SnapshotT(sc obs.SpanContext, scope string, p Principal, version uint64, groups GroupResolver) *Snapshot {
	key := snapKey{scope: scope, principal: p}
	sh := c.shardFor(key)
	now := c.now()

	sh.mu.Lock()
	e, ok := sh.entries[key]
	live := ok && now.Sub(e.built) < c.opts.MaxAge
	if live {
		e.lastUsed = now.UnixNano()
	}
	sh.mu.Unlock()

	if live {
		switch outcome, dropped := e.snap.advance(scope, version, c.touched); outcome {
		case advancedCurrent:
			c.hits.Add(1)
			return e.snap
		case advancedPatched:
			c.hits.Add(1)
			c.patches.Add(1)
			c.memoDropped.Add(int64(dropped))
			return e.snap
		case advancedDiscarded:
			c.misses.Add(1)
			c.invalidations.Add(1)
			c.memoDropped.Add(int64(dropped))
			return e.snap
		}
	}
	c.misses.Add(1)
	if ok && !live {
		c.expirations.Add(1)
	}

	// Compile outside the shard lock: group resolution may be slow, and
	// holding the lock would serialize unrelated principals on this shard.
	_, buildSpan := sc.StartDetail("authz.build", string(p))
	snap := NewSnapshot(p, groups)
	snap.version = version
	buildSpan.End()
	c.builds.Add(1)
	if live {
		return snap // the cached snapshot is ahead of this request's view
	}

	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch cur, exists := sh.entries[key]; {
	case !exists:
		c.entries.Add(1)
	case cur != e:
		return snap // a concurrent miss stored its snapshot while we compiled
	}
	sh.entries[key] = &snapEntry{snap: snap, built: now, lastUsed: now.UnixNano()}
	c.evictLocked(sh, key)
	return snap
}

// evictLocked drops the least-recently-used entry in sh (sparing keep) when
// the global count exceeds the cap. Per-shard eviction with a global
// counter is approximate but never deadlocks or takes two shard locks.
func (c *SnapshotCache) evictLocked(sh *snapShard, keep snapKey) {
	if int(c.entries.Load()) <= c.opts.MaxEntries {
		return
	}
	var victim snapKey
	var oldest int64
	found := false
	for k, e := range sh.entries {
		if k == keep {
			continue
		}
		if !found || e.lastUsed < oldest {
			victim, oldest, found = k, e.lastUsed, true
		}
	}
	if found {
		delete(sh.entries, victim)
		c.entries.Add(-1)
		c.evictions.Add(1)
	}
}

// RegisterMetrics exposes the snapshot-cache counters on r. Call once per
// registry per cache.
func (c *SnapshotCache) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("uc_authz_snapshot_hits_total", "Compiled-snapshot cache hits.", &c.hits)
	r.RegisterCounter("uc_authz_snapshot_misses_total", "Compiled-snapshot cache misses.", &c.misses)
	r.RegisterCounter("uc_authz_snapshot_builds_total", "Snapshot compilations (incl. transient).", &c.builds)
	r.RegisterCounter("uc_authz_snapshot_invalidations_total", "Snapshots whose memo a version change discarded whole.", &c.invalidations)
	r.RegisterCounter("uc_authz_snapshot_expirations_total", "Misses caused by the group-closure TTL.", &c.expirations)
	r.RegisterCounter("uc_authz_snapshot_evictions_total", "Snapshots evicted by the LRU cap.", &c.evictions)
	r.RegisterGauge("uc_authz_snapshot_entries", "Cached compiled snapshots.", &c.entries)
	r.RegisterCounter("uc_authz_snapshot_patches_total", "Snapshots moved to a new version along the change log, memo kept.", &c.patches)
	r.RegisterCounter("uc_authz_snapshot_memo_dropped_total", "Memo entries dropped because of a version change.", &c.memoDropped)
	r.RegisterGaugeFunc("uc_authz_snapshot_memo_entries", "Memo entries held by the cached snapshots.", func() float64 { return float64(c.MemoEntries()) })
}

// Metrics returns a copy of the counters.
func (c *SnapshotCache) Metrics() SnapshotCacheMetrics {
	return SnapshotCacheMetrics{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Builds:        c.builds.Load(),
		Invalidations: c.invalidations.Load(),
		Expirations:   c.expirations.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       c.entries.Load(),
		Patches:       c.patches.Load(),
		MemoDropped:   c.memoDropped.Load(),
	}
}

// MemoEntries counts the memo entries the cached snapshots hold. It visits
// every snapshot, so it is for a metrics scrape, not a request.
func (c *SnapshotCache) MemoEntries() int64 {
	var snaps []*Snapshot
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			snaps = append(snaps, e.snap)
		}
		sh.mu.Unlock()
	}
	var n int64
	for _, s := range snaps {
		s.mu.Lock()
		n += int64(s.memo.size())
		s.mu.Unlock()
	}
	return n
}
