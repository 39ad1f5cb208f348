// Package cache implements the mutable-metadata cache of the paper's
// Section 4.5: a write-through, multi-version, in-memory cache over the
// ACID metadata store that preserves metastore-level snapshot reads and
// serializable writes without distributed consensus.
//
// Design, mirroring the paper:
//
//   - A cache node *owns* one or more metastores and caches only those.
//     Ownership is best effort and not exclusive: two nodes may cache the
//     same metastore. The database's serializable transaction is what makes
//     a write correct; the cache only writes through.
//   - Each owned metastore has an in-memory *known version*. The invariant
//     is that every cached record's newest version is the latest as of the
//     known version.
//   - Reads are served at a pinned version (snapshot isolation). Cache
//     misses fall through to the database; before caching the result, the
//     node validates that its known version is still the database's current
//     version, reconciling otherwise.
//   - A write commits once, at whatever version the database sequences it.
//     Then the node reconciles up to the version before it and installs the
//     written records at its version (write-through) — unless a reconcile
//     already passed it, which invalidated those records.
//   - A node hears of another node's commit by asking, synchronously:
//     NewView compares the known version with the database's, a view's first
//     miss does so again, and a write of its own reconciles up to its
//     version. So a view opens at the database's current version, and a
//     warm node does not go on serving hits at a version another node has
//     replaced. Nothing is pushed to a node.
//   - Reconciliation is selective: the node consults the store's change log
//     and invalidates only the records that changed. It evicts everything
//     for the metastore only when the log no longer covers its known version
//     or cannot be read.
//   - Two eviction mechanisms bound memory: an LRU policy evicts
//     unpopular records with all their versions, and old versions of
//     popular records are pruned lazily once past the API-timeout horizon,
//     because no in-flight request can still need them.
//
// # Concurrency model
//
// The production traffic the paper reports is 98.2% metadata reads, so the
// cached read path is built to be contention-free across cores:
//
//   - Each metastore's records are split into numShards lock-striped shards
//     keyed by a hash of the record key. A cache hit takes only its shard's
//     RLock; hits on different assets touch different locks.
//   - Hit bookkeeping (lastUsed, on Options.Clock) and all effectiveness
//     counters are sync/atomic values, so a hit mutates nothing under a lock.
//   - The metastore's known version is an atomic. Operations that must
//     change it together with cached state (reconciliation, write-through
//     installation) acquire every shard lock in index order; the miss
//     path's "insert only if the view is still at the known version" check
//     runs under a single shard lock, which suffices because the known
//     version cannot change while any shard lock is held.
//   - A View's pin state is one atomic word (pin bit | version), so a view
//     shared by many goroutines stays on a single consistent snapshot: the
//     version changes only by the CAS that also sets the pin bit.
//   - Cold point misses are coalesced by a per-metastore singleflight keyed
//     by (version, record key): a thundering herd on one cold key issues one
//     database read; latecomers wait for the leader's result.
//   - Scan and ScanRange cache nothing: they read the store's ordered index
//     at the view's version (store.DB.ScanRangeAt), and during an outage they
//     fail closed.
//   - GetBatch serves its hits key by key, then fills every miss from one
//     store snapshot and one multi-get — one database round trip per batch,
//     outside the singleflight: the batches of concurrent list pages rarely
//     name the same cold keys, and a flight per key would put the whole
//     batch behind flightMu once per key. Each fetched record is inserted
//     under its shard lock with the same "view still at the known version"
//     guard as a single-key miss, but only into free room: a batch never
//     runs the evictor, so a listing page cannot displace the working set
//     its point reads built.
//   - Eviction is per-shard with approximate global accounting: inserts
//     bump an atomic entry count, and when it exceeds the cap the least
//     recently used of a bounded sample of one shard's records (rotating
//     across shards) is the victim, so eviction never stops the world and
//     costs the same whatever the cap.
//
// # Graceful degradation
//
// When the database reports an Unavailable fault (an outage, not a one-off
// error), the metastore enters *degraded mode*: reads that miss at the
// view's pinned version fall back to the newest cached version of the
// record, bounded by Options.MaxStaleness since the node last heard from
// the database. Past the bound the cache fails closed. Degraded serving is
// tracked by dedicated metrics and surfaced through Health for /healthz;
// the first successful database interaction clears the flag, and the next
// reconciliation converges the cache to the database's current version.
//
// # Decoded forms
//
// The cache serves assets, not bytes: each cached record version carries the
// decoded form of its value beside the bytes, filled by the first
// View.GetDecoded that reads it and handed to every later one, so a point read
// on a warm cache decodes nothing. The decoded form is a field of the
// (record, version) pair and has no life of its own: a view at V finds V's
// bytes and V's decoded form together, a commit installs the new version with
// nothing decoded, and eviction, reconciliation and version pruning drop the
// form with the version it belongs to. GetBatch neither reads nor fills it —
// a batch is decoded into one slab by its caller, and a slab element kept
// here would pin its page.
//
// Values returned by Get, GetBatch, GetDecoded and Scan are shared with the
// cache and the store — the bytes and the decoded forms alike; callers must
// treat them as immutable.
package cache

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unitycatalog/internal/clock"
	"unitycatalog/internal/faults"
	"unitycatalog/internal/obs"
	"unitycatalog/internal/store"
)

// numShards is the lock-striping factor for each metastore's record map. Power of two; sized so that at typical server core counts two
// concurrent hits rarely share a lock, while keeping the cost of
// all-shard operations (reconcile, write-through) trivial.
const numShards = 32

// Options configures a Cache.
type Options struct {
	// MaxEntriesPerMetastore bounds cached records per metastore
	// (0 means 1<<20).
	MaxEntriesPerMetastore int
	// VersionRetention is how long superseded record versions are kept for
	// in-flight readers — the paper ties this to the API timeout enforced
	// by the upstream proxy. Zero means 30 seconds.
	VersionRetention time.Duration
	// Disabled bypasses the cache entirely (every read hits the database);
	// used by the Figure 10(b) benchmark's no-cache arm.
	Disabled bool
	// MaxStaleness bounds how stale a degraded-mode read may be: when the
	// database is unavailable, cached data is served only while the time
	// since the node last heard from the database stays within this bound.
	// Zero means 2 minutes; negative disables degraded serving entirely.
	MaxStaleness time.Duration
	// Clock supplies time for the staleness bound (nil means real time).
	// Tests inject a fake to walk a degraded cache past its bound.
	Clock clock.Clock
}

// Metrics is a point-in-time snapshot of the cache effectiveness counters.
type Metrics struct {
	Hits, Misses int64
	// CoalescedMisses counts misses that piggybacked on another in-flight
	// database read for the same (version, key) instead of issuing their own.
	CoalescedMisses     int64
	FullReconciles      int64
	SelectiveReconciles int64
	Evictions           int64
	// DegradedReads counts reads served from stale cached data while the
	// database was unavailable; DegradedMisses counts degraded reads that
	// found nothing cached; DegradedDenied counts reads refused because the
	// staleness bound was exceeded (fail closed).
	DegradedReads  int64
	DegradedMisses int64
	DegradedDenied int64
	// Outages counts transitions into degraded mode; Recoveries counts
	// transitions back to healthy.
	Outages    int64
	Recoveries int64
	// DecodedHits counts GetDecoded reads handed a decoded form a cached
	// version already held; Decodes counts calls of a decode function — one
	// per (record, version) a view reads first, one per read that finds
	// nothing cached to keep the form in.
	DecodedHits int64
	Decodes     int64
}

// counters holds the live counters behind Metrics. obs.Counter is an atomic
// add, so the hit path's cost is unchanged; the same values also feed the
// /metrics registry via RegisterMetrics.
type counters struct {
	hits, misses        obs.Counter
	coalescedMisses     obs.Counter
	fullReconciles      obs.Counter
	selectiveReconciles obs.Counter
	evictions           obs.Counter
	degradedReads       obs.Counter
	degradedMisses      obs.Counter
	degradedDenied      obs.Counter
	outages             obs.Counter
	recoveries          obs.Counter
	decodedHits         obs.Counter
	decodes             obs.Counter
}

type cachedVersion struct {
	version  uint64
	value    []byte
	deleted  bool
	cachedAt time.Time
	// decoded is value's decoded form, nil until a GetDecoded fills it (under
	// the shard's write lock) and immutable afterwards.
	decoded any
}

type cachedRecord struct {
	// key is the record's key as the shard's map holds it: the string a
	// decoded form may alias, since the map keeps it for as long as the record
	// is cached whatever the caller of a later read passed.
	key      string
	versions []cachedVersion // ascending by version; guarded by the shard lock
	// Eviction bookkeeping, updated lock-free on the hit path.
	lastUsed atomic.Int64 // unix nanoseconds on Options.Clock
	// one holds versions while the record has a single one, so that caching a
	// record is one allocation: a 128-byte object (a malloc size class), 48
	// bytes of record and 80 of version.
	one [1]cachedVersion
}

func (r *cachedRecord) touch(now time.Time) { r.lastUsed.Store(now.UnixNano()) }

// live is cv unless it records a deletion.
func (cv cachedVersion) live() (cachedVersion, bool) {
	if cv.deleted {
		return cachedVersion{}, false
	}
	return cv, true
}

// at returns a copy of the newest version of the record no newer than v.
func (r *cachedRecord) at(v uint64) (cv cachedVersion, ok bool) {
	for i := len(r.versions) - 1; i >= 0; i-- {
		if r.versions[i].version <= v {
			return r.versions[i], true
		}
	}
	return cachedVersion{}, false
}

// shard is one lock stripe of a metastore's cached state.
type shard struct {
	mu sync.RWMutex
	// records keyed by (table, key); these include the secondary-key index
	// records (name→id, path→id), so the cache serves lookups by ID, name,
	// or path, as the paper describes.
	records map[cacheKey]*cachedRecord
}

// cacheKey names a cached record (table, key). A struct key hashes both
// parts in place, so a lookup allocates nothing.
type cacheKey struct{ table, key string }

// flight is one in-progress database read shared by coalesced misses.
type flight struct {
	done  chan struct{}
	val   []byte
	found bool
	err   error
}

type msCache struct {
	// knownVersion is read lock-free on the hot path; it is only written
	// while every shard lock is held.
	knownVersion atomic.Uint64
	shards       [numShards]shard
	// entries approximates the total record count across shards.
	entries     atomic.Int64
	evictCursor atomic.Uint32

	// degraded marks the metastore as serving through a database outage;
	// lastSync is the unix-nano time of the last successful database
	// interaction, bounding how stale degraded reads may get.
	degraded atomic.Bool
	lastSync atomic.Int64

	// writers counts this node's Updates in flight; see NewViewT.
	writers atomic.Int32

	// decodedHits and decodes are this metastore's share of the node's
	// counters of the same names, for Health.
	decodedHits, decodes atomic.Int64

	flightMu sync.Mutex
	flight   map[flightKey]*flight
}

// flightKey identifies one coalesced point read: ck at a version.
type flightKey struct {
	version uint64
	ck      cacheKey
}

func newMsCache(v uint64, now time.Time) *msCache {
	m := &msCache{flight: map[flightKey]*flight{}}
	m.knownVersion.Store(v)
	m.lastSync.Store(now.UnixNano())
	for i := range m.shards {
		m.shards[i].records = map[cacheKey]*cachedRecord{}
	}
	return m
}

func (m *msCache) shardFor(ck cacheKey) *shard {
	// Inline FNV-1a over table, a zero separator byte, and key; the stdlib
	// hash/fnv allocates.
	h := uint32(2166136261)
	for i := 0; i < len(ck.table); i++ {
		h ^= uint32(ck.table[i])
		h *= 16777619
	}
	h *= 16777619 // the separator: h ^ 0 == h
	for i := 0; i < len(ck.key); i++ {
		h ^= uint32(ck.key[i])
		h *= 16777619
	}
	return &m.shards[h&(numShards-1)]
}

// lockAll acquires every shard lock in index order. While held, no shard
// operation can run, so knownVersion and cached state can change together.
func (m *msCache) lockAll() {
	for i := range m.shards {
		m.shards[i].mu.Lock()
	}
}

func (m *msCache) unlockAll() {
	for i := range m.shards {
		m.shards[i].mu.Unlock()
	}
}

// doFlight runs fn once per key among concurrent callers. The leader (the
// caller that runs fn) gets leader=true; the rest block until the leader
// finishes and share its flight result.
func (m *msCache) doFlight(key flightKey, fn func(*flight)) (f *flight, leader bool) {
	m.flightMu.Lock()
	if f, ok := m.flight[key]; ok {
		m.flightMu.Unlock()
		<-f.done
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	m.flight[key] = f
	m.flightMu.Unlock()
	fn(f)
	m.flightMu.Lock()
	delete(m.flight, key)
	m.flightMu.Unlock()
	close(f.done)
	return f, true
}

// Cache is a cache node, owning and caching a set of metastores over one DB.
type Cache struct {
	db   *store.DB
	opts Options

	mu    sync.RWMutex
	owned map[string]*msCache

	metrics counters
}

// New returns a cache node over db.
func New(db *store.DB, opts Options) *Cache {
	if opts.MaxEntriesPerMetastore == 0 {
		opts.MaxEntriesPerMetastore = 1 << 20
	}
	if opts.VersionRetention == 0 {
		opts.VersionRetention = 30 * time.Second
	}
	if opts.MaxStaleness == 0 {
		opts.MaxStaleness = 2 * time.Minute
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	return &Cache{db: db, opts: opts, owned: map[string]*msCache{}}
}

func (c *Cache) now() time.Time { return c.opts.Clock.Now() }

// noteDBSuccess records a successful database interaction: the staleness
// reference point advances and an outage, if any, is over.
func (c *Cache) noteDBSuccess(m *msCache) {
	m.lastSync.Store(c.now().UnixNano())
	if m.degraded.CompareAndSwap(true, false) {
		c.metrics.recoveries.Add(1)
	}
}

// noteDBError enters degraded mode when the database reports an outage.
// One-off failures (Transient, Timeout, Throttled) do not trip the flag:
// they are the retry layer's job, not the cache's.
func (c *Cache) noteDBError(m *msCache, err error) {
	if faults.Is(err, faults.Unavailable) {
		if m.degraded.CompareAndSwap(false, true) {
			c.metrics.outages.Add(1)
		}
	}
}

// staleAllowed reports whether a degraded read is still within the
// staleness bound.
func (c *Cache) staleAllowed(m *msCache) bool {
	if c.opts.MaxStaleness < 0 {
		return false
	}
	return c.now().Sub(time.Unix(0, m.lastSync.Load())) <= c.opts.MaxStaleness
}

// Metrics returns a snapshot of the cache counters.
func (c *Cache) Metrics() Metrics {
	return Metrics{
		Hits:                c.metrics.hits.Load(),
		Misses:              c.metrics.misses.Load(),
		CoalescedMisses:     c.metrics.coalescedMisses.Load(),
		FullReconciles:      c.metrics.fullReconciles.Load(),
		SelectiveReconciles: c.metrics.selectiveReconciles.Load(),
		Evictions:           c.metrics.evictions.Load(),
		DegradedReads:       c.metrics.degradedReads.Load(),
		DegradedMisses:      c.metrics.degradedMisses.Load(),
		DegradedDenied:      c.metrics.degradedDenied.Load(),
		Outages:             c.metrics.outages.Load(),
		Recoveries:          c.metrics.recoveries.Load(),
		DecodedHits:         c.metrics.decodedHits.Load(),
		Decodes:             c.metrics.decodes.Load(),
	}
}

// RegisterMetrics exposes the cache counters on r. Call once per registry
// per cache node.
func (c *Cache) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("uc_cache_hits_total", "Record reads served from cache.", &c.metrics.hits)
	r.RegisterCounter("uc_cache_misses_total", "Record reads that fell through to the database.", &c.metrics.misses)
	r.RegisterCounter("uc_cache_coalesced_misses_total", "Misses that piggybacked on an in-flight database read.", &c.metrics.coalescedMisses)
	r.RegisterCounter("uc_cache_full_reconciles_total", "Full (evict-everything) reconciliations.", &c.metrics.fullReconciles)
	r.RegisterCounter("uc_cache_selective_reconciles_total", "Change-log-driven selective reconciliations.", &c.metrics.selectiveReconciles)
	r.RegisterCounter("uc_cache_evictions_total", "Records evicted by the cache policy.", &c.metrics.evictions)
	r.RegisterCounter("uc_cache_degraded_reads_total", "Reads served from stale cache during a database outage.", &c.metrics.degradedReads)
	r.RegisterCounter("uc_cache_degraded_misses_total", "Degraded reads that found nothing cached.", &c.metrics.degradedMisses)
	r.RegisterCounter("uc_cache_degraded_denied_total", "Degraded reads refused past the staleness bound.", &c.metrics.degradedDenied)
	r.RegisterCounter("uc_cache_outages_total", "Transitions into degraded mode.", &c.metrics.outages)
	r.RegisterCounter("uc_cache_recoveries_total", "Transitions back to healthy.", &c.metrics.recoveries)
	r.RegisterCounter("uc_cache_decoded_hits_total", "Point reads served a cached version's decoded form.", &c.metrics.decodedHits)
	r.RegisterCounter("uc_cache_decodes_total", "Records decoded for a point read.", &c.metrics.decodes)
	r.RegisterGaugeFunc("uc_cache_degraded", "1 when any owned metastore is serving degraded.", func() float64 {
		if c.Degraded() {
			return 1
		}
		return 0
	})
}

// MetastoreHealth describes one owned metastore's cache state for health
// endpoints.
type MetastoreHealth struct {
	MetastoreID   string        `json:"metastore_id"`
	Degraded      bool          `json:"degraded"`
	KnownVersion  uint64        `json:"known_version"`
	SinceLastSync time.Duration `json:"since_last_sync"`
	Entries       int64         `json:"entries"`
	// DecodedHits and Decodes are Metrics' counters of those names for this
	// metastore: point reads handed a cached decoded form, and records decoded.
	DecodedHits int64 `json:"decoded_hits"`
	Decodes     int64 `json:"decodes"`
}

// Health reports per-metastore degradation state, sorted by metastore ID.
func (c *Cache) Health() []MetastoreHealth {
	now := c.now()
	c.mu.RLock()
	out := make([]MetastoreHealth, 0, len(c.owned))
	for id, m := range c.owned {
		out = append(out, MetastoreHealth{
			MetastoreID:   id,
			Degraded:      m.degraded.Load(),
			KnownVersion:  m.knownVersion.Load(),
			SinceLastSync: now.Sub(time.Unix(0, m.lastSync.Load())),
			Entries:       m.entries.Load(),
			DecodedHits:   m.decodedHits.Load(),
			Decodes:       m.decodes.Load(),
		})
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].MetastoreID < out[j].MetastoreID })
	return out
}

// Degraded reports whether any owned metastore is in degraded mode.
func (c *Cache) Degraded() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, m := range c.owned {
		if m.degraded.Load() {
			return true
		}
	}
	return false
}

// Own registers a metastore with this node, initializing its known version
// from the database.
func (c *Cache) Own(msID string) error {
	v, err := c.db.Version(msID)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.owned[msID]; !ok {
		c.owned[msID] = newMsCache(v, c.now())
	}
	return nil
}

func (c *Cache) owner(msID string) (*msCache, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.owned[msID]
	if !ok {
		return nil, fmt.Errorf("cache: metastore %s not owned by this node", msID)
	}
	return m, nil
}

// reconcileAllLocked brings the metastore cache up to version target, which
// the database has applied: it invalidates exactly what the change log names
// in (known, target] and sets the known version to target. A log trimmed past
// the known version, or any error reading it, evicts everything instead. A
// target at or below the known version changes nothing. Caller must hold
// every shard lock (lockAll).
func (c *Cache) reconcileAllLocked(msID string, m *msCache, target uint64) error {
	known := m.knownVersion.Load()
	if target <= known {
		return nil
	}
	changes, err := c.db.ChangesSince(msID, known)
	if err == nil {
		invalidateChangesLocked(m, changes, target)
		m.knownVersion.Store(target)
		c.metrics.selectiveReconciles.Add(1)
		return nil
	}
	evictAllLocked(m, target)
	c.metrics.fullReconciles.Add(1)
	if errors.Is(err, store.ErrChangeLogTrimmed) {
		return nil
	}
	c.noteDBError(m, err)
	return err
}

// invalidateChangesLocked drops exactly the cached records named by the
// changes at or below version target. Caller must hold every shard lock
// (lockAll).
func invalidateChangesLocked(m *msCache, changes []store.Change, target uint64) {
	for _, ch := range changes {
		if ch.Version > target {
			return
		}
		rk := cacheKey{ch.Table, ch.Key}
		sh := m.shardFor(rk)
		if _, ok := sh.records[rk]; ok {
			delete(sh.records, rk)
			m.entries.Add(-1)
		}
	}
}

// evictAllLocked drops every cached record and sets the known version to
// newV. Caller must hold every shard lock (lockAll).
func evictAllLocked(m *msCache, newV uint64) {
	for i := range m.shards {
		m.shards[i].records = map[cacheKey]*cachedRecord{}
	}
	m.entries.Store(0)
	m.knownVersion.Store(newV)
}

// ReconcileFull forcibly evicts everything cached for msID and re-pins the
// known version from the database. The serving path evicts everything only
// when the change log is trimmed; this is the benchmark's cold-cache reset
// and the full-evict arm of the reconcile ablation and differential test.
func (c *Cache) ReconcileFull(msID string) error {
	if c.opts.Disabled {
		return nil
	}
	m, err := c.owner(msID)
	if err != nil {
		return err
	}
	m.lockAll()
	defer m.unlockAll()
	dbV, err := c.db.Version(msID)
	if err != nil {
		c.noteDBError(m, err)
		return err
	}
	c.noteDBSuccess(m)
	evictAllLocked(m, dbV)
	c.metrics.fullReconciles.Add(1)
	return nil
}

// pinnedBit marks a View's state word as pinned; the remaining bits are the
// view's snapshot version.
const pinnedBit = uint64(1) << 63

// View is a snapshot-isolated read view of one metastore served from the
// cache with database fallback. It opens at the database's current version
// (NewViewT checks the node's known version against it) and pins lazily: a
// view whose *first* access misses the cache validates the known version
// against the database and reconciles before pinning — the paper's "on
// every DB read, the node checks that its in-memory version is the latest"
// — so fresh requests observe other nodes' committed writes, while accesses
// after pinning stay on one consistent snapshot. Close releases the
// underlying DB snapshot if one was opened.
//
// A View is safe for concurrent use: the pin state is a single atomic word,
// so all goroutines sharing a view observe one consistent snapshot version.
type View struct {
	c    *Cache
	msID string
	m    *msCache
	// state packs pinnedBit with the snapshot version. The version changes
	// only via the CAS that also sets the pin bit, so once any access pins
	// the view its version is immutable.
	state atomic.Uint64
	snap  *store.Snapshot // cache-disabled mode reads straight from this
	// sc scopes this view's database-fallback work (misses, reconciles) to
	// the request's trace. Hits record no spans.
	sc obs.SpanContext
	// verr records the last backend error a read on this view absorbed, so
	// callers can distinguish "not found" from "backend unavailable".
	verr atomic.Pointer[viewErr]
}

// viewErr boxes an error for atomic storage.
type viewErr struct{ err error }

func (v *View) setErr(err error) { v.verr.Store(&viewErr{err: err}) }

// Err returns the last backend error absorbed by a read on this view, or
// nil. A non-nil Err means a recent "not found" result may really
// be "could not read": callers should report the backend failure rather
// than a spurious NotFound.
func (v *View) Err() error {
	if e := v.verr.Load(); e != nil {
		return e.err
	}
	return nil
}

// NewView opens a read view of the metastore (OpenView) in a View of its
// own.
func (c *Cache) NewView(msID string) (*View, error) {
	v := new(View)
	if err := c.OpenView(v, obs.SpanContext{}, msID); err != nil {
		return nil, err
	}
	return v, nil
}

// OpenView opens a read view of the metastore in v, a zero View its caller
// owns (a request keeps its view beside the rest of its state, one object),
// with a trace context: the view's cache misses and reconciliations record
// spans under sc. When the cache is disabled, the view reads straight from a
// DB snapshot. It first brings the node up to the database's current version,
// which is the one consistency statement every node makes: a view opens at
// the version the database had when it was asked.
func (c *Cache) OpenView(v *View, sc obs.SpanContext, msID string) error {
	v.c, v.msID, v.sc = c, msID, sc
	if c.opts.Disabled {
		snap, err := c.db.Snapshot(msID)
		if err != nil {
			return err
		}
		v.snap = snap
		v.state.Store(snap.Version | pinnedBit)
		return nil
	}
	m, err := c.owner(msID)
	if err != nil {
		return err
	}
	if m.writers.Load() == 0 {
		// Nothing tells this node of another writer's commit — another node's,
		// or txn.Coordinator's on this one — and a first access that hits
		// would never ask. (Mid-write the database is ahead only by that
		// write, and a reconcile would drop what it is about to install.) A
		// failure is left to the read path, which serves degraded at the known
		// version.
		_ = c.catchUp(sc, msID, m)
	}
	v.m = m
	v.state.Store(m.knownVersion.Load())
	return nil
}

// Version returns the snapshot version the view reads at.
func (v *View) Version() uint64 { return v.state.Load() &^ pinnedBit }

func (v *View) pinned() bool { return v.state.Load()&pinnedBit != 0 }

// catchUp reconciles the metastore cache if the database is ahead of the
// known version; when it is not, no shard lock is taken.
func (c *Cache) catchUp(sc obs.SpanContext, msID string, m *msCache) error {
	dbV, err := c.db.Version(msID)
	if err != nil {
		c.noteDBError(m, err)
		return err
	}
	if dbV == m.knownVersion.Load() {
		c.noteDBSuccess(m)
		return nil
	}
	c.noteDBSuccess(m)
	_, span := sc.StartDetail("cache.reconcile", msID)
	defer span.End()
	m.lockAll()
	defer m.unlockAll()
	return c.reconcileAllLocked(msID, m, dbV)
}

// pinOnMiss validates the known version against the database (reconciling
// if another node advanced it) and pins the view. No-op if the view pinned
// concurrently: the CAS below lets exactly one caller set the version.
func (v *View) pinOnMiss() {
	st := v.state.Load()
	if st&pinnedBit != 0 {
		return
	}
	target := st // unpinned, so the word is the version
	if err := v.c.catchUp(v.sc, v.msID, v.m); err == nil {
		target = v.m.knownVersion.Load()
	}
	// A concurrent hit may have pinned the view at its original version in
	// the meantime (or a concurrent miss at a newer one); that pin wins.
	v.state.CompareAndSwap(st, target|pinnedBit)
}

// tryHit serves (and pins) a cache hit for rk, if present at the view's
// version. The retry loop handles the race between finding a value at an
// unpinned version and another goroutine pinning the view elsewhere.
func (v *View) tryHit(sh *shard, rk cacheKey) (cv cachedVersion, ok bool) {
	for {
		st := v.state.Load()
		ver := st &^ pinnedBit
		sh.mu.RLock()
		rec := sh.records[rk]
		var found bool
		if rec != nil {
			cv, found = rec.at(ver)
		}
		sh.mu.RUnlock()
		if !found {
			return cachedVersion{}, false
		}
		if st&pinnedBit == 0 && !v.state.CompareAndSwap(st, ver|pinnedBit) {
			// The view pinned under us, possibly at a different version;
			// re-serve at the authoritative version.
			continue
		}
		rec.touch(v.c.now())
		return cv, true
	}
}

// Get returns the value of (table, key) as of the view's version. The
// returned bytes are shared with the cache and must not be mutated.
func (v *View) Get(table, key string) ([]byte, bool) {
	if v.snap != nil { // cache disabled
		return v.snap.Get(table, key)
	}
	rk := cacheKey{table, key}
	cv, ok := v.read(v.m.shardFor(rk), rk)
	return cv.value, ok
}

// GetDecoded returns the decoded form of the value of (table, key) as of the
// view's version: what decode makes of the record, kept beside the cached
// version it was made from and handed to every later read of that version, so
// decode runs once per (record, version) and a read on a warm cache decodes
// nothing. ok is false when the record is absent or decode fails.
//
// The decoded form is shared exactly as the bytes Get returns are: callers
// must treat it as immutable. decode is given the record's key — the cache's
// own copy, which the form may keep — and the cached bytes, which it may
// alias (the cached version that holds the form holds them too). It may run
// under a shard lock and must not call into the cache. Every caller reading a
// table through GetDecoded must pass the same function for it. When nothing
// is cached to keep the form in (cache disabled, a view behind the known
// version, a record evicted in between) the read decodes privately.
func (v *View) GetDecoded(table, key string, decode func(key string, rec []byte) (any, error)) (any, bool) {
	if v.snap != nil { // cache disabled
		rec, ok := v.snap.Get(table, key)
		if !ok {
			return nil, false
		}
		d, err := decode(key, rec)
		return d, err == nil && d != nil
	}
	rk := cacheKey{table, key}
	sh := v.m.shardFor(rk)
	cv, ok := v.read(sh, rk)
	if !ok {
		return nil, false
	}
	if cv.decoded != nil {
		v.noteDecodedHit()
		return cv.decoded, true
	}
	// The first decoding read of this version — a miss just filled, a version
	// written through, one a Get or GetBatch cached: decode into the cached
	// version, under the lock that guards it, so that concurrent first reads
	// share one form.
	sh.mu.Lock()
	if rec := sh.records[rk]; rec != nil {
		for i := range rec.versions {
			slot := &rec.versions[i]
			if slot.version != cv.version {
				continue
			}
			if slot.decoded == nil {
				v.noteDecode()
				if d, err := decode(rec.key, slot.value); err == nil {
					slot.decoded = d
				}
			} else {
				v.noteDecodedHit()
			}
			d := slot.decoded
			sh.mu.Unlock()
			return d, d != nil
		}
	}
	sh.mu.Unlock()
	v.noteDecode()
	d, err := decode(key, cv.value)
	return d, err == nil && d != nil
}

func (v *View) noteDecodedHit() {
	v.c.metrics.decodedHits.Add(1)
	v.m.decodedHits.Add(1)
}

func (v *View) noteDecode() {
	v.c.metrics.decodes.Add(1)
	v.m.decodes.Add(1)
}

// read is the point read behind Get and GetDecoded: the live version of rk the
// view is served — a cache hit, a miss filled from the database, or during an
// outage the newest cached one. ok is false, and cv zero, when the record is
// absent or deleted at the view's version or could not be read (see Err).
func (v *View) read(sh *shard, rk cacheKey) (cv cachedVersion, ok bool) {
	if cv, ok := v.tryHit(sh, rk); ok {
		v.c.metrics.hits.Add(1)
		return cv.live()
	}
	v.c.metrics.misses.Add(1)

	// First-access miss: validate the node's version against the DB and
	// reconcile, so this view observes other nodes' commits.
	if !v.pinned() {
		v.pinOnMiss()
		// The reconciled cache may now hold the record (selective
		// reconciliation keeps unchanged entries).
		if cv, ok := v.tryHit(sh, rk); ok {
			v.c.metrics.hits.Add(1)
			return cv.live()
		}
	}

	// Miss: read from the database at the pinned version, coalescing
	// concurrent misses on the same (version, key) into one read. The
	// leader installs the result before the flight closes, so latecomers
	// either join the flight or hit the cache — never re-read the DB.
	ver := v.Version()
	_, missSpan := v.sc.StartDetail("cache.getmiss", rk.table)
	defer missSpan.End()
	f, leader := v.m.doFlight(flightKey{ver, rk}, func(f *flight) {
		snap, err := v.c.db.SnapshotAt(v.msID, ver)
		if err != nil {
			f.err = err
			return
		}
		f.val, f.found = snap.Get(rk.table, rk.key)
		snap.Close()
		// Cache the result only when the view is at the cache's current
		// known version; otherwise a change in (view, known] could make the
		// insert stale with respect to newer readers. knownVersion cannot
		// change while this shard lock is held (writers take all shards).
		sh.mu.Lock()
		if v.m.knownVersion.Load() == ver {
			v.c.insertShardLocked(v.m, sh, rk, cachedVersion{version: ver, value: f.val, deleted: !f.found, cachedAt: v.c.now()}, store.Derived(rk.table))
		}
		sh.mu.Unlock()
		v.c.maybeEvict(v.m)
	})
	if f.err != nil {
		v.c.noteDBError(v.m, f.err)
		if faults.Is(f.err, faults.Unavailable) {
			if cv, served := v.degradedGet(sh, rk); served {
				return cv.live()
			}
		}
		v.setErr(f.err)
		return cachedVersion{}, false
	}
	v.c.noteDBSuccess(v.m)
	if !leader {
		v.c.metrics.coalescedMisses.Add(1)
	}
	if !f.found {
		return cachedVersion{}, false
	}
	return cachedVersion{version: ver, value: f.val}, true
}

// degradedGet is the outage fallback: serve the newest cached version of
// rk regardless of the view's pinned version, provided the staleness bound
// allows it. Returns served=false when the bound is exceeded (fail closed)
// or nothing is cached.
func (v *View) degradedGet(sh *shard, rk cacheKey) (cv cachedVersion, served bool) {
	if !v.c.staleAllowed(v.m) {
		v.c.metrics.degradedDenied.Add(1)
		return cachedVersion{}, false
	}
	sh.mu.RLock()
	rec := sh.records[rk]
	ok := rec != nil && len(rec.versions) > 0
	if ok {
		cv = rec.versions[len(rec.versions)-1]
	}
	sh.mu.RUnlock()
	if !ok {
		v.c.metrics.degradedMisses.Add(1)
		return cachedVersion{}, false
	}
	rec.touch(v.c.now())
	v.c.metrics.degradedReads.Add(1)
	return cv, true
}

// Scan returns live pairs with the key prefix as of the view's version: the
// range ScanRange(table, prefix, store.PrefixEnd(prefix), 0) reads.
func (v *View) Scan(table, prefix string) []store.KV {
	if v.snap != nil { // cache disabled
		return v.snap.Scan(table, prefix)
	}
	return v.scan(table, prefix, prefix, "", 0)
}

// ScanRange returns up to limit live pairs with start <= key < end (end ""
// means unbounded, limit 0 means no limit) as of the view's version.
func (v *View) ScanRange(table, start, end string, limit int) []store.KV {
	if v.snap != nil { // cache disabled
		return v.snap.ScanRange(table, start, end, limit)
	}
	return v.scan(table, "", start, end, limit)
}

// scan is Scan and ScanRange: a read of the store's ordered index at the
// view's version in O(log n + result), cached nowhere. During an outage it
// returns nil with the backend error on Err.
func (v *View) scan(table, prefix, start, end string, limit int) []store.KV {
	var kvs []store.KV
	v.rangeRead(table, func(at uint64) (err error) {
		kvs, err = v.c.db.ScanRangeAt(v.msID, at, table, prefix, start, end, limit)
		return err
	})
	return kvs
}

// GroupRows is store.Snapshot.GroupRows at the view's version: a derived
// table's rows in its source's terms, read as ScanRange reads, cached nowhere.
func (v *View) GroupRows(table, start, end string, limit int) []store.GroupRow {
	if v.snap != nil { // cache disabled
		return v.snap.GroupRows(table, start, end, limit)
	}
	var rows []store.GroupRow
	v.rangeRead(table, func(at uint64) (err error) {
		rows, err = v.c.db.GroupRowsAt(v.msID, at, table, start, end, limit)
		return err
	})
	return rows
}

// rangeRead runs one range read of the store at the view's version, pinning
// the view first; a failure enters degraded mode and is left on Err.
func (v *View) rangeRead(table string, read func(at uint64) error) {
	if !v.pinned() {
		v.pinOnMiss()
	}
	_, span := v.sc.StartDetail("cache.rangescan", table)
	defer span.End()
	if err := read(v.Version()); err != nil {
		v.c.noteDBError(v.m, err)
		v.setErr(err)
		return
	}
	v.c.noteDBSuccess(v.m)
}

// GetBatch returns the values of keys as of the view's version, aligned with
// keys (nil where absent). Hits are served from the cache key by key; all
// misses are then filled from one database snapshot and one multi-get — one
// round trip per batch — and cached under the same guard as a single-key
// miss, while the metastore has free room: a batch never evicts. The first
// miss of an unpinned view reconciles and pins it, exactly as in Get. The
// returned bytes are shared and must not be mutated.
func (v *View) GetBatch(table string, keys []string) [][]byte {
	if v.snap != nil { // cache disabled
		return v.snap.GetBatch(table, keys)
	}
	out := make([][]byte, len(keys))
	// serve reports whether keys[i] was a cache hit, filling out[i].
	serve := func(i int) bool {
		cv, ok := v.held(table, keys[i])
		if ok && !cv.deleted {
			out[i] = cv.value
		}
		return ok
	}
	var missed []int // indexes into keys, sized at the first miss
	for i := range keys {
		if !serve(i) {
			if missed == nil {
				missed = make([]int, 0, len(keys)-i)
			}
			missed = append(missed, i)
		}
	}
	if len(missed) == 0 {
		return out
	}
	v.c.metrics.misses.Add(int64(len(missed)))
	if !v.pinned() {
		v.pinOnMiss()
		// The reconciled cache may hold some of the records after all.
		still := missed[:0]
		for _, i := range missed {
			if !serve(i) {
				still = append(still, i)
			}
		}
		if missed = still; len(missed) == 0 {
			return out
		}
	}
	for j, val := range v.fill(table, keys, missed, false) {
		out[missed[j]] = val
	}
	return out
}

// GetOneOf returns the index and value of the key of keys that is live at the
// view's version, or -1 when none is, for lists of which at most one key can
// be live at any version (erm.RegisteredPrefix: the segment prefixes of a
// storage path). That promise is what makes it cheap: a live cached key is the
// answer and nothing else is read; otherwise the keys the cache does not hold
// are filled as GetBatch fills its misses, in one multi-get that caches the
// live one. An absent key is never cached: the lists name prefixes of whatever
// paths callers ask about, and their absences would crowd the records out of
// the cache's bound. The returned bytes are shared and must not be mutated.
func (v *View) GetOneOf(table string, keys []string) (int, []byte) {
	if v.snap != nil { // cache disabled
		for i, val := range v.snap.GetBatch(table, keys) {
			if val != nil {
				return i, val
			}
		}
		return -1, nil
	}
	// Indexes into keys of the records the cache does not hold, on the stack:
	// a warm lookup passes the shorter prefixes, which miss, on its way.
	var buf [16]int
	missed := buf[:0]
	for i, key := range keys {
		if cv, ok := v.held(table, key); !ok {
			missed = append(missed, i)
		} else if !cv.deleted {
			return i, cv.value
		}
	}
	if len(missed) == 0 {
		return -1, nil
	}
	v.c.metrics.misses.Add(int64(len(missed)))
	if !v.pinned() {
		v.pinOnMiss()
		// Nothing hit, so nothing pinned the view: the reconciled cache may
		// hold some of the records after all.
		still := missed[:0]
		for _, i := range missed {
			if cv, ok := v.held(table, keys[i]); !ok {
				still = append(still, i)
			} else if !cv.deleted {
				return i, cv.value
			}
		}
		if missed = still; len(missed) == 0 {
			return -1, nil
		}
	}
	for j, val := range v.fill(table, keys, missed, true) {
		if val != nil {
			return missed[j], val
		}
	}
	return -1, nil
}

// fill reads keys[i] for every i in missed from one database snapshot at the
// view's version, in one multi-get, and returns their values aligned with
// missed (nil where absent). What it finds is cached under the same guard as a
// single-key miss: for a point read (GetOneOf) as a single-key miss is, evicting
// to make room; for a page (GetBatch) only while the metastore holds fewer
// records than its cap, so that a listing fills spare room but never displaces
// what point reads keep warm. What it does not find is not cached at all: the
// multi-get cannot tell "absent" from "live with a nil value", and a wrong
// tombstone would outlive the request. Under an Unavailable fault each key
// takes the degraded path on its own: served stale if cached, else nil with
// the error recorded on the view.
func (v *View) fill(table string, keys []string, missed []int, point bool) [][]byte {
	ver := v.Version()
	_, missSpan := v.sc.StartDetail("cache.getmiss", table)
	defer missSpan.End()
	missKeys := make([]string, len(missed))
	for j, i := range missed {
		missKeys[j] = keys[i]
	}
	snap, err := v.c.db.SnapshotAt(v.msID, ver)
	if err != nil {
		v.c.noteDBError(v.m, err)
		vals := make([][]byte, len(missKeys))
		for j, key := range missKeys {
			if faults.Is(err, faults.Unavailable) {
				rk := cacheKey{table, key}
				if cv, served := v.degradedGet(v.m.shardFor(rk), rk); served {
					if !cv.deleted {
						vals[j] = cv.value
					}
					continue
				}
			}
			v.setErr(err)
		}
		return vals
	}
	vals := snap.GetBatch(table, missKeys)
	snap.Close()
	v.c.noteDBSuccess(v.m)
	now := v.c.now()
	for j, key := range missKeys {
		if vals[j] == nil {
			continue
		}
		if !point && v.m.entries.Load() >= int64(v.c.opts.MaxEntriesPerMetastore) {
			return vals // no free room left
		}
		rk := cacheKey{table, key}
		sh := v.m.shardFor(rk)
		// Same guard as Get: cache only what is current as of the known
		// version, which cannot move while a shard lock is held.
		sh.mu.Lock()
		if v.m.knownVersion.Load() == ver {
			v.c.insertShardLocked(v.m, sh, rk, cachedVersion{version: ver, value: vals[j], cachedAt: now}, store.Derived(table))
		}
		sh.mu.Unlock()
	}
	if point {
		v.c.maybeEvict(v.m)
	}
	return vals
}

// held serves (table, key) from the cache at the view's version, pinning the
// view as any hit does: ok reports that the cache holds a version there, which
// may be a deletion.
func (v *View) held(table, key string) (cv cachedVersion, ok bool) {
	rk := cacheKey{table, key}
	if cv, ok = v.tryHit(v.m.shardFor(rk), rk); ok {
		v.c.metrics.hits.Add(1)
	}
	return cv, ok
}

// Close releases resources held by the view.
func (v *View) Close() {
	if v.snap != nil {
		v.snap.Close()
		v.snap = nil
	}
}

// insertShardLocked adds a version to a record, pruning stale versions
// lazily. A new record is one allocation, its version held inline. The row
// of a derived table that is not unique (child, tag index, upstream lineage)
// is never cached: no change names it, so nothing would invalidate it; a name
// or path row is, as the change log names it (store.ChangesNamed). A new
// record keeps its key as handed unless the key is lent: a fill's key of a
// derived row (store.Derived) is built by its reader for the read — a name key
// in a resolution's buffer, a prefix of the path it was asked about — so the
// record keeps a copy made at its length, and pins neither the buffer nor the
// path. A stored record's key (an ID the store handed out, a grant key) and a
// write-through's are kept as handed: an entity read gains no copy. Caller
// holds the shard's write lock (alone or via lockAll).
func (c *Cache) insertShardLocked(m *msCache, sh *shard, rk cacheKey, cv cachedVersion, lent bool) {
	if !store.ChangesNamed(rk.table) {
		return
	}
	rec, ok := sh.records[rk]
	if !ok {
		if lent {
			rk.key = strings.Clone(rk.key)
		}
		rec = &cachedRecord{key: rk.key}
		rec.versions = rec.one[:0]
		sh.records[rk] = rec
		m.entries.Add(1)
	}
	if n := len(rec.versions); n > 0 && rec.versions[n-1].version == cv.version {
		// A second fill of the same version (a miss that began before the
		// first one's flight closed) holds the same bytes; the cached slot
		// may already hold their decoded form, which readers share.
		rec.touch(c.now())
		return
	}
	// Keep versions ascending; drop any version >= cv.version (shouldn't
	// happen, but reconciliation races are possible when disabled checks
	// are off) and versions older than the retention horizon except the
	// newest one below cv.
	now := c.now()
	cutoff := now.Add(-c.opts.VersionRetention)
	kept := rec.versions[:0]
	for _, old := range rec.versions {
		if old.version >= cv.version {
			continue
		}
		kept = append(kept, old)
	}
	// Lazy timeout-based pruning: versions older than the API-timeout
	// horizon can no longer be needed by in-flight requests.
	for len(kept) > 1 && kept[0].cachedAt.Before(cutoff) {
		kept = kept[1:]
	}
	if len(kept) == 0 {
		kept = rec.one[:0]
	}
	if rec.versions = append(kept, cv); cap(rec.versions) > len(rec.one) {
		// The versions moved out of the inline slot: it must not keep the
		// bytes and decoded form of a version pruned later.
		rec.one = [1]cachedVersion{}
	}
	rec.touch(now)
}

// maybeEvict evicts records while the approximate entry count exceeds the
// cap, one shard at a time. Callers must not hold any shard lock.
func (c *Cache) maybeEvict(m *msCache) {
	for m.entries.Load() > int64(c.opts.MaxEntriesPerMetastore) {
		if !c.evictOne(m) {
			return
		}
	}
}

// evictOne removes the least recently used record of the next non-empty
// shard in rotation. Returns false if nothing was evicted.
func (c *Cache) evictOne(m *msCache) bool {
	start := int(m.evictCursor.Add(1))
	for i := 0; i < numShards; i++ {
		sh := &m.shards[(start+i)&(numShards-1)]
		sh.mu.Lock()
		if victim, ok := victimLocked(sh); ok {
			delete(sh.records, victim)
			m.entries.Add(-1)
			c.metrics.evictions.Add(1)
			sh.mu.Unlock()
			return true
		}
		sh.mu.Unlock()
	}
	return false
}

// evictSample is how many of a shard's records victimLocked compares.
const evictSample = 16

// victimLocked picks the least recently used of at most evictSample records
// of one shard, taken in the map's randomized iteration order: exact for a
// shard that small, and bounded work under the shard's write lock however
// large the cap makes it. Caller holds the shard's write lock.
func victimLocked(sh *shard) (victim cacheKey, ok bool) {
	var least int64
	n := 0
	for k, r := range sh.records {
		if used := r.lastUsed.Load(); !ok || used < least {
			least, victim, ok = used, k, true
		}
		if n++; n == evictSample {
			break
		}
	}
	return victim, ok
}

// Update runs fn in a serializable write transaction with write-through
// caching. Everything the write depends on, fn checks in the transaction.
func (c *Cache) Update(msID string, fn func(tx *store.Tx) error) (uint64, error) {
	return c.UpdateT(obs.SpanContext{}, msID, fn)
}

// UpdateT is Update with a trace context, propagated into the store so the
// commit's sequence/wal/apply phases appear in the request's trace.
//
// The commit is the database's; the cache only follows it. The store applies
// commits in version order, so when it returns newV every version up to newV
// is applied. If the known version is behind newV, the node reconciles up to
// newV-1 and installs the transaction's write set (Tx.Writes, its own slice)
// and the derived rows it made live or dead (Tx.Rows) at newV. Otherwise a reconcile has already passed newV and invalidated
// those records, and nothing is installed.
func (c *Cache) UpdateT(sc obs.SpanContext, msID string, fn func(tx *store.Tx) error) (uint64, error) {
	if c.opts.Disabled {
		return c.db.UpdateT(sc, msID, fn)
	}
	m, err := c.owner(msID)
	if err != nil {
		return 0, err
	}
	m.writers.Add(1)
	defer m.writers.Add(-1)
	var committed *store.Tx
	newV, err := c.db.UpdateT(sc, msID, func(tx *store.Tx) error {
		if err := fn(tx); err != nil {
			return err
		}
		committed = tx
		return nil
	})
	if err != nil {
		c.noteDBError(m, err)
		return 0, err
	}
	c.noteDBSuccess(m)
	if committed == nil || len(committed.Writes()) == 0 {
		return newV, nil // read-only transaction
	}
	m.lockAll()
	if m.knownVersion.Load() < newV {
		// An error here evicted everything up to newV-1 (and is noted);
		// installing at newV is sound either way.
		_ = c.reconcileAllLocked(msID, m, newV-1)
		now := c.now()
		for _, ws := range [2][]store.Write{committed.Writes(), committed.Rows()} {
			for _, w := range ws {
				rk := cacheKey{w.Table, w.Key}
				c.insertShardLocked(m, m.shardFor(rk), rk, cachedVersion{version: newV, value: w.Value, deleted: w.Deleted, cachedAt: now}, false)
			}
		}
		m.knownVersion.Store(newV)
	}
	m.unlockAll()
	c.maybeEvict(m)
	return newV, nil
}

// Refresh forces the metastore cache to reconcile with the database. Used
// by background sweeps and tests.
func (c *Cache) Refresh(msID string) error {
	if c.opts.Disabled {
		return nil
	}
	m, err := c.owner(msID)
	if err != nil {
		return err
	}
	return c.catchUp(obs.SpanContext{}, msID, m)
}

// KnownVersion returns the node's in-memory version for the metastore.
func (c *Cache) KnownVersion(msID string) (uint64, error) {
	if c.opts.Disabled {
		return c.db.Version(msID)
	}
	m, err := c.owner(msID)
	if err != nil {
		return 0, err
	}
	return m.knownVersion.Load(), nil
}

// EntryCount returns the number of cached records for the metastore.
func (c *Cache) EntryCount(msID string) int {
	m, err := c.owner(msID)
	if err != nil {
		return 0
	}
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		n += len(sh.records)
		sh.mu.RUnlock()
	}
	return n
}

// EachDecoded calls fn for every decoded form the metastore's cache holds,
// with the record it was decoded from: what a test compares against a fresh
// decode to show no reader wrote to a shared form. fn runs under a shard's
// read lock and must not call into the cache.
func (c *Cache) EachDecoded(msID string, fn func(table, key string, rec []byte, decoded any)) {
	m, err := c.owner(msID)
	if err != nil {
		return
	}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for rk, rec := range sh.records {
			for _, cv := range rec.versions {
				if cv.decoded != nil {
					fn(rk.table, rk.key, cv.value, cv.decoded)
				}
			}
		}
		sh.mu.RUnlock()
	}
}

// DB exposes the underlying database for components that need direct access
// (e.g. administrative tooling).
func (c *Cache) DB() *store.DB { return c.db }
