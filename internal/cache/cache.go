// Package cache implements the mutable-metadata cache of the paper's
// Section 4.5: a write-through, multi-version, in-memory cache over the
// ACID metadata store that preserves metastore-level snapshot reads and
// serializable writes without distributed consensus.
//
// Design, mirroring the paper:
//
//   - A cache node *owns* one or more metastores and caches only those.
//     Ownership is best effort and not exclusive: two nodes may cache the
//     same metastore and correctness is preserved by optimistic version
//     checks against the database.
//   - Each owned metastore has an in-memory *known version*. The invariant
//     is that every cached record's newest version is the latest as of the
//     known version.
//   - Reads are served at a pinned version (snapshot isolation). Cache
//     misses fall through to the database; before caching the result, the
//     node validates that its known version is still the database's current
//     version, reconciling otherwise.
//   - Writes go through UpdateCAS: commit conditioned on the known version.
//     On success the written records are inserted into the cache at the new
//     version (write-through); on a version mismatch — another node wrote —
//     the node reconciles and retries.
//   - A node hears of another node's commit in two ways, both synchronous:
//     it asks — NewView compares the known version with the database's, and
//     a view's first miss does so again — or a write of its own loses the
//     version CAS. So a view opens at the database's current version, and a
//     warm node does not go on serving hits at a version another node has
//     replaced. Nothing is pushed to a node.
//   - Reconciliation is selective: the node consults the store's change log
//     and invalidates only the records that changed. It evicts everything
//     for the metastore only when the log no longer covers its known version.
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
//   - Each metastore's records and scans are split into numShards
//     lock-striped shards keyed by a hash of the record key. A cache hit
//     takes only its shard's RLock; hits on different assets touch
//     different locks.
//   - Hit bookkeeping (lastUsed) and all effectiveness counters are
//     sync/atomic values, so a hit mutates nothing under a lock.
//   - The metastore's known version is an atomic. Operations that must
//     change it together with cached state (reconciliation, write-through
//     installation) acquire every shard lock in index order; the miss
//     path's "insert only if the view is still at the known version" check
//     runs under a single shard lock, which suffices because the known
//     version cannot change while any shard lock is held.
//   - A View's pin state is one atomic word (pin bit | version), so a view
//     shared by many goroutines stays on a single consistent snapshot: the
//     version changes only by the CAS that also sets the pin bit.
//   - Cold single-key misses (Get, Scan) are coalesced by a per-metastore
//     singleflight keyed by (version, record key): a thundering herd on one
//     cold key issues one database read; latecomers wait for the leader's
//     result.
//   - GetBatch serves its hits key by key, then fills every miss from one
//     store snapshot and one multi-get — one database round trip per batch,
//     outside the singleflight: the batches of concurrent list pages rarely
//     name the same cold keys, and a flight per key would put the whole
//     batch behind flightMu once per key. Each fetched record is inserted
//     under its shard lock with the same "view still at the known version"
//     guard as a single-key miss, and the batch runs the evictor once.
//   - Eviction is per-shard with approximate global accounting: inserts
//     bump an atomic entry count, and when it exceeds the cap the least
//     recently used record of one shard (rotating across shards) is the
//     victim, so eviction never stops the world.
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
// treat them as immutable. Scan returns a fresh []store.KV slice, so
// appending to or reordering the result is safe.
package cache

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unitycatalog/internal/clock"
	"unitycatalog/internal/faults"
	"unitycatalog/internal/obs"
	"unitycatalog/internal/store"
)

// numShards is the lock-striping factor for each metastore's record and
// scan maps. Power of two; sized so that at typical server core counts two
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
	Hits, Misses         int64
	ScanHits, ScanMisses int64
	// CoalescedMisses counts misses that piggybacked on another in-flight
	// database read for the same (version, key) instead of issuing their own.
	CoalescedMisses     int64
	FullReconciles      int64
	SelectiveReconciles int64
	Evictions           int64
	WriteConflicts      int64
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
	hits, misses         obs.Counter
	scanHits, scanMisses obs.Counter
	coalescedMisses      obs.Counter
	fullReconciles       obs.Counter
	selectiveReconciles  obs.Counter
	evictions            obs.Counter
	writeConflicts       obs.Counter
	degradedReads        obs.Counter
	degradedMisses       obs.Counter
	degradedDenied       obs.Counter
	outages              obs.Counter
	recoveries           obs.Counter
	decodedHits          obs.Counter
	decodes              obs.Counter
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
	lastUsed atomic.Int64 // unix nanoseconds
}

func (r *cachedRecord) touch() { r.lastUsed.Store(time.Now().UnixNano()) }

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

type cachedScan struct {
	// validFrom is the version the scan was read at. The entry is proven
	// unchanged on [validFrom, known version]: every advance of the known
	// version drops the scans a change touches (or all of them), so one that
	// is still cached is current. A view pinned before validFrom must not be
	// served it (the keys may not have existed yet at that version).
	validFrom uint64
	kvs       []store.KV
}

// shard is one lock stripe of a metastore's cached state.
type shard struct {
	mu sync.RWMutex
	// records keyed by (table, key); these include the secondary-key index
	// records (name→id, path→id), so the cache serves lookups by ID, name,
	// or path, as the paper describes. scans are keyed by (table, prefix).
	records map[cacheKey]*cachedRecord
	scans   map[cacheKey]*cachedScan
}

// cacheKey names a cached record (table, key) or scan (table, prefix). A
// struct key hashes both parts in place, so a lookup allocates nothing.
type cacheKey struct{ table, key string }

// flight is one in-progress database read shared by coalesced misses.
type flight struct {
	done  chan struct{}
	val   []byte
	found bool
	kvs   []store.KV
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

	// scanLens lists, per table, the prefix lengths scans have been cached
	// under, so invalidating a key probes only those prefixes of it. A miss
	// fill adds to it under scanLensMu while holding its shard lock;
	// invalidation reads it holding every shard lock, which excludes fills.
	// Only an evict-all removes lengths (a stale one costs a wasted probe).
	scanLensMu sync.Mutex
	scanLens   map[string][]int
}

// flightKey identifies one coalesced read: a point get ('g') or a prefix
// scan ('s') of ck at a version.
type flightKey struct {
	kind    byte
	version uint64
	ck      cacheKey
}

func newMsCache(v uint64, now time.Time) *msCache {
	m := &msCache{flight: map[flightKey]*flight{}, scanLens: map[string][]int{}}
	m.knownVersion.Store(v)
	m.lastSync.Store(now.UnixNano())
	for i := range m.shards {
		m.shards[i].records = map[cacheKey]*cachedRecord{}
		m.shards[i].scans = map[cacheKey]*cachedScan{}
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
		ScanHits:            c.metrics.scanHits.Load(),
		ScanMisses:          c.metrics.scanMisses.Load(),
		CoalescedMisses:     c.metrics.coalescedMisses.Load(),
		FullReconciles:      c.metrics.fullReconciles.Load(),
		SelectiveReconciles: c.metrics.selectiveReconciles.Load(),
		Evictions:           c.metrics.evictions.Load(),
		WriteConflicts:      c.metrics.writeConflicts.Load(),
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
	r.RegisterCounter("uc_cache_scan_hits_total", "Scans served from cache.", &c.metrics.scanHits)
	r.RegisterCounter("uc_cache_scan_misses_total", "Scans that fell through to the database.", &c.metrics.scanMisses)
	r.RegisterCounter("uc_cache_coalesced_misses_total", "Misses that piggybacked on an in-flight database read.", &c.metrics.coalescedMisses)
	r.RegisterCounter("uc_cache_full_reconciles_total", "Full (evict-everything) reconciliations.", &c.metrics.fullReconciles)
	r.RegisterCounter("uc_cache_selective_reconciles_total", "Change-log-driven selective reconciliations.", &c.metrics.selectiveReconciles)
	r.RegisterCounter("uc_cache_evictions_total", "Records evicted by the cache policy.", &c.metrics.evictions)
	r.RegisterCounter("uc_cache_write_conflicts_total", "Optimistic writes retried after a version conflict.", &c.metrics.writeConflicts)
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

// Disown forgets a metastore and all its cached state.
func (c *Cache) Disown(msID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.owned, msID)
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

// reconcileAllLocked brings the metastore cache up to the database's current
// version: it invalidates exactly what the change log names, and evicts
// everything only when the log has been trimmed past the known version.
// Caller must hold every shard lock (lockAll).
func (c *Cache) reconcileAllLocked(msID string, m *msCache) error {
	dbV, err := c.db.Version(msID)
	if err != nil {
		c.noteDBError(m, err)
		return err
	}
	c.noteDBSuccess(m)
	known := m.knownVersion.Load()
	if dbV == known {
		return nil
	}
	changes, err := c.db.ChangesSince(msID, known)
	if err == nil {
		invalidateChangesLocked(m, changes)
		m.knownVersion.Store(dbV)
		c.metrics.selectiveReconciles.Add(1)
		return nil
	}
	if !errors.Is(err, store.ErrChangeLogTrimmed) {
		return err
	}
	evictAllLocked(m, dbV)
	c.metrics.fullReconciles.Add(1)
	return nil
}

// invalidateChangesLocked drops exactly the cached records named by changes
// plus any cached scan whose (table, prefix) covers a changed key; surviving
// scans remain the latest as of the version the caller advances to. Caller
// must hold every shard lock (lockAll).
func invalidateChangesLocked(m *msCache, changes []store.Change) {
	for _, ch := range changes {
		rk := cacheKey{ch.Table, ch.Key}
		sh := m.shardFor(rk)
		if _, ok := sh.records[rk]; ok {
			delete(sh.records, rk)
			m.entries.Add(-1)
		}
		dropScansLocked(m, ch.Table, ch.Key)
	}
}

// dropScansLocked drops every cached scan over table whose prefix covers
// key. It probes the prefixes of key that scans of the table have been cached
// under rather than walking the scan maps: a commit's cost must not grow with
// the number of cached scans (one per securable for grants and tags alone).
// Caller must hold every shard lock.
func dropScansLocked(m *msCache, table, key string) {
	for _, n := range m.scanLens[table] {
		if n > len(key) {
			continue
		}
		sk := cacheKey{table, key[:n]}
		delete(m.shardFor(sk).scans, sk)
	}
}

// evictAllLocked drops every cached record and scan and sets the known
// version to newV. Caller must hold every shard lock (lockAll).
func evictAllLocked(m *msCache, newV uint64) {
	for i := range m.shards {
		m.shards[i].records = map[cacheKey]*cachedRecord{}
		m.shards[i].scans = map[cacheKey]*cachedScan{}
	}
	m.scanLens = map[string][]int{}
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

// Err returns the last backend error absorbed by a Get or Scan on this
// view, or nil. A non-nil Err means a recent "not found" result may really
// be "could not read": callers should report the backend failure rather
// than a spurious NotFound.
func (v *View) Err() error {
	if e := v.verr.Load(); e != nil {
		return e.err
	}
	return nil
}

// NewView opens a read view of the metastore. When the cache is disabled,
// views read straight from a DB snapshot.
func (c *Cache) NewView(msID string) (*View, error) {
	return c.NewViewT(obs.SpanContext{}, msID)
}

// NewViewT is NewView with a trace context: the view's cache misses and
// reconciliations record spans under sc. It first brings the node up to the
// database's current version, which is the one consistency statement every
// node makes: a view opens at the version the database had when it was asked.
func (c *Cache) NewViewT(sc obs.SpanContext, msID string) (*View, error) {
	if c.opts.Disabled {
		snap, err := c.db.Snapshot(msID)
		if err != nil {
			return nil, err
		}
		v := &View{c: c, msID: msID, snap: snap, sc: sc}
		v.state.Store(snap.Version | pinnedBit)
		return v, nil
	}
	m, err := c.owner(msID)
	if err != nil {
		return nil, err
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
	v := &View{c: c, msID: msID, m: m, sc: sc}
	v.state.Store(m.knownVersion.Load())
	return v, nil
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
	_, span := sc.StartDetail("cache.reconcile", msID)
	defer span.End()
	m.lockAll()
	defer m.unlockAll()
	return c.reconcileAllLocked(msID, m)
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
		rec.touch()
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
	f, leader := v.m.doFlight(flightKey{'g', ver, rk}, func(f *flight) {
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
			v.c.insertShardLocked(v.m, sh, rk, cachedVersion{version: ver, value: f.val, deleted: !f.found, cachedAt: time.Now()})
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
	rec.touch()
	v.c.metrics.degradedReads.Add(1)
	return cv, true
}

// Scan returns live pairs with the key prefix as of the view's version,
// served from the scan cache when possible. The returned slice is the
// caller's to keep; the values it contains are shared and must be treated
// as immutable.
func (v *View) Scan(table, prefix string) []store.KV {
	if v.snap != nil { // cache disabled
		return v.snap.Scan(table, prefix)
	}
	sk := cacheKey{table, prefix}
	sh := v.m.shardFor(sk)
	if kvs, ok := v.tryScanHit(sh, sk); ok {
		v.c.metrics.scanHits.Add(1)
		return kvs
	}
	v.c.metrics.scanMisses.Add(1)

	if !v.pinned() {
		v.pinOnMiss()
		if kvs, ok := v.tryScanHit(sh, sk); ok {
			v.c.metrics.scanHits.Add(1)
			return kvs
		}
	}
	ver := v.Version()
	_, missSpan := v.sc.StartDetail("cache.scanmiss", table)
	defer missSpan.End()
	f, leader := v.m.doFlight(flightKey{'s', ver, sk}, func(f *flight) {
		snap, err := v.c.db.SnapshotAt(v.msID, ver)
		if err != nil {
			f.err = err
			return
		}
		f.kvs = snap.Scan(table, prefix)
		snap.Close()
		sh.mu.Lock()
		if v.m.knownVersion.Load() == ver {
			sh.scans[sk] = &cachedScan{validFrom: ver, kvs: f.kvs}
			v.m.scanLensMu.Lock()
			if !slices.Contains(v.m.scanLens[table], len(prefix)) {
				v.m.scanLens[table] = append(v.m.scanLens[table], len(prefix))
			}
			v.m.scanLensMu.Unlock()
		}
		sh.mu.Unlock()
	})
	if f.err != nil {
		v.c.noteDBError(v.m, f.err)
		if faults.Is(f.err, faults.Unavailable) {
			if kvs, served := v.degradedScan(sh, sk); served {
				return kvs
			}
		}
		v.setErr(f.err)
		return nil
	}
	v.c.noteDBSuccess(v.m)
	if !leader {
		v.c.metrics.coalescedMisses.Add(1)
	}
	return copyKVs(f.kvs)
}

// ScanRange returns up to limit live pairs with start <= key < end (end ""
// means unbounded, limit 0 means no limit) as of the view's version. Range
// results are cursor-dependent and rarely repeat exactly, so they bypass the
// scan cache and read from a DB snapshot pinned at the view's version — the
// store serves them from its ordered index in O(log n + result).
func (v *View) ScanRange(table, start, end string, limit int) []store.KV {
	if v.snap != nil { // cache disabled
		return v.snap.ScanRange(table, start, end, limit)
	}
	if !v.pinned() {
		v.pinOnMiss()
	}
	_, span := v.sc.StartDetail("cache.rangescan", table)
	defer span.End()
	snap, err := v.c.db.SnapshotAt(v.msID, v.Version())
	if err != nil {
		v.c.noteDBError(v.m, err)
		v.setErr(err)
		return nil
	}
	defer snap.Close()
	kvs := snap.ScanRange(table, start, end, limit)
	v.c.noteDBSuccess(v.m)
	return kvs
}

// GetBatch returns the values of keys as of the view's version, aligned with
// keys (nil where absent). Hits are served from the cache key by key; all
// misses are then filled from one database snapshot and one multi-get — one
// round trip per batch — and cached under the same rule as a single-key
// miss. The first miss of an unpinned view reconciles and pins it, exactly
// as in Get. The returned bytes are shared and must not be mutated.
func (v *View) GetBatch(table string, keys []string) [][]byte {
	if v.snap != nil { // cache disabled
		return v.snap.GetBatch(table, keys)
	}
	out := make([][]byte, len(keys))
	// serve reports whether keys[i] was a cache hit, filling out[i].
	serve := func(i int) bool {
		rk := cacheKey{table, keys[i]}
		cv, ok := v.tryHit(v.m.shardFor(rk), rk)
		if ok {
			v.c.metrics.hits.Add(1)
			if !cv.deleted {
				out[i] = cv.value
			}
		}
		return ok
	}
	var missed []int // indexes into keys
	for i := range keys {
		if !serve(i) {
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

	ver := v.Version()
	_, missSpan := v.sc.StartDetail("cache.getmiss", table)
	defer missSpan.End()
	snap, err := v.c.db.SnapshotAt(v.msID, ver)
	if err != nil {
		v.c.noteDBError(v.m, err)
		for _, i := range missed {
			if faults.Is(err, faults.Unavailable) {
				rk := cacheKey{table, keys[i]}
				if cv, served := v.degradedGet(v.m.shardFor(rk), rk); served {
					if !cv.deleted {
						out[i] = cv.value
					}
					continue
				}
			}
			v.setErr(err)
		}
		return out
	}
	missKeys := make([]string, len(missed))
	for j, i := range missed {
		missKeys[j] = keys[i]
	}
	vals := snap.GetBatch(table, missKeys)
	snap.Close()
	v.c.noteDBSuccess(v.m)
	now := time.Now()
	for j, i := range missed {
		if vals[j] == nil {
			// Absent, or live with a nil value: the multi-get cannot tell, so
			// nothing is cached rather than a possibly wrong tombstone.
			continue
		}
		out[i] = vals[j]
		rk := cacheKey{table, keys[i]}
		sh := v.m.shardFor(rk)
		// Same guard as Get: cache only what is current as of the known
		// version, which cannot move while a shard lock is held.
		sh.mu.Lock()
		if v.m.knownVersion.Load() == ver {
			v.c.insertShardLocked(v.m, sh, rk, cachedVersion{version: ver, value: vals[j], cachedAt: now})
		}
		sh.mu.Unlock()
	}
	v.c.maybeEvict(v.m)
	return out
}

// degradedScan is the outage fallback for Scan: serve the cached scan
// result whatever its version, within the staleness bound.
func (v *View) degradedScan(sh *shard, sk cacheKey) ([]store.KV, bool) {
	if !v.c.staleAllowed(v.m) {
		v.c.metrics.degradedDenied.Add(1)
		return nil, false
	}
	sh.mu.RLock()
	s := sh.scans[sk]
	var kvs []store.KV
	ok := s != nil
	if ok {
		kvs = s.kvs
	}
	sh.mu.RUnlock()
	if !ok {
		v.c.metrics.degradedMisses.Add(1)
		return nil, false
	}
	v.c.metrics.degradedReads.Add(1)
	return copyKVs(kvs), true
}

// tryScanHit serves (and pins) a cached scan valid at the view's version.
func (v *View) tryScanHit(sh *shard, sk cacheKey) ([]store.KV, bool) {
	for {
		st := v.state.Load()
		ver := st &^ pinnedBit
		sh.mu.RLock()
		s := sh.scans[sk]
		var kvs []store.KV
		found := false
		if s != nil && s.validFrom <= ver {
			// The entry was read at validFrom and is unchanged up to the
			// known version, which no view is ahead of. A view pinned before
			// the scan was ever read knows nothing about it and must re-read
			// at its own version on the miss path.
			kvs, found = s.kvs, true
		}
		sh.mu.RUnlock()
		if !found {
			return nil, false
		}
		if st&pinnedBit == 0 && !v.state.CompareAndSwap(st, ver|pinnedBit) {
			continue
		}
		return copyKVs(kvs), true
	}
}

// copyKVs returns a fresh slice over the same (immutable) values, so a
// caller mutating the returned slice cannot corrupt the cache for other
// views.
func copyKVs(kvs []store.KV) []store.KV {
	if kvs == nil {
		return nil
	}
	out := make([]store.KV, len(kvs))
	copy(out, kvs)
	return out
}

// Close releases resources held by the view.
func (v *View) Close() {
	if v.snap != nil {
		v.snap.Close()
		v.snap = nil
	}
}

// insertShardLocked adds a version to a record, pruning stale versions
// lazily. Caller holds the shard's write lock (alone or via lockAll).
func (c *Cache) insertShardLocked(m *msCache, sh *shard, rk cacheKey, cv cachedVersion) {
	rec, ok := sh.records[rk]
	if !ok {
		rec = &cachedRecord{key: rk.key}
		sh.records[rk] = rec
		m.entries.Add(1)
	}
	// Keep versions ascending; drop any version >= cv.version (shouldn't
	// happen, but reconciliation races are possible when disabled checks
	// are off) and versions older than the retention horizon except the
	// newest one below cv.
	cutoff := time.Now().Add(-c.opts.VersionRetention)
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
	rec.versions = append(kept, cv)
	rec.touch()
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

// victimLocked picks the least recently used record of one shard. Caller
// holds the shard's write lock.
func victimLocked(sh *shard) (victim cacheKey, ok bool) {
	var least int64
	for k, r := range sh.records {
		if used := r.lastUsed.Load(); !ok || used < least {
			least, victim, ok = used, k, true
		}
	}
	return victim, ok
}

// maxWriteRetries bounds how many times one Update may lose its version CAS
// to a commit that was already visible, that is, how often the node's known
// version may prove stale. Losing to a commit that is sequenced but not yet
// applied is not counted: the retry blocks until it applies, so such rounds
// neither spin nor repeat. maxWriteRounds caps those too, so a writer facing
// an endless stream of foreign commits fails rather than waiting forever.
const (
	maxWriteRetries = 16
	maxWriteRounds  = 64 * maxWriteRetries
)

// Update runs fn in a serializable write transaction with write-through
// caching. It retries on version conflicts caused by other cache nodes.
func (c *Cache) Update(msID string, fn func(tx *store.Tx) error) (uint64, error) {
	return c.UpdateT(obs.SpanContext{}, msID, fn)
}

// UpdateT is Update with a trace context, propagated into the store so the
// commit's sequence/wal/apply phases appear in the request's trace.
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
	for stale, rounds := 0, 0; stale < maxWriteRetries && rounds < maxWriteRounds; rounds++ {
		known := m.knownVersion.Load()

		var captured []store.Write
		newV, err := c.db.UpdateCAST(sc, msID, known, func(tx *store.Tx) error {
			if err := fn(tx); err != nil {
				return err
			}
			captured = tx.Writes()
			return nil
		})
		if errors.Is(err, store.ErrVersionMismatch) {
			c.metrics.writeConflicts.Add(1)
			// The CAS is checked against the sequenced version newV, the
			// reconcile below reads the applied one. Until newV is applied
			// the reconcile would be a no-op and the retry would lose to the
			// same commit again, so wait for it to become visible first.
			waited, werr := c.db.AwaitApplied(msID, newV)
			if werr != nil {
				return 0, werr
			}
			if !waited {
				stale++
			}
			if rerr := c.catchUp(sc, msID, m); rerr != nil {
				return 0, rerr
			}
			continue
		}
		if err != nil {
			c.noteDBError(m, err)
			return 0, err
		}
		c.noteDBSuccess(m)
		if newV == known {
			return newV, nil // read-only transaction
		}
		// Write-through: install the new versions and advance known version.
		m.lockAll()
		if m.knownVersion.Load() == known {
			now := time.Now()
			for _, w := range captured {
				rk := cacheKey{w.Table, w.Key}
				c.insertShardLocked(m, m.shardFor(rk), rk, cachedVersion{version: newV, value: w.Value, deleted: w.Deleted, cachedAt: now})
				dropScansLocked(m, w.Table, w.Key)
			}
			m.knownVersion.Store(newV)
		}
		m.unlockAll()
		c.maybeEvict(m)
		return newV, nil
	}
	return 0, fmt.Errorf("cache: update on %s kept losing its version check (bounds: %d visible commits, %d rounds)", msID, maxWriteRetries, maxWriteRounds)
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
