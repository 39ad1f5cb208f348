// Package store implements the ACID metadata database backing the Unity
// Catalog service (the role played by a MySQL instance in the paper).
//
// The store is a multi-version key-value database organized as
// (metastore, table, key) → value. It provides exactly the semantics the
// paper's Section 4.5 requires:
//
//   - snapshot-isolation reads at metastore granularity: a Snapshot observes
//     the database as of a single metastore version;
//   - serializable writes at metastore granularity: write transactions on a
//     metastore execute one at a time and each successful commit increments
//     the metastore version by one;
//   - optimistic concurrency for cache owners: UpdateCAS commits only if the
//     metastore version still equals the caller's expected version;
//   - a bounded change log per metastore so caches can reconcile selectively
//     (ChangesSince) instead of evicting everything.
//
// To model a remote database in benchmarks, Options can inject artificial
// per-operation latency; the Unity Catalog cache layer exists precisely to
// avoid paying that latency on hot reads.
//
// Durability is provided by an optional write-ahead log of checksummed frames,
// replayed on Open (wal.go).
package store

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unitycatalog/internal/faults"
	"unitycatalog/internal/obs"
)

// Common errors.
var (
	ErrNoMetastore      = errors.New("store: metastore does not exist")
	ErrMetastoreExists  = errors.New("store: metastore already exists")
	ErrVersionMismatch  = errors.New("store: metastore version mismatch")
	ErrChangeLogTrimmed = errors.New("store: change log no longer covers requested version")
	ErrClosed           = errors.New("store: database is closed")
)

// Options configures a DB.
type Options struct {
	// WALPath, if non-empty, enables durability: all commits are appended to
	// this file and replayed on Open. Entries are written by a dedicated
	// group-commit writer goroutine (see wal.go).
	WALPath string
	// Sync selects when the WAL writer fsyncs: SyncBatch (default, one
	// fsync per group-commit batch), SyncNever, or SyncAlways.
	Sync SyncPolicy
	// ReadLatency is artificial latency added to every snapshot Get/Scan,
	// modeling a remote database round trip.
	ReadLatency time.Duration
	// CommitLatency is artificial latency added to every commit.
	CommitLatency time.Duration
	// ChangeLogSize bounds the per-metastore change log used by
	// ChangesSince. Zero means the default (8192 entries).
	ChangeLogSize int
	// MaxVersionsPerRecord bounds retained versions per record beyond what
	// active snapshots pin. Zero means the default (4).
	MaxVersionsPerRecord int
	// Faults, if non-nil, is consulted on every database entry point
	// (snapshot open, version read, change-log read, commit) and a non-nil
	// return is injected as that operation's error — modeling a remote DB
	// that times out, throttles, or goes down. It can also be installed
	// after Open with SetFaults.
	Faults *faults.Injector
}

const (
	defaultChangeLogSize = 8192
	defaultMaxVersions   = 4
)

// KV is a key/value pair returned by scans.
type KV struct {
	Key   string
	Value []byte
}

// Change describes one mutation applied by a committed transaction.
type Change struct {
	Version uint64 `json:"version"` // metastore version that applied this change
	Table   string `json:"table"`
	Key     string `json:"key"`
	Deleted bool   `json:"deleted,omitempty"`
}

// record is a key's newest version, and through prev its older ones in
// descending commit order. The newest version lives in the record itself —
// the object the table map and the ordered index point at — so a key written
// once, which is nearly every key, costs one 48-byte object and no slice.
type record struct {
	commit  uint64
	value   []byte
	deleted bool
	prev    *record
}

func (r *record) at(v uint64) ([]byte, bool) {
	for ; r != nil; r = r.prev {
		if r.commit <= v {
			if r.deleted {
				return nil, false
			}
			return r.value, true
		}
	}
	return nil, false
}

// pendingCommit is a commit that has been sequenced (assigned a version,
// conflict-checked, enqueued to the WAL) but not yet applied to the
// in-memory state. Transactions sequencing after it read its writes through
// the overlay in Tx.Get/Scan; snapshots never see it (durability before
// visibility).
type pendingCommit struct {
	version uint64
	writes  map[string]map[string]*txWrite
}

type metastore struct {
	// mu is the sequencing lock: it serializes conflict detection, the
	// user's transaction function, version assignment, and WAL enqueue —
	// but not WAL I/O, simulated commit latency, or state application,
	// which happen after it is released. That is the commit pipeline: while
	// commit N awaits its batch ack, commit N+1 can already run its
	// transaction function (reading N's writes via the pending overlay).
	mu sync.Mutex
	// nextV is the sequenced version (>= version); guarded by mu.
	nextV uint64

	// stateMu guards the applied state below plus the pending overlay.
	// Lock order: mu before stateMu; applyMu is taken with stateMu released.
	stateMu sync.RWMutex
	version uint64 // applied (visible) version
	tables  map[string]map[string]*record
	// indexes mirrors each table's key set in an ordered B+ tree so scans
	// are a descent plus bounded walk instead of full-map iteration.
	// Membership tracks the table map exactly (records, not liveness): every
	// mutation goes through putLocked/removeRecordLocked.
	indexes  map[string]*btree
	changes  changeRing
	snaps    map[uint64]int
	minSnapV uint64
	// tombs holds deletes that left the change log while a snapshot older
	// than them was open (reclaimLocked); each later commit retries them.
	tombs   []Change
	pending []*pendingCommit // sequenced but unapplied, ascending version

	// applyMu/applyCond sequence state application: a committer applies
	// only after version newV-1 has been applied, so the state always
	// advances in commit order even though batch acks wake whole groups.
	applyMu   sync.Mutex
	applyCond *sync.Cond
	applied   uint64 // mirrors version; guarded by applyMu
	// applyErr is set when a sequenced commit was dropped (WAL failure or
	// close): applied will never reach nextV again. Guarded by applyMu.
	applyErr error
}

// DB is the metadata database.
type DB struct {
	opts Options

	mu     sync.RWMutex
	stores map[string]*metastore
	closed bool

	// wal is the group-commit writer; nil when WALPath is unset, in which
	// case commits never touch a queue or a shared lock on the way out.
	wal *walWriter

	// What Open's replay did: entries applied, how long the whole of it
	// took, and the bytes of torn tail it cut off the log.
	replayed    obs.Counter
	replayTook  time.Duration
	tailDropped obs.Gauge

	// reads counts snapshot point reads and scans served by the database;
	// the cache layer's tests use it to verify miss coalescing.
	reads atomic.Int64

	// commits/conflicts count Update outcomes; commitNs distributes
	// end-to-end commit latency (sequence through apply). Exposed on
	// /metrics via RegisterMetrics.
	commits   obs.Counter
	conflicts obs.Counter
	commitNs  *obs.Histogram

	// indexScans counts scans (all served by the ordered index); scanNs
	// distributes scan latency.
	indexScans obs.Counter
	scanNs     *obs.Histogram

	// injector is the active fault injector; swapped atomically so tests
	// can install or clear schedules while operations are in flight.
	injector atomic.Pointer[faults.Injector]

	// hooks observe applied commits (see AddCommitHook). Stored as an
	// immutable slice behind an atomic pointer so the commit path reads it
	// without locks.
	hooks atomic.Pointer[[]CommitHook]
}

// CommitHook observes one applied commit. It runs on the committing
// goroutine after the commit is durable (WAL-acked) and visible, but before
// the apply turnstile admits version+1 — so for a given metastore, hooks
// fire strictly in version order and exactly once per applied commit.
// Failed commits and WAL-replayed commits fire no hooks.
//
// changes is the transaction's own change list with Version filled in, valid
// only for the duration of the call: a hook that keeps any of it copies what
// it keeps. notes carries whatever the transaction attached via Tx.Annotate,
// in order.
// Hooks must not block: the metastore's commit pipeline stalls until every
// hook returns. Calling back into the DB for reads is safe; committing to
// the same metastore from a hook deadlocks.
type CommitHook func(msID string, version uint64, changes []Change, notes []any)

// AddCommitHook registers h for every subsequently applied commit on any
// metastore. Hooks cannot be removed; register once per consumer.
func (db *DB) AddCommitHook(h CommitHook) {
	db.mu.Lock()
	defer db.mu.Unlock()
	var cur []CommitHook
	if p := db.hooks.Load(); p != nil {
		cur = *p
	}
	next := make([]CommitHook, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = h
	db.hooks.Store(&next)
}

// SetFaults installs (or, with nil, removes) the fault injector consulted by
// every database entry point. Safe to call concurrently with operations.
func (db *DB) SetFaults(inj *faults.Injector) {
	db.injector.Store(inj)
}

// fault asks the active injector whether op on path should fail.
func (db *DB) fault(op, path string) error {
	return db.injector.Load().Check(op, path)
}

// Open creates a DB. If opts.WALPath exists, its contents are replayed.
func Open(opts Options) (*DB, error) {
	if opts.ChangeLogSize == 0 {
		opts.ChangeLogSize = defaultChangeLogSize
	}
	if opts.MaxVersionsPerRecord == 0 {
		opts.MaxVersionsPerRecord = defaultMaxVersions
	}
	db := &DB{
		opts:     opts,
		stores:   map[string]*metastore{},
		commitNs: obs.NewLatencyHistogram(),
		scanNs:   obs.NewLatencyHistogram(),
	}
	if opts.Faults != nil {
		db.injector.Store(opts.Faults)
	}
	if opts.WALPath != "" {
		f, err := db.openWAL(opts.WALPath)
		if err != nil {
			return nil, err
		}
		db.wal = newWALWriter(f, opts.Sync, opts.CommitLatency)
	}
	for _, ms := range db.stores {
		ms.nextV = ms.version
		ms.applied = ms.version
	}
	return db, nil
}

// openWAL replays the log at path, creating it if there is none, and returns
// it ready for the writer: a tail that a crash tore is cut off, so the file
// ends at the last good entry and the next commit is appended behind that.
func (db *DB) openWAL(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	t0 := time.Now()
	end, err := db.replayWAL(f, fi.Size())
	if err == nil && end < fi.Size() {
		if err = f.Truncate(end); err != nil {
			err = fmt.Errorf("store: drop the wal's torn tail: %w", err)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	db.replayTook = time.Since(t0)
	db.tailDropped.Set(fi.Size() - end)
	return f, nil
}

// Close marks the database closed, then drains and stops the WAL writer;
// every commit enqueued before Close is flushed (and fsynced per the
// SyncPolicy) before it returns. Safe to call more than once.
func (db *DB) Close() error {
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
	if db.wal != nil {
		return db.wal.close()
	}
	return nil
}

// WALStats reports group-commit batching counters; zero if no WAL is
// configured.
func (db *DB) WALStats() WALStats {
	if db.wal == nil {
		return WALStats{}
	}
	return db.wal.stats()
}

// WALErr returns the WAL's sticky failure, if the write path has been
// poisoned by an I/O error; nil when healthy or when no WAL is configured.
func (db *DB) WALErr() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.err()
}

// CommitStats is a point-in-time readout of the commit path.
type CommitStats struct {
	Commits   int64                 `json:"commits"`
	Conflicts int64                 `json:"conflicts"`
	LatencyNs obs.HistogramSnapshot `json:"latency_ns"`
}

// CommitStats snapshots commit counters and latency quantiles.
func (db *DB) CommitStats() CommitStats {
	return CommitStats{
		Commits:   db.commits.Load(),
		Conflicts: db.conflicts.Load(),
		LatencyNs: db.commitNs.Snapshot(),
	}
}

// RegisterMetrics exposes the store's counters and histograms on r. Call
// once per registry per DB.
func (db *DB) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("uc_store_commits_total", "Committed write transactions.", &db.commits)
	r.RegisterCounter("uc_store_commit_conflicts_total", "Commits rejected by version CAS.", &db.conflicts)
	r.RegisterHistogram("uc_store_commit_seconds", "End-to-end commit latency (sequence through apply).", db.commitNs)
	r.RegisterCounterFunc("uc_store_reads_total", "Snapshot point reads and scans served.", db.ReadCount)
	r.RegisterCounter("uc_store_index_scans_total", "Scans served by the ordered key index.", &db.indexScans)
	r.RegisterHistogram("uc_store_scan_seconds", "Latency of snapshot range scans.", db.scanNs)
	r.RegisterGaugeFunc("uc_store_index_keys", "Keys held across all ordered indexes.", func() float64 {
		return float64(db.IndexKeyCount())
	})
	r.RegisterGaugeFunc("uc_store_index_leaf_fill", "Fraction of the ordered indexes' allocated leaf slots that hold a key.", db.IndexLeafFill)
	if db.wal == nil {
		return
	}
	r.RegisterCounter("uc_store_wal_replay_entries_total", "WAL entries applied by the replay at Open.", &db.replayed)
	r.RegisterGaugeFunc("uc_store_wal_replay_seconds", "Duration of the WAL replay at Open.", db.replayTook.Seconds)
	r.RegisterGauge("uc_store_wal_tail_dropped_bytes", "Bytes of torn tail Open cut off the WAL.", &db.tailDropped)
	r.RegisterCounter("uc_store_wal_batches_total", "Group-commit batches written.", &db.wal.batches)
	r.RegisterCounter("uc_store_wal_entries_total", "WAL entries across all batches.", &db.wal.entries)
	r.RegisterCounter("uc_store_wal_syncs_total", "fsync calls issued by the WAL writer.", &db.wal.syncs)
	r.RegisterGauge("uc_store_wal_max_batch", "Largest group-commit batch observed.", &db.wal.maxBatch)
	r.RegisterHistogram("uc_store_wal_batch_size", "Entries per group-commit batch.", db.wal.batchSizes)
	r.RegisterHistogram("uc_store_wal_fsync_seconds", "Latency of WAL fsync calls.", db.wal.fsyncNs)
	r.RegisterGaugeFunc("uc_store_wal_failed", "1 when the WAL write path is poisoned by an I/O error.", func() float64 {
		if db.wal.err() != nil {
			return 1
		}
		return 0
	})
}

func (db *DB) metastore(id string) (*metastore, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	ms, ok := db.stores[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoMetastore, id)
	}
	return ms, nil
}

// CreateMetastore registers a new metastore namespace at version 0.
func (db *DB) CreateMetastore(id string) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if _, ok := db.stores[id]; ok {
		db.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrMetastoreExists, id)
	}
	// Enqueue the WAL entry before releasing db.mu: no commit can observe
	// the new metastore until db.mu is released, so the lifecycle entry is
	// guaranteed to precede every commit to it in the log.
	req, err := db.logMeta(walEntry{Op: opCreateMetastore, Metastore: id})
	if err != nil {
		db.mu.Unlock()
		return err
	}
	db.stores[id] = newMetastore(db.opts.ChangeLogSize)
	db.mu.Unlock()
	if req != nil {
		<-req.done
		return req.err
	}
	return nil
}

func newMetastore(changeLogSize int) *metastore {
	m := &metastore{
		tables:  map[string]map[string]*record{},
		indexes: map[string]*btree{},
		snaps:   map[uint64]int{},
		changes: newChangeRing(changeLogSize),
	}
	m.applyCond = sync.NewCond(&m.applyMu)
	return m
}

// putLocked makes (commit, value, deleted) the newest version of (table, key)
// and returns the record, creating the table map, the record and its
// ordered-index entry as needed. Every record creation funnels through here
// so the index cannot drift from the table map. Caller holds stateMu (or has
// exclusive access, as in WAL replay before the DB is shared).
func (m *metastore) putLocked(table, key string, commit uint64, value []byte, deleted bool) *record {
	t, ok := m.tables[table]
	if !ok {
		t = map[string]*record{}
		m.tables[table] = t
	}
	r, ok := t[key]
	if ok {
		// The record's address is what the map and the index hold: the
		// version it carried moves out, the new one moves in.
		older := *r
		r.prev = &older
	} else {
		r = &record{}
		t[key] = r
		idx, ok := m.indexes[table]
		if !ok {
			idx = newBtree()
			m.indexes[table] = idx
		}
		idx.insert(key, r)
	}
	r.commit, r.value, r.deleted = commit, value, deleted
	return r
}

// removeRecordLocked drops a fully-dead record from the table map and the
// ordered index together. Caller holds stateMu.
func (m *metastore) removeRecordLocked(table, key string) {
	delete(m.tables[table], key)
	if idx := m.indexes[table]; idx != nil {
		idx.delete(key)
	}
}

// logLocked appends c to the change log and reclaims the record of the
// delete that push evicts, if it evicts one. Caller holds stateMu.
func (m *metastore) logLocked(c Change) {
	if old, evicted := m.changes.push(c); evicted && old.Deleted {
		m.reclaimLocked(old)
	}
}

// reclaimLocked is given a delete that has left the change log. If the
// record is still that tombstone — nothing has written the key since — it is
// removed, with the history it kept behind the tombstone: a deleted key would
// otherwise hold its record, map entry and tree slot for ever. The change
// log is the horizon because it is the store's own: a reader at a version
// the log no longer covers cannot follow it forward either
// (ErrChangeLogTrimmed), and inside it readers at unpinned versions (cache
// views, page cursors) keep finding what MaxVersionsPerRecord promises them.
// A snapshot opened before the delete still reads that history, so the
// delete waits in m.tombs until it has closed. Caller holds stateMu.
func (m *metastore) reclaimLocked(del Change) {
	r := m.tables[del.Table][del.Key]
	if r == nil || !r.deleted || r.commit != del.Version {
		return
	}
	if len(m.snaps) > 0 && m.minSnapV < del.Version {
		m.tombs = append(m.tombs, del)
		return
	}
	m.removeRecordLocked(del.Table, del.Key)
}

// DropMetastore removes a metastore and all its data.
func (db *DB) DropMetastore(id string) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if _, ok := db.stores[id]; !ok {
		db.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoMetastore, id)
	}
	req, err := db.logMeta(walEntry{Op: opDropMetastore, Metastore: id})
	if err != nil {
		db.mu.Unlock()
		return err
	}
	delete(db.stores, id)
	db.mu.Unlock()
	if req != nil {
		<-req.done
		return req.err
	}
	return nil
}

// Metastores lists metastore IDs in lexical order.
func (db *DB) Metastores() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.stores))
	for id := range db.stores {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Version returns the current committed version of a metastore.
func (db *DB) Version(msID string) (uint64, error) {
	if err := db.fault("db.version", msID); err != nil {
		return 0, err
	}
	ms, err := db.metastore(msID)
	if err != nil {
		return 0, err
	}
	ms.stateMu.RLock()
	defer ms.stateMu.RUnlock()
	return ms.version, nil
}

// Snapshot opens a read-only view of the metastore at its current version.
// The caller must Close the snapshot to release version pins.
func (db *DB) Snapshot(msID string) (*Snapshot, error) {
	if err := db.fault("db.snapshot", msID); err != nil {
		return nil, err
	}
	ms, err := db.metastore(msID)
	if err != nil {
		return nil, err
	}
	ms.stateMu.Lock()
	v := ms.version
	ms.snaps[v]++
	ms.updateMinSnapLocked()
	ms.stateMu.Unlock()
	return &Snapshot{db: db, ms: ms, Version: v}, nil
}

// SnapshotAt opens a read-only view at an explicit version, which must be at
// or below the current version. Used by tests and the cache layer.
func (db *DB) SnapshotAt(msID string, v uint64) (*Snapshot, error) {
	if err := db.fault("db.snapshot", msID); err != nil {
		return nil, err
	}
	ms, err := db.metastore(msID)
	if err != nil {
		return nil, err
	}
	ms.stateMu.Lock()
	defer ms.stateMu.Unlock()
	if v > ms.version {
		return nil, fmt.Errorf("store: snapshot version %d beyond current %d", v, ms.version)
	}
	ms.snaps[v]++
	ms.updateMinSnapLocked()
	return &Snapshot{db: db, ms: ms, Version: v}, nil
}

func (m *metastore) updateMinSnapLocked() {
	min := ^uint64(0)
	for v := range m.snaps {
		if v < min {
			min = v
		}
	}
	if len(m.snaps) == 0 {
		min = m.version
	}
	m.minSnapV = min
}

// Snapshot is a consistent read-only view of one metastore.
type Snapshot struct {
	db      *DB
	ms      *metastore
	Version uint64
	closed  bool
}

// Get returns the value of (table, key) as of the snapshot version.
func (s *Snapshot) Get(table, key string) ([]byte, bool) {
	s.db.simulateRead()
	s.ms.stateMu.RLock()
	defer s.ms.stateMu.RUnlock()
	t, ok := s.ms.tables[table]
	if !ok {
		return nil, false
	}
	r, ok := t[key]
	if !ok {
		return nil, false
	}
	return r.at(s.Version)
}

// Scan returns all live (key, value) pairs in table whose key starts with
// prefix, in ascending key order, as of the snapshot version.
func (s *Snapshot) Scan(table, prefix string) []KV {
	return s.ScanRange(table, prefix, PrefixEnd(prefix), 0)
}

// ScanRange returns up to limit live (key, value) pairs in table with keys
// in [start, end), in ascending key order, as of the snapshot version. An
// empty end means unbounded; limit <= 0 means unlimited. With the keyset
// convention — pass the last key seen plus "\x00" as the next start — it is
// the store-level cursor primitive for paginated listings.
func (s *Snapshot) ScanRange(table, start, end string, limit int) []KV {
	s.db.simulateRead()
	t0 := time.Now()
	s.ms.stateMu.RLock()
	var out []KV
	s.db.scanLiveLocked(s.ms, table, start, end, s.Version, func(k string, v []byte) bool {
		out = append(out, KV{Key: k, Value: v})
		return limit <= 0 || len(out) < limit
	})
	s.ms.stateMu.RUnlock()
	s.db.scanNs.ObserveDuration(time.Since(t0))
	return out
}

// Count returns the number of live keys in table with the given prefix.
func (s *Snapshot) Count(table, prefix string) int {
	s.db.simulateRead()
	s.ms.stateMu.RLock()
	defer s.ms.stateMu.RUnlock()
	n := 0
	s.db.scanLiveLocked(s.ms, table, prefix, PrefixEnd(prefix), s.Version, func(string, []byte) bool {
		n++
		return true
	})
	return n
}

// GetBatch returns the values of keys in table as of the snapshot version,
// aligned with keys (nil where absent or deleted), in one simulated round
// trip — the multi-get a real database would serve as a single query.
func (s *Snapshot) GetBatch(table string, keys []string) [][]byte {
	s.db.simulateRead()
	s.ms.stateMu.RLock()
	defer s.ms.stateMu.RUnlock()
	out := make([][]byte, len(keys))
	t, ok := s.ms.tables[table]
	if !ok {
		return out
	}
	for i, k := range keys {
		if r, ok := t[k]; ok {
			if v, live := r.at(s.Version); live {
				out[i] = v
			}
		}
	}
	return out
}

// PrefixEnd returns the smallest key greater than every key with the given
// prefix, or "" (unbounded) when no such key exists. Scan(prefix) is exactly
// ScanRange(prefix, PrefixEnd(prefix), 0).
func PrefixEnd(prefix string) string {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			return prefix[:i] + string(prefix[i]+1)
		}
	}
	return ""
}

// scanLiveLocked is the one scan implementation behind Snapshot.Scan/Count/
// ScanRange and Tx.Scan/ScanRange: it walks live (key, value) pairs of
// table at version v with keys in [start, end) in ascending order, calling
// fn until it returns false. The table's ordered index serves it as a
// descent plus bounded walk. Caller holds ms.stateMu.
func (db *DB) scanLiveLocked(ms *metastore, table, start, end string, v uint64, fn func(k string, val []byte) bool) {
	idx := ms.indexes[table]
	if idx == nil {
		return
	}
	db.indexScans.Inc()
	idx.ascend(start, func(k string, r *record) bool {
		if end != "" && k >= end {
			return false
		}
		if val, live := r.at(v); live {
			return fn(k, val)
		}
		return true
	})
}

// IndexKeyCount returns the total number of keys across all ordered
// indexes.
func (db *DB) IndexKeyCount() int {
	keys, _ := db.indexSize(func(string) bool { return true })
	return keys
}

// IndexSize returns the number of keys the ordered index holds for one
// table, summed across metastores.
func (db *DB) IndexSize(table string) int {
	keys, _ := db.indexSize(func(t string) bool { return t == table })
	return keys
}

// IndexLeafFill returns the fraction of the ordered indexes' allocated leaf
// slots that hold a key (1 when there are none).
func (db *DB) IndexLeafFill() float64 {
	keys, slots := db.indexSize(func(string) bool { return true })
	if slots == 0 {
		return 1
	}
	return float64(keys) / float64(slots)
}

func (db *DB) indexSize(want func(table string) bool) (keys, slots int) {
	db.mu.RLock()
	stores := make([]*metastore, 0, len(db.stores))
	for _, ms := range db.stores {
		stores = append(stores, ms)
	}
	db.mu.RUnlock()
	for _, ms := range stores {
		ms.stateMu.RLock()
		for t, idx := range ms.indexes {
			if want(t) {
				keys += idx.size
				slots += idx.slots
			}
		}
		ms.stateMu.RUnlock()
	}
	return keys, slots
}

// Close releases the snapshot's version pin. Safe to call multiple times.
func (s *Snapshot) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.ms.stateMu.Lock()
	defer s.ms.stateMu.Unlock()
	if n := s.ms.snaps[s.Version]; n <= 1 {
		delete(s.ms.snaps, s.Version)
	} else {
		s.ms.snaps[s.Version] = n - 1
	}
	s.ms.updateMinSnapLocked()
}

// Tx is a read-write transaction. Reads observe the transaction's snapshot
// plus its own uncommitted writes. Tx is not safe for concurrent use.
type Tx struct {
	db      *DB
	ms      *metastore
	base    uint64
	writes  map[string]map[string]*txWrite // table -> key -> write
	ordered []Change                       // write order for the change log/WAL
	notes   []any                          // opaque annotations for commit hooks
}

// Annotate attaches an opaque note to the transaction. If the transaction
// commits, every registered CommitHook receives the notes in the order they
// were added; on retry (e.g. a CAS conflict re-running the closure) the
// fresh transaction starts with no notes. Callers use this to stage
// higher-level event metadata inside the closure so it is published
// if-and-only-if the commit applies.
func (tx *Tx) Annotate(note any) { tx.notes = append(tx.notes, note) }

type txWrite struct {
	value   []byte
	deleted bool
}

// Get returns the value of (table, key) as seen by the transaction: its own
// buffered writes, then any sequenced-but-unapplied commit's writes (the
// pipeline overlay), then the applied state at the transaction's base
// version. A commit moving from the overlay into the applied state keeps
// the same visible value, so repeated reads are stable.
func (tx *Tx) Get(table, key string) ([]byte, bool) {
	if t, ok := tx.writes[table]; ok {
		if w, ok := t[key]; ok {
			if w.deleted {
				return nil, false
			}
			return w.value, true
		}
	}
	tx.ms.stateMu.RLock()
	defer tx.ms.stateMu.RUnlock()
	for i := len(tx.ms.pending) - 1; i >= 0; i-- {
		pc := tx.ms.pending[i]
		if pc.version > tx.base {
			continue
		}
		if t, ok := pc.writes[table]; ok {
			if w, ok := t[key]; ok {
				if w.deleted {
					return nil, false
				}
				return w.value, true
			}
		}
	}
	t, ok := tx.ms.tables[table]
	if !ok {
		return nil, false
	}
	r, ok := t[key]
	if !ok {
		return nil, false
	}
	return r.at(tx.base)
}

// Put buffers a write of (table, key) = value.
func (tx *Tx) Put(table, key string, value []byte) {
	cp := make([]byte, len(value))
	copy(cp, value)
	tx.write(table, key, &txWrite{value: cp})
}

// Delete buffers a deletion of (table, key).
func (tx *Tx) Delete(table, key string) {
	tx.write(table, key, &txWrite{deleted: true})
}

func (tx *Tx) write(table, key string, w *txWrite) {
	t, ok := tx.writes[table]
	if !ok {
		t = map[string]*txWrite{}
		tx.writes[table] = t
	}
	if _, staged := t[key]; !staged {
		tx.ordered = append(tx.ordered, Change{Table: table, Key: key, Deleted: w.deleted})
	} else {
		// Keep the ordered entry's Deleted flag in sync with the final write.
		for i := range tx.ordered {
			if tx.ordered[i].Table == table && tx.ordered[i].Key == key {
				tx.ordered[i].Deleted = w.deleted
				break
			}
		}
	}
	t[key] = w
}

// Write is a buffered mutation exposed by Writes.
type Write struct {
	Table   string
	Key     string
	Value   []byte
	Deleted bool
}

// Writes returns the transaction's buffered mutations in first-write order,
// with each key's final value. The cache layer uses this to install
// committed values without re-reading the database.
func (tx *Tx) Writes() []Write {
	out := make([]Write, 0, len(tx.ordered))
	for _, c := range tx.ordered {
		w := tx.writes[c.Table][c.Key]
		out = append(out, Write{Table: c.Table, Key: c.Key, Value: w.value, Deleted: w.deleted})
	}
	return out
}

// Scan returns live pairs with the key prefix, merging buffered writes and
// the pipeline overlay over the applied state at the base version.
func (tx *Tx) Scan(table, prefix string) []KV {
	return tx.ScanRange(table, prefix, PrefixEnd(prefix), 0)
}

// ScanRange is Snapshot.ScanRange semantics ([start, end), ascending, up to
// limit) as seen by the transaction: buffered writes, then the pipeline
// overlay, then the applied state at the base version. The overlay keys are
// sorted once and merge-joined with the ordered base walk, so early
// termination at limit does not visit the rest of the range.
func (tx *Tx) ScanRange(table, start, end string, limit int) []KV {
	inRange := func(k string) bool { return k >= start && (end == "" || k < end) }

	tx.ms.stateMu.RLock()
	// Overlay: sequenced-but-unapplied commits at or below base, oldest to
	// newest so later writes win, then the transaction's own writes.
	overlay := map[string]*txWrite{}
	for _, pc := range tx.ms.pending {
		if pc.version > tx.base {
			continue
		}
		if t, ok := pc.writes[table]; ok {
			for k, w := range t {
				if inRange(k) {
					overlay[k] = w
				}
			}
		}
	}
	for k, w := range tx.writes[table] {
		if inRange(k) {
			overlay[k] = w
		}
	}
	okeys := make([]string, 0, len(overlay))
	for k := range overlay {
		okeys = append(okeys, k)
	}
	sort.Strings(okeys)

	var out []KV
	emit := func(k string, v []byte) bool {
		out = append(out, KV{Key: k, Value: v})
		return limit <= 0 || len(out) < limit
	}
	oi := 0
	more := true
	tx.db.scanLiveLocked(tx.ms, table, start, end, tx.base, func(k string, val []byte) bool {
		for oi < len(okeys) && okeys[oi] < k {
			if w := overlay[okeys[oi]]; !w.deleted {
				if !emit(okeys[oi], w.value) {
					more = false
					return false
				}
			}
			oi++
		}
		if oi < len(okeys) && okeys[oi] == k {
			w := overlay[okeys[oi]]
			oi++
			if w.deleted {
				return true
			}
			more = emit(k, w.value)
			return more
		}
		more = emit(k, val)
		return more
	})
	if more {
		for ; oi < len(okeys); oi++ {
			if w := overlay[okeys[oi]]; !w.deleted {
				if !emit(okeys[oi], w.value) {
					break
				}
			}
		}
	}
	tx.ms.stateMu.RUnlock()
	return out
}

// Update runs fn inside a serializable write transaction on the metastore.
// On success it returns the new metastore version. If fn returns an error,
// nothing is applied.
func (db *DB) Update(msID string, fn func(tx *Tx) error) (uint64, error) {
	return db.update(obs.SpanContext{}, msID, nil, fn)
}

// UpdateT is Update with a trace context: the commit records a
// "store.commit" span with sequence/wal/apply phase children.
func (db *DB) UpdateT(sc obs.SpanContext, msID string, fn func(tx *Tx) error) (uint64, error) {
	return db.update(sc, msID, nil, fn)
}

// UpdateCAS is Update conditioned on the metastore version still being
// expected at commit time; otherwise it returns ErrVersionMismatch without
// running fn. This implements the optimistic write protocol the cache uses.
func (db *DB) UpdateCAS(msID string, expected uint64, fn func(tx *Tx) error) (uint64, error) {
	return db.update(obs.SpanContext{}, msID, &expected, fn)
}

// UpdateCAST is UpdateCAS with a trace context.
func (db *DB) UpdateCAST(sc obs.SpanContext, msID string, expected uint64, fn func(tx *Tx) error) (uint64, error) {
	return db.update(sc, msID, &expected, fn)
}

// update is the group-commit write path. It runs in four stages:
//
//  1. Sequence (under ms.mu): conflict-detect against the sequenced version
//     nextV, run fn, assign newV = nextV+1, install the write set in the
//     pending overlay, and enqueue the WAL request — O(write set) work with
//     no I/O, no fsync, and no simulated latency under the lock.
//  2. Encode + await ack (no locks): encode the WAL entry's frame, then wait
//     for the writer goroutine's batch ack. N concurrent commits share one
//     flush, one fsync, and one simulated CommitLatency round trip. With no
//     WAL, each commit pays its own round trip, concurrently.
//  3. Await turn (applyMu): state is applied strictly in sequence order.
//  4. Apply (stateMu): install the writes, push the change log, bump the
//     visible version — durability before visibility, as in the seed.
//
// A WAL failure fails this commit and poisons the write path (see wal.go);
// the pending entry is dropped and the visible version never reaches newV.
func (db *DB) update(sc obs.SpanContext, msID string, expected *uint64, fn func(tx *Tx) error) (uint64, error) {
	// Fault check before any transaction state exists, modeling a failed
	// connection: a faulted commit never partially applies.
	if err := db.fault("db.commit", msID); err != nil {
		return 0, err
	}
	if db.wal != nil {
		if err := db.wal.err(); err != nil {
			return 0, err
		}
	}
	ms, err := db.metastore(msID)
	if err != nil {
		return 0, err
	}

	t0 := time.Now()
	sc, commitSpan := sc.StartDetail("store.commit", msID)
	defer commitSpan.End()

	// Stage 1: sequence.
	_, seqSpan := sc.Start("store.sequence")
	ms.mu.Lock()
	base := ms.nextV
	if expected != nil && base != *expected {
		ms.mu.Unlock()
		seqSpan.End()
		db.conflicts.Inc()
		return base, fmt.Errorf("%w: have %d, expected %d", ErrVersionMismatch, base, *expected)
	}
	tx := &Tx{db: db, ms: ms, base: base, writes: map[string]map[string]*txWrite{}}
	if err := fn(tx); err != nil {
		ms.mu.Unlock()
		seqSpan.End()
		return base, err
	}
	if len(tx.ordered) == 0 {
		ms.mu.Unlock()
		seqSpan.End()
		return base, nil // read-only transaction: no version bump
	}
	newV := base + 1
	ms.nextV = newV
	pc := &pendingCommit{version: newV, writes: tx.writes}
	ms.stateMu.Lock()
	ms.pending = append(ms.pending, pc)
	ms.stateMu.Unlock()
	var req *walReq
	if db.wal != nil {
		req = newWALReq()
		if err := db.wal.submit(req); err != nil {
			ms.dropPending(newV, err)
			ms.mu.Unlock()
			seqSpan.End()
			return base, err
		}
	}
	ms.mu.Unlock()
	seqSpan.End()

	// Stage 2: encode off every lock, then await the batch ack. The
	// "store.wal" span covers enqueue→fsync: it opened when the request
	// entered the queue (sequencing) and closes at the batch ack.
	if req != nil {
		_, walSpan := sc.Start("store.wal")
		entry := walEntry{Op: "commit", Metastore: msID, Version: newV}
		entry.Writes = make([]walWrite, 0, len(tx.ordered))
		for _, c := range tx.ordered {
			w := tx.writes[c.Table][c.Key]
			entry.Writes = append(entry.Writes, walWrite{Table: c.Table, Key: c.Key, Value: w.value, Deleted: w.deleted})
		}
		req.encode(&entry)
		<-req.done
		walSpan.End()
		if req.err != nil {
			ms.dropPending(newV, req.err)
			return base, req.err
		}
	} else {
		db.simulateCommit() // own round trip, overlapping with other commits
	}

	// Stages 3+4 share one "store.apply" span: waiting for our turn in the
	// apply turnstile plus installing the writes.
	_, applySpan := sc.Start("store.apply")
	defer applySpan.End()

	// Stage 3: await our turn. Acked predecessors always apply (a WAL
	// failure fails every later commit too, so we only wait on successes).
	ms.applyMu.Lock()
	for ms.applied != newV-1 {
		ms.applyCond.Wait()
	}
	ms.applyMu.Unlock()

	// Stage 4: apply under stateMu — durability before visibility.
	ms.stateMu.Lock()
	if len(ms.pending) == 0 || ms.pending[0] != pc {
		ms.stateMu.Unlock()
		panic("store: commit pipeline applied out of sequence")
	}
	for i := range tx.ordered {
		c := &tx.ordered[i]
		c.Version = newV
		w := tx.writes[c.Table][c.Key]
		db.pruneLocked(ms, ms.putLocked(c.Table, c.Key, newV, w.value, w.deleted))
		ms.logLocked(*c)
	}
	if waiting := ms.tombs; len(waiting) > 0 {
		ms.tombs = waiting[:0] // refilled behind the read position
		for _, del := range waiting {
			ms.reclaimLocked(del)
		}
	}
	ms.pending = ms.pending[1:]
	ms.version = newV
	ms.stateMu.Unlock()

	// Commit hooks: after durability and visibility, before the turnstile
	// admits newV+1 — per-metastore hooks see strictly increasing versions.
	if hp := db.hooks.Load(); hp != nil {
		for _, h := range *hp {
			h(msID, newV, tx.ordered, tx.notes)
		}
	}

	ms.applyMu.Lock()
	ms.applied = newV
	ms.applyCond.Broadcast()
	ms.applyMu.Unlock()
	db.commits.Inc()
	db.commitNs.ObserveDuration(time.Since(t0))
	return newV, nil
}

// dropPending removes the sequenced-but-unapplied commit v after its WAL
// write failed or the database closed under it. Later sequenced commits are
// guaranteed to fail too (the failure is sticky), so the applied version
// simply never reaches v and no applier waits on it; AwaitApplied callers
// are released with err.
func (ms *metastore) dropPending(v uint64, err error) {
	ms.stateMu.Lock()
	for i, pc := range ms.pending {
		if pc.version == v {
			ms.pending = append(ms.pending[:i], ms.pending[i+1:]...)
			break
		}
	}
	ms.stateMu.Unlock()
	ms.applyMu.Lock()
	if ms.applyErr == nil {
		ms.applyErr = err
	}
	ms.applyCond.Broadcast()
	ms.applyMu.Unlock()
}

// AwaitApplied blocks until the metastore's applied (visible) version has
// reached v, and reports whether it had to wait. UpdateCAS checks its
// expected version against the *sequenced* version, which runs ahead of the
// applied one while a commit awaits its WAL ack or its turn to apply; a
// caller that lost the CAS passes the version the failed call returned, so
// that its next Version/ChangesSince read includes the commit it lost to.
// It returns the commit pipeline's error if a sequenced commit was dropped
// and v can no longer be reached.
func (db *DB) AwaitApplied(msID string, v uint64) (waited bool, err error) {
	ms, err := db.metastore(msID)
	if err != nil {
		return false, err
	}
	ms.applyMu.Lock()
	defer ms.applyMu.Unlock()
	for ms.applied < v && ms.applyErr == nil {
		waited = true
		ms.applyCond.Wait()
	}
	if ms.applied < v {
		return waited, ms.applyErr
	}
	return waited, nil
}

// pruneLocked drops versions that are neither among the most recent
// MaxVersionsPerRecord nor visible to any active snapshot.
func (db *DB) pruneLocked(ms *metastore, r *record) {
	// pin is the oldest version any active snapshot may still read;
	// with no snapshots every historical version is unreachable.
	pin := ^uint64(0)
	if len(ms.snaps) > 0 {
		pin = ms.minSnapV
	}
	// The newest version at or below pin serves every snapshot at or above
	// pin, so everything older can go; if there is none, every version is
	// still some snapshot's.
	kept := 1
	for ; r != nil && r.commit > pin; r = r.prev {
		kept++
	}
	if r == nil {
		return
	}
	for ; kept < db.opts.MaxVersionsPerRecord && r.prev != nil; r = r.prev {
		kept++
	}
	r.prev = nil
}

// ChangesSince returns the changes applied after version v, in commit order.
// If the change log no longer covers v, it returns ErrChangeLogTrimmed and
// the caller must fall back to full reconciliation.
func (db *DB) ChangesSince(msID string, v uint64) ([]Change, error) {
	if err := db.fault("db.changes", msID); err != nil {
		return nil, err
	}
	ms, err := db.metastore(msID)
	if err != nil {
		return nil, err
	}
	ms.stateMu.RLock()
	defer ms.stateMu.RUnlock()
	if v >= ms.version {
		return nil, nil
	}
	n := ms.changes.len()
	// The log must contain every change in (v, current]. The ring evicts
	// change by change, not commit by commit, so once it has wrapped the
	// oldest retained version may be missing its first changes: only a
	// retained change at or below v shows that all of v+1 is still there.
	first := ^uint64(0)
	if n > 0 {
		first = ms.changes.at(0).Version
	}
	if v+1 < first || (v < first && ms.changes.full()) {
		return nil, ErrChangeLogTrimmed
	}
	// Versions ascend through the ring, so binary-search the cut point.
	i := sort.Search(n, func(i int) bool { return ms.changes.at(i).Version > v })
	if i == n {
		return nil, nil
	}
	out := make([]Change, 0, n-i)
	for ; i < n; i++ {
		out = append(out, ms.changes.at(i))
	}
	return out, nil
}

func (db *DB) simulateRead() {
	db.reads.Add(1)
	if db.opts.ReadLatency > 0 {
		time.Sleep(db.opts.ReadLatency)
	}
}

// ReadCount returns the number of snapshot Get/Scan/Count operations the
// database has served since Open. Each one pays ReadLatency, so the counter
// measures exactly the work the metadata cache exists to avoid.
func (db *DB) ReadCount() int64 { return db.reads.Load() }

func (db *DB) simulateCommit() {
	if db.opts.CommitLatency > 0 {
		time.Sleep(db.opts.CommitLatency)
	}
}
