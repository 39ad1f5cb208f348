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
//     the metastore version by one; whatever a write depends on, it checks
//     inside its transaction;
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
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"unitycatalog/internal/faults"
	"unitycatalog/internal/obs"
)

// Common errors.
var (
	ErrNoMetastore      = errors.New("store: metastore does not exist")
	ErrMetastoreExists  = errors.New("store: metastore already exists")
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

// Change describes one mutation applied by a committed transaction: a write
// to a stored table, or a row of a unique derived table that a write made
// live or dead. The log keeps neither key: a write's is its record's own
// string, and a row's is derived from its source record's version when the
// log is read (ChangesSince).
type Change struct {
	Version uint64 `json:"version"` // metastore version that applied this change
	Table   string `json:"table"`
	Key     string `json:"key"`
	Deleted bool   `json:"deleted,omitempty"`
}

// record is a key's newest version, and through prev its older ones in
// descending commit order. The newest version lives in the record itself —
// the object the key table and the ordered index point at — so a key written
// once, which is nearly every key, costs one 48-byte object, its key
// included, and no slice. TestRecordSize holds it to 48 bytes.
type record struct {
	commit uint64
	key    string
	// The value is its data pointer and length, not a slice: a record has
	// no use for its capacity. Tx.Put copies every value into an exact-size
	// slice, so the pointer owns its bytes.
	data    *byte
	n       uint32
	deleted bool
	prev    *record
}

// value returns the version's bytes: nil for a nil value, empty for an empty
// one.
func (r *record) value() []byte { return unsafe.Slice(r.data, r.n) }

// setValue makes v the version's bytes; commit refuses a value whose length
// does not fit n (valueFits).
func (r *record) setValue(v []byte) { r.data, r.n = unsafe.SliceData(v), uint32(len(v)) }

// valueFits reports whether a value of n bytes fits a record's length field.
func valueFits(n int) bool { return uint64(n) <= math.MaxUint32 }

func (r *record) at(v uint64) ([]byte, bool) {
	for ; r != nil; r = r.prev {
		if r.commit <= v {
			if r.deleted {
				return nil, false
			}
			return r.value(), true
		}
	}
	return nil, false
}

type metastore struct {
	// mu is the sequencing lock: it serializes the user's transaction
	// function, version assignment, and WAL enqueue —
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
	tables  map[string]*keyTable
	// indexes mirrors each table's key set in an ordered B+ tree so scans
	// are a descent plus bounded walk.
	// Membership tracks the key table exactly (records, not liveness): every
	// mutation goes through putLocked/removeRecordLocked.
	indexes map[string]*btree
	// derived holds the groups of each derived table (derived.go), and
	// scratch is where a group is derived; it is guarded by the stateMu write
	// lock.
	derived  []*groupIndex
	scratch  []byte
	search   []byte    // where a write's group search derives, beside scratch
	moved    []entered // putLocked's, kept for its array
	changes  changeRing
	snaps    map[uint64]int
	minSnapV uint64
	// tombs holds deletes that left the change log while a snapshot older
	// than them was open (reclaimLocked); each later commit retries them.
	tombs []changeSlot
	// pending holds the transactions sequenced (assigned a version, enqueued
	// to the WAL) but not yet applied, in ascending version. Transactions
	// sequencing after them read their writes through Tx.Get/Scan; snapshots
	// never see them (durability before visibility).
	pending []*Tx

	// applyMu/applyCond sequence state application: a committer applies
	// only after version newV-1 has been applied, so the state always
	// advances in commit order even though batch acks wake whole groups.
	applyMu   sync.Mutex
	applyCond *sync.Cond
	applied   uint64 // mirrors version; guarded by applyMu
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

	// commits counts applied commits; commitNs distributes end-to-end commit
	// latency (sequence through apply). Exposed on /metrics via
	// RegisterMetrics.
	commits  obs.Counter
	commitNs *obs.Histogram

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
// notes carries whatever the transaction attached via Tx.Annotate, in order.
// A hook that wants the records the commit touched reads them from the
// database: ChangesSince(msID, version-1) already holds them.
// Hooks must not block: the metastore's commit pipeline stalls until every
// hook returns. Calling back into the DB for reads is safe; committing to
// the same metastore from a hook deadlocks.
type CommitHook func(msID string, version uint64, notes []any)

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
	LatencyNs obs.HistogramSnapshot `json:"latency_ns"`
}

// CommitStats snapshots commit counters and latency quantiles.
func (db *DB) CommitStats() CommitStats {
	return CommitStats{
		Commits:   db.commits.Load(),
		LatencyNs: db.commitNs.Snapshot(),
	}
}

// RegisterMetrics exposes the store's counters and histograms on r. Call
// once per registry per DB.
func (db *DB) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("uc_store_commits_total", "Committed write transactions.", &db.commits)
	r.RegisterHistogram("uc_store_commit_seconds", "End-to-end commit latency (sequence through apply).", db.commitNs)
	r.RegisterCounterFunc("uc_store_reads_total", "Snapshot point reads and scans served.", db.ReadCount)
	r.RegisterCounter("uc_store_index_scans_total", "Scans served by the ordered key index.", &db.indexScans)
	r.RegisterHistogram("uc_store_scan_seconds", "Latency of snapshot range scans.", db.scanNs)
	r.RegisterGaugeFunc("uc_store_index_keys", "Keys held across all ordered indexes.", func() float64 {
		return float64(db.IndexKeyCount())
	})
	r.RegisterGaugeFunc("uc_store_index_leaf_fill", "Fraction of the ordered indexes' allocated leaf slots that hold a key.", db.IndexLeafFill)
	r.RegisterGaugeFunc("uc_store_key_fill", "Fraction of the key tables' slots that hold a record.", db.KeyFill)
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
		return req.wait()
	}
	return nil
}

func newMetastore(changeLogSize int) *metastore {
	m := &metastore{
		tables:  map[string]*keyTable{},
		indexes: map[string]*btree{},
		derived: newGroupIndexes(),
		snaps:   map[uint64]int{},
		changes: newChangeRing(changeLogSize),
	}
	m.applyCond = sync.NewCond(&m.applyMu)
	return m
}

// putLocked makes (commit, value, deleted) the newest version of (table, key)
// and returns the record, creating the key table, the record and its
// ordered-index entry as needed, and moving a derived table's source record
// to the rows its new version derives (derived.go). Every record creation funnels
// through here so the indexes cannot drift from the key table. Caller holds
// stateMu (or has exclusive access, as in WAL replay before the DB is shared).
func (m *metastore) putLocked(table, key string, commit uint64, value []byte, deleted bool) *record {
	t, ok := m.tables[table]
	if !ok {
		t = newKeyTable()
		m.tables[table] = t
	}
	r := t.get(key)
	held := false
	moved := m.moved[:0]
	if r != nil {
		// The record's address is what the key table and the index hold:
		// the version it carried moves out, the new one moves in.
		if held = r.data != nil; held && m.sources(table) {
			moved = m.leaveLocked(table, r, value, deleted, moved)
		}
		older := *r
		r.prev = &older
	} else {
		r = &record{key: key}
		t.insert(r)
		idx, ok := m.indexes[table]
		if !ok {
			idx = newBtree()
			m.indexes[table] = idx
		}
		idx.insert(r)
	}
	r.commit, r.deleted = commit, deleted
	source := m.sources(table)
	switch {
	case !source || !deleted:
		r.setValue(value)
	case !held:
		r.setValue(nil)
	}
	// Else the tombstone keeps the value it deletes, which names its rows.
	if source {
		m.enterLocked(table, r, held, moved)
		m.moved = moved[:0]
	}
	return r
}

// removeRecordLocked drops a fully-dead record from the key table, the
// ordered index and its derived rows together. Caller holds stateMu.
func (m *metastore) removeRecordLocked(table, key string) {
	if r := m.tables[table].get(key); r != nil && m.sources(table) {
		m.leaveAllLocked(table, r)
	}
	m.tables[table].remove(key)
	if idx := m.indexes[table]; idx != nil {
		idx.delete(key)
	}
}

// logCommitLocked appends commit v's changes to the change log: first the
// rows of unique derived tables that rows, the commit's, make live or dead,
// each as its table and the source record whose value derives it, then the
// writes, each as its record. A delete is thus the last change of its commit
// to leave the log, and the record it reclaims is named by none still there.
// A write to a derived table, which a log written while the rows were stored
// holds, is not a change: rows names it. Caller holds stateMu for writing.
func (m *metastore) logCommitLocked(v uint64, writes, rows []Write) {
	for i := range rows {
		rw := &rows[i]
		n := m.tableNoLocked(rw.Table)
		rec := m.tables[m.changes.tables[n].gi.d.source].get(str(rw.Value))
		m.logLocked(changeSlot{version: v, rec: rec, table: n, deleted: rw.Deleted})
	}
	for i := range writes {
		w := &writes[i]
		if n := m.tableNoLocked(w.Table); m.changes.tables[n].gi == nil {
			m.logLocked(changeSlot{version: v, rec: m.tables[w.Table].get(w.Key), table: n, deleted: w.Deleted})
		}
	}
}

// tableNoLocked returns table's number in the change log. Caller holds
// stateMu for writing.
func (m *metastore) tableNoLocked(table string) uint32 {
	if n, ok := m.changes.tableNo[table]; ok {
		return n
	}
	return m.changes.add(table, m.derivedTable(table))
}

// logLocked appends s to the change log and reclaims the record of the
// delete that push evicts, if it evicts one. Caller holds stateMu.
func (m *metastore) logLocked(s changeSlot) {
	if old, evicted := m.changes.push(s); evicted && old.deleted && m.changes.tables[old.table].gi == nil {
		m.reclaimLocked(old)
	}
}

// reclaimLocked is given a delete that has left the change log. If the
// record is still that tombstone — nothing has written the key since — it is
// removed, with the history it kept behind the tombstone: a deleted key would
// otherwise hold its record, key-table slot and tree slot for ever. The change
// log is the horizon because it is the store's own: a reader at a version
// the log no longer covers cannot follow it forward either
// (ErrChangeLogTrimmed), and inside it readers at unpinned versions (cache
// views, page cursors) keep finding what MaxVersionsPerRecord promises them.
// A snapshot opened before the delete still reads that history, so the
// delete waits in m.tombs until it has closed. Caller holds stateMu.
func (m *metastore) reclaimLocked(del changeSlot) {
	r, table := del.rec, m.changes.tables[del.table].name
	if !r.deleted || r.commit != del.version || m.tables[table].get(r.key) != r {
		return
	}
	if len(m.snaps) > 0 && m.minSnapV < del.version {
		m.tombs = append(m.tombs, del)
		return
	}
	m.removeRecordLocked(table, r.key)
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
		return req.wait()
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
	s := new(Snapshot)
	if err := db.OpenSnapshot(s, msID); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenSnapshot is Snapshot opened in s, which must be closed or never
// opened: a reader that holds one snapshot at a time reuses one.
func (db *DB) OpenSnapshot(s *Snapshot, msID string) error {
	if err := db.fault("db.snapshot", msID); err != nil {
		return err
	}
	ms, err := db.metastore(msID)
	if err != nil {
		return err
	}
	ms.stateMu.Lock()
	v := ms.version
	ms.snaps[v]++
	ms.updateMinSnapLocked()
	ms.stateMu.Unlock()
	*s = Snapshot{db: db, ms: ms, Version: v}
	return nil
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
	return s.ms.getLocked(table, key, s.Version)
}

// getLocked reads (table, key) at version v: a derived table's row is live
// while its record is live under it, and its value is rowValue's. Caller
// holds stateMu.
func (m *metastore) getLocked(table, key string, v uint64) ([]byte, bool) {
	if gi := m.derivedTable(table); gi != nil {
		if r, _ := gi.lookupLocked(key, v); r != nil {
			return gi.rowValue(r.key), true
		}
		return nil, false
	}
	return m.tables[table].get(key).at(v)
}

// Scan returns all live (key, value) pairs in table whose key starts with
// prefix, in ascending key order, as of the snapshot version. A stored
// table's result is sized once, to the rows it holds.
func (s *Snapshot) Scan(table, prefix string) []KV {
	out, _ := s.db.scanRange(s.ms, s.Version, table, prefix, "", "", 0)
	return out
}

// Each calls fn for each pair Scan would return, in the same order, until fn
// returns false, and allocates nothing: key and val are the store's own and
// must not be written. fn runs under the metastore's read lock and must not
// call the store.
func (s *Snapshot) Each(table, prefix string, fn func(key string, val []byte) bool) {
	s.db.scanAt(s.ms, s.Version, func() { s.db.scanLiveLocked(s.ms, table, prefix, "", "", s.Version, fn) })
}

// ScanRange returns up to limit live (key, value) pairs in table with keys
// in [start, end), in ascending key order, as of the snapshot version. An
// empty end means unbounded; limit <= 0 means unlimited. With the keyset
// convention — pass the last key seen plus "\x00" as the next start — it is
// the store-level cursor primitive for paginated listings. A bounded scan
// sizes its result once, at its first row; an empty one returns nil.
func (s *Snapshot) ScanRange(table, start, end string, limit int) []KV {
	out, _ := s.db.scanRange(s.ms, s.Version, table, "", start, end, limit)
	return out
}

// ScanRangeAt is Snapshot.ScanRange at version v of the metastore over the
// keys with prefix: those in [start, end) that have it, so Scan(prefix) is
// ScanRangeAt(prefix, "", "", 0). It opens no snapshot: the read runs under
// one hold of the state lock, and no commit can prune a version while it is
// held. v must be at or below the current version. It fails as SnapshotAt
// would.
func (db *DB) ScanRangeAt(msID string, v uint64, table, prefix, start, end string, limit int) ([]KV, error) {
	if err := db.fault("db.snapshot", msID); err != nil {
		return nil, err
	}
	ms, err := db.metastore(msID)
	if err != nil {
		return nil, err
	}
	return db.scanRange(ms, v, table, prefix, start, end, limit)
}

// GroupRows returns up to limit live rows of derived table table in
// [start, end), in ascending order, as of the snapshot version, each in its
// source's terms (GroupRow): a listing decodes the records its rows name
// with no second read and no key built per row. ScanRange's conventions;
// nil for a table that is not derived.
func (s *Snapshot) GroupRows(table, start, end string, limit int) []GroupRow {
	var out []GroupRow
	s.db.scanAt(s.ms, s.Version, func() { out = s.ms.groupRowsLocked(table, start, end, s.Version, limit) })
	return out
}

// GroupRowsAt is Snapshot.GroupRows at version v of the metastore, opening no
// snapshot, as ScanRangeAt is ScanRange.
func (db *DB) GroupRowsAt(msID string, v uint64, table, start, end string, limit int) ([]GroupRow, error) {
	if err := db.fault("db.snapshot", msID); err != nil {
		return nil, err
	}
	ms, err := db.metastore(msID)
	if err != nil {
		return nil, err
	}
	var out []GroupRow
	err = db.scanAt(ms, v, func() { out = ms.groupRowsLocked(table, start, end, v, limit) })
	return out, err
}

func (m *metastore) groupRowsLocked(table, start, end string, v uint64, limit int) []GroupRow {
	gi := m.derivedTable(table)
	if gi == nil {
		return nil
	}
	return gi.groupRowsLocked(start, end, v, limit)
}

// scanRange is the one body of Snapshot.Scan/ScanRange and ScanRangeAt.
func (db *DB) scanRange(ms *metastore, v uint64, table, prefix, start, end string, limit int) ([]KV, error) {
	var out []KV
	err := db.scanAt(ms, v, func() {
		if gi := ms.derivedTable(table); gi != nil {
			db.indexScans.Inc()
			out = gi.rowsLocked(prefix, start, end, v, limit)
			return
		}
		idx := ms.indexes[table]
		if idx == nil {
			return
		}
		db.indexScans.Inc()
		n := limit
		if n <= 0 { // unbounded: count the rows, then size the result to them
			n = 0
			ascendLive(idx, prefix, start, end, v, func(string, []byte) bool { n++; return true })
			if n == 0 {
				return
			}
		}
		ascendLive(idx, prefix, start, end, v, func(k string, val []byte) bool {
			if out == nil {
				out = make([]KV, 0, min(n, idx.size))
			}
			out = append(out, KV{Key: k, Value: val})
			return len(out) < n
		})
	})
	return out, err
}

// scanAt runs read under the state read lock as one simulated, timed scan at
// version v of ms, which must not be beyond the current version.
func (db *DB) scanAt(ms *metastore, v uint64, read func()) error {
	db.simulateRead()
	t0 := time.Now()
	ms.stateMu.RLock()
	if v > ms.version {
		cur := ms.version
		ms.stateMu.RUnlock()
		return fmt.Errorf("store: scan version %d beyond current %d", v, cur)
	}
	read()
	ms.stateMu.RUnlock()
	db.scanNs.ObserveDuration(time.Since(t0))
	return nil
}

// Count returns the number of live keys in table with the given prefix.
func (s *Snapshot) Count(table, prefix string) int {
	s.db.simulateRead()
	s.ms.stateMu.RLock()
	defer s.ms.stateMu.RUnlock()
	n := 0
	s.db.scanLiveLocked(s.ms, table, prefix, "", "", s.Version, func(string, []byte) bool {
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
	for i, k := range keys {
		if v, live := s.ms.getLocked(table, k, s.Version); live {
			out[i] = v
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
// ScanRange, ScanRangeAt and Tx.Scan/ScanRange: it walks live (key, value)
// pairs of table at version v with keys in [start, end) that have prefix, in
// ascending order, calling fn until it returns false. A prefix bounds its
// range without an end key: the keys ascend from it, and the first without it
// ends them. The table's ordered index serves it as a descent plus bounded
// walk. Caller holds ms.stateMu.
func (db *DB) scanLiveLocked(ms *metastore, table, prefix, start, end string, v uint64, fn func(k string, val []byte) bool) {
	if gi := ms.derivedTable(table); gi != nil {
		db.indexScans.Inc()
		gi.walkLocked(prefix, start, end, v, func(g *group, r *record, sort, _ []byte) bool {
			return fn(g.key+string(sort), gi.rowValue(r.key))
		})
		return
	}
	idx := ms.indexes[table]
	if idx == nil {
		return
	}
	db.indexScans.Inc()
	ascendLive(idx, prefix, start, end, v, fn)
}

// ascendLive is scanLiveLocked's walk of a stored table's ordered index idx.
func ascendLive(idx *btree, prefix, start, end string, v uint64, fn func(k string, val []byte) bool) {
	idx.ascend(max(start, prefix), func(r *record) bool {
		if !strings.HasPrefix(r.key, prefix) || end != "" && r.key >= end {
			return false
		}
		if val, live := r.at(v); live {
			return fn(r.key, val)
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
	return fill(db.indexSize(func(string) bool { return true }))
}

// KeyFill returns the fraction of the key tables' slots that hold a record
// (1 when there are none).
func (db *DB) KeyFill() float64 {
	records, slots := 0, 0
	db.eachMetastore(func(ms *metastore) {
		for _, t := range ms.tables {
			records += t.n
			slots += t.slots
		}
	})
	return fill(records, slots)
}

func fill(held, slots int) float64 {
	if slots == 0 {
		return 1
	}
	return float64(held) / float64(slots)
}

func (db *DB) indexSize(want func(table string) bool) (keys, slots int) {
	db.eachMetastore(func(ms *metastore) {
		for t, idx := range ms.indexes {
			if want(t) {
				keys += idx.size
				slots += idx.slots
			}
		}
		for _, gi := range ms.derived {
			if want(gi.d.table) {
				keys += gi.n
				for _, g := range gi.groups {
					slots += cap(g.rows)
				}
			}
		}
	})
	return keys, slots
}

// eachMetastore calls fn on every metastore under its state read lock.
func (db *DB) eachMetastore(fn func(ms *metastore)) {
	db.mu.RLock()
	stores := make([]*metastore, 0, len(db.stores))
	for _, ms := range db.stores {
		stores = append(stores, ms)
	}
	db.mu.RUnlock()
	for _, ms := range stores {
		ms.stateMu.RLock()
		fn(ms)
		ms.stateMu.RUnlock()
	}
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
//
// A transaction is one flat write set, and that set is everything its commit
// needs: fn buffers into it, transactions sequenced after it read it as their
// overlay until it applies (a sequenced Tx is its own pending entry), its WAL
// frame is encoded from it, the apply installs it, and Writes hands it to the
// cache. A Tx is never pooled or reused: the cache and the commit hooks read
// its slices after it commits.
type Tx struct {
	db      *DB
	ms      *metastore
	base    uint64
	version uint64  // assigned when the transaction is sequenced
	writes  []Write // first-write order, each key's final value
	// index finds a key's write once there are more than txScanMax of them;
	// up to that, a lookup scans writes.
	index map[txKey]int
	// rows are the rows of derived tables the change log names (ChangesNamed)
	// that the writes make live or dead, found when the commit is sequenced.
	rows  []Write
	notes []any  // opaque annotations for commit hooks
	wal   walReq // the commit's slot in the WAL queue

	// The first writes, derived rows and note are stored in the Tx itself: a
	// transaction with at most four writes, two rows and one note, as nearly
	// every catalog write is, allocates none of those slices.
	firstWrites [4]Write
	firstRows   [2]Write
	firstNote   [1]any
}

type txKey struct{ table, key string }

// txScanMax is the write-set size up to which a lookup scans the slice:
// nearly every transaction, and no map for any of them.
const txScanMax = 8

// Annotate attaches an opaque note to the transaction. If the transaction
// commits, every registered CommitHook receives the notes in the order they
// were added. Callers use this to stage
// higher-level event metadata inside the closure so it is published
// if-and-only-if the commit applies.
func (tx *Tx) Annotate(note any) { tx.notes = append(tx.notes, note) }

// find returns the position of (table, key) in the write set, or -1.
func (tx *Tx) find(table, key string) int {
	if tx.index != nil {
		if i, ok := tx.index[txKey{table, key}]; ok {
			return i
		}
		return -1
	}
	for i := range tx.writes {
		if w := &tx.writes[i]; w.Key == key && w.Table == table {
			return i
		}
	}
	return -1
}

// Get returns the value of (table, key) as seen by the transaction: its own
// buffered writes, then any sequenced-but-unapplied commit's writes (the
// pipeline overlay), then the applied state at the transaction's base
// version. A commit moving from the overlay into the applied state keeps
// the same visible value, so repeated reads are stable.
func (tx *Tx) Get(table, key string) ([]byte, bool) {
	if gi := tx.ms.derivedTable(table); gi != nil {
		return tx.getDerived(gi, key)
	}
	if i := tx.find(table, key); i >= 0 {
		return tx.writes[i].live()
	}
	tx.ms.stateMu.RLock()
	defer tx.ms.stateMu.RUnlock()
	for i := len(tx.ms.pending) - 1; i >= 0; i-- {
		p := tx.ms.pending[i]
		if p.version > tx.base {
			continue
		}
		if j := p.find(table, key); j >= 0 {
			return p.writes[j].live()
		}
	}
	return tx.ms.tables[table].get(key).at(tx.base)
}

// getDerived is Get of a derived table's row: the row is live when the
// newest write to a record, of the transaction's own or of a pending commit,
// or else the record at the base version, is live under it. The value is
// rowValue's.
func (tx *Tx) getDerived(gi *groupIndex, key string) ([]byte, bool) {
	tx.ms.stateMu.RLock()
	defer tx.ms.stateMu.RUnlock()
	buf := rowBufs.Get().(*[]byte)
	defer rowBufs.Put(buf)
	source := gi.d.source
	// newest returns the newest write to record k at or below the base.
	newest := func(k string) *Write {
		if i := tx.find(source, k); i >= 0 {
			return &tx.writes[i]
		}
		for i := len(tx.ms.pending) - 1; i >= 0; i-- {
			if p := tx.ms.pending[i]; p.version <= tx.base {
				if j := p.find(source, k); j >= 0 {
					return &p.writes[j]
				}
			}
		}
		return nil
	}
	under := func(w *Write) bool {
		if w.Deleted {
			return false
		}
		b, _, ok := gi.rowOf((*buf)[:0], w.Key, w.Value)
		*buf = b[:0]
		return ok && str(b) == key
	}
	check := func(ws []Write) ([]byte, bool) {
		for i := range ws {
			if w := &ws[i]; w.Table == source && newest(w.Key) == w && under(w) {
				return gi.rowValue(w.Key), true
			}
		}
		return nil, false
	}
	if v, ok := check(tx.writes); ok {
		return v, ok
	}
	for _, p := range tx.ms.pending {
		if p.version <= tx.base {
			if v, ok := check(p.writes); ok {
				return v, ok
			}
		}
	}
	if r, _ := gi.lookupLocked(key, tx.base); r != nil && newest(r.key) == nil {
		return gi.rowValue(r.key), true
	}
	return nil, false
}

// Put buffers a write of (table, key) = value.
func (tx *Tx) Put(table, key string, value []byte) {
	cp := make([]byte, len(value))
	copy(cp, value)
	tx.write(table, key, cp, false)
}

// Delete buffers a deletion of (table, key).
func (tx *Tx) Delete(table, key string) {
	tx.write(table, key, nil, true)
}

func (tx *Tx) write(table, key string, value []byte, deleted bool) {
	if i := tx.find(table, key); i >= 0 {
		tx.writes[i].Value, tx.writes[i].Deleted = value, deleted
		return
	}
	tx.writes = append(tx.writes, Write{Table: table, Key: key, Value: value, Deleted: deleted})
	switch n := len(tx.writes); {
	case tx.index != nil:
		tx.index[txKey{table, key}] = n - 1
	case n > txScanMax:
		tx.index = make(map[txKey]int, 2*n)
		for i := range tx.writes {
			tx.index[txKey{tx.writes[i].Table, tx.writes[i].Key}] = i
		}
	}
}

// Write is a buffered mutation exposed by Writes.
type Write struct {
	Table   string
	Key     string
	Value   []byte
	Deleted bool
}

func (w *Write) live() ([]byte, bool) {
	if w.Deleted {
		return nil, false
	}
	return w.Value, true
}

// Writes returns the transaction's buffered mutations in first-write order,
// with each key's final value. It is the transaction's own slice, not a copy:
// the caller must not write to it. After the transaction function returns it
// never changes again, so the cache layer installs committed values from it
// without re-reading the database or copying.
func (tx *Tx) Writes() []Write { return tx.writes }

// Rows returns the rows of derived tables that the committed transaction made
// live or dead, each with its source record's key as the value, each a change
// the change log names beside its writes: what a cache that installs Writes
// installs too.
// Like Writes it is the transaction's own slice, and empty until the
// transaction is sequenced.
func (tx *Tx) Rows() []Write { return tx.rows }

// Scan returns live pairs with the key prefix, merging buffered writes and
// the pipeline overlay over the applied state at the base version.
func (tx *Tx) Scan(table, prefix string) []KV {
	return tx.ScanRange(table, prefix, PrefixEnd(prefix), 0)
}

// ScanRange is Snapshot.ScanRange semantics ([start, end), ascending, up to
// limit) as seen by the transaction: buffered writes, then the pipeline
// overlay, then the applied state at the base version.
func (tx *Tx) ScanRange(table, start, end string, limit int) []KV {
	var out []KV
	gi := tx.ms.derivedTable(table)
	tx.scan(table, start, end, func(rw rowWrite, val []byte) bool {
		if gi == nil {
			out = append(out, KV{Key: rw.key, Value: val})
		} else {
			out = append(out, KV{Key: rw.group + rw.sort, Value: gi.rowValue(rw.key)})
		}
		return limit <= 0 || len(out) < limit
	})
	return out
}

// GroupRows is Snapshot.GroupRows as seen by the transaction, as ScanRange is
// Snapshot.ScanRange: its own writes and the pending commits' to the source
// table are the rows they make or remove.
func (tx *Tx) GroupRows(table, start, end string, limit int) []GroupRow {
	if tx.ms.derivedTable(table) == nil {
		return nil
	}
	var out []GroupRow
	tx.scan(table, start, end, func(rw rowWrite, val []byte) bool {
		out = append(out, GroupRow{Group: rw.group, Sort: rw.sort, KV: KV{Key: rw.key, Value: val}})
		return limit <= 0 || len(out) < limit
	})
	return out
}

// rowWrite is a row of a table as a transaction sees it: a stored table's
// row key, or a derived table's row group+sort, and the record's key, which orders the records of one row.
// w is the write that makes or removes it, nil for a row of the base walk.
type rowWrite struct {
	group, sort, key string
	w                *Write
}

func compareRows(a, b *rowWrite) int {
	if c := strings.Compare(a.group, b.group); c != 0 {
		return c
	}
	if c := strings.Compare(a.sort, b.sort); c != 0 {
		return c
	}
	return strings.Compare(a.key, b.key)
}

// scan is Tx.ScanRange and Tx.GroupRows: it calls emit for each live row of
// table in [start, end) as the transaction sees it, in ascending order, until
// emit returns false. The overlay's writes in the range are sorted once and
// merge-joined with the ordered base walk, so early termination does not
// visit the rest of the range.
func (tx *Tx) scan(table, start, end string, emit func(rw rowWrite, val []byte) bool) {
	tx.ms.stateMu.RLock()
	defer tx.ms.stateMu.RUnlock()
	overlay := tx.overlayLocked(table, start, end)
	oi := 0
	more := true
	base := func(rw rowWrite, val []byte) bool {
		for oi < len(overlay) && compareRows(&overlay[oi], &rw) < 0 {
			if o := overlay[oi]; !o.w.Deleted {
				if !emit(o, o.w.Value) {
					more = false
					return false
				}
			}
			oi++
		}
		if oi < len(overlay) && compareRows(&overlay[oi], &rw) == 0 {
			o := overlay[oi]
			oi++
			if o.w.Deleted {
				return true
			}
			more = emit(o, o.w.Value)
			return more
		}
		more = emit(rw, val)
		return more
	}
	if gi := tx.ms.derivedTable(table); gi != nil {
		gi.walkLocked("", start, end, tx.base, func(g *group, r *record, sort, val []byte) bool {
			return base(rowWrite{group: g.key, sort: gi.keepSort(r, sort), key: r.key}, val)
		})
	} else {
		tx.db.scanLiveLocked(tx.ms, table, "", start, end, tx.base, func(k string, val []byte) bool { return base(rowWrite{key: k}, val) })
	}
	if more {
		for ; oi < len(overlay); oi++ {
			if o := overlay[oi]; !o.w.Deleted {
				if !emit(o, o.w.Value) {
					break
				}
			}
		}
	}
}

// overlayLocked returns the rows of table in [start, end) that the
// sequenced-but-unapplied commits at or below base, oldest to newest, and
// then the transaction's own writes change, in row order, one per row: the
// sort is stable, so of the writes to one row the last — the newest — ends
// its run and wins. A derived table's rows are its source's writes: a value
// makes the row it derives, and a delete, or a value of another row, removes
// the row the record held until then. Caller holds stateMu.
func (tx *Tx) overlayLocked(table, start, end string) []rowWrite {
	gi := tx.ms.derivedTable(table)
	source := table
	if gi != nil {
		source = gi.d.source
	}
	type derived struct {
		group, sort string
		ok          bool
	}
	var (
		overlay []rowWrite
		buf     []byte
		held    map[string]derived // a derived source key's row after the writes so far
	)
	rowOf := func(key string, val []byte) derived {
		b, g, ok := gi.rowOf(buf[:0], key, val)
		if buf = b; !ok {
			return derived{}
		}
		return derived{string(b[:g]), string(b[g:]), true}
	}
	add := func(d derived, w *Write) {
		rw := rowWrite{group: d.group, sort: d.sort, key: w.Key, w: w}
		row := d.sort
		if gi == nil {
			row = w.Key
		}
		if compareJoined(d.group, row, start) >= 0 && (end == "" || compareJoined(d.group, row, end) < 0) {
			overlay = append(overlay, rw)
		}
	}
	collect := func(ws []Write) {
		for i := range ws {
			w := &ws[i]
			if w.Table != source {
				continue
			}
			if gi == nil {
				add(derived{}, w)
				continue
			}
			was, ok := held[w.Key]
			if !ok {
				if r := tx.ms.tables[source].get(w.Key); r != nil && r.data != nil {
					was = rowOf(w.Key, r.value())
				}
			}
			now := was
			if !w.Deleted {
				now = rowOf(w.Key, w.Value)
			}
			if held == nil {
				held = map[string]derived{}
			}
			held[w.Key] = now
			switch {
			case w.Deleted:
				if was.ok {
					add(was, w)
				}
			default:
				if was.ok && was != now {
					add(was, &Write{Table: source, Key: w.Key, Deleted: true})
				}
				if now.ok {
					add(now, w)
				}
			}
		}
	}
	for _, p := range tx.ms.pending {
		if p.version <= tx.base {
			collect(p.writes)
		}
	}
	collect(tx.writes)
	slices.SortStableFunc(overlay, func(a, b rowWrite) int { return compareRows(&a, &b) })
	n := 0
	for i := range overlay {
		if i+1 == len(overlay) || compareRows(&overlay[i+1], &overlay[i]) != 0 {
			overlay[n] = overlay[i]
			n++
		}
	}
	return overlay[:n]
}

// Update runs fn inside a serializable write transaction on the metastore.
// On success it returns the new metastore version. If fn returns an error,
// nothing is applied.
func (db *DB) Update(msID string, fn func(tx *Tx) error) (uint64, error) {
	return db.update(obs.SpanContext{}, msID, fn)
}

// UpdateT is Update with a trace context: the commit records a
// "store.commit" span with sequence/wal/apply phase children.
func (db *DB) UpdateT(sc obs.SpanContext, msID string, fn func(tx *Tx) error) (uint64, error) {
	return db.update(sc, msID, fn)
}

// update is the group-commit write path. It runs in four stages:
//
//  1. Sequence (under ms.mu): run fn against the sequenced version nextV,
//     assign newV = nextV+1, append the transaction to the pending overlay,
//     and enqueue its WAL slot — no I/O, no fsync, and no simulated latency
//     under the lock.
//  2. Encode + await ack (no locks): encode the frame from the write set,
//     then wait for the writer goroutine's batch ack. N concurrent commits
//     share one flush, one fsync, and one simulated CommitLatency round
//     trip. With no WAL, each commit pays its own round trip, concurrently.
//  3. Await turn (applyMu): state is applied strictly in sequence order.
//  4. Apply (stateMu): install the writes, push the change log, bump the
//     visible version — durability before visibility, as in the seed.
//
// A WAL failure fails this commit and poisons the write path (see wal.go);
// the pending entry is dropped and the visible version never reaches newV.
func (db *DB) update(sc obs.SpanContext, msID string, fn func(tx *Tx) error) (uint64, error) {
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
	tx := &Tx{db: db, ms: ms, base: base}
	tx.writes, tx.notes = tx.firstWrites[:0], tx.firstNote[:0]
	err = fn(tx)
	for i := 0; err == nil && i < len(tx.writes); i++ {
		if w := &tx.writes[i]; !valueFits(len(w.Value)) {
			err = fmt.Errorf("store: %s/%s: a value of %d bytes is longer than a record holds", w.Table, w.Key, len(w.Value))
		}
	}
	if err != nil {
		ms.mu.Unlock()
		seqSpan.End()
		return base, err
	}
	if len(tx.writes) == 0 {
		ms.mu.Unlock()
		seqSpan.End()
		return base, nil // read-only transaction: no version bump
	}
	ms.stateMu.Lock()
	if tx.rows, err = ms.checkDerivedLocked(tx.writes, tx, tx.firstRows[:0]); err != nil {
		ms.stateMu.Unlock()
		ms.mu.Unlock()
		seqSpan.End()
		return base, err
	}
	newV := base + 1
	ms.nextV = newV
	tx.version = newV
	ms.pending = append(ms.pending, tx)
	ms.stateMu.Unlock()
	if db.wal != nil {
		if err := db.wal.submit(&tx.wal); err != nil {
			ms.dropPending(newV)
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
	if db.wal != nil {
		_, walSpan := sc.Start("store.wal")
		tx.wal.encode(&walEntry{Op: opCommit, Metastore: msID, Version: newV, Writes: tx.writes})
		err := tx.wal.wait()
		walSpan.End()
		if err != nil {
			ms.dropPending(newV)
			return base, err
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
	if len(ms.pending) == 0 || ms.pending[0] != tx {
		ms.stateMu.Unlock()
		panic("store: commit pipeline applied out of sequence")
	}
	for i := range tx.writes {
		w := &tx.writes[i]
		db.pruneLocked(ms, w.Table, ms.putLocked(w.Table, w.Key, newV, w.Value, w.Deleted))
	}
	ms.logCommitLocked(newV, tx.writes, tx.rows)
	if waiting := ms.tombs; len(waiting) > 0 {
		ms.tombs = waiting[:0] // refilled behind the read position
		for _, del := range waiting {
			ms.reclaimLocked(del)
		}
	}
	// Copied down rather than resliced, so the backing array is reused.
	n := copy(ms.pending, ms.pending[1:])
	ms.pending[n] = nil
	ms.pending = ms.pending[:n]
	ms.version = newV
	ms.stateMu.Unlock()

	// Commit hooks: after durability and visibility, before the turnstile
	// admits newV+1 — per-metastore hooks see strictly increasing versions.
	if hp := db.hooks.Load(); hp != nil {
		for _, h := range *hp {
			h(msID, newV, tx.notes)
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
// simply never reaches v and no applier waits on it.
func (ms *metastore) dropPending(v uint64) {
	ms.stateMu.Lock()
	defer ms.stateMu.Unlock()
	for i, tx := range ms.pending {
		if tx.version == v {
			ms.pending = slices.Delete(ms.pending, i, i+1)
			return
		}
	}
}

// pruneLocked drops versions of record r of table that are neither among the
// most recent MaxVersionsPerRecord nor visible to any active snapshot, and
// the shadows of rows only those versions derived.
func (db *DB) pruneLocked(ms *metastore, table string, r *record) {
	head := r
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
	gone := r.prev
	r.prev = nil
	if gone != nil && ms.sources(table) {
		ms.unshadowLocked(table, head, gone)
	}
}

// ChangesSince returns the changes applied after version v, in commit order:
// within a commit, the derived rows it made live or dead, then its writes;
// only those of tables, when any are given. The keys of the derived rows are
// derived now, from the versions of their source records, and share one
// string. If the change log no longer covers v, or a returned row's source
// version has since been pruned (MaxVersionsPerRecord), it returns
// ErrChangeLogTrimmed and the caller must fall back to full reconciliation. A
// row of a table not asked for is neither derived nor can fail the call.
// It collects what VisitChanges visits.
func (db *DB) ChangesSince(msID string, v uint64, tables ...string) ([]Change, error) {
	ms, err := db.changeLog(msID)
	if err != nil {
		return nil, err
	}
	ms.stateMu.RLock()
	defer ms.stateMu.RUnlock()
	i, n, err := ms.changesAfterLocked(v)
	if err != nil || i == n {
		return nil, err
	}
	out := make([]Change, 0, n-i)
	rows, err := ms.eachChangeLocked(i, n, tables, func(c Change) bool {
		out = append(out, c)
		return true
	})
	if rows == nil {
		return out, err
	}
	defer rowBufs.Put(rows)
	if err != nil {
		return nil, err
	}
	// The derived rows' keys lie one after another in rows: copy them out
	// together.
	keys := string(*rows)
	for j := range out {
		if ms.derivedTable(out[j].Table) != nil {
			n := len(out[j].Key)
			out[j].Key, keys = keys[:n], keys[n:]
		}
	}
	return out, nil
}

// VisitChanges calls visit for each change ChangesSince(msID, v, tables...)
// would return, in the same order, until visit returns false, and allocates
// nothing for a stored table's change. A derived row's key is valid only for
// its visit. It fails as ChangesSince does: before the first visit, or, when
// a derived row's source version has been pruned, at that row, after the
// visits before it. visit runs under the metastore's read lock and must not
// call the store.
func (db *DB) VisitChanges(msID string, v uint64, visit func(c Change) bool, tables ...string) error {
	ms, err := db.changeLog(msID)
	if err != nil {
		return err
	}
	ms.stateMu.RLock()
	defer ms.stateMu.RUnlock()
	i, n, err := ms.changesAfterLocked(v)
	if err != nil || i == n {
		return err
	}
	rows, err := ms.eachChangeLocked(i, n, tables, visit)
	if rows != nil {
		rowBufs.Put(rows)
	}
	return err
}

// changeLog returns the metastore whose change log ChangesSince and
// VisitChanges read, after their fault check.
func (db *DB) changeLog(msID string) (*metastore, error) {
	if err := db.fault("db.changes", msID); err != nil {
		return nil, err
	}
	return db.metastore(msID)
}

// changesAfterLocked returns where the changes after version v lie in the
// change ring, positions [i, n), or ErrChangeLogTrimmed. Caller holds stateMu.
func (ms *metastore) changesAfterLocked(v uint64) (i, n int, err error) {
	if v >= ms.version {
		return 0, 0, nil
	}
	n = ms.changes.len()
	// The log must contain every change in (v, current]. The ring evicts
	// change by change, not commit by commit, so once it has wrapped the
	// oldest retained version may be missing its first changes: only a
	// retained change at or below v shows that all of v+1 is still there.
	first := ^uint64(0)
	if n > 0 {
		first = ms.changes.at(0).version
	}
	if v+1 < first || (v < first && ms.changes.full()) {
		return 0, 0, ErrChangeLogTrimmed
	}
	// Versions ascend through the ring, so binary-search the cut point.
	return sort.Search(n, func(i int) bool { return ms.changes.at(i).version > v }), n, nil
}

// eachChangeLocked is the one walk of the change ring: it calls visit for the
// changes at positions [i, n) of tables (all when none are given) until visit
// returns false. It derives a derived row's key now and appends it to rows, a
// buffer of rowBufs it gets at the first such row and returns, and the key
// visit sees is those bytes. Caller holds stateMu.
func (ms *metastore) eachChangeLocked(i, n int, tables []string, visit func(c Change) bool) (rows *[]byte, err error) {
	for j := i; j < n; j++ {
		s := ms.changes.at(j)
		t := &ms.changes.tables[s.table]
		if len(tables) > 0 && !slices.Contains(tables, t.name) {
			continue
		}
		c := Change{Version: s.version, Table: t.name, Key: s.rec.key, Deleted: s.deleted}
		if t.gi != nil {
			if rows == nil {
				rows = rowBufs.Get().(*[]byte)
				*rows = (*rows)[:0]
			}
			b, ok := t.gi.changedRow(*rows, s)
			if !ok {
				return rows, ErrChangeLogTrimmed
			}
			// A buffer that grows leaves the bytes of the rows before this
			// one where they were.
			c.Key = str(b[len(*rows):])
			*rows = b
		}
		if !visit(c) {
			break
		}
	}
	return rows, nil
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
