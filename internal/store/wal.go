package store

// Group-commit write-ahead log.
//
// The seed serialized every commit through a global walMu, marshaling JSON
// and flushing the file per entry while the committer also held its
// metastore's write lock — so N concurrent commits paid N flushes, N fsyncs
// (well, zero fsyncs: Sync was never called), and N simulated database
// round trips, strictly one after another. This file replaces that with
// MySQL-style group commit:
//
//   - Committers sequence themselves under their metastore's mu, enqueue a
//     walReq (FIFO — enqueue order is durability order), release the lock,
//     and JSON-encode their entry outside every lock.
//   - A single writer goroutine drains the queue, gathers all queued entries
//     into one buffer, hands it to the file in one Write, fsyncs per
//     SyncPolicy, pays the simulated CommitLatency round trip once for the
//     whole batch, and wakes every waiting committer together. The buffer is
//     reused from batch to batch and is as large as the largest batch written
//     so far; past walBufMax a batch takes more than one Write, and an entry
//     longer than that is written from its committer's bytes.
//
// A WAL I/O error fails every commit in the batch and is sticky: the write
// path is poisoned (all later commits fail with the same error) because a
// later commit may have read a failed commit's sequenced-but-unapplied
// writes, and failing everything after the first error is what keeps the
// durable log a clean prefix of the sequenced history. Reads are unaffected.
// As in any real database, a commit that fails at the WAL is ambiguous:
// bytes already handed to the OS may still survive a crash and be replayed.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"unitycatalog/internal/obs"
)

// SyncPolicy selects when the WAL writer calls fsync.
type SyncPolicy int

const (
	// SyncBatch (the default) issues one fsync per group-commit batch:
	// every acked commit is durable, at one fsync amortized over the
	// whole batch.
	SyncBatch SyncPolicy = iota
	// SyncNever leaves flushing to the OS; a crash can lose a suffix of
	// acked commits (replay still recovers a clean prefix).
	SyncNever
	// SyncAlways fsyncs after every entry, even within a batch — the
	// strictest (and slowest) setting; batching then amortizes only the
	// queue handoff and the simulated round trip.
	SyncAlways
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncNever:
		return "never"
	case SyncAlways:
		return "always"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses "batch", "never", or "always".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch", "":
		return SyncBatch, nil
	case "never":
		return SyncNever, nil
	case "always":
		return SyncAlways, nil
	}
	return SyncBatch, fmt.Errorf("store: unknown sync policy %q (want batch, never, or always)", s)
}

// maxWALBatch bounds how many entries one batch may absorb, so a firehose
// of committers cannot starve the ack of the entries already gathered.
const maxWALBatch = 1024

// walBufMax bounds the bytes the writer gathers before it hands them to the
// file. An entry longer than this is never copied.
const walBufMax = 1 << 20

type walWrite struct {
	Table   string `json:"t"`
	Key     string `json:"k"`
	Value   []byte `json:"v,omitempty"`
	Deleted bool   `json:"d,omitempty"`
}

type walEntry struct {
	Op        string     `json:"op"`
	Metastore string     `json:"ms"`
	Version   uint64     `json:"ver,omitempty"`
	Writes    []walWrite `json:"w,omitempty"`
}

// walReq is one commit's slot in the group-commit queue. The committer
// enqueues it while still holding the sequencing lock (FIFO order = version
// order), then fills enc outside all locks and closes ready; the writer
// goroutine awaits ready, writes the batch, and closes done with err set.
type walReq struct {
	enc    []byte // the entry's line on the log, newline included
	encErr error
	ready  chan struct{}
	err    error
	done   chan struct{}
}

func newWALReq() *walReq {
	return &walReq{ready: make(chan struct{}), done: make(chan struct{})}
}

// encode fills enc with e's line and closes ready.
func (r *walReq) encode(e *walEntry) {
	b, err := json.Marshal(e)
	r.enc, r.encErr = append(b, '\n'), err
	close(r.ready)
}

// WALStats reports group-commit batching behavior since Open.
type WALStats struct {
	// Batches is the number of group-commit batches written (including
	// failed ones).
	Batches int64
	// Entries is the total number of WAL entries across all batches; the
	// average batch size is Entries/Batches.
	Entries int64
	// Syncs counts fsync calls, per SyncPolicy.
	Syncs int64
	// MaxBatch is the largest batch observed — >1 means commits actually
	// shared a flush.
	MaxBatch int64
}

type walFailure struct{ err error }

type walWriter struct {
	f       *os.File
	policy  SyncPolicy
	latency time.Duration // simulated DB round trip, paid once per batch

	ch   chan *walReq
	quit chan struct{} // closed when the writer goroutine has exited

	// buf is the writer goroutine's own, reused from one batch to the next:
	// the lines gathered for the next Write.
	buf []byte

	mu      sync.RWMutex // guards closing against sends on ch
	closing bool

	sticky atomic.Pointer[walFailure]

	batches  obs.Counter
	entries  obs.Counter
	syncs    obs.Counter
	maxBatch obs.Gauge
	// batchSizes distributes entries-per-batch; fsyncNs distributes the
	// latency of each fsync call. Both feed /metrics via RegisterMetrics.
	batchSizes *obs.Histogram
	fsyncNs    *obs.Histogram

	// testInjectErr, when non-nil, fails the next batch before any byte is
	// written — the unit tests' stand-in for a disk error.
	testInjectErr atomic.Pointer[walFailure]
}

func newWALWriter(f *os.File, policy SyncPolicy, latency time.Duration) *walWriter {
	w := &walWriter{
		f:          f,
		policy:     policy,
		latency:    latency,
		ch:         make(chan *walReq, 4096),
		quit:       make(chan struct{}),
		batchSizes: obs.NewHistogram(obs.SizeBuckets(), 1),
		fsyncNs:    obs.NewLatencyHistogram(),
	}
	go w.run()
	return w
}

// err returns the sticky failure, if any.
func (w *walWriter) err() error {
	if p := w.sticky.Load(); p != nil {
		return p.err
	}
	return nil
}

func (w *walWriter) fail(err error) {
	w.sticky.CompareAndSwap(nil, &walFailure{err: fmt.Errorf("store: wal: %w", err)})
}

// submit enqueues a request. It must be called under the lock that assigned
// the request's sequence number, so queue order matches version order.
func (w *walWriter) submit(r *walReq) error {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.closing {
		return ErrClosed
	}
	w.ch <- r
	return nil
}

func (w *walWriter) run() {
	defer close(w.quit)
	for {
		first, ok := <-w.ch
		if !ok {
			w.finalize()
			return
		}
		batch := append(make([]*walReq, 0, 16), first)
	gather:
		for len(batch) < maxWALBatch {
			select {
			case r, ok := <-w.ch:
				if !ok {
					break gather
				}
				batch = append(batch, r)
			default:
				break gather
			}
		}
		w.commitBatch(batch)
	}
}

// commitBatch writes one batch: all entries, one flush, fsync per policy,
// one shared latency round trip, then wakes every committer in the batch.
func (w *walWriter) commitBatch(batch []*walReq) {
	err := w.err()
	if err == nil {
		if p := w.testInjectErr.Swap(nil); p != nil {
			err = p.err
		} else {
			err = w.writeBatch(batch)
		}
		if err != nil {
			w.fail(err)
			err = w.err()
		}
	}
	if err == nil && w.latency > 0 {
		time.Sleep(w.latency)
	}
	w.batches.Inc()
	w.entries.Add(int64(len(batch)))
	w.batchSizes.Observe(int64(len(batch)))
	w.maxBatch.SetMax(int64(len(batch)))
	for _, r := range batch {
		r.err = err
		close(r.done)
	}
}

func (w *walWriter) writeBatch(batch []*walReq) error {
	buf := w.buf[:0]
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		_, err := w.f.Write(buf)
		buf = buf[:0]
		return err
	}
	for _, r := range batch {
		<-r.ready // committer encodes outside all locks
		if r.encErr != nil {
			return r.encErr
		}
		if len(buf)+len(r.enc) > walBufMax {
			if err := flush(); err != nil {
				return err
			}
		}
		if len(r.enc) > walBufMax {
			if _, err := w.f.Write(r.enc); err != nil {
				return err
			}
		} else {
			buf = append(buf, r.enc...)
		}
		if w.policy == SyncAlways {
			if err := flush(); err != nil {
				return err
			}
			if err := w.sync(); err != nil {
				return err
			}
		}
	}
	w.buf = buf
	if err := flush(); err != nil {
		return err
	}
	if w.policy == SyncBatch {
		return w.sync()
	}
	return nil
}

// sync fsyncs the WAL file, timing the call into the fsync histogram.
func (w *walWriter) sync() error {
	t0 := time.Now()
	err := w.f.Sync()
	w.fsyncNs.ObserveDuration(time.Since(t0))
	if err != nil {
		return err
	}
	w.syncs.Inc()
	return nil
}

// finalize runs on the writer goroutine after the queue is closed and
// drained: final sync, then close the file.
func (w *walWriter) finalize() {
	if w.err() == nil && w.policy != SyncNever {
		if err := w.f.Sync(); err != nil {
			w.fail(err)
		}
	}
	if err := w.f.Close(); err != nil && w.err() == nil {
		w.fail(err)
	}
}

// close drains and stops the writer, returning the sticky error if any I/O
// ever failed. Safe to call more than once.
func (w *walWriter) close() error {
	w.mu.Lock()
	already := w.closing
	w.closing = true
	w.mu.Unlock()
	if !already {
		close(w.ch)
	}
	<-w.quit
	return w.err()
}

// stats snapshots the batching counters.
func (w *walWriter) stats() WALStats {
	return WALStats{
		Batches:  w.batches.Load(),
		Entries:  w.entries.Load(),
		Syncs:    w.syncs.Load(),
		MaxBatch: w.maxBatch.Load(),
	}
}

// logMeta appends a metastore-lifecycle entry. The caller must invoke it
// while holding db.mu so the entry's queue position precedes any commit
// that could observe the new metastore map; the returned request is awaited
// by the caller after releasing db.mu.
func (db *DB) logMeta(e walEntry) (*walReq, error) {
	if db.wal == nil {
		return nil, nil
	}
	if err := db.wal.err(); err != nil {
		return nil, err
	}
	r := newWALReq()
	r.encode(&e)
	if err := db.wal.submit(r); err != nil {
		return nil, err
	}
	return r, nil
}

func (db *DB) replayWAL(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: replay wal: %w", err)
	}
	defer f.Close()
	// Lines are read whole, whatever their length: the writer accepts an
	// entry of any size, so the reader must too.
	br := bufio.NewReaderSize(f, 1<<16)
	var long []byte // a line longer than br's buffer is gathered here
	var pending []walEntry
	var bad error // the entry that did not parse, until the next line decides
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			long = append(long[:0], line...)
			for errors.Is(err, bufio.ErrBufferFull) {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err != nil && !errors.Is(err, io.EOF) {
			return fmt.Errorf("store: replay wal: %w", err)
		}
		if len(line) > 0 {
			// A torn final line is the expected crash artifact: the commit
			// never became durable, so replay stops there. Corruption
			// followed by another line is real damage and fatal.
			if bad != nil {
				return fmt.Errorf("store: corrupt wal entry mid-log: %w", bad)
			}
			var e walEntry
			if bad = json.Unmarshal(line, &e); bad == nil {
				pending = append(pending, e)
			}
		}
		if err != nil {
			break
		}
	}
	for _, e := range pending {
		switch e.Op {
		case "create_metastore":
			if _, ok := db.stores[e.Metastore]; !ok {
				db.stores[e.Metastore] = newMetastore(db.opts.ChangeLogSize)
			}
		case "drop_metastore":
			delete(db.stores, e.Metastore)
		case "commit":
			ms, ok := db.stores[e.Metastore]
			if !ok {
				continue
			}
			// Group commit preserves sequence order in the log (enqueue
			// happens under the sequencing lock), and a failed batch
			// poisons all later writes, so versions in a healthy log are
			// strictly contiguous per metastore. A gap or reordering means
			// the log was damaged in place.
			if e.Version != ms.version+1 {
				return fmt.Errorf("store: wal replay: metastore %s commit version %d after %d (reordered or damaged log)",
					e.Metastore, e.Version, ms.version)
			}
			for _, w := range e.Writes {
				// putLocked also rebuilds the ordered index as replay
				// repopulates the table maps.
				ms.putLocked(w.Table, w.Key, e.Version, w.Value, w.Deleted)
			}
			ms.version = e.Version
			for _, w := range e.Writes {
				ms.logLocked(Change{Version: e.Version, Table: w.Table, Key: w.Key, Deleted: w.Deleted})
			}
		}
	}
	return nil
}
