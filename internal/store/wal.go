package store

// Group-commit write-ahead log.
//
// # The file
//
// The log is a sequence of entries, each one metastore-lifecycle event or one
// commit, in the order they were sequenced. An entry is a frame:
//
//	0xF7 | length, 4 bytes LE | CRC-32C of the length bytes and the payload, 4 bytes LE | payload
//	payload: op | metastore | version | number of writes | writes
//	write:   deleted (0 or 1) | table | key | value, unless deleted
//
// with op one byte (walOps), integers uvarints, and strings and values their
// uvarint length and their bytes, as they are. That is the only form written.
// Replay also reads the form written before it: one JSON object per line
// ('{' ... '\n', values in base64, no checksum). It tells the two apart by an
// entry's first byte, so a log that was upgraded in place is lines followed by
// frames. A line counts only with its newline: the writer acknowledged nothing
// before the whole line was down.
//
// # Replay
//
// Open streams the file through replayWAL, applying each entry as it is read,
// and stops at the first entry that does not verify (a frame cut short or
// whose checksum does not match, a line that does not parse, a byte that
// starts neither). What follows that point decides what it is:
//
//   - if an entry that does verify starts anywhere after it, the log is
//     damaged in its middle — a flipped bit, a damaged length — and Open
//     fails: acknowledged commits lie past the damage and nothing may be
//     built on a state that skips it;
//   - otherwise it is the tail a crash tore: a batch that was never
//     acknowledged. Open drops it, truncating the file to the end of the last
//     good entry before the writer appends, so that the next commit follows a
//     good entry and not the torn bytes.
//
// Versions must be contiguous per metastore; a gap or a reordering is damage
// and fails Open whatever the checksums say.
//
// # The writer
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
//     and encode their entry's frame outside every lock.
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
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
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

// walWrite and walEntry are an entry in memory. The JSON tags are the line
// form's field names, for reading it.
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

const (
	opCreateMetastore = "create_metastore"
	opDropMetastore   = "drop_metastore"
	opCommit          = "commit"
)

// walOps numbers the operations for a frame's op byte. Positions are durable.
var walOps = [...]string{1: opCreateMetastore, opDropMetastore, opCommit}

const (
	walMagic     = 0xF7 // a frame's first byte: not '{', and no byte of UTF-8 text
	walHeaderLen = 9    // magic, length, checksum
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// frameSum is a frame's checksum: CRC-32C over its four length bytes and its
// payload.
func frameSum(length, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(length, walCRC), walCRC, payload)
}

func appendWALBytes[T string | []byte](b []byte, v T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(v))), v...)
}

// frame renders e as one frame, in one allocation.
func (e *walEntry) frame() ([]byte, error) {
	var op byte
	for i := 1; i < len(walOps); i++ {
		if walOps[i] == e.Op {
			op = byte(i)
		}
	}
	if op == 0 {
		return nil, fmt.Errorf("store: wal entry with unknown op %q", e.Op)
	}
	// An upper bound: a uvarint of a length or a count is at most ten bytes.
	size := walHeaderLen + 1 + 3*binary.MaxVarintLen64 + len(e.Metastore)
	for i := range e.Writes {
		w := &e.Writes[i]
		size += 1 + 3*binary.MaxVarintLen64 + len(w.Table) + len(w.Key) + len(w.Value)
	}
	b := make([]byte, walHeaderLen, size)
	b = append(b, op)
	b = appendWALBytes(b, e.Metastore)
	b = binary.AppendUvarint(b, e.Version)
	b = binary.AppendUvarint(b, uint64(len(e.Writes)))
	for i := range e.Writes {
		w := &e.Writes[i]
		if w.Deleted {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendWALBytes(b, w.Table)
		b = appendWALBytes(b, w.Key)
		if !w.Deleted {
			b = appendWALBytes(b, w.Value)
		}
	}
	payload := b[walHeaderLen:]
	if len(payload) > math.MaxUint32 {
		return nil, fmt.Errorf("store: wal entry of %d bytes is longer than a frame can say", len(payload))
	}
	b[0] = walMagic
	binary.LittleEndian.PutUint32(b[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[5:9], frameSum(b[1:5], payload))
	return b, nil
}

// walDecoder reads entries off a log. It is the replay's own: the buffer it
// reads a frame's payload into and the entry it fills are reused from frame to
// frame (only keys and values are allocated, each its exact size), and table
// names, which repeat in every write, are one string each.
type walDecoder struct {
	buf    []byte // a frame's payload, or a line longer than the reader's buffer
	entry  walEntry
	tables map[string]string
}

func newWALDecoder() *walDecoder { return &walDecoder{tables: map[string]string{}} }

// decode parses payload p into d.entry. Every length is checked against the
// bytes that are there before anything is sized by it.
func (d *walDecoder) decode(p []byte) error {
	e := &d.entry
	*e = walEntry{Writes: e.Writes[:0]}
	bad := func(what string) error { return fmt.Errorf("bad %s", what) }
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	field := func() ([]byte, bool) {
		n, ok := uvarint()
		if !ok || n > uint64(len(p)) {
			return nil, false
		}
		f := p[:n]
		p = p[n:]
		return f, true
	}
	if len(p) == 0 || p[0] == 0 || int(p[0]) >= len(walOps) {
		return bad("op")
	}
	e.Op, p = walOps[p[0]], p[1:]
	ms, ok := field()
	if !ok {
		return bad("metastore")
	}
	e.Metastore = string(ms)
	if e.Version, ok = uvarint(); !ok {
		return bad("version")
	}
	n, ok := uvarint()
	if !ok || n > uint64(len(p)) { // a write is at least three bytes
		return bad("write count")
	}
	for ; n > 0; n-- {
		if len(p) == 0 || p[0] > 1 {
			return bad("write")
		}
		w := walWrite{Deleted: p[0] == 1}
		p = p[1:]
		table, ok := field()
		if !ok {
			return bad("table")
		}
		if w.Table, ok = d.tables[string(table)]; !ok {
			w.Table = string(table)
			d.tables[w.Table] = w.Table
		}
		key, ok := field()
		if !ok {
			return bad("key")
		}
		w.Key = string(key)
		if !w.Deleted {
			v, ok := field()
			if !ok {
				return bad("value")
			}
			w.Value = make([]byte, len(v)) // never nil, however short: nil says absent
			copy(w.Value, v)
		}
		e.Writes = append(e.Writes, w)
	}
	if len(p) != 0 {
		return bad("length: bytes after the last write")
	}
	return nil
}

// walReq is one commit's slot in the group-commit queue. The committer
// enqueues it while still holding the sequencing lock (FIFO order = version
// order), then fills enc outside all locks and closes ready; the writer
// goroutine awaits ready, writes the batch, and closes done with err set.
type walReq struct {
	enc    []byte // the entry's frame
	encErr error
	ready  chan struct{}
	err    error
	done   chan struct{}
}

func newWALReq() *walReq {
	return &walReq{ready: make(chan struct{}), done: make(chan struct{})}
}

// encode fills enc with e's frame and closes ready.
func (r *walReq) encode(e *walEntry) {
	r.enc, r.encErr = e.frame()
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

// replayWAL applies the entries of log f, size bytes long, in order, and
// returns where the last good entry ends: size, or less when the log ends in
// a torn tail (see the file comment for what tells a torn tail from damage).
func (db *DB) replayWAL(f io.ReaderAt, size int64) (end int64, err error) {
	br := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), 1<<16)
	dec := newWALDecoder()
	for end < size {
		n, e, err := dec.read(br, size-end)
		if err != nil {
			return end, fmt.Errorf("store: replay wal at offset %d: %w", end, err)
		}
		if e == nil {
			good, err := walEntryAfter(f, end, size)
			if err != nil {
				return end, fmt.Errorf("store: replay wal: %w", err)
			}
			if good >= 0 {
				return end, fmt.Errorf("store: corrupt wal entry mid-log: the entry at offset %d does not verify and the one at %d does", end, good)
			}
			return end, nil
		}
		if err := db.applyWALEntry(e); err != nil {
			return end, err
		}
		db.replayed.Inc()
		end += n
	}
	return end, nil
}

var errWALPayload = errors.New("store: wal frame verifies but does not parse")

// read reads the entry that starts at br's position, with left bytes of log
// ahead of it. It returns the entry and its length on the log, or a nil entry
// when what is there does not verify; err is an I/O error, or errWALPayload.
func (d *walDecoder) read(br *bufio.Reader, left int64) (n int64, e *walEntry, err error) {
	first, err := br.Peek(1)
	if err != nil {
		return 0, nil, err
	}
	switch first[0] {
	case '{':
		// Lines are read whole, whatever their length: the writer accepted
		// an entry of any size.
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			d.buf = append(d.buf[:0], line...)
			for errors.Is(err, bufio.ErrBufferFull) {
				line, err = br.ReadSlice('\n')
				d.buf = append(d.buf, line...)
			}
			line = d.buf
		}
		if errors.Is(err, io.EOF) {
			return 0, nil, nil // no newline: the write was cut short
		}
		if err != nil {
			return 0, nil, err
		}
		if e = parseWALLine(line); e == nil {
			return 0, nil, nil
		}
		return int64(len(line)), e, nil
	case walMagic:
		var hdr [walHeaderLen]byte
		if left < walHeaderLen {
			return 0, nil, nil
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return 0, nil, err
		}
		length := int64(binary.LittleEndian.Uint32(hdr[1:5]))
		if length > left-walHeaderLen {
			return 0, nil, nil // cut short, or not a length at all
		}
		if int64(cap(d.buf)) < length {
			d.buf = make([]byte, length)
		}
		payload := d.buf[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return 0, nil, err
		}
		if frameSum(hdr[1:5], payload) != binary.LittleEndian.Uint32(hdr[5:9]) {
			return 0, nil, nil
		}
		// A payload that verifies was written as it is read: one that does
		// not parse is a bug or another program's bytes, never a torn tail.
		if err := d.decode(payload); err != nil {
			return 0, nil, fmt.Errorf("%w: %v", errWALPayload, err)
		}
		return walHeaderLen + length, &d.entry, nil
	}
	return 0, nil, nil
}

// parseWALLine parses one line of the JSON form, nil if it is not one.
func parseWALLine(line []byte) *walEntry {
	var e walEntry
	if json.Unmarshal(line, &e) != nil {
		return nil
	}
	for _, op := range walOps[1:] {
		if e.Op == op {
			return &e
		}
	}
	return nil
}

// walEntryAfter looks for an entry that verifies starting anywhere after
// offset bad, where one did not: a frame at any byte, a line at the start of
// any line. It returns where it found one, or -1. Only a log that does not
// end cleanly pays for it, and then for the bytes after the last good entry.
func walEntryAfter(f io.ReaderAt, bad, size int64) (int64, error) {
	br := bufio.NewReaderSize(io.NewSectionReader(f, bad, size-bad), 1<<16)
	dec := newWALDecoder()
	at := bufio.NewReader(nil)
	var prev byte
	for off := bad; off < size; off++ {
		c, err := br.ReadByte()
		if err != nil {
			return -1, err
		}
		if off > bad && (c == walMagic || (c == '{' && prev == '\n')) {
			at.Reset(io.NewSectionReader(f, off, size-off))
			_, e, err := dec.read(at, size-off)
			if e != nil || errors.Is(err, errWALPayload) {
				return off, nil
			}
			if err != nil {
				return -1, err
			}
		}
		prev = c
	}
	return -1, nil
}

// applyWALEntry applies one replayed entry to the database, which nothing
// else can reach yet.
func (db *DB) applyWALEntry(e *walEntry) error {
	switch e.Op {
	case opCreateMetastore:
		if _, ok := db.stores[e.Metastore]; !ok {
			db.stores[e.Metastore] = newMetastore(db.opts.ChangeLogSize)
		}
	case opDropMetastore:
		delete(db.stores, e.Metastore)
	case opCommit:
		ms, ok := db.stores[e.Metastore]
		if !ok {
			return nil
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
			if !w.Deleted && w.Value == nil {
				w.Value = []byte{} // the line form drops an empty value; nil says absent
			}
			// putLocked also rebuilds the ordered index as replay
			// repopulates the table maps.
			ms.putLocked(w.Table, w.Key, e.Version, w.Value, w.Deleted)
		}
		ms.version = e.Version
		for _, w := range e.Writes {
			ms.logLocked(Change{Version: e.Version, Table: w.Table, Key: w.Key, Deleted: w.Deleted})
		}
	}
	return nil
}
