// Package audit implements the Unity Catalog audit trail (paper §4.2.1):
// an append-only log of API requests, object lifecycle changes, access
// control decisions, and credential vending events, for all asset types.
//
// The log is in-memory with an optional sink (io.Writer receiving JSON
// lines) and bounded retention, and exposes simple query and aggregate
// interfaces used by the evaluation harness (e.g. the read/write API mix of
// §6.1).
//
// Every API request appends at least one record, so Append sits on the hot
// read path of the service. To keep it from serializing that path, the log
// is lock-striped: each record is appended to one of the shards under that
// shard's mutex, where it takes the next global sequence number, while the
// aggregate counters (total/reads/writes/denied and per-operation counts)
// are plain atomics. Readers gather the shards and sort by sequence number:
// Recent and Filter return records in append order.
//
// Record is what callers pass in, read back and see on the sink. What the
// log retains is the packed form in pack.go, in fixed-size chunks that are
// allocated whole and dropped whole.
package audit

import (
	"cmp"
	"encoding/json"
	"hash/maphash"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"unitycatalog/internal/clock"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/obs"
)

// Kind classifies an audit record.
type Kind string

// Audit record kinds.
const (
	KindAPIRequest Kind = "API_REQUEST"
	KindLifecycle  Kind = "LIFECYCLE"
	KindAuthz      Kind = "AUTHZ_DECISION"
	KindCredential Kind = "CREDENTIAL_VEND"
)

// Record is one audit trail entry.
type Record struct {
	Time      time.Time         `json:"time"`
	Kind      Kind              `json:"kind"`
	Metastore string            `json:"metastore,omitempty"`
	Principal string            `json:"principal,omitempty"`
	Operation string            `json:"operation,omitempty"` // e.g. "GetTable", "CreateSchema"
	Securable ids.ID            `json:"securable,omitempty"`
	Allowed   bool              `json:"allowed"`
	ReadOnly  bool              `json:"read_only"`
	Detail    string            `json:"detail,omitempty"`
	Extra     map[string]string `json:"extra,omitempty"`
	// TraceID correlates this record with the HTTP request that produced it
	// (the X-UC-Trace-Id response header and /debug/traces entries).
	TraceID string `json:"trace_id,omitempty"`
}

// chunk is a run of one shard's records in sequence order and the strings
// they name. Its records sit in a block allocated once and never regrown; its
// table starts in the same block and moves to a larger array when it outgrows
// it. Slots below the length of recs, strs and side are never written again:
// a reader may keep the headers it copied under the shard's mutex and read
// them with the mutex released.
type chunk struct {
	base uint64 // sequence number of recs[0]; packed.dseq counts from it
	recs []packed
	strs []string // the strings recs name, numbered by position
	side []side
}

// bytes is what c holds: its block, the array its table moved to if it
// outgrew the block, and its side entries.
func (c *chunk) bytes() int64 {
	n := blockBytes + uintptr(cap(c.side))*unsafe.Sizeof(side{})
	if cap(c.strs) > blockStrs {
		n += uintptr(cap(c.strs)) * unsafe.Sizeof("")
	}
	return int64(n)
}

// logShard is one stripe of the retained records: chunks oldest first, only
// the last one open for appends, and the lookup that numbers its strings.
type logShard struct {
	mu      sync.Mutex
	chunks  []chunk
	n       int // records in chunks
	numbers lookup
	_       [56]byte // pad to keep neighboring shard mutexes off one cache line
}

// sinkBox holds the optional JSON-lines sink; swapped atomically so the
// no-sink hot path is a single pointer load.
type sinkBox struct {
	mu sync.Mutex // serializes line writes
	w  io.Writer
}

type clockBox struct{ c clock.Clock }

// opCount is how often one operation was appended.
type opCount struct {
	n atomic.Int64
}

// Log is the audit trail. The zero value is not usable; call NewLog.
type Log struct {
	max      int // total retention bound across shards
	perMax   int // per-shard retention bound
	chunkLen int // records per chunk
	shards   []logShard
	seq      atomic.Uint64
	clk      atomic.Pointer[clockBox]
	sink     atomic.Pointer[sinkBox]

	// aggregate counters survive retention trimming
	total, reads, writes, denied atomic.Int64
	byOperation                  sync.Map // string -> *opCount
}

// logShards picks the striping factor: 1 for small logs (where trimming
// granularity matters more than concurrency) and 8 for production-sized
// retention.
func logShards(max int) int {
	if max < 4096 {
		return 1
	}
	return 8
}

// NewLog returns a Log retaining up to max records (0 means 100000). Once
// it has retained max records it holds between max less one chunk per shard
// and max.
func NewLog(max int) *Log {
	if max <= 0 {
		max = 100000
	}
	n := logShards(max)
	l := &Log{max: max, perMax: max / n, shards: make([]logShard, n)}
	// Retention is trimmed a chunk at a time, so small logs use shorter
	// chunks: an eighth of the shard's bound.
	l.chunkLen = min(blockRecs, l.perMax/8)
	if l.chunkLen < 1 {
		l.chunkLen = 1
	}
	for i := range l.shards {
		l.shards[i].numbers.seed = maphash.MakeSeed()
	}
	l.clk.Store(&clockBox{c: clock.Real{}})
	return l
}

// SetSink directs a copy of every record, JSON-encoded one per line, to w.
func (l *Log) SetSink(w io.Writer) {
	if w == nil {
		l.sink.Store(nil)
		return
	}
	l.sink.Store(&sinkBox{w: w})
}

// SetClock overrides the clock (for simulations).
func (l *Log) SetClock(c clock.Clock) {
	l.clk.Store(&clockBox{c: c})
}

// Append records r, stamping its time if unset.
func (l *Log) Append(r Record) {
	if r.Time.IsZero() {
		r.Time = l.clk.Load().c.Now()
	}
	if r.Operation != "" {
		c, ok := l.byOperation.Load(r.Operation)
		if !ok {
			c, _ = l.byOperation.LoadOrStore(r.Operation, &opCount{})
		}
		c.(*opCount).n.Add(1)
	}

	// The running total deals records round the shards; the sequence number
	// is taken under the shard's mutex so that a shard is in sequence order.
	sh := &l.shards[uint64(l.total.Add(1))%uint64(len(l.shards))]
	sh.mu.Lock()
	sh.push(l, l.seq.Add(1), &r)
	sh.mu.Unlock()

	if r.ReadOnly {
		l.reads.Add(1)
	} else {
		l.writes.Add(1)
	}
	if !r.Allowed {
		l.denied.Add(1)
	}
	if box := l.sink.Load(); box != nil {
		if b, err := json.Marshal(r); err == nil {
			box.mu.Lock()
			box.w.Write(append(b, '\n'))
			box.mu.Unlock()
		}
	}
}

// push appends r with sequence number seq, opening a chunk when the last one
// is full and dropping the oldest when the shard is over its bound. Nothing
// is copied either way. Caller holds sh.mu.
func (sh *logShard) push(l *Log, seq uint64, r *Record) {
	last := len(sh.chunks) - 1
	if last < 0 || len(sh.chunks[last].recs) == l.chunkLen || seq-sh.chunks[last].base > math.MaxUint32 {
		b := new(block)
		sh.chunks = append(sh.chunks, chunk{base: seq, recs: b.recs[:0:l.chunkLen], strs: b.strs[:0]})
		clear(sh.numbers.slots)
		last++
	}
	c := &sh.chunks[last]
	p := sh.numbers.pack(c, r)
	p.dseq = uint32(seq - c.base)
	c.recs = append(c.recs, p)
	sh.n++
	if sh.n > l.perMax {
		sh.n -= len(sh.chunks[0].recs)
		sh.chunks = slices.Delete(sh.chunks, 0, 1)
	}
}

// RegisterMetrics exposes the aggregate audit counters and what the log
// retains on r.
func (l *Log) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounterFunc("uc_audit_records_total", "Audit records appended.", l.total.Load)
	r.RegisterCounterFunc("uc_audit_reads_total", "Read-only audit records.", l.reads.Load)
	r.RegisterCounterFunc("uc_audit_writes_total", "Mutating audit records.", l.writes.Load)
	r.RegisterCounterFunc("uc_audit_denied_total", "Denied-access audit records.", l.denied.Load)
	r.RegisterGaugeFunc("uc_audit_retained_records", "Audit records retained in memory.", func() float64 {
		n, _ := l.Retained()
		return float64(n)
	})
	r.RegisterGaugeFunc("uc_audit_retained_bytes", "Bytes of the record chunks and string tables the audit log holds, filled or not.", func() float64 {
		_, b := l.Retained()
		return float64(b)
	})
}

// Retained returns how many records the log holds and the bytes it holds
// them in: each chunk's block, table and side entries, and each shard's chunk
// headers and lookup. The strings' own bytes are shared with whoever made
// them and are not counted.
func (l *Log) Retained() (records int, bytes int64) {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		records += sh.n
		for j := range sh.chunks {
			bytes += sh.chunks[j].bytes()
		}
		bytes += int64(cap(sh.chunks))*int64(unsafe.Sizeof(chunk{})) + int64(len(sh.numbers.slots))*int64(unsafe.Sizeof(uint16(0)))
		sh.mu.Unlock()
	}
	return records, bytes
}

// retained is one retained record, its sequence number and a copy of its
// chunk's header.
type retained struct {
	seq uint64
	p   *packed
	c   *chunk
}

// collect returns every retained record in sequence order (append order,
// oldest first). Each shard's chunk headers are copied under its mutex and
// read with the mutex released.
func (l *Log) collect() []retained {
	var all []retained
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		chunks := slices.Clone(sh.chunks)
		sh.mu.Unlock()
		for k := range chunks {
			c := &chunks[k]
			for j := range c.recs {
				all = append(all, retained{seq: c.base + uint64(c.recs[j].dseq), p: &c.recs[j], c: c})
			}
		}
	}
	slices.SortFunc(all, func(a, b retained) int { return cmp.Compare(a.seq, b.seq) })
	return all
}

// Recent returns up to n most recent records, newest last.
func (l *Log) Recent(n int) []Record {
	all := l.collect()
	if n <= 0 || n > len(all) {
		n = len(all)
	}
	out := make([]Record, n)
	for i, h := range all[len(all)-n:] {
		out[i] = unpack(h.c, h.p)
	}
	return out
}

// Filter returns retained records matching pred, oldest first.
func (l *Log) Filter(pred func(Record) bool) []Record {
	var out []Record
	for _, h := range l.collect() {
		if r := unpack(h.c, h.p); pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// Stats summarizes the full history (not just retained records).
type Stats struct {
	Total       int64
	Reads       int64
	Writes      int64
	Denied      int64
	ByOperation map[string]int64
}

// Stats returns aggregate counters.
func (l *Log) Stats() Stats {
	byOp := map[string]int64{}
	l.byOperation.Range(func(k, v any) bool {
		byOp[k.(string)] = v.(*opCount).n.Load()
		return true
	})
	return Stats{
		Total:       l.total.Load(),
		Reads:       l.reads.Load(),
		Writes:      l.writes.Load(),
		Denied:      l.denied.Load(),
		ByOperation: byOp,
	}
}

// ReadFraction returns the fraction of requests that were read-only
// (the paper reports 98.2% for production UC).
func (l *Log) ReadFraction() float64 {
	total := l.total.Load()
	if total == 0 {
		return 0
	}
	return float64(l.reads.Load()) / float64(total)
}
