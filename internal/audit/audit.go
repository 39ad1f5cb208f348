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
// is lock-striped: each record takes a global atomic sequence number and is
// appended to the shard it maps to under that shard's mutex, while the
// aggregate counters (total/reads/writes/denied and per-operation counts)
// are plain atomics. Readers merge the shards by sequence number, so
// Recent and Filter preserve the append order exactly as before.
package audit

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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

// logEntry is a retained record stamped with its global sequence number,
// which totally orders records across shards.
type logEntry struct {
	seq uint64
	rec Record
}

// logShard is one stripe of the retained-record ring.
type logShard struct {
	mu      sync.Mutex
	entries []logEntry
	_       [32]byte // pad to keep neighboring shard mutexes off one cache line
}

// sinkBox holds the optional JSON-lines sink; swapped atomically so the
// no-sink hot path is a single pointer load.
type sinkBox struct {
	mu sync.Mutex // serializes line writes
	w  io.Writer
}

type clockBox struct{ c clock.Clock }

// Log is the audit trail. The zero value is not usable; call NewLog.
type Log struct {
	max    int // total retention bound across shards
	perMax int // per-shard retention bound
	shards []logShard
	seq    atomic.Uint64
	clk    atomic.Pointer[clockBox]
	sink   atomic.Pointer[sinkBox]

	// aggregate counters survive retention trimming
	total, reads, writes, denied atomic.Int64
	byOperation                  sync.Map // string -> *atomic.Int64
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

// NewLog returns a Log retaining up to max records (0 means 100000).
func NewLog(max int) *Log {
	if max <= 0 {
		max = 100000
	}
	n := logShards(max)
	l := &Log{max: max, perMax: max / n, shards: make([]logShard, n)}
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
	seq := l.seq.Add(1)
	sh := &l.shards[seq%uint64(len(l.shards))]
	sh.mu.Lock()
	sh.entries = append(sh.entries, logEntry{seq: seq, rec: r})
	if len(sh.entries) > l.perMax {
		// Amortized trim: drop the oldest half in one copy so sustained
		// high-rate appends stay O(1) per record instead of O(max).
		keep := l.perMax / 2
		if keep < 1 {
			keep = 1
		}
		sh.entries = append([]logEntry(nil), sh.entries[len(sh.entries)-keep:]...)
	}
	sh.mu.Unlock()

	l.total.Add(1)
	if r.ReadOnly {
		l.reads.Add(1)
	} else {
		l.writes.Add(1)
	}
	if !r.Allowed {
		l.denied.Add(1)
	}
	if r.Operation != "" {
		c, ok := l.byOperation.Load(r.Operation)
		if !ok {
			c, _ = l.byOperation.LoadOrStore(r.Operation, new(atomic.Int64))
		}
		c.(*atomic.Int64).Add(1)
	}
	if box := l.sink.Load(); box != nil {
		if b, err := json.Marshal(r); err == nil {
			box.mu.Lock()
			box.w.Write(append(b, '\n'))
			box.mu.Unlock()
		}
	}
}

// RegisterMetrics exposes the aggregate audit counters on r.
func (l *Log) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounterFunc("uc_audit_records_total", "Audit records appended.", l.total.Load)
	r.RegisterCounterFunc("uc_audit_reads_total", "Read-only audit records.", l.reads.Load)
	r.RegisterCounterFunc("uc_audit_writes_total", "Mutating audit records.", l.writes.Load)
	r.RegisterCounterFunc("uc_audit_denied_total", "Denied-access audit records.", l.denied.Load)
}

// collect snapshots all retained entries ordered by sequence number
// (append order, oldest first).
func (l *Log) collect() []logEntry {
	var all []logEntry
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		all = append(all, sh.entries...)
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	return all
}

// Recent returns up to n most recent records, newest last.
func (l *Log) Recent(n int) []Record {
	all := l.collect()
	if n <= 0 || n > len(all) {
		n = len(all)
	}
	out := make([]Record, n)
	for i, e := range all[len(all)-n:] {
		out[i] = e.rec
	}
	return out
}

// Filter returns retained records matching pred, oldest first.
func (l *Log) Filter(pred func(Record) bool) []Record {
	var out []Record
	for _, e := range l.collect() {
		if pred(e.rec) {
			out = append(out, e.rec)
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
		byOp[k.(string)] = v.(*atomic.Int64).Load()
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
