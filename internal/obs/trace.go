package obs

import (
	"encoding/json"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// maxSpans bounds the per-trace span buffer. Requests deeper than this keep
// working; extra spans are counted in Dropped instead of recorded. 64 covers
// the deepest real path in the stack (HTTP → catalog → authz → cache →
// store → cloudsim) with a wide margin for fan-out.
const maxSpans = 64

// Propagation header names. A caller (internal/client) carries its trace's
// identity in these headers; the receiving server adopts the trace ID, so its
// response and audit records name the caller's trace, and honors the origin's
// sampling decision. They are spelled in MIME-canonical form ("X-Uc-", not
// "X-UC-"), the form http.Header stores and sends whatever it is given, so
// that Get and Set do not build the canonical name anew on every request.
const (
	// TraceIDHeader carries the trace ID. The server also stamps it on
	// every response, so the same header name serves both directions.
	TraceIDHeader = "X-Uc-Trace-Id"
	// SampledHeader is "1" when the origin decided to retain this trace.
	SampledHeader = "X-Uc-Trace-Sampled"
)

// PropagationContext is the wire form of a SpanContext: everything a server
// needs to continue the trace.
type PropagationContext struct {
	TraceID string
	Sampled bool
}

// maxWireTraceID is the longest trace ID accepted from the wire: W3C trace
// IDs are 32 hex digits, ours 16.
const maxWireTraceID = 32

// keepTraces is the size of a tracer's ring of retained traces.
const keepTraces = 32

// TraceIDLen is the length of a minted trace ID: 16 lowercase hex digits.
const TraceIDLen = 16

// hex16 writes v into b as 16 lowercase hex digits and returns them as a
// string over b, which must not be written again while the string is read.
// Hand-rolled because trace-ID materialization sits on the audited hot path:
// no allocation, no fmt machinery.
func hex16(b *[TraceIDLen]byte, v uint64) string {
	const digits = "0123456789abcdef"
	for i := TraceIDLen - 1; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return unsafe.String(&b[0], TraceIDLen)
}

// ParsePropagation assembles a PropagationContext from header values; ok is
// false unless traceID is 1 to maxWireTraceID hex digits, and the request
// then starts a trace of its own. The adopted ID is echoed on the response,
// written to the access log and stamped on every audit record of the
// request, so anything but hex digits would let a client forge fields in
// all three.
func ParsePropagation(traceID, sampled string) (PropagationContext, bool) {
	if traceID == "" || len(traceID) > maxWireTraceID {
		return PropagationContext{}, false
	}
	for i := 0; i < len(traceID); i++ {
		if c := traceID[i]; !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return PropagationContext{}, false
		}
	}
	return PropagationContext{TraceID: traceID, Sampled: sampled == "1"}, true
}

// spanRec is one recorded span. Offsets are monotonic nanoseconds since the
// trace began, so span math never touches the wall clock after Start.
type spanRec struct {
	name    string
	detail  string
	parent  int32 // index of parent span, -1 for root children
	startNs int64
	endNs   int64 // 0 while open
}

// Trace is one request's span collection. It is created by a Tracer, carried
// through the stack as a SpanContext, and either retained (sampled or slow)
// or recycled at Finish. All methods are safe for concurrent use by the
// goroutines of one request.
type Trace struct {
	begun time.Time

	// id is set when the trace starts: a random 64-bit prefix fixed at
	// Tracer construction XOR a per-trace sequence number, as 16 hex chars
	// in the bytes its starter lent (Start), or the origin's ID verbatim for
	// a propagated trace. Every HTTP request stamps it on its response, so it
	// is built once, not on first use.
	id     string
	n      atomic.Int32 // spans used (may exceed maxSpans; clamp on read)
	spans  [maxSpans]spanRec
	capped atomic.Int64 // spans dropped past maxSpans

	// sampled is the retention decision, fixed at StartTrace (or adopted
	// from the wire) so it can propagate downstream before Finish.
	sampled bool
}

// ID returns the trace ID (16 hex chars, stable per trace; propagated traces
// return the adopted origin ID).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Sampled reports the trace's retention decision (fixed at start).
func (t *Trace) Sampled() bool { return t != nil && t.sampled }

// start reserves a span slot and returns its index, or -1 if the buffer is
// full. One atomic add, no locks.
func (t *Trace) start(name, detail string, parent int32) int32 {
	i := t.n.Add(1) - 1
	if i >= maxSpans {
		t.capped.Add(1)
		return -1
	}
	t.spans[i] = spanRec{name: name, detail: detail, parent: parent, startNs: int64(time.Since(t.begun))}
	return i
}

func (t *Trace) end(i int32) {
	if i >= 0 && i < maxSpans {
		t.spans[i].endNs = int64(time.Since(t.begun))
	}
}

// SpanContext is the value threaded through the stack: which trace (if any)
// and which span is the current parent. The zero value is a no-op — every
// instrumentation site works unconditionally, costing one nil check when
// tracing is off.
type SpanContext struct {
	tr     *Trace
	parent int32
}

// Active reports whether a trace is attached.
func (sc SpanContext) Active() bool { return sc.tr != nil }

// TraceID returns the trace's ID, or "" when no trace is attached.
func (sc SpanContext) TraceID() string { return sc.tr.ID() }

// Sampled reports whether the attached trace will be retained.
func (sc SpanContext) Sampled() bool { return sc.tr.Sampled() }

// Propagation returns the wire form of sc for a request to a server; ok is
// false when no trace is attached (nothing to propagate).
func (sc SpanContext) Propagation() (PropagationContext, bool) {
	if sc.tr == nil {
		return PropagationContext{}, false
	}
	return PropagationContext{TraceID: sc.tr.ID(), Sampled: sc.tr.sampled}, true
}

// Span is an open span handle; call End when the operation completes.
type Span struct {
	tr *Trace
	i  int32
}

// Start opens a child span. The returned SpanContext parents subsequent
// spans under the new one; the Span must be End()ed.
func (sc SpanContext) Start(name string) (SpanContext, Span) {
	return sc.StartDetail(name, "")
}

// StartDetail opens a child span with a free-form detail (a table name, a
// batch size). detail must already be a string — build it only when
// sc.Active() to keep the disabled path allocation-free.
func (sc SpanContext) StartDetail(name, detail string) (SpanContext, Span) {
	if sc.tr == nil {
		return sc, Span{}
	}
	i := sc.tr.start(name, detail, sc.parent)
	if i < 0 {
		return sc, Span{}
	}
	return SpanContext{tr: sc.tr, parent: i}, Span{tr: sc.tr, i: i}
}

// End closes the span. Safe on the zero Span.
func (s Span) End() {
	if s.tr != nil {
		s.tr.end(s.i)
	}
}

// SetDetail replaces the span's detail after the fact (e.g. a batch size
// known only at completion). Safe on the zero Span.
func (s Span) SetDetail(detail string) {
	if s.tr != nil && s.i >= 0 && s.i < maxSpans {
		s.tr.spans[s.i].detail = detail
	}
}

// Tracer creates, samples, and retains traces. Retention policy: a trace is
// kept if it was probabilistically selected (1 in SampleEvery, decided at
// StartTrace so the decision can propagate) OR its total duration reached
// SlowThreshold. Spans are recorded for every started trace — retention is
// decided at Finish — so a slow outlier always has its full span tree.
// Retained summaries go to one ring of the last keepTraces: /debug/traces
// serves it, and a flight-recorder incident freezes it.
type Tracer struct {
	// SampleEvery retains roughly 1 in N finished traces. 0 disables
	// probabilistic retention.
	SampleEvery int
	// SlowThreshold retains any trace at least this slow. 0 disables.
	SlowThreshold time.Duration

	idPrefix uint64
	seq      atomic.Uint64
	pool     sync.Pool

	mu     sync.Mutex
	recent [keepTraces]*TraceSummary // ring; the newest at (total-1) % keepTraces
	total  uint64                    // summaries retained
}

// NewTracer builds a tracer with the given retention policy.
func NewTracer(sampleEvery int, slowThreshold time.Duration) *Tracer {
	t := &Tracer{SampleEvery: sampleEvery, SlowThreshold: slowThreshold}
	t.idPrefix = rand.Uint64() | 1 // non-zero so IDs are never all zeros
	t.pool.New = func() any { return &Trace{} }
	return t
}

// Start begins a trace rooted at now. A trace that continues one propagated
// by a caller (pc.TraceID set) adopts the origin's trace ID and sampling
// decision; any other mints its ID into id, which the trace's ID string reads
// from then on, so the caller writes id nowhere else and keeps it as long as
// the ID is read (the server lends the request's envelope: one object). The
// sampling decision is made here — not at Finish — so it can ride the
// propagation headers.
func (tr *Tracer) Start(pc PropagationContext, id *[TraceIDLen]byte) *Trace {
	t := tr.pool.Get().(*Trace)
	t.begun = time.Now()
	seq := tr.seq.Add(1)
	t.n.Store(0)
	t.capped.Store(0)
	if pc.TraceID != "" {
		t.id, t.sampled = pc.TraceID, pc.Sampled
	} else {
		t.id = hex16(id, tr.idPrefix^seq)
		t.sampled = tr.SampleEvery > 0 && seq%uint64(tr.SampleEvery) == 0
	}
	return t
}

// Root returns the SpanContext parenting top-level spans of t.
func (tr *Tracer) Root(t *Trace) SpanContext { return SpanContext{tr: t, parent: -1} }

// SpanView is the JSON shape of one span in a retained trace.
type SpanView struct {
	Name     string     `json:"name"`
	Detail   string     `json:"detail,omitempty"`
	StartUs  float64    `json:"start_us"`
	Duration float64    `json:"duration_us"`
	Children []SpanView `json:"children,omitempty"`
}

// TraceSummary is one retained trace, ready for /debug/traces. It is
// immutable once retained: the ring and any incident share it.
type TraceSummary struct {
	ID       string     `json:"trace_id"`
	Began    time.Time  `json:"began"`
	Duration float64    `json:"duration_ms"`
	Slow     bool       `json:"slow"`
	Dropped  int64      `json:"dropped_spans,omitempty"`
	Op       string     `json:"op,omitempty"`
	Spans    []SpanView `json:"spans"`
}

// Finish closes the trace, decides retention, and recycles the Trace when it
// is not retained. The *Trace must not be used after Finish. The op parts,
// joined by spaces, label the retained summary (e.g. "GET", "/api/.../tables");
// the label is built only for a trace that is retained.
func (tr *Tracer) Finish(t *Trace, op ...string) {
	took := time.Since(t.begun)
	slow := tr.SlowThreshold > 0 && took >= tr.SlowThreshold
	if !slow && !t.sampled {
		t.id = "" // the pooled trace must not keep its starter's bytes
		tr.pool.Put(t)
		return
	}
	sum := &TraceSummary{
		ID:       strings.Clone(t.ID()), // the ring outlives the bytes the ID was lent
		Began:    t.begun,
		Duration: float64(took) / 1e6,
		Slow:     slow,
		Dropped:  t.capped.Load(),
		Op:       strings.Join(op, " "),
		Spans:    t.tree(),
	}
	tr.mu.Lock()
	tr.recent[tr.total%keepTraces] = sum
	tr.total++
	tr.mu.Unlock()
	// Retained traces are not pooled: their span strings are referenced by
	// the summary-building loop above only by copy, but recycling here would
	// save little and risks racing a late Span.End from a leaked goroutine.
}

// tree assembles the parent-indexed span array into nested SpanViews.
func (t *Trace) tree() []SpanView {
	n := int(t.n.Load())
	if n > maxSpans {
		n = maxSpans
	}
	views := make([]SpanView, n)
	for i := 0; i < n; i++ {
		s := &t.spans[i]
		end := s.endNs
		if end == 0 {
			end = s.startNs
		}
		views[i] = SpanView{
			Name:     s.name,
			Detail:   s.detail,
			StartUs:  float64(s.startNs) / 1e3,
			Duration: float64(end-s.startNs) / 1e3,
		}
	}
	var roots []SpanView
	// Children appear after parents (slot order is start order), so walking
	// backwards attaches grandchildren before their parent is lifted.
	for i := n - 1; i >= 0; i-- {
		p := t.spans[i].parent
		if p >= 0 && int(p) < n {
			views[p].Children = append([]SpanView{views[i]}, views[p].Children...)
		} else {
			roots = append([]SpanView{views[i]}, roots...)
		}
	}
	return roots
}

// Recent returns the retained traces, newest first.
func (tr *Tracer) Recent() []*TraceSummary {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]*TraceSummary, min(tr.total, keepTraces))
	for i := range out {
		out[i] = tr.recent[(tr.total-1-uint64(i))%keepTraces]
	}
	return out
}

// WriteRecentJSON writes Recent as a JSON array.
func (tr *Tracer) WriteRecentJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr.Recent())
}
