package obs

import (
	"context"
	"encoding/json"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the per-trace span buffer. Requests deeper than this keep
// working; extra spans are counted in Dropped instead of recorded. 64 covers
// the deepest real path in the stack (HTTP → catalog → authz → cache →
// store → cloudsim) with a wide margin for fan-out.
const maxSpans = 64

// Propagation header names. A caller on another node (internal/client)
// carries its SpanContext in these headers; the receiving node adopts the
// trace ID, parents its spans under the caller's span, and honors the
// origin's sampling decision so both segments are retained (or both
// recycled) together. They are spelled in MIME-canonical form ("X-Uc-", not
// "X-UC-"), the form http.Header stores and sends whatever it is given, so
// that Get and Set do not build the canonical name anew on every request.
const (
	// TraceIDHeader carries the 16-hex trace ID. The server also stamps it
	// on every response, so the same header name serves both directions.
	TraceIDHeader = "X-Uc-Trace-Id"
	// ParentSpanHeader carries the forwarder's span index within the trace;
	// the remote segment grafts under it when /debug/traces stitches.
	ParentSpanHeader = "X-Uc-Parent-Span"
	// SampledHeader is "1" when the origin decided to retain this trace.
	SampledHeader = "X-Uc-Trace-Sampled"
)

// PropagationContext is the wire form of a SpanContext: everything a remote
// node needs to continue the trace.
type PropagationContext struct {
	TraceID string
	Parent  int32
	Sampled bool
}

// maxWireTraceID bounds accepted remote trace IDs so a hostile client
// cannot bloat retained summaries through the propagation headers.
const maxWireTraceID = 64

// hex16 formats v as 16 lowercase hex chars. Hand-rolled because trace-ID
// materialization sits on the audited hot path: one string allocation, no
// fmt machinery.
func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// ParsePropagation assembles a PropagationContext from header values; ok is
// false when no trace is being propagated (empty or oversized ID).
func ParsePropagation(traceID, parent, sampled string) (PropagationContext, bool) {
	if traceID == "" || len(traceID) > maxWireTraceID {
		return PropagationContext{}, false
	}
	pc := PropagationContext{TraceID: traceID, Parent: -1, Sampled: sampled == "1"}
	if n, err := strconv.Atoi(parent); err == nil && n >= 0 && n < maxSpans {
		pc.Parent = int32(n)
	}
	return pc, true
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
	tracer *Tracer
	begun  time.Time

	// Lazy ID: a random 64-bit prefix fixed at Tracer construction plus a
	// per-trace sequence number, formatted only when something actually
	// needs the string (response header, audit record, retention). Remote
	// traces adopt the origin's ID verbatim instead.
	seq    uint64
	id     atomic.Pointer[string]
	n      atomic.Int32 // spans used (may exceed maxSpans; clamp on read)
	spans  [maxSpans]spanRec
	capped atomic.Int64 // spans dropped past maxSpans

	// sampled is the retention decision, fixed at StartTrace (or adopted
	// from the wire) so it can propagate to downstream nodes before Finish.
	sampled bool
	// remote marks a trace segment continuing another node's trace;
	// remoteParent is the forwarder's span index (-1 = root).
	remote       bool
	remoteParent int32
}

// ID formats and caches the trace ID (16 hex chars, stable per trace;
// remote traces return the adopted origin ID).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	if p := t.id.Load(); p != nil {
		return *p
	}
	s := hex16(t.tracer.idPrefix ^ t.seq)
	t.id.CompareAndSwap(nil, &s)
	return *t.id.Load()
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

// Propagation returns the wire form of sc for forwarding to another node;
// ok is false when no trace is attached (nothing to propagate).
func (sc SpanContext) Propagation() (PropagationContext, bool) {
	if sc.tr == nil {
		return PropagationContext{}, false
	}
	return PropagationContext{TraceID: sc.tr.ID(), Parent: sc.parent, Sampled: sc.tr.sampled}, true
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
// StartTrace so the decision can propagate across nodes) OR its total
// duration reached SlowThreshold. Spans are recorded for every started
// trace — retention is decided at Finish — so a slow outlier always has its
// full span tree. The cost of that choice ("enabled but unsampled") is the
// overhead number bench/obs.go measures.
type Tracer struct {
	// SampleEvery retains roughly 1 in N finished traces. 0 disables
	// probabilistic retention.
	SampleEvery int
	// SlowThreshold retains any trace at least this slow. 0 disables.
	SlowThreshold time.Duration
	// Keep bounds the retained-trace ring buffer (default 32). Ignored
	// when Store is set explicitly.
	Keep int
	// Node attributes this tracer's retained traces to a node ("node-3")
	// or host. Empty means single-node deployment.
	Node string
	// Store receives retained summaries. Tracers that share one store let
	// /debug/traces stitch cross-node traces; nil means a private
	// store created on first retention.
	Store *TraceStore
	// Flight, when set, receives a TraceLite for every finished trace
	// (retained or not) — the flight recorder's always-on trace ring.
	Flight *FlightRecorder

	idPrefix uint64
	seq      atomic.Uint64
	pool     sync.Pool

	mu sync.Mutex // guards lazy Store creation
}

// NewTracer builds a tracer with the given retention policy.
func NewTracer(sampleEvery int, slowThreshold time.Duration) *Tracer {
	t := &Tracer{SampleEvery: sampleEvery, SlowThreshold: slowThreshold, Keep: 32}
	t.idPrefix = rand.Uint64() | 1 // non-zero so IDs are never all zeros
	t.pool.New = func() any { return &Trace{} }
	return t
}

// store returns the retention store, creating a private one sized by Keep
// on first use (so post-construction Keep tweaks are honored).
func (tr *Tracer) store() *TraceStore {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.Store == nil {
		tr.Store = NewTraceStore(tr.Keep)
	}
	return tr.Store
}

// StartTrace begins a new trace rooted at now. The sampling decision is
// made here — not at Finish — so it can ride the propagation headers.
func (tr *Tracer) StartTrace() *Trace {
	t := tr.pool.Get().(*Trace)
	t.tracer = tr
	t.begun = time.Now()
	t.seq = tr.seq.Add(1)
	t.id.Store(nil)
	t.n.Store(0)
	t.capped.Store(0)
	t.sampled = tr.SampleEvery > 0 && t.seq%uint64(tr.SampleEvery) == 0
	t.remote = false
	t.remoteParent = -1
	return t
}

// StartRemote begins a trace segment continuing a trace propagated from
// another node: it adopts the origin's trace ID and sampling decision and
// remembers the forwarder's span index so stitching can graft this
// segment's spans under it.
func (tr *Tracer) StartRemote(pc PropagationContext) *Trace {
	t := tr.StartTrace()
	if pc.TraceID == "" {
		return t
	}
	id := pc.TraceID
	t.id.Store(&id)
	t.remote = true
	t.remoteParent = pc.Parent
	t.sampled = pc.Sampled
	return t
}

// Root returns the SpanContext parenting top-level spans of t.
func (tr *Tracer) Root(t *Trace) SpanContext { return SpanContext{tr: t, parent: -1} }

// SpanView is the JSON shape of one span in a retained trace.
type SpanView struct {
	Name     string     `json:"name"`
	Detail   string     `json:"detail,omitempty"`
	Node     string     `json:"node,omitempty"` // set on grafted remote roots
	StartUs  float64    `json:"start_us"`
	Duration float64    `json:"duration_us"`
	Children []SpanView `json:"children,omitempty"`

	idx int32 // flat span index, for stitching remote segments under it
}

// TraceSummary is one retained trace (or trace segment), ready for
// /debug/traces.
type TraceSummary struct {
	ID       string     `json:"trace_id"`
	Node     string     `json:"node,omitempty"`
	Began    time.Time  `json:"began"`
	Duration float64    `json:"duration_ms"`
	Slow     bool       `json:"slow"`
	Dropped  int64      `json:"dropped_spans,omitempty"`
	Op       string     `json:"op,omitempty"`
	Remote   bool       `json:"remote,omitempty"`
	Spans    []SpanView `json:"spans"`

	// ParentSpan is the forwarder's span index for remote segments (-1 when
	// unknown); stitching grafts the segment under that span.
	ParentSpan int32 `json:"-"`
}

// Finish closes the trace, decides retention, and recycles the Trace when it
// is not retained. The *Trace must not be used after Finish. op labels the
// retained summary (e.g. "GET /api/.../tables").
func (tr *Tracer) Finish(t *Trace, op string) {
	took := time.Since(t.begun)
	slow := tr.SlowThreshold > 0 && took >= tr.SlowThreshold
	if fr := tr.Flight; fr != nil {
		lite := TraceLite{Op: op, Node: tr.Node, Began: t.begun, DurationUs: float64(took) / 1e3, Slow: slow}
		if p := t.id.Load(); p != nil {
			lite.ID = *p
		} else {
			lite.idNum = tr.idPrefix ^ t.seq
		}
		fr.noteTrace(lite)
	}
	if !slow && !t.sampled {
		tr.pool.Put(t)
		return
	}
	sum := &TraceSummary{
		ID:         t.ID(),
		Node:       tr.Node,
		Began:      t.begun,
		Duration:   float64(took) / 1e6,
		Slow:       slow,
		Dropped:    t.capped.Load(),
		Op:         op,
		Remote:     t.remote,
		ParentSpan: t.remoteParent,
		Spans:      t.tree(),
	}
	tr.store().add(sum)
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
			idx:      int32(i),
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

// Recent returns retained traces (raw segments, unstitched), newest first.
func (tr *Tracer) Recent() []*TraceSummary { return tr.store().Recent() }

// WriteRecentJSON writes the retained traces as a JSON array, with remote
// segments stitched into their origin trees (see TraceStore.Stitched).
func (tr *Tracer) WriteRecentJSON(w interface{ Write([]byte) (int, error) }) error {
	return tr.store().WriteJSON(w)
}

// --- shared retention store and cross-node stitching ---

// TraceStore is a ring of retained trace summaries. A single-node stack has
// one per tracer; several tracers sharing one store make /debug/traces show
// each logical request as one stitched tree.
type TraceStore struct {
	mu     sync.Mutex
	keep   int
	recent []*TraceSummary // ring, newest at highest index mod keep
	total  uint64          // summaries added (for ring ordering)
}

// NewTraceStore returns a store retaining up to keep summaries (0 = 32).
func NewTraceStore(keep int) *TraceStore {
	if keep <= 0 {
		keep = 32
	}
	return &TraceStore{keep: keep}
}

func (s *TraceStore) add(sum *TraceSummary) {
	s.mu.Lock()
	if len(s.recent) < s.keep {
		s.recent = append(s.recent, sum)
	} else {
		s.recent[s.total%uint64(s.keep)] = sum
	}
	s.total++
	s.mu.Unlock()
}

// Recent returns retained summaries, newest first.
func (s *TraceStore) Recent() []*TraceSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*TraceSummary, 0, len(s.recent))
	for i := 0; i < len(s.recent); i++ {
		idx := (s.total - 1 - uint64(i)) % uint64(s.keep)
		if int(idx) < len(s.recent) && s.recent[idx] != nil {
			out = append(out, s.recent[idx])
		}
	}
	return out
}

// Stitched returns retained traces with remote segments merged into their
// origin trees: a remote segment whose trace ID matches a retained origin
// trace is grafted under the origin span that forwarded it (a synthetic
// "remote" span carrying the segment's node), with its span offsets shifted
// onto the origin's clock. Remote segments whose origin was not retained
// (or was evicted) appear as standalone entries.
func (s *TraceStore) Stitched() []*TraceSummary {
	all := s.Recent()
	remotes := map[string][]*TraceSummary{}
	origins := map[string]bool{}
	for _, t := range all {
		if t.Remote {
			remotes[t.ID] = append(remotes[t.ID], t)
		} else {
			origins[t.ID] = true
		}
	}
	out := make([]*TraceSummary, 0, len(all))
	for _, t := range all {
		if t.Remote {
			if !origins[t.ID] {
				out = append(out, t) // orphan segment: origin not retained
			}
			continue
		}
		segs := remotes[t.ID]
		if len(segs) == 0 {
			out = append(out, t)
			continue
		}
		cp := *t
		cp.Spans = cloneSpans(t.Spans)
		for i := len(segs) - 1; i >= 0; i-- { // oldest segment first
			r := segs[i]
			shift := float64(r.Began.Sub(t.Began)) / 1e3 // µs on origin clock
			graft := SpanView{
				Name:     "remote",
				Detail:   r.Op,
				Node:     r.Node,
				StartUs:  shift,
				Duration: r.Duration * 1e3,
				Children: shiftSpans(r.Spans, shift),
				idx:      -1,
			}
			if !attachAt(cp.Spans, r.ParentSpan, graft) {
				cp.Spans = append(cp.Spans, graft)
			}
		}
		out = append(out, &cp)
	}
	return out
}

// cloneSpans deep-copies a span tree so grafting never mutates the retained
// summary.
func cloneSpans(in []SpanView) []SpanView {
	if in == nil {
		return nil
	}
	out := make([]SpanView, len(in))
	for i, s := range in {
		out[i] = s
		out[i].Children = cloneSpans(s.Children)
	}
	return out
}

// shiftSpans deep-copies a remote segment's spans with start offsets moved
// onto the origin trace's clock.
func shiftSpans(in []SpanView, byUs float64) []SpanView {
	if in == nil {
		return nil
	}
	out := make([]SpanView, len(in))
	for i, s := range in {
		out[i] = s
		out[i].StartUs = s.StartUs + byUs
		out[i].Children = shiftSpans(s.Children, byUs)
	}
	return out
}

// attachAt appends child under the span with flat index idx, returning
// false when no such span exists in the tree.
func attachAt(spans []SpanView, idx int32, child SpanView) bool {
	if idx < 0 {
		return false
	}
	for i := range spans {
		if spans[i].idx == idx {
			spans[i].Children = append(spans[i].Children, child)
			return true
		}
		if attachAt(spans[i].Children, idx, child) {
			return true
		}
	}
	return false
}

// WriteJSON writes the stitched retained traces as a JSON array.
func (s *TraceStore) WriteJSON(w interface{ Write([]byte) (int, error) }) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Stitched())
}

// --- context.Context plumbing for the HTTP layer ---

type ctxKey struct{}

// ContextWithSpan attaches sc to ctx.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// SpanFromContext extracts the SpanContext (zero value when absent).
func SpanFromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}
