package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- propagation ---

func TestPropagationRoundTrip(t *testing.T) {
	tr := NewTracer(1, 0) // sample everything
	trace := startTrace(tr)
	root := tr.Root(trace)
	sc, sp := root.Start("server")
	pc, ok := sc.Propagation()
	if !ok {
		t.Fatal("Propagation() not ok on active span")
	}
	if pc.TraceID != trace.ID() || !pc.Sampled {
		t.Fatalf("propagation = %+v, want id=%s sampled", pc, trace.ID())
	}
	// Wire round-trip through the header parser.
	got, ok := ParsePropagation(pc.TraceID, "1")
	if !ok || got != pc {
		t.Fatalf("ParsePropagation = %+v ok=%v, want %+v", got, ok, pc)
	}
	sp.End()
	tr.Finish(trace, "op")

	if _, ok := (SpanContext{}).Propagation(); ok {
		t.Fatal("zero SpanContext must not propagate")
	}
	// Only 1 to 32 hex digits are a trace ID: ours are 16, W3C's 32.
	for _, id := range []string{"a", "DEADBEEF00000001", strings.Repeat("f", 32)} {
		if _, ok := ParsePropagation(id, ""); !ok {
			t.Errorf("trace ID %q must parse", id)
		}
	}
	for _, id := range []string{"", strings.Repeat("f", 33), "x", `x status=200 principal="admin"`, "deadbeef 0000001", "deadbeef\n"} {
		if _, ok := ParsePropagation(id, "1"); ok {
			t.Errorf("trace ID %q must not parse", id)
		}
	}
}

func TestRemoteTraceAdoptsIdentity(t *testing.T) {
	remote := NewTracer(0, 0) // never samples on its own
	pc := PropagationContext{TraceID: "cafe0000cafe0000", Sampled: true}
	rt := remote.Start(pc, nil)
	if rt.ID() != pc.TraceID {
		t.Fatalf("remote trace ID = %s, want adopted %s", rt.ID(), pc.TraceID)
	}
	if !rt.Sampled() {
		t.Fatal("remote trace must honor origin sampling decision")
	}
	_, sp := remote.Root(rt).Start("work")
	sp.End()
	remote.Finish(rt, "forwarded-op")
	recent := remote.Recent()
	if len(recent) != 1 {
		t.Fatalf("retained %d remote traces, want 1", len(recent))
	}
	if recent[0].ID != pc.TraceID || recent[0].Op != "forwarded-op" || len(recent[0].Spans) != 1 {
		t.Fatalf("summary = %+v, want the adopted ID with its one span", recent[0])
	}
}

// --- top-K sketch ---

func TestTopKHeavyHitters(t *testing.T) {
	tk := NewTopK(4)
	// Two heavy tenants among a stream of 40 singletons.
	for i := 0; i < 100; i++ {
		tk.Observe("alice", 1)
	}
	for i := 0; i < 60; i++ {
		tk.Observe("bob", 1)
	}
	for i := 0; i < 40; i++ {
		tk.Observe(fmt.Sprintf("noise-%d", i), 1)
	}
	entries := tk.Entries()
	if len(entries) != 4 {
		t.Fatalf("tracked %d keys, want 4", len(entries))
	}
	if entries[0].Key != "alice" || entries[1].Key != "bob" {
		t.Fatalf("top-2 = %s,%s, want alice,bob", entries[0].Key, entries[1].Key)
	}
	// Space-saving guarantee: count-err <= true count <= count.
	if entries[0].Count-entries[0].Err > 100 || entries[0].Count < 100 {
		t.Fatalf("alice estimate [%d-%d, %d] excludes true 100", entries[0].Count, entries[0].Err, entries[0].Count)
	}
	if got := tk.Total(); got != 200 {
		t.Fatalf("total = %d, want 200", got)
	}
	if res := tk.Residual(); res < 0 || res > 200 {
		t.Fatalf("residual = %d out of range", res)
	}
	// Lower bounds + residual must cover the total.
	var lower int64
	for _, e := range entries {
		lower += e.Count - e.Err
	}
	if lower+tk.Residual() < tk.Total() {
		t.Fatalf("lower bounds %d + residual %d < total %d", lower, tk.Residual(), tk.Total())
	}
}

func TestTopKConcurrent(t *testing.T) {
	tk := NewTopK(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tk.Observe(fmt.Sprintf("tenant-%d", i%16), 1)
				tk.Observe("whale", 2)
			}
		}(g)
	}
	wg.Wait()
	if got := tk.Total(); got != 8*500*3 {
		t.Fatalf("total = %d, want %d", got, 8*500*3)
	}
	if entries := tk.Entries(); entries[0].Key != "whale" {
		t.Fatalf("top key = %s, want whale", entries[0].Key)
	}
}

// --- usage meter ---

func TestUsageMeterExposition(t *testing.T) {
	m := NewUsageMeter(4)
	m.ObserveRequest("alice", 1000, 2*time.Millisecond)
	m.ObserveRequest("alice", 500, time.Millisecond)
	m.ObserveRequest("bob", 100, time.Millisecond)
	m.ObserveOp("alice")
	m.ObserveRequest("", 1, time.Second) // anonymous: not attributed

	reg := NewRegistry()
	m.RegisterMetrics(reg)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`uc_tenant_requests_total{tenant="alice"} 2`,
		`uc_tenant_requests_total{tenant="bob"} 1`,
		`uc_tenant_bytes_total{tenant="alice"} 1500`,
		`uc_tenant_catalog_ops_total{tenant="alice"} 1`,
		`uc_tenant_requests_total{tenant="_other"}`,
		"# TYPE uc_tenant_cost_seconds_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cost is exported in seconds.
	if !strings.Contains(out, `uc_tenant_cost_seconds_total{tenant="alice"} 0.003`) {
		t.Fatalf("cost not scaled to seconds:\n%s", out)
	}

	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var dims map[string]struct {
		Total int64       `json:"total"`
		Top   []TopKEntry `json:"top"`
	}
	if err := json.Unmarshal(js.Bytes(), &dims); err != nil {
		t.Fatal(err)
	}
	if dims["requests"].Total != 3 || dims["requests"].Top[0].Key != "alice" {
		t.Fatalf("JSON requests dim = %+v", dims["requests"])
	}
}

// --- vec cardinality bounds ---

func TestVecCardinalityBound(t *testing.T) {
	v := NewCounterVec("tenant")
	for i := 0; i < DefaultMaxChildren+6; i++ {
		v.With(fmt.Sprintf("t%d", i)).Inc()
	}
	if folds := v.Folds(); folds != 6 {
		t.Fatalf("folds = %d, want 6", folds)
	}
	// All folded increments share the "other" child.
	if got := v.With(VecOverflowValue).Load(); got != 6 {
		t.Fatalf("overflow child = %d, want 6", got)
	}
	// Existing children keep working past the cap.
	v.With("t0").Inc()
	if got := v.With("t0").Load(); got != 2 {
		t.Fatalf("t0 = %d, want 2", got)
	}
	reg := NewRegistry()
	reg.RegisterCounterVec("uc_test_bound_total", "t", v)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `uc_test_bound_total{tenant="other"} 6`) {
		t.Fatalf("overflow child not exported")
	}

	h := NewHistogramVec(SizeBuckets(), 1, "route")
	for i := 0; i < DefaultMaxChildren+2; i++ {
		h.With(fmt.Sprintf("r%d", i)).Observe(1)
	}
	if h.Folds() != 2 {
		t.Fatalf("hist folds = %d, want 2", h.Folds())
	}
	if h.With(VecOverflowValue).Count() != 2 {
		t.Fatalf("hist overflow count = %d, want 2", h.With(VecOverflowValue).Count())
	}

	g := NewGaugeVec("node")
	for i := 0; i < DefaultMaxChildren; i++ {
		g.With(fmt.Sprintf("n%d", i)).Set(1)
	}
	g.With("past-the-cap").Set(9)
	if g.Folds() != 1 || g.With(VecOverflowValue).Load() != 9 {
		t.Fatalf("gauge fold broken: folds=%d other=%d", g.Folds(), g.With(VecOverflowValue).Load())
	}
}

func TestVecBoundConcurrent(t *testing.T) {
	v := NewCounterVec("k")
	const keys = DefaultMaxChildren + 200
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				v.With(fmt.Sprintf("key-%d", (i+g*97)%keys)).Inc()
			}
		}(g)
	}
	wg.Wait()
	// Every increment landed somewhere: tracked children + overflow == all.
	var sum int64
	for _, k := range v.sortedKeys() {
		v.mu.RLock()
		sum += v.children[k].Load()
		v.mu.RUnlock()
	}
	if sum != 8*keys {
		t.Fatalf("sum over children = %d, want %d", sum, 8*keys)
	}
	if n := len(v.sortedKeys()); n != DefaultMaxChildren+1 || v.Folds() == 0 {
		t.Fatalf("%d children and %d folds, want the cap plus the overflow child, and folds", n, v.Folds())
	}
}

// --- exemplars ---

func TestHistogramExemplars(t *testing.T) {
	h := NewLatencyHistogram()
	h.ObserveT(1500, "")             // unsampled: no exemplar
	h.ObserveT(2500, "abc123def456") // sampled
	reg := NewRegistry()
	reg.RegisterHistogram("uc_test_seconds", "t", h)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, `# {trace_id="abc123def456"}`) {
		t.Fatalf("exemplar missing:\n%s", out)
	}
	// Exactly one bucket carries it (the 2500ns one), and the unsampled
	// observation produced none.
	if n := strings.Count(out, "# {trace_id="); n != 1 {
		t.Fatalf("exemplar count = %d, want 1", n)
	}
}

// --- flight recorder ---

func TestFlightRecorderTripFreezesWindow(t *testing.T) {
	tr := NewTracer(1, 0) // retains every trace
	fr := NewFlightRecorder(tr)
	var lag int64
	fr.AddSnapshot("lag", func() any { return lag })
	fr.AddCheck("staleness", func() (bool, string) {
		if lag > 5 {
			return true, fmt.Sprintf("version lag %d", lag)
		}
		return false, ""
	})

	for i := 0; i < 3; i++ {
		tt := startTrace(tr)
		_, sp := tr.Root(tt).Start("work")
		sp.End()
		tr.Finish(tt, fmt.Sprintf("op-%d", i))
	}

	fr.Poll() // healthy
	if fr.Incident() != nil {
		t.Fatal("tripped while healthy")
	}
	lag = 10
	fr.Poll() // trips
	inc := fr.Incident()
	if inc == nil {
		t.Fatal("watchdog did not trip")
	}
	if inc.Check != "staleness" || !strings.Contains(inc.Reason, "version lag 10") {
		t.Fatalf("incident = %+v", inc)
	}
	// Pre-incident window: both the healthy and the tripping frame, and the
	// traces the tracer retained before the trip, each with its span tree.
	if len(inc.Frames) != 2 {
		t.Fatalf("incident frames = %d, want 2", len(inc.Frames))
	}
	if inc.Frames[0].Snapshots["lag"] != int64(0) {
		t.Fatalf("first frame lag = %v, want healthy 0", inc.Frames[0].Snapshots["lag"])
	}
	if len(inc.Traces) != 3 || inc.Traces[0].Op != "op-2" || inc.Traces[2].Op != "op-0" {
		t.Fatalf("incident traces = %+v, want 3 ops newest-first", inc.Traces)
	}
	for _, ts := range inc.Traces {
		if len(ts.ID) != 16 || len(ts.Spans) != 1 || ts.Spans[0].Name != "work" {
			t.Fatalf("frozen trace %+v: want a 16-hex ID and its span tree", ts)
		}
	}

	// Frozen: later frames and traces must not mutate the incident.
	lag = 100
	tr.Finish(startTrace(tr), "after")
	fr.Poll()
	if got := fr.Incident(); len(got.Frames) != 2 || len(got.Traces) != 3 {
		t.Fatalf("incident mutated after freeze: %d frames, %d traces", len(got.Frames), len(got.Traces))
	}
	fr.Rearm()
	if fr.Incident() != nil {
		t.Fatal("Rearm left the incident")
	}
	// Rearmed and still breaching: the next poll trips fresh, with the
	// trace retained since.
	fr.Poll()
	if got := fr.Incident(); got == nil || len(got.Traces) != 4 || got.Traces[0].Op != "after" {
		t.Fatalf("re-trip after rearm = %+v", got)
	}

	var buf bytes.Buffer
	if err := fr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var state struct {
		Armed    bool `json:"armed"`
		Incident *struct {
			Traces []struct {
				ID    string     `json:"trace_id"`
				Spans []SpanView `json:"spans"`
			} `json:"traces"`
		} `json:"incident"`
	}
	if err := json.Unmarshal(buf.Bytes(), &state); err != nil {
		t.Fatal(err)
	}
	if state.Armed || state.Incident == nil || len(state.Incident.Traces) != 4 || len(state.Incident.Traces[1].Spans) != 1 {
		t.Fatalf("WriteJSON lacks the incident's traces and their spans:\n%s", buf.String())
	}
}

func TestFlightRecorderRings(t *testing.T) {
	tr := NewTracer(1, 0)
	fr := NewFlightRecorder(tr)
	var n int
	fr.AddSnapshot("n", func() any { n++; return n })
	for i := 0; i < flightFrames+5; i++ {
		fr.Poll()
	}
	for i := 0; i < keepTraces+5; i++ {
		tr.Finish(startTrace(tr), fmt.Sprintf("op-%d", i))
	}
	fr.AddCheck("always", func() (bool, string) { return true, "boom" })
	fr.Poll()
	inc := fr.Incident()
	// The frame ring keeps the last flightFrames polls, oldest first.
	if len(inc.Frames) != flightFrames {
		t.Fatalf("frame ring kept %d, want %d", len(inc.Frames), flightFrames)
	}
	if first, last := inc.Frames[0].Snapshots["n"], inc.Frames[flightFrames-1].Snapshots["n"]; first != 7 || last != flightFrames+6 {
		t.Fatalf("frame ring order wrong: first %v, last %v", first, last)
	}
	// The traces are the tracer's ring: its last keepTraces, newest first.
	if len(inc.Traces) != keepTraces {
		t.Fatalf("incident froze %d traces, want %d", len(inc.Traces), keepTraces)
	}
	if inc.Traces[0].Op != fmt.Sprintf("op-%d", keepTraces+4) || inc.Traces[keepTraces-1].Op != "op-5" {
		t.Fatalf("trace ring order wrong: %s .. %s", inc.Traces[0].Op, inc.Traces[keepTraces-1].Op)
	}
}

func TestFlightRecorderStartStop(t *testing.T) {
	fr := NewFlightRecorder(NewTracer(0, 0))
	fr.AddSnapshot("x", func() any { return 1 })
	fr.Start(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		var buf bytes.Buffer
		_ = fr.WriteJSON(&buf)
		if strings.Contains(buf.String(), `"snapshots"`) && strings.Contains(buf.String(), `"x": 1`) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	fr.Stop()
	fr.Stop() // idempotent
}

// TestFlightRecorderConcurrentFinishPoll: requests finishing (and being
// retained into the tracer's ring) race polls that trip, freeze and rearm.
// Run under -race on make race's -count=20 line.
func TestFlightRecorderConcurrentFinishPoll(t *testing.T) {
	tr := NewTracer(4, 0)
	fr := NewFlightRecorder(tr)
	fr.AddCheck("always", func() (bool, string) { return true, "boom" })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tt := startTrace(tr)
				_, sp := tr.Root(tt).Start("w")
				sp.End()
				tr.Finish(tt, "concurrent")
			}
		}()
	}
	done := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-done:
				return
			default:
				fr.Poll()
				if inc := fr.Incident(); inc != nil {
					for _, ts := range inc.Traces {
						if ts.Op != "concurrent" || len(ts.Spans) != 1 {
							t.Errorf("frozen trace %+v", ts)
						}
					}
				}
				fr.Rearm()
			}
		}
	}()
	wg.Wait()
	close(done)
	<-polled
	fr.Poll()
	if inc := fr.Incident(); inc == nil || len(inc.Traces) != keepTraces {
		t.Fatalf("after 1,600 requests sampled 1 in 4, the incident froze %+v, want a full ring", inc)
	}
	var buf bytes.Buffer
	if err := fr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// --- windowed SLO quantiles ---

func TestHistogramWindowDelta(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(1e6) // 1ms burst in the past
	}
	w := &histogramWindow{h: h, prev: h.Counts()}
	q, n := w.advance(0.99)
	if n != 0 || q != 0 {
		t.Fatalf("fresh window saw history: q=%v n=%d", q, n)
	}
	for i := 0; i < 10; i++ {
		h.Observe(4e8) // 400ms in this window
	}
	q, n = w.advance(0.99)
	if n != 10 {
		t.Fatalf("window count = %d, want 10", n)
	}
	if q < 2e8 || q > 5e8 {
		t.Fatalf("windowed p99 = %v ns, want ~4e8", q)
	}
	// Window advanced: the burst is history now.
	if _, n = w.advance(0.99); n != 0 {
		t.Fatalf("window did not advance, n=%d", n)
	}
}

func TestSLOCheckTripsOnWindowedP99(t *testing.T) {
	vec := NewHistogramVec(LatencyBuckets(), 1e-9, "route")
	vec.With("GET /fast").Observe(1e5)
	check := SLOCheck(vec, 0.99, 50*1e6) // 50ms budget
	// First poll sees whole history — fast route stays under budget.
	if bad, _ := check(); bad {
		t.Fatal("tripped on fast route")
	}
	for i := 0; i < 20; i++ {
		vec.With("GET /slow").Observe(4e8)
	}
	bad, reason := check()
	if !bad {
		t.Fatal("did not trip on slow route")
	}
	if !strings.Contains(reason, "GET /slow") {
		t.Fatalf("reason %q does not name route", reason)
	}
	// Breach is windowed: with no new slow observations the next poll is clean.
	if bad, _ := check(); bad {
		t.Fatal("stale breach re-tripped")
	}
}
