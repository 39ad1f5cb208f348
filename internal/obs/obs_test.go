package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.SetMax(5)
	if got := g.Load(); got != 7 {
		t.Fatalf("SetMax lowered gauge: %d", got)
	}
	g.SetMax(11)
	if got := g.Load(); got != 11 {
		t.Fatalf("SetMax = %d, want 11", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 50, 100}, 1)
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %d", h.Sum())
	}
	p50 := h.Quantile(0.50)
	if p50 < 20 || p50 > 60 {
		t.Fatalf("p50 = %v, want within bucket (20,50]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 50 || p99 > 100 {
		t.Fatalf("p99 = %v, want within bucket (50,100]", p99)
	}
	snap := h.Snapshot()
	if snap.Count != 100 || snap.P95 < snap.P50 || snap.P99 < snap.P95 {
		t.Fatalf("snapshot not monotone: %+v", snap)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.ObserveDuration(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

func TestRegistryPrometheusText(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(42)
	r.RegisterCounter("uc_test_ops_total", "Test ops.", &c)
	var g Gauge
	g.Set(-7)
	r.RegisterGauge("uc_test_depth", "Test depth.", &g)
	r.RegisterCounterFunc("uc_test_reads_total", "Reads.", func() int64 { return 9 })
	r.RegisterGaugeFunc("uc_test_frac", "Fraction.", func() float64 { return 0.25 })

	h := NewHistogram([]int64{1000, 2000}, 1e-9)
	h.Observe(500)
	h.Observe(1500)
	h.Observe(9999)
	r.RegisterHistogram("uc_test_latency_seconds", "Latency.", h)

	cv := NewCounterVec("route", "code")
	cv.With("/tables", "200").Add(3)
	cv.With("/tables", "404").Inc()
	r.RegisterCounterVec("uc_test_requests_total", "Requests.", cv)

	hv := NewHistogramVec([]int64{1000}, 1e-9, "route")
	hv.With("/tables").Observe(100)
	r.RegisterHistogramVec("uc_test_route_seconds", "Route latency.", hv)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()

	for _, want := range []string{
		"# HELP uc_test_ops_total Test ops.",
		"# TYPE uc_test_ops_total counter",
		"uc_test_ops_total 42",
		"uc_test_depth -7",
		"uc_test_reads_total 9",
		"uc_test_frac 0.25",
		"# TYPE uc_test_latency_seconds histogram",
		`uc_test_latency_seconds_bucket{le="1e-06"} 1`,
		`uc_test_latency_seconds_bucket{le="2e-06"} 2`,
		`uc_test_latency_seconds_bucket{le="+Inf"} 3`,
		"uc_test_latency_seconds_count 3",
		`uc_test_requests_total{route="/tables",code="200"} 3`,
		`uc_test_requests_total{route="/tables",code="404"} 1`,
		`uc_test_route_seconds_bucket{route="/tables",le="1e-06"} 1`,
		`uc_test_route_seconds_count{route="/tables"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	var c Counter
	r.RegisterCounter("uc_dup_total", "x", &c)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	r.RegisterCounter("uc_dup_total", "x", &c)
}

func TestTraceSpanTree(t *testing.T) {
	tr := NewTracer(1, 0) // retain everything
	trace := startTrace(tr)
	root := tr.Root(trace)

	sc, s1 := root.Start("catalog.get")
	sc2, s2 := sc.StartDetail("cache.getmiss", "tables/t1")
	_, s3 := sc2.Start("store.read")
	s3.End()
	s2.End()
	s1.End()
	_, s4 := root.Start("audit.append")
	s4.End()

	id := trace.ID()
	if len(id) != 16 {
		t.Fatalf("trace id %q, want 16 hex chars", id)
	}
	tr.Finish(trace, "GET /test")

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("retained %d traces, want 1", len(recent))
	}
	sum := recent[0]
	if sum.ID != id || sum.Op != "GET /test" {
		t.Fatalf("summary mismatch: %+v", sum)
	}
	if len(sum.Spans) != 2 {
		t.Fatalf("root spans = %d, want 2", len(sum.Spans))
	}
	if sum.Spans[0].Name != "catalog.get" || sum.Spans[1].Name != "audit.append" {
		t.Fatalf("root order: %q, %q", sum.Spans[0].Name, sum.Spans[1].Name)
	}
	mid := sum.Spans[0].Children
	if len(mid) != 1 || mid[0].Name != "cache.getmiss" || mid[0].Detail != "tables/t1" {
		t.Fatalf("child span wrong: %+v", mid)
	}
	if len(mid[0].Children) != 1 || mid[0].Children[0].Name != "store.read" {
		t.Fatalf("grandchild span wrong: %+v", mid[0].Children)
	}
}

func TestTraceSamplingAndSlowRetention(t *testing.T) {
	tr := NewTracer(0, 5*time.Millisecond) // slow-only retention
	fast := startTrace(tr)
	tr.Finish(fast, "fast")
	if got := len(tr.Recent()); got != 0 {
		t.Fatalf("fast trace retained: %d", got)
	}
	slow := startTrace(tr)
	slow.begun = time.Now().Add(-10 * time.Millisecond)
	tr.Finish(slow, "slow")
	recent := tr.Recent()
	if len(recent) != 1 || !recent[0].Slow {
		t.Fatalf("slow trace not retained: %+v", recent)
	}
}

func TestTracerRingBuffer(t *testing.T) {
	tr := NewTracer(1, 0)
	if got := tr.Recent(); got == nil || len(got) != 0 {
		t.Fatalf("empty ring = %#v, want an empty non-nil slice (/debug/traces writes [])", got)
	}
	for i := 0; i < keepTraces+10; i++ {
		tr.Finish(startTrace(tr), "op", strconv.Itoa(i))
	}
	recent := tr.Recent()
	if len(recent) != keepTraces {
		t.Fatalf("ring kept %d, want %d", len(recent), keepTraces)
	}
	for i, ts := range recent {
		if want := "op " + strconv.Itoa(keepTraces+9-i); ts.Op != want {
			t.Fatalf("recent[%d].Op = %q, want %q (newest first)", i, ts.Op, want)
		}
	}
}

func TestSpanOverflowIsSafe(t *testing.T) {
	tr := NewTracer(1, 0)
	trace := startTrace(tr)
	root := tr.Root(trace)
	for i := 0; i < maxSpans+20; i++ {
		_, s := root.Start("span")
		s.End()
	}
	tr.Finish(trace, "deep")
	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("retained %d", len(recent))
	}
	if recent[0].Dropped != 20 {
		t.Fatalf("dropped = %d, want 20", recent[0].Dropped)
	}
	if len(recent[0].Spans) != maxSpans {
		t.Fatalf("spans = %d, want %d", len(recent[0].Spans), maxSpans)
	}
}

func TestZeroSpanContextIsNoOp(t *testing.T) {
	var sc SpanContext
	if sc.Active() {
		t.Fatal("zero SpanContext active")
	}
	if sc.TraceID() != "" {
		t.Fatal("zero SpanContext has ID")
	}
	sc2, s := sc.Start("noop")
	if sc2.Active() {
		t.Fatal("child of zero SpanContext active")
	}
	s.End()
	s.SetDetail("ignored")
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTracer(1, 0)
	trace := startTrace(tr)
	root := tr.Root(trace)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				_, s := root.Start("par")
				s.End()
			}
		}()
	}
	wg.Wait()
	tr.Finish(trace, "parallel")
	if len(tr.Recent()) != 1 {
		t.Fatal("parallel trace lost")
	}
}

// TestTraceIDAllocs: a trace that is started, asked for its ID twice and
// finished unretained allocates nothing: a local one mints its ID into the
// bytes its starter lends, a propagated one adopts the caller's string. The
// ID reads the lent bytes, and a pooled trace lets go of them.
func TestTraceIDAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the tracer's pool drops traces under the race detector")
	}
	tr := NewTracer(0, 0)
	var id [TraceIDLen]byte
	run := func(pc PropagationContext) float64 {
		return testing.AllocsPerRun(100, func() {
			trace := tr.Start(pc, &id)
			if trace.ID() == "" || trace.ID() != trace.ID() {
				t.Fatal("no stable trace ID")
			}
			tr.Finish(trace)
		})
	}
	if a := run(PropagationContext{}); a != 0 {
		t.Errorf("a local trace's ID costs %v allocations, want 0", a)
	}
	if a := run(PropagationContext{TraceID: "deadbeef00000001"}); a != 0 {
		t.Errorf("a propagated trace's ID costs %v allocations, want 0", a)
	}
	trace := tr.Start(PropagationContext{}, &id)
	if got := trace.ID(); got != string(id[:]) || len(got) != TraceIDLen || unsafe.StringData(got) != &id[0] {
		t.Fatalf("trace ID %q does not read the lent bytes %q", got, id[:])
	}
	tr.Finish(trace)
	if trace.id != "" {
		t.Fatal("a trace back in the pool still reads its starter's bytes")
	}
}

// startTrace starts a local trace whose ID has bytes of its own.
func startTrace(tr *Tracer) *Trace { return tr.Start(PropagationContext{}, new([TraceIDLen]byte)) }

// TestCounterVecWithAllocs: the per-request lookup of an existing child
// builds no key string, whatever the number of labels.
func TestCounterVecWithAllocs(t *testing.T) {
	v := NewCounterVec("route", "code")
	v.With("GET /assets/{name...}", "200").Inc()
	if v.With("GET /assets/{name...}", "200").Load() != 1 {
		t.Fatal("With did not return the same child")
	}
	if a := testing.AllocsPerRun(100, func() { v.With("GET /assets/{name...}", "200").Inc() }); a != 0 {
		t.Fatalf("CounterVec.With allocates %v times on a hit, want 0", a)
	}
	// A key longer than the stack buffer is still the same key.
	long := strings.Repeat("r", 100)
	v.With(long, "404").Add(2)
	if got := v.With(long, "404").Load(); got != 2 {
		t.Fatalf("long key: child holds %d, want 2", got)
	}
}
