package obs

import (
	"testing"
	"time"
)

// The numbers that matter here: a counter inc and an enabled-but-unsampled
// span pair are what every hot-path call ssite pays when telemetry is on.
// The budget (DESIGN.md Telemetry) is ≤5% of the service-level deep-Check
// and group-commit paths, which run microseconds — so these must stay in
// the tens of nanoseconds with zero allocations.

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewLatencyHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i%1000) * 1000)
	}
}

func BenchmarkSpanStartEndDisabled(b *testing.B) {
	var sc SpanContext // tracing off: the common production default
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, s := sc.Start("op")
		s.End()
	}
}

func BenchmarkSpanStartEndEnabled(b *testing.B) {
	tr := NewTracer(0, 0) // enabled but never retained
	b.ReportAllocs()
	trace := startTrace(tr)
	sc := tr.Root(trace)
	for i := 0; i < b.N; i++ {
		if i%32 == 0 { // recycle before the span buffer caps
			tr.Finish(trace, "bench")
			trace = startTrace(tr)
			sc = tr.Root(trace)
		}
		_, s := sc.Start("op")
		s.End()
	}
	tr.Finish(trace, "bench")
}

func BenchmarkTraceLifecycleUnsampled(b *testing.B) {
	tr := NewTracer(0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := startTrace(tr)
		sc := tr.Root(t)
		_, s := sc.Start("req")
		s.End()
		tr.Finish(t, "bench")
	}
}

func BenchmarkTraceLifecycleSlowRetained(b *testing.B) {
	tr := NewTracer(0, time.Nanosecond) // everything counts as slow
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := startTrace(tr)
		sc := tr.Root(t)
		_, s := sc.Start("req")
		s.End()
		tr.Finish(t, "bench")
	}
}
