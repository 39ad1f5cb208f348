package obs

import (
	"testing"
	"time"
)

// Microbenchmarks for the always-on tracing primitives: the grid in
// internal/bench measures them embedded in real request paths; these
// isolate the per-trace and per-span floor.

func BenchmarkTraceLifecycle(b *testing.B) {
	tr := NewTracer(0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := startTrace(tr)
		tr.Finish(t, "bench")
	}
}

func BenchmarkTraceLifecycleWithID(b *testing.B) {
	tr := NewTracer(0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := startTrace(tr)
		_ = t.ID()
		tr.Finish(t, "bench")
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	tr := NewTracer(0, 0)
	t := startTrace(tr)
	defer tr.Finish(t, "bench")
	sc := tr.Root(t)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := sc.Start("bench.span")
		sp.End()
	}
}

func BenchmarkTimeNow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = time.Now()
	}
}
