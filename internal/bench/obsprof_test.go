package bench

import (
	"testing"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/obs"
)

// Paired go-bench entry points for the deep_check grid cells, so the traced
// overhead can be profiled with -cpuprofile when it drifts.

func benchDeepCheck(b *testing.B, traced bool) {
	svc, reader, _, err := authzService(64)
	if err != nil {
		b.Fatal(err)
	}
	tracer := obs.NewTracer(0, 0)
	get := func(ctx catalog.Ctx) {
		if _, err := svc.GetAsset(ctx, "cat.big.t00001"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if traced {
			t := tracer.StartTrace()
			ctx := reader
			ctx.Trace = tracer.Root(t)
			get(ctx)
			tracer.Finish(t, "bench.deep_check")
		} else {
			get(reader)
		}
	}
}

func BenchmarkObsDeepCheckOff(b *testing.B)    { benchDeepCheck(b, false) }
func BenchmarkObsDeepCheckTraced(b *testing.B) { benchDeepCheck(b, true) }
