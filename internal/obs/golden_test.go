package obs

import (
	"fmt"
	"strings"
	"testing"
)

// TestExpositionGolden holds /metrics text to exact bytes: one family of
// every kind, each labelled family filled to DefaultMaxChildren and then
// given one combination more, which folds into the "other" child. The
// benchmark scrapes this text, so any change to it is a change of format.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(42)
	r.RegisterCounter("uc_g_ops_total", "Ops.", &c)
	var g Gauge
	g.Set(-7)
	r.RegisterGauge("uc_g_depth", "Depth.", &g)
	r.RegisterCounterFunc("uc_g_reads_total", "Reads.", func() int64 { return 9 })
	r.RegisterGaugeFunc("uc_g_frac", "Fraction.", func() float64 { return 0.25 })
	h := NewHistogram([]int64{1000, 2000}, 1e-9)
	h.Observe(500)
	h.ObserveT(1500, "t1")
	h.Observe(9999)
	r.RegisterHistogram("uc_g_seconds", "Latency.", h)

	cv := NewCounterVec("route", "code")
	cv.With("/tables", "200").Add(3)
	cv.With("/a\"b\\c\nd", "500").Inc()
	for i := 0; i < DefaultMaxChildren-2; i++ {
		cv.With(fmt.Sprintf("f%04d", i), "200")
	}
	cv.With("past", "200").Add(5)
	r.RegisterCounterVec("uc_g_requests_total", "Requests.", cv)

	gv := NewGaugeVec("node")
	gv.With("n1").Set(-3)
	for i := 0; i < DefaultMaxChildren-1; i++ {
		gv.With(fmt.Sprintf("f%04d", i))
	}
	gv.With("past").Set(9)
	r.RegisterGaugeVec("uc_g_allocs", "Allocs.", gv)

	hv := NewHistogramVec([]int64{1000}, 1e-9, "route")
	hv.With("/tables").ObserveT(100, "t2")
	hv.With("/tables").Observe(5000)
	for i := 0; i < DefaultMaxChildren-1; i++ {
		hv.With(fmt.Sprintf("f%04d", i))
	}
	hv.With("past").Observe(700)
	r.RegisterHistogramVec("uc_g_route_seconds", "Route latency.", hv)

	var want strings.Builder
	want.WriteString(`# HELP uc_g_ops_total Ops.
# TYPE uc_g_ops_total counter
uc_g_ops_total 42
# HELP uc_g_depth Depth.
# TYPE uc_g_depth gauge
uc_g_depth -7
# HELP uc_g_reads_total Reads.
# TYPE uc_g_reads_total counter
uc_g_reads_total 9
# HELP uc_g_frac Fraction.
# TYPE uc_g_frac gauge
uc_g_frac 0.25
# HELP uc_g_seconds Latency.
# TYPE uc_g_seconds histogram
uc_g_seconds_bucket{le="1e-06"} 1
uc_g_seconds_bucket{le="2e-06"} 2 # {trace_id="t1"} 1.5e-06
uc_g_seconds_bucket{le="+Inf"} 3
uc_g_seconds_sum 1.1999e-05
uc_g_seconds_count 3
# HELP uc_g_requests_total Requests.
# TYPE uc_g_requests_total counter
uc_g_requests_total{route="/a\"b\\c\nd",code="500"} 1
uc_g_requests_total{route="/tables",code="200"} 3
`)
	for i := 0; i < DefaultMaxChildren-2; i++ {
		fmt.Fprintf(&want, "uc_g_requests_total{route=\"f%04d\",code=\"200\"} 0\n", i)
	}
	want.WriteString(`uc_g_requests_total{route="other",code="other"} 5
# HELP uc_g_allocs Allocs.
# TYPE uc_g_allocs gauge
`)
	for i := 0; i < DefaultMaxChildren-1; i++ {
		fmt.Fprintf(&want, "uc_g_allocs{node=\"f%04d\"} 0\n", i)
	}
	want.WriteString(`uc_g_allocs{node="n1"} -3
uc_g_allocs{node="other"} 9
# HELP uc_g_route_seconds Route latency.
# TYPE uc_g_route_seconds histogram
uc_g_route_seconds_bucket{route="/tables",le="1e-06"} 1 # {trace_id="t2"} 1e-07
uc_g_route_seconds_bucket{route="/tables",le="+Inf"} 2
uc_g_route_seconds_sum{route="/tables"} 5.1e-06
uc_g_route_seconds_count{route="/tables"} 2
`)
	for i := 0; i < DefaultMaxChildren-1; i++ {
		fmt.Fprintf(&want, `uc_g_route_seconds_bucket{route="f%04d",le="1e-06"} 0
uc_g_route_seconds_bucket{route="f%04d",le="+Inf"} 0
uc_g_route_seconds_sum{route="f%04d"} 0
uc_g_route_seconds_count{route="f%04d"} 0
`, i, i, i, i)
	}
	want.WriteString(`uc_g_route_seconds_bucket{route="other",le="1e-06"} 1
uc_g_route_seconds_bucket{route="other",le="+Inf"} 1
uc_g_route_seconds_sum{route="other"} 7e-07
uc_g_route_seconds_count{route="other"} 1
`)

	var got strings.Builder
	r.WritePrometheus(&got)
	if got.String() == want.String() {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, want %d", len(gl), len(wl))
}

// TestQuantileOfAQuiescentHistogram holds Histogram.Quantile to the figures
// its bucket interpolation gives a histogram nobody is writing to, the
// overflow bucket included.
func TestQuantileOfAQuiescentHistogram(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 50, 100}, 1)
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	for range 20 {
		h.Observe(1000)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 60}, {0.95, 170}, {0.99, 194}} {
		if got := h.Quantile(c.p); got != c.want {
			t.Errorf("p%g = %v, want %v", 100*c.p, got, c.want)
		}
	}
}
