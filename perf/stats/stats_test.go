package stats

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty input must give 0")
	}
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("Median = %v, want 5", got)
	}
}

// window builds n samples per sub-window of 1s over secs seconds, all of
// duration base except that sub-window burst is ten times slower.
func window(secs, n int, base int64, burst int) []Sample {
	var out []Sample
	for s := 0; s < secs; s++ {
		for i := 0; i < n; i++ {
			d := base + int64(i)
			if s == burst {
				d *= 10
			}
			out = append(out, Sample{End: int64(s)*1e9 + int64(i)*1e9/int64(n), Dur: d})
		}
	}
	return out
}

func TestSubWindowTailIgnoresOneBurst(t *testing.T) {
	// 8 sub-windows of 2,000 samples; one of them is ten times slower. The
	// whole-window p99 would sit inside the burst; the sub-window median
	// does not.
	ss := window(8, 2000, 100_000, 3)
	us, n := SubWindowTail(ss, 8e9, 1e9, 99)
	if n != 8 {
		t.Fatalf("used %d sub-windows, want 8", n)
	}
	if us < 100 || us > 103 {
		t.Errorf("tail = %.1f us, want about 102", us)
	}
}

func TestSubWindowTailMergesUntilEnoughSamples(t *testing.T) {
	// 150 samples a second: p99 needs 1,000 per sub-window, so 8 seconds
	// merge into one sub-window; p90 needs 100, so all 8 stand.
	ss := window(8, 150, 1000, -1)
	if _, n := SubWindowTail(ss, 8e9, 1e9, 99); n != 1 {
		t.Errorf("p99 used %d sub-windows, want 1", n)
	}
	if _, n := SubWindowTail(ss, 8e9, 1e9, 90); n != 8 {
		t.Errorf("p90 used %d sub-windows, want 8", n)
	}
	if us, n := SubWindowTail(ss[:50], 8e9, 1e9, 99); us == 0 || n != 1 {
		t.Errorf("too few samples: want the whole window's percentile, got %v over %d", us, n)
	}
	if us, n := SubWindowTail(nil, 8e9, 1e9, 99); us != 0 || n != 0 {
		t.Errorf("no samples must report nothing, got %v over %d", us, n)
	}
}

const scrapeA = `# HELP uc_cache_hits_total Cache hits.
# TYPE uc_cache_hits_total counter
uc_cache_hits_total 100
uc_http_requests_total{route="GET /x",code="200"} 40
uc_http_requests_total{route="GET /x",code="304"} 10
uc_lat_seconds_bucket{le="0.001"} 0
uc_lat_seconds_bucket{le="0.002"} 0
uc_lat_seconds_bucket{le="+Inf"} 0
uc_lat_seconds_count 0
`

const scrapeB = `uc_cache_hits_total 175
uc_http_requests_total{route="GET /x",code="200"} 100
uc_http_requests_total{route="GET /x",code="304"} 50
uc_http_requests_total{route="POST /y",code="204"} 5
uc_lat_seconds_bucket{le="0.001"} 10 # {trace_id="abc"} 0.0005 1700000000
uc_lat_seconds_bucket{le="0.002"} 30
uc_lat_seconds_bucket{le="+Inf"} 40
uc_lat_seconds_sum 0.05
uc_lat_seconds_count 40
uc_gauge 1.5e+06
`

func TestParseMetricsAndDeltas(t *testing.T) {
	a, err := ParseMetrics(strings.NewReader(scrapeA))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseMetrics(strings.NewReader(scrapeB))
	if err != nil {
		t.Fatal(err)
	}
	if b["uc_gauge"] != 1.5e6 {
		t.Errorf("gauge = %v", b["uc_gauge"])
	}
	if got := b[`uc_lat_seconds_bucket{le="0.001"}`]; got != 10 {
		t.Errorf("exemplar suffix not ignored: %v", got)
	}
	if got := b.Delta(a, "uc_cache_hits_total"); got != 75 {
		t.Errorf("Delta = %v, want 75", got)
	}
	if got := b.SumDelta(a, "uc_http_requests_total{"); got != 105 {
		t.Errorf("SumDelta(all) = %v, want 105", got)
	}
	if got := b.SumDelta(a, "uc_http_requests_total{", `code="304"`); got != 40 {
		t.Errorf("SumDelta(304) = %v, want 40", got)
	}
	// 40 observations: 10 up to 1 ms, 20 more up to 2 ms; the median (20th)
	// lies halfway through the second bucket.
	if got := b.HistogramQuantile(a, "uc_lat_seconds", 0.5); math.Abs(got-0.0015) > 1e-9 {
		t.Errorf("HistogramQuantile = %v, want 0.0015", got)
	}
	if got := a.HistogramQuantile(a, "uc_lat_seconds", 0.5); got != 0 {
		t.Errorf("empty histogram = %v, want 0", got)
	}
	if Ratio(1, 0) != 0 || Ratio(6, 3) != 2 {
		t.Error("Ratio")
	}
}
