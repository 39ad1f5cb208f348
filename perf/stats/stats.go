// Package stats holds the benchmark's arithmetic: percentiles, the
// sub-window rule for tail latency, counter deltas and the parser for the
// program's /metrics text.
package stats

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule; 0 when sorted is empty.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// Median sorts a copy of xs and returns its 50th percentile: by the
// nearest-rank rule the lower of the two middle values when the count is even.
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Percentile(s, 50)
}

// Sample is one timed request: when it ended, relative to the start of the
// window, and how long it took, both in nanoseconds.
type Sample struct{ End, Dur int64 }

// TailMinBeyond is how many samples must lie beyond a percentile for it to be
// reported (choosing-metrics: "the highest percentile that has at least ten
// samples beyond it").
const TailMinBeyond = 10

// SubWindowTail splits a window of windowNs into sub-windows of about subNs,
// takes the p-th percentile of each and returns their median in
// microseconds, with the number of sub-windows used. One noisy-neighbour
// burst then moves one sub-window, not the result. Sub-windows are merged
// (fewer, longer ones) until each holds TailMinBeyond samples beyond p; a
// window with too few samples even as a whole is reported as one sub-window
// all the same, and an empty one as 0, 0.
func SubWindowTail(samples []Sample, windowNs, subNs int64, p float64) (us float64, subWindows int) {
	if len(samples) == 0 {
		return 0, 0
	}
	for n := int(max(windowNs/subNs, 1)); ; n-- {
		buckets := make([][]float64, n)
		for _, s := range samples {
			i := int(s.End * int64(n) / windowNs)
			i = min(max(i, 0), n-1)
			buckets[i] = append(buckets[i], float64(s.Dur))
		}
		enough := true
		tails := make([]float64, n)
		for i, b := range buckets {
			if float64(len(b))*(100-p)/100 < TailMinBeyond {
				enough = false
			}
			sort.Float64s(b)
			tails[i] = Percentile(b, p)
		}
		if enough || n == 1 {
			return Median(tails) / 1e3, n
		}
	}
}

// Ratio is a/b, or 0 when b is 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Metrics is one scrape of /metrics: series (name plus label set, exactly as
// exposed) to value.
type Metrics map[string]float64

// ParseMetrics reads Prometheus text exposition. Comment lines are skipped
// and an exemplar suffix (" # {trace_id=...} ...") is ignored.
func ParseMetrics(r io.Reader) (Metrics, error) {
	m := Metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// Delta returns after-before for one series.
func (m Metrics) Delta(before Metrics, series string) float64 { return m[series] - before[series] }

// SumDelta adds the deltas of every series whose name starts with prefix and
// whose label set contains all of contains.
func (m Metrics) SumDelta(before Metrics, prefix string, contains ...string) float64 {
	sum := 0.0
next:
	for k, v := range m {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		for _, c := range contains {
			if !strings.Contains(k, c) {
				continue next
			}
		}
		sum += v - before[k]
	}
	return sum
}

// HistogramQuantile estimates the q-th quantile (0 < q < 1) of what a
// histogram observed between two scrapes, interpolating inside the bucket,
// in the histogram's exposed unit. 0 when nothing was observed.
func (m Metrics) HistogramQuantile(before Metrics, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range m {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		les := strings.TrimSuffix(k[len(prefix):], `"}`)
		le := math.Inf(1)
		if les != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(les, 64); err != nil {
				continue
			}
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].n
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.n >= target {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*Ratio(target-below, b.n-below)
		}
		lo, below = b.le, b.n
	}
	return lo
}
