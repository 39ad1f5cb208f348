// Package obs is the observability substrate for the whole stack: a
// stdlib-only metrics registry (atomic counters, gauges, and fixed-bucket
// latency histograms with a Prometheus-text exporter) plus request-scoped
// tracing (see trace.go).
//
// Design constraints, in order:
//
//  1. Hot-path cost. A counter increment is one atomic add; a histogram
//     observation is two atomic adds plus a bucket scan over a fixed,
//     small bound set. Nothing on the record path takes a lock, allocates,
//     or formats a string.
//  2. No dependencies. The repo bakes in nothing beyond the Go toolchain,
//     so the registry speaks the Prometheus text exposition format itself
//     rather than importing a client library.
//  3. Components own their metrics; assembly registers them. A Counter is
//     usable as a plain struct field with no registry attached, so packages
//     like cache and store keep their existing Metrics() snapshots working
//     while the server wires the same underlying values into /metrics.
//
// Metric names follow the Prometheus conventions: `uc_` prefix, `_total`
// suffix on counters, base units (seconds) on histograms.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use, registered or not.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exported value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic value that can move in both directions.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// SetMax raises the gauge to n if n is larger. Safe for concurrent use.
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Histogram is a fixed-bucket histogram over int64 observations in a native
// unit (nanoseconds for latencies, entries for sizes). Observations are two
// atomic adds plus one bucket increment; quantiles are estimated from the
// bucket counts by linear interpolation, which is exact enough for the
// p50/p95/p99 operational readouts this repo needs.
type Histogram struct {
	bounds []int64 // ascending upper bounds, native units
	scale  float64 // native unit → exported unit (1e-9 for ns → seconds)
	counts []atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
	// exemplars holds the most recent sampled-trace observation per bucket
	// (OpenMetrics-style), so a p99 bucket on /metrics links to a concrete
	// trace in /debug/traces. Written only for sampled traces (~1/SampleEvery
	// requests), read only at exposition time.
	exemplars []atomic.Pointer[exemplar]
}

type exemplar struct {
	traceID string
	value   int64 // native units
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// scale converts native units to the exported unit (use 1 for unitless
// histograms, 1e-9 for nanosecond latencies exported as seconds).
func NewHistogram(bounds []int64, scale float64) *Histogram {
	h := &Histogram{bounds: bounds, scale: scale}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	h.exemplars = make([]atomic.Pointer[exemplar], len(bounds)+1)
	return h
}

// LatencyBuckets is a 1-2-5 ladder from 1µs to 10s, in nanoseconds.
func LatencyBuckets() []int64 {
	var out []int64
	for _, decade := range []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9} {
		out = append(out, decade, 2*decade, 5*decade)
	}
	return append(out, 1e10)
}

// NewLatencyHistogram builds a nanosecond histogram exported as seconds.
func NewLatencyHistogram() *Histogram { return NewHistogram(LatencyBuckets(), 1e-9) }

// SizeBuckets is a power-of-two ladder 1..1024, for batch sizes and counts.
func SizeBuckets() []int64 {
	var out []int64
	for b := int64(1); b <= 1024; b *= 2 {
		out = append(out, b)
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveDuration records a duration into a nanosecond histogram.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// ObserveT records one value and, when traceID is non-empty (a sampled
// trace), pins it as the bucket's exemplar. The traceID=="" path is
// identical to Observe, keeping the unsampled hot path allocation-free.
func (h *Histogram) ObserveT(v int64, traceID string) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	if traceID != "" {
		h.exemplars[i].Store(&exemplar{traceID: traceID, value: v})
	}
}

// Bounds returns the bucket upper bounds (native units). Callers must not
// mutate the returned slice.
func (h *Histogram) Bounds() []int64 { return h.bounds }

// Counts returns a snapshot of per-bucket counts (len(Bounds())+1; the last
// entry is the overflow bucket). Used by windowed-delta consumers like the
// flight-recorder SLO watchdog.
func (h *Histogram) Counts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations in native units.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile estimates the p-th quantile (0 < p < 1) in native units by
// linear interpolation within the bucket that contains it.
func (h *Histogram) Quantile(p float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			lo := int64(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := lo * 2
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			frac := (rank - float64(cum)) / float64(n)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += n
	}
	return float64(h.bounds[len(h.bounds)-1])
}

// HistogramSnapshot is a point-in-time readout used by health surfaces.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot returns count, sum, and the operational quantiles (native units).
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// --- labeled families ---

// DefaultMaxChildren caps the number of distinct label-value children per
// vec. Labels in this repo are either closed sets (routes, operations) far
// below the cap or already sketched (tenants go through TopK, not labels),
// so hitting the cap means a label was fed unbounded input — the overflow
// folds into a single child with every label value set to VecOverflowValue
// rather than growing the registry (and every scrape) without bound.
const DefaultMaxChildren = 1024

// VecOverflowValue is the label value children folded past the cap share.
const VecOverflowValue = "other"

// vecLimit is the shared cardinality-bounding state embedded in each vec.
type vecLimit struct {
	max   int
	folds atomic.Int64
}

func (l *vecLimit) bound() int {
	if l.max <= 0 {
		return DefaultMaxChildren
	}
	return l.max
}

// overflowKey builds the joined key with every label folded to "other".
func overflowKey(labels []string) string {
	vals := make([]string, len(labels))
	for i := range vals {
		vals[i] = VecOverflowValue
	}
	return strings.Join(vals, "\x00")
}

// appendChildKey appends the children-map key of a label-value combination —
// the values joined by NUL — to buf. CounterVec.With, called with two labels
// on every request, looks its child up by a key built in a buffer on its
// stack (a map index by string(bytes) copies nothing), so the hit path builds
// no string; only a child's first use does. (A one-label With joins nothing:
// strings.Join of one value is that value.)
func appendChildKey(buf []byte, values []string) []byte {
	for i, v := range values {
		if i > 0 {
			buf = append(buf, 0)
		}
		buf = append(buf, v...)
	}
	return buf
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct {
	labels   []string
	mu       sync.RWMutex
	children map[string]*Counter
	limit    vecLimit
}

// NewCounterVec builds an unregistered counter family.
func NewCounterVec(labels ...string) *CounterVec {
	return &CounterVec{labels: labels, children: map[string]*Counter{}}
}

// Bound caps the family at max distinct children (default
// DefaultMaxChildren); further label combinations fold into the "other"
// child. Returns v for chaining.
func (v *CounterVec) Bound(max int) *CounterVec { v.limit.max = max; return v }

// Folds reports how many With calls were folded into the overflow child.
func (v *CounterVec) Folds() int64 { return v.limit.folds.Load() }

// With returns the child counter for the label values, creating it on first
// use. values must match the family's label names positionally. Past the
// cardinality bound, new combinations share the "other" overflow child.
func (v *CounterVec) With(values ...string) *Counter {
	var buf [64]byte
	kb := appendChildKey(buf[:0], values)
	v.mu.RLock()
	c, ok := v.children[string(kb)]
	v.mu.RUnlock()
	if ok {
		return c
	}
	k := string(kb)
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.children[k]; ok {
		return c
	}
	if len(v.children) >= v.limit.bound() {
		v.limit.folds.Add(1)
		k = overflowKey(v.labels)
		if c, ok = v.children[k]; ok {
			return c
		}
	}
	c = &Counter{}
	v.children[k] = c
	return c
}

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct {
	labels   []string
	bounds   []int64
	scale    float64
	mu       sync.RWMutex
	children map[string]*Histogram
	limit    vecLimit
}

// NewHistogramVec builds an unregistered histogram family.
func NewHistogramVec(bounds []int64, scale float64, labels ...string) *HistogramVec {
	return &HistogramVec{labels: labels, bounds: bounds, scale: scale, children: map[string]*Histogram{}}
}

// Bound caps the family at max distinct children (see CounterVec.Bound).
func (v *HistogramVec) Bound(max int) *HistogramVec { v.limit.max = max; return v }

// Folds reports how many With calls were folded into the overflow child.
func (v *HistogramVec) Folds() int64 { return v.limit.folds.Load() }

// With returns the child histogram for the label values. Past the
// cardinality bound, new combinations share the "other" overflow child.
func (v *HistogramVec) With(values ...string) *Histogram {
	k := strings.Join(values, "\x00")
	v.mu.RLock()
	h, ok := v.children[k]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.children[k]; ok {
		return h
	}
	if len(v.children) >= v.limit.bound() {
		v.limit.folds.Add(1)
		k = overflowKey(v.labels)
		if h, ok = v.children[k]; ok {
			return h
		}
	}
	h = NewHistogram(v.bounds, v.scale)
	v.children[k] = h
	return h
}

// Each calls fn for every child with its label values, in sorted key order.
// Used by the flight-recorder watchdog to poll per-route latency windows.
func (v *HistogramVec) Each(fn func(values []string, h *Histogram)) {
	for _, k := range v.sortedKeys() {
		v.mu.RLock()
		h := v.children[k]
		v.mu.RUnlock()
		if h != nil {
			fn(strings.Split(k, "\x00"), h)
		}
	}
}

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct {
	labels   []string
	mu       sync.RWMutex
	children map[string]*Gauge
	limit    vecLimit
}

// NewGaugeVec builds an unregistered gauge family.
func NewGaugeVec(labels ...string) *GaugeVec {
	return &GaugeVec{labels: labels, children: map[string]*Gauge{}}
}

// Bound caps the family at max distinct children (see CounterVec.Bound).
func (v *GaugeVec) Bound(max int) *GaugeVec { v.limit.max = max; return v }

// Folds reports how many With calls were folded into the overflow child.
func (v *GaugeVec) Folds() int64 { return v.limit.folds.Load() }

// With returns the child gauge for the label values, creating it on first
// use. values must match the family's label names positionally. Past the
// cardinality bound, new combinations share the "other" overflow child.
func (v *GaugeVec) With(values ...string) *Gauge {
	k := strings.Join(values, "\x00")
	v.mu.RLock()
	g, ok := v.children[k]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok = v.children[k]; ok {
		return g
	}
	if len(v.children) >= v.limit.bound() {
		v.limit.folds.Add(1)
		k = overflowKey(v.labels)
		if g, ok = v.children[k]; ok {
			return g
		}
	}
	g = &Gauge{}
	v.children[k] = g
	return g
}

// --- registry ---

// Registry holds registered metric families and renders them in the
// Prometheus text exposition format. One registry per assembled stack; name
// collisions within a registry panic at registration time (they are wiring
// bugs, not runtime conditions).
type Registry struct {
	mu    sync.Mutex
	fams  []family
	names map[string]bool
}

type family struct {
	name, help, kind string
	write            func(w io.Writer, name string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{names: map[string]bool{}} }

func (r *Registry) add(name, help, kind string, write func(io.Writer, string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.names[name] = true
	r.fams = append(r.fams, family{name: name, help: help, kind: kind, write: write})
}

// RegisterCounter exposes c as a counter.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.add(name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, c.Load())
	})
}

// RegisterCounterFunc exposes fn's value as a counter.
func (r *Registry) RegisterCounterFunc(name, help string, fn func() int64) {
	r.add(name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, fn())
	})
}

// RegisterGauge exposes g as a gauge.
func (r *Registry) RegisterGauge(name, help string, g *Gauge) {
	r.add(name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, g.Load())
	})
}

// RegisterGaugeFunc exposes fn's value as a gauge.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() float64) {
	r.add(name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, formatFloat(fn()))
	})
}

// RegisterHistogram exposes h as a histogram.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.add(name, help, "histogram", func(w io.Writer, n string) {
		writeHistogram(w, n, "", h)
	})
}

// RegisterCounterVec exposes a labeled counter family.
func (r *Registry) RegisterCounterVec(name, help string, v *CounterVec) {
	r.add(name, help, "counter", func(w io.Writer, n string) {
		for _, k := range v.sortedKeys() {
			v.mu.RLock()
			c := v.children[k]
			v.mu.RUnlock()
			fmt.Fprintf(w, "%s{%s} %d\n", n, labelPairs(v.labels, k), c.Load())
		}
	})
}

// RegisterGaugeVec exposes a labeled gauge family.
func (r *Registry) RegisterGaugeVec(name, help string, v *GaugeVec) {
	r.add(name, help, "gauge", func(w io.Writer, n string) {
		for _, k := range v.sortedKeys() {
			v.mu.RLock()
			g := v.children[k]
			v.mu.RUnlock()
			fmt.Fprintf(w, "%s{%s} %d\n", n, labelPairs(v.labels, k), g.Load())
		}
	})
}

// RegisterHistogramVec exposes a labeled histogram family.
func (r *Registry) RegisterHistogramVec(name, help string, v *HistogramVec) {
	r.add(name, help, "histogram", func(w io.Writer, n string) {
		for _, k := range v.sortedKeys() {
			v.mu.RLock()
			h := v.children[k]
			v.mu.RUnlock()
			writeHistogram(w, n, labelPairs(v.labels, k), h)
		}
	})
}

func (v *CounterVec) sortedKeys() []string {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

func (v *GaugeVec) sortedKeys() []string {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

func (v *HistogramVec) sortedKeys() []string {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// labelPairs renders label="value" pairs from a joined key.
func labelPairs(labels []string, key string) string {
	values := strings.Split(key, "\x00")
	var sb strings.Builder
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		val := ""
		if i < len(values) {
			val = values[i]
		}
		sb.WriteString(l)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(val))
		sb.WriteByte('"')
	}
	return sb.String()
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat uses 9 significant digits so scale multiplications render as
// their intended values (1000ns × 1e-9 prints "1e-06", not "1.0000…02e-06").
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', 9, 64) }

// writeHistogram renders one histogram in exposition format. extra is a
// pre-rendered label prefix ("" for unlabeled histograms). Buckets that
// hold a sampled-trace exemplar get an OpenMetrics-style
// ` # {trace_id="..."} <value>` suffix linking the bucket to /debug/traces.
func writeHistogram(w io.Writer, name, extra string, h *Histogram) {
	sep := ""
	if extra != "" {
		sep = ","
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d%s\n", name, extra, sep, formatFloat(float64(b)*h.scale), cum, exemplarSuffix(h, i))
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d%s\n", name, extra, sep, cum, exemplarSuffix(h, len(h.bounds)))
	if extra != "" {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, extra, formatFloat(float64(h.Sum())*h.scale))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, extra, h.Count())
		return
	}
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(float64(h.Sum())*h.scale))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}

// exemplarSuffix renders the OpenMetrics exemplar for bucket i, or "".
func exemplarSuffix(h *Histogram, i int) string {
	if h.exemplars == nil || i >= len(h.exemplars) {
		return ""
	}
	e := h.exemplars[i].Load()
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=\"%s\"} %s", escapeLabel(e.traceID), formatFloat(float64(e.value)*h.scale))
}

// RegisterCustom exposes a family rendered entirely by write, for sources
// whose sample set is dynamic (the tenant usage meter's top-K labels). kind
// is the TYPE line value ("counter", "gauge"); write must emit full sample
// lines itself, using the given family name.
func (r *Registry) RegisterCustom(name, help, kind string, write func(w io.Writer, name string)) {
	r.add(name, help, kind, write)
}

// WritePrometheus renders every registered family in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := append([]family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		f.write(w, f.name)
	}
}
