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
// trace), pins a copy of it as the bucket's exemplar: the ID may read bytes
// its request lent (Tracer.Start), which the bucket must not keep alive. The
// traceID=="" path is identical to Observe, keeping the unsampled hot path
// allocation-free.
func (h *Histogram) ObserveT(v int64, traceID string) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	if traceID != "" {
		h.exemplars[i].Store(&exemplar{traceID: strings.Clone(traceID), value: v})
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
func (h *Histogram) Quantile(p float64) float64 { return quantileOf(h.bounds, h.Counts(), p) }

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

// overflowKey builds the joined key with every label folded to "other".
func overflowKey(labels []string) string {
	vals := make([]string, len(labels))
	for i := range vals {
		vals[i] = VecOverflowValue
	}
	return strings.Join(vals, "\x00")
}

// appendChildKey appends the children-map key of a label-value combination —
// the values joined by NUL — to buf. Vec.With, called with two labels on
// every request, looks its child up by a key built in a buffer on its stack
// (a map index by string(bytes) copies nothing), so the hit path builds no
// string; only a child's first use does.
func appendChildKey(buf []byte, values []string) []byte {
	for i, v := range values {
		if i > 0 {
			buf = append(buf, 0)
		}
		buf = append(buf, v...)
	}
	return buf
}

// Vec is a family of metrics of one kind distinguished by label values.
type Vec[T any] struct {
	labels   []string
	newChild func() *T
	mu       sync.RWMutex
	children map[string]*T
	folds    atomic.Int64 // With calls folded into the overflow child
}

// CounterVec, GaugeVec and HistogramVec are the families the registry
// exposes.
type (
	CounterVec   = Vec[Counter]
	GaugeVec     = Vec[Gauge]
	HistogramVec = Vec[Histogram]
)

// NewCounterVec builds an unregistered counter family.
func NewCounterVec(labels ...string) *CounterVec {
	return newVec(labels, func() *Counter { return new(Counter) })
}

// NewGaugeVec builds an unregistered gauge family.
func NewGaugeVec(labels ...string) *GaugeVec {
	return newVec(labels, func() *Gauge { return new(Gauge) })
}

// NewHistogramVec builds an unregistered histogram family.
func NewHistogramVec(bounds []int64, scale float64, labels ...string) *HistogramVec {
	return newVec(labels, func() *Histogram { return NewHistogram(bounds, scale) })
}

// newVec builds an unregistered family whose children newChild makes.
func newVec[T any](labels []string, newChild func() *T) *Vec[T] {
	return &Vec[T]{labels: labels, newChild: newChild, children: map[string]*T{}}
}

// Folds reports how many With calls were folded into the overflow child.
func (v *Vec[T]) Folds() int64 { return v.folds.Load() }

// With returns the child for the label values, creating it on first use.
// values must match the family's label names positionally. Past the
// cardinality bound, new combinations share the "other" overflow child.
func (v *Vec[T]) With(values ...string) *T {
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
	if len(v.children) >= DefaultMaxChildren {
		v.folds.Add(1)
		k = overflowKey(v.labels)
		if c, ok = v.children[k]; ok {
			return c
		}
	}
	c = v.newChild()
	v.children[k] = c
	return c
}

// Each calls fn for every child with its label values, in sorted key order.
// The flight-recorder watchdog uses it to poll per-route latency windows.
func (v *Vec[T]) Each(fn func(values []string, child *T)) {
	for _, k := range v.sortedKeys() {
		v.mu.RLock()
		c := v.children[k]
		v.mu.RUnlock()
		if c != nil {
			fn(strings.Split(k, "\x00"), c)
		}
	}
}

func (v *Vec[T]) sortedKeys() []string {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	return keys
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
	registerVec(r, name, help, "counter", v, func(w io.Writer, n, labels string, c *Counter) {
		fmt.Fprintf(w, "%s{%s} %d\n", n, labels, c.Load())
	})
}

// RegisterGaugeVec exposes a labeled gauge family.
func (r *Registry) RegisterGaugeVec(name, help string, v *GaugeVec) {
	registerVec(r, name, help, "gauge", v, func(w io.Writer, n, labels string, g *Gauge) {
		fmt.Fprintf(w, "%s{%s} %d\n", n, labels, g.Load())
	})
}

// RegisterHistogramVec exposes a labeled histogram family.
func (r *Registry) RegisterHistogramVec(name, help string, v *HistogramVec) {
	registerVec(r, name, help, "histogram", v, writeHistogram)
}

// registerVec exposes v's children in sorted key order, each written by
// write with its rendered label pairs.
func registerVec[T any](r *Registry, name, help, kind string, v *Vec[T], write func(w io.Writer, name, labels string, child *T)) {
	r.add(name, help, kind, func(w io.Writer, n string) {
		v.Each(func(values []string, c *T) { write(w, n, labelPairs(v.labels, values), c) })
	})
}

// labelPairs renders label="value" pairs from a child's label values.
func labelPairs(labels []string, values []string) string {
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
