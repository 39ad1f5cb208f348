// Telemetry front end: per-request tracing, the unified metrics registry,
// and the operational HTTP surface (/metrics, /debug/traces, /debug/pprof).
//
// Every API request runs inside a trace. The server stamps the trace ID
// into the X-UC-Trace-Id response header and hands the root span to the
// catalog through the request's envelope (s.ctx), so the layers underneath
// record their spans (store commit phases, cache misses, authz snapshot
// builds, STS mints) against the same trace, and audit records carry the
// same ID. Traces are retained by sampling (every Nth) plus an always-on
// slow threshold, so /debug/traces shows where a slow request actually spent
// its time without paying for span retention on the fast path.
package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"unitycatalog/internal/obs"
)

// Config tunes the server's telemetry. The zero value selects production
// defaults; New uses it.
type Config struct {
	// SampleEvery retains every Nth trace for /debug/traces (default 64;
	// negative disables sampling, leaving only slow-trace retention).
	SampleEvery int
	// SlowThreshold always retains traces at least this slow (default
	// 100ms; negative disables).
	SlowThreshold time.Duration
	// AccessLog emits one structured line per API request (method, path,
	// status, duration, principal, trace ID, and the underlying error on
	// 5xx responses) to AccessLogWriter.
	AccessLog bool
	// AccessLogWriter receives access-log lines (default os.Stderr).
	AccessLogWriter io.Writer
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// ETagMaxAge bounds the lifetime of a conditional-GET validator
	// (default 30s; negative disables conditional handling). See etag.go.
	ETagMaxAge time.Duration
	// TenantTopK sizes the per-tenant usage sketches (default 32; negative
	// disables tenant metering entirely).
	TenantTopK int
	// SLORouteP99 is the per-route p99 latency budget the flight-recorder
	// watchdog enforces over poll windows (0 disables the SLO check).
	SLORouteP99 time.Duration
	// FlightInterval starts a background watchdog ticker (0 = no goroutine;
	// /debug/flightrecorder polls lazily on scrape instead).
	FlightInterval time.Duration
}

// initTelemetry assembles the registry, tracer, and HTTP metric families.
// Called from NewWithConfig, before any request is served.
func (s *Server) initTelemetry(cfg Config) {
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 64
	} else if cfg.SampleEvery < 0 {
		cfg.SampleEvery = 0
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = 100 * time.Millisecond
	} else if cfg.SlowThreshold < 0 {
		cfg.SlowThreshold = 0
	}
	if cfg.AccessLogWriter == nil {
		cfg.AccessLogWriter = os.Stderr
	}
	if cfg.ETagMaxAge == 0 {
		cfg.ETagMaxAge = 30 * time.Second
	} else if cfg.ETagMaxAge < 0 {
		cfg.ETagMaxAge = 0
	}
	if cfg.TenantTopK == 0 {
		cfg.TenantTopK = 32
	}
	s.cfg = cfg
	s.tracer = obs.NewTracer(cfg.SampleEvery, cfg.SlowThreshold)
	s.metrics = obs.NewRegistry()
	s.Service.RegisterMetrics(s.metrics)
	s.Search.RegisterMetrics(s.metrics)
	s.httpReqs = obs.NewCounterVec("route", "code")
	s.httpSeconds = obs.NewHistogramVec(obs.LatencyBuckets(), 1e-9, "route")
	s.httpAllocs = obs.NewGaugeVec("route")
	s.encodeErrors = &obs.Counter{}
	s.allocs = newAllocSampler()
	s.metrics.RegisterCounterVec("uc_http_requests_total", "API requests by route and status code.", s.httpReqs)
	s.metrics.RegisterHistogramVec("uc_http_request_seconds", "API request latency by route.", s.httpSeconds)
	s.metrics.RegisterGaugeVec("uc_http_allocs_per_request", "Sampled heap allocations per request by route.", s.httpAllocs)
	s.metrics.RegisterCounter("uc_http_encode_errors", "Response bodies that failed to encode (served as 500).", s.encodeErrors)
	if cfg.TenantTopK > 0 {
		s.tenants = obs.NewUsageMeter(cfg.TenantTopK)
		s.tenants.RegisterMetrics(s.metrics)
		s.Service.SetUsage(s.tenants)
	}
	s.initFlightRecorder(cfg)
}

// initFlightRecorder wires the anomaly flight recorder: an incident freezes
// the tracer's retained traces, the watchdog checks cover the SLO budget, WAL
// health, and cache degradation, and frames snapshot the signals an
// incident post-mortem needs first.
func (s *Server) initFlightRecorder(cfg Config) {
	s.flight = obs.NewFlightRecorder(s.tracer)
	if cfg.SLORouteP99 > 0 {
		s.flight.AddCheck("slo_route_p99", obs.SLOCheck(s.httpSeconds, 0.99, int64(cfg.SLORouteP99)))
	}
	s.flight.AddCheck("wal_error", func() (bool, string) {
		if err := s.Service.DB().WALErr(); err != nil {
			return true, "wal: " + err.Error()
		}
		return false, ""
	})
	s.flight.AddCheck("cache_degraded", func() (bool, string) {
		if s.Service.CacheDegraded() {
			return true, "metadata cache serving degraded"
		}
		return false, ""
	})
	s.flight.AddSnapshot("routes", func() any {
		out := map[string]obs.HistogramSnapshot{}
		s.httpSeconds.Each(func(values []string, h *obs.Histogram) {
			out[strings.Join(values, " ")] = h.Snapshot()
		})
		return out
	})
	s.flight.AddSnapshot("wal", func() any { return s.Service.DB().WALStats() })
	s.flight.AddSnapshot("cache", func() any { return s.Service.CacheHealth() })
	if cfg.FlightInterval > 0 {
		s.flight.Start(cfg.FlightInterval)
	}
}

// Flight exposes the anomaly flight recorder (for embedding hosts and
// tests).
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// Close releases background resources (the flight-recorder ticker, when
// FlightInterval started one). The HTTP listener, if any, is owned by the
// caller.
func (s *Server) Close() { s.flight.Stop() }

// Metrics exposes the server's registry (for embedding hosts and tests).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Tracer exposes the server's tracer (for embedding hosts and tests).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// opsPath reports whether p is an operational endpoint that bypasses
// tracing, metrics, and fault injection: /healthz stays reachable during a
// chaos run, and the telemetry surface must not observe itself.
func opsPath(p string) bool {
	return p == "/healthz" || p == "/metrics" || strings.HasPrefix(p, "/debug/")
}

// envelope is all the state the server keeps for one API request, in one
// object: it is the ResponseWriter handlers write through (capturing the
// status, the body's byte count for per-tenant metering, and, via
// writeErr/encodeFail, the underlying error the access log reports on a
// 5xx), the request's root span (s.ctx), the route pattern the mux matched
// (routes.go), and the values of the three per-request response headers with
// their bytes: a minted trace ID is written into traceID (obs.Tracer.Start),
// the ETag and the Content-Length into text (keep), each once, and the value
// strings read those bytes. The response's header map holds one-element
// slices of the value slots, and the header map outlives the handler, so an
// envelope is never pooled or reused; what outlives the request (a histogram
// exemplar, a retained trace) keeps a copy. srv links back to the owning
// server so encoding failures can bump its uc_http_encode_errors counter from
// the package-level write helpers.
type envelope struct {
	http.ResponseWriter
	srv     *Server
	span    obs.SpanContext
	route   string
	status  int
	bytes   int64
	err     error
	vals    [numVals]string // per-request header values, by slot
	traceID [obs.TraceIDLen]byte
	text    [maxETag + maxContentLength]byte
	used    uint8 // bytes of text written
}

// The envelope's per-request header value slots.
const (
	valTraceID = iota
	valETag
	valContentLength
	numVals
)

// The longest ETag (appendETag) and Content-Length values.
const (
	maxETag          = len(`"v`) + 20 + 2*len(`-`) + 2*13 + len(`"`) // a uint64 in decimal, then two in base 36
	maxContentLength = 20
)

func (w *envelope) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *envelope) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// keep returns b as a string over the envelope's text, which b is copied to
// and which is never written there again; one that does not fit is a string
// of its own.
func (w *envelope) keep(b []byte) string {
	if len(b) == 0 || len(b) > len(w.text)-int(w.used) {
		return string(b)
	}
	dst := w.text[w.used : int(w.used)+len(b)]
	copy(dst, b)
	w.used += uint8(len(b))
	return unsafe.String(&dst[0], len(dst))
}

// value sets slot i to v and returns it as a one-element response header
// value that an Add to the header copies instead of appending in place.
func (w *envelope) value(i int, v string) []string {
	w.vals[i] = v
	return w.vals[i : i+1 : i+1]
}

// headerValue returns text as a one-element response header value: slot i of
// w's envelope, over the envelope's own bytes, when w is one, a slice and a
// string of their own otherwise (the operational endpoints are served
// without an envelope).
func headerValue(w http.ResponseWriter, i int, text []byte) []string {
	if e, ok := w.(*envelope); ok {
		return e.value(i, e.keep(text))
	}
	return []string{string(text)}
}

// Response header values that never change are shared read-only slices with
// len == cap, so an Add to one of these headers copies instead of writing
// into the array every response shares.
var (
	jsonContentType = []string{"application/json"}
	revalidate      = []string{"private, must-revalidate"}
	noStore         = []string{"no-store"}
)

// allocSampler measures heap allocations across a sampled subset of
// requests (one in allocSampleEvery, one at a time) to feed the per-route
// uc_http_allocs_per_request gauge. The runtime counter is process-wide, so
// concurrent requests add noise — the gauge is an operational signal; the
// bench harness's sequential direct-dispatch phase produces exact numbers.
type allocSampler struct {
	n       atomic.Uint64
	busy    atomic.Bool
	samples [1]metrics.Sample
}

const allocSampleEvery = 256

func newAllocSampler() *allocSampler {
	a := &allocSampler{}
	a.samples[0].Name = "/gc/heap/allocs:objects"
	return a
}

// begin claims the measurement slot for this request when it is sampled,
// returning the allocation counter to diff against in end.
func (a *allocSampler) begin() (uint64, bool) {
	if a.n.Add(1)%allocSampleEvery != 1 {
		return 0, false
	}
	if !a.busy.CompareAndSwap(false, true) {
		return 0, false
	}
	metrics.Read(a.samples[:])
	return a.samples[0].Value.Uint64(), true
}

func (a *allocSampler) end(before uint64) uint64 {
	metrics.Read(a.samples[:])
	delta := a.samples[0].Value.Uint64() - before
	a.busy.Store(false)
	return delta
}

// serveTraced is the request path for API endpoints: start (or continue) a
// trace, expose its ID, dispatch (or fail with an injected fault), then
// record metrics, tenant usage, the access log line, and trace retention.
func (s *Server) serveTraced(w http.ResponseWriter, r *http.Request) {
	// A request carrying a valid trace ID continues a trace its caller
	// began: adopt the ID, so the response and the audit records name the
	// caller's trace, and its sampling decision. Any other trace mints its ID
	// into the envelope.
	pc, _ := obs.ParsePropagation(r.Header.Get(obs.TraceIDHeader), r.Header.Get(obs.SampledHeader))
	e := &envelope{ResponseWriter: w, srv: s, status: http.StatusOK}
	t := s.tracer.Start(pc, &e.traceID)
	e.span = s.tracer.Root(t)
	w.Header()[obs.TraceIDHeader] = e.value(valTraceID, t.ID())

	allocsBefore, measure := s.allocs.begin()
	start := time.Now()
	var injected error
	if inj := s.injector.Load(); inj != nil { // the op string escapes: build it only here
		injected = inj.Check("http."+r.Method, r.URL.Path)
	}
	if injected != nil {
		// Nothing is dispatched, so no route handler records its pattern.
		_, e.route = s.mux.Handler(r)
		writeErr(e, injected)
	} else {
		s.mux.ServeHTTP(e, r)
	}
	took := time.Since(start)
	route := e.route
	if route == "" {
		route = "unmatched"
	}
	if measure {
		s.httpAllocs.With(route).Set(int64(s.allocs.end(allocsBefore)))
	}

	s.httpReqs.With(route, statusLabel(e.status)).Inc()
	// Sampled traces pin an exemplar on their latency bucket, linking the
	// /metrics histogram to the concrete trace in /debug/traces. Unsampled
	// requests pass "" and skip the exemplar store entirely.
	exemplar := ""
	if t.Sampled() {
		exemplar = t.ID()
	}
	s.httpSeconds.With(route).ObserveT(int64(took), exemplar)
	if s.tenants != nil {
		tenant := strings.TrimPrefix(r.Header.Get(hdrAuthorization), "Bearer ")
		s.tenants.ObserveRequest(tenant, e.bytes, took)
	}
	if s.cfg.AccessLog {
		s.writeAccessLog(r, e, took, t.ID())
	}
	s.tracer.Finish(t, r.Method, r.URL.Path)
}

// statusLabel is code's uc_http_requests_total label, a constant for every
// code the server's routes answer with, so counting a request allocates
// nothing.
func statusLabel(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusCreated:
		return "201"
	case http.StatusNoContent:
		return "204"
	case http.StatusMovedPermanently:
		return "301"
	case http.StatusNotModified:
		return "304"
	case http.StatusBadRequest:
		return "400"
	case http.StatusUnauthorized:
		return "401"
	case http.StatusForbidden:
		return "403"
	case http.StatusNotFound:
		return "404"
	case http.StatusMethodNotAllowed:
		return "405"
	case http.StatusConflict:
		return "409"
	case http.StatusTooManyRequests:
		return "429"
	case http.StatusInternalServerError:
		return "500"
	case http.StatusServiceUnavailable:
		return "503"
	case http.StatusGatewayTimeout:
		return "504"
	}
	return strconv.Itoa(code)
}

// writeAccessLog emits one structured logfmt line for the request. Every
// field a client chooses is quoted or escaped, so none can add a field: the
// principal is quoted, the path is written escaped (a decoded "%20" would end
// the field), and the trace ID is hex (obs.ParsePropagation).
func (s *Server) writeAccessLog(r *http.Request, e *envelope, took time.Duration, traceID string) {
	principal := strings.TrimPrefix(r.Header.Get(hdrAuthorization), "Bearer ")
	var b strings.Builder
	fmt.Fprintf(&b, "time=%s method=%s path=%s status=%d duration=%s principal=%q trace=%s",
		time.Now().UTC().Format(time.RFC3339Nano), r.Method, r.URL.EscapedPath(),
		e.status, took, principal, traceID)
	if e.status >= 500 && e.err != nil {
		fmt.Fprintf(&b, " error=%q", e.err.Error())
	}
	b.WriteByte('\n')
	s.logMu.Lock()
	s.cfg.AccessLogWriter.Write([]byte(b.String()))
	s.logMu.Unlock()
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(hdrContentType, "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}

// handleDebugTraces serves recently retained traces (sampled or slow) as a
// JSON array, newest first, each with its span tree.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(hdrContentType, "application/json")
	s.tracer.WriteRecentJSON(w)
}

// handleDebugTenants serves the per-tenant usage meter as JSON.
func (s *Server) handleDebugTenants(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(hdrContentType, "application/json")
	if s.tenants == nil {
		w.Write([]byte("{}\n"))
		return
	}
	s.tenants.WriteJSON(w)
}

// handleDebugFlight serves the flight recorder: a lazy Poll first (so
// deployments without a background ticker still evaluate the watchdog on
// every scrape), then the rings and any frozen incident.
func (s *Server) handleDebugFlight(w http.ResponseWriter, r *http.Request) {
	s.flight.Poll()
	w.Header().Set(hdrContentType, "application/json")
	s.flight.WriteJSON(w)
}

// mountOps registers the operational endpoints on m.
func (s *Server) mountOps(m *http.ServeMux) {
	m.HandleFunc("GET /metrics", s.handleMetrics)
	m.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	m.HandleFunc("GET /debug/tenants", s.handleDebugTenants)
	m.HandleFunc("GET /debug/flightrecorder", s.handleDebugFlight)
	if s.cfg.Pprof {
		m.HandleFunc("/debug/pprof/", pprof.Index)
		m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		m.HandleFunc("/debug/pprof/profile", pprof.Profile)
		m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}
