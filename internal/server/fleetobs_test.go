package server_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"unitycatalog/internal/audit"
	"unitycatalog/internal/catalog"
	"unitycatalog/internal/client"
	"unitycatalog/internal/faults"
	"unitycatalog/internal/obs"
	"unitycatalog/internal/server"
	"unitycatalog/internal/store"
)

// stackWithConfig is telemetryStack with explicit telemetry settings.
func stackWithConfig(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	db, err := store.Open(store.Options{WALPath: t.TempDir() + "/uc.wal"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := catalog.New(catalog.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1"); err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithConfig(svc, cfg)
	t.Cleanup(func() { srv.Close(); srv.Lineage.Close(); srv.Search.Close() })
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs, client.New(hs.URL, "admin", "ms1")
}

// --- Prometheus text-exposition conformance ---

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parsePromLabels parses `name="value",...` handling \\, \", and \n escapes.
func parsePromLabels(t *testing.T, s string) map[string]string {
	t.Helper()
	out := map[string]string{}
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			t.Fatalf("label without '=': %q", s[i:])
		}
		name := s[i : i+eq]
		for _, r := range name {
			if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
				t.Fatalf("invalid label name %q", name)
			}
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			t.Fatalf("label value not quoted at %q", s[i:])
		}
		i++
		var val strings.Builder
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					t.Fatalf("dangling escape in %q", s)
				}
				n := s[i+1]
				if n != '\\' && n != '"' && n != 'n' {
					t.Fatalf("invalid escape \\%c in %q", n, s)
				}
				val.WriteByte(n)
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			if c == '\n' {
				t.Fatalf("raw newline in label value: %q", s)
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			t.Fatalf("unterminated label value in %q", s)
		}
		out[name] = val.String()
		if i < len(s) {
			if s[i] != ',' {
				t.Fatalf("expected ',' between labels at %q", s[i:])
			}
			i++
		}
	}
	return out
}

// parsePromSample parses one non-comment exposition line, accepting an
// OpenMetrics exemplar suffix (` # {trace_id="..."} <value>`) on bucket
// lines and validating it.
func parsePromSample(t *testing.T, line string) promSample {
	t.Helper()
	if idx := strings.Index(line, " # {"); idx >= 0 {
		ex := line[idx+3:]
		line = line[:idx]
		close := strings.Index(ex, "} ")
		if close < 0 {
			t.Fatalf("malformed exemplar %q", ex)
		}
		exLabels := parsePromLabels(t, ex[1:close])
		if exLabels["trace_id"] == "" {
			t.Fatalf("exemplar without trace_id: %q", ex)
		}
		if _, err := strconv.ParseFloat(ex[close+2:], 64); err != nil {
			t.Fatalf("exemplar value %q: %v", ex[close+2:], err)
		}
	}
	var name, rest string
	if b := strings.IndexByte(line, '{'); b >= 0 {
		name = line[:b]
		end := strings.LastIndexByte(line, '}')
		if end < b {
			t.Fatalf("unterminated label set: %q", line)
		}
		s := promSample{name: name, labels: parsePromLabels(t, line[b+1:end])}
		rest = strings.TrimSpace(line[end+1:])
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("sample value %q in %q: %v", rest, line, err)
		}
		s.value = v
		return s
	}
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		t.Fatalf("sample without value: %q", line)
	}
	name, rest = line[:sp], line[sp+1:]
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("sample value %q in %q: %v", rest, line, err)
	}
	return promSample{name: name, labels: map[string]string{}, value: v}
}

// TestPrometheusExpositionConformance parses the FULL /metrics output:
// every family must declare HELP and TYPE before its samples, sample names
// must match the declaring family (histogram families via _bucket/_sum/
// _count), label syntax and escaping must be valid, histogram buckets must
// be cumulative-monotonic with ascending le values, and the +Inf bucket
// must equal _count.
func TestPrometheusExpositionConformance(t *testing.T) {
	srv, hs, c := stackWithConfig(t, server.Config{SampleEvery: 1, SlowThreshold: time.Nanosecond})
	_ = srv
	seedAssets(t, c)
	// A label value that needs escaping, via the audit principal? Simpler:
	// tenant metering picks up this principal with a quote in it.
	evil := client.New(hs.URL, `quo"te\ten`, "ms1")
	_, _ = evil.GetAsset("sales")

	_, body := mustGet(t, hs.URL+"/metrics")
	metricName := func(s string) bool {
		for _, r := range s {
			if !(r == '_' || r == ':' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
				return false
			}
		}
		return s != ""
	}

	type famState struct {
		kind    string
		samples []promSample
	}
	fams := map[string]*famState{}
	var order []string
	helped := map[string]bool{}
	var cur *famState
	var curName string
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || !metricName(parts[0]) || parts[1] == "" {
				t.Fatalf("malformed HELP: %q", line)
			}
			if helped[parts[0]] {
				t.Fatalf("family %s declared HELP twice", parts[0])
			}
			helped[parts[0]] = true
			curName = "" // HELP resets; TYPE must follow before samples
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 || !metricName(parts[0]) {
				t.Fatalf("malformed TYPE: %q", line)
			}
			kind := parts[1]
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("invalid TYPE %q for %s", kind, parts[0])
			}
			if !helped[parts[0]] {
				t.Fatalf("TYPE before HELP for %s", parts[0])
			}
			if _, dup := fams[parts[0]]; dup {
				t.Fatalf("family %s declared TYPE twice", parts[0])
			}
			cur = &famState{kind: kind}
			curName = parts[0]
			fams[curName] = cur
			order = append(order, curName)
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line %q", line)
		}
		if curName == "" {
			t.Fatalf("sample before any TYPE: %q", line)
		}
		s := parsePromSample(t, line)
		want := s.name == curName
		if cur.kind == "histogram" {
			want = s.name == curName+"_bucket" || s.name == curName+"_sum" || s.name == curName+"_count"
		}
		if !want {
			t.Fatalf("sample %q under family %s (%s)", s.name, curName, cur.kind)
		}
		if math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			t.Fatalf("non-finite value in %q", line)
		}
		if cur.kind == "counter" && s.value < 0 {
			t.Fatalf("negative counter: %q", line)
		}
		cur.samples = append(cur.samples, s)
	}
	if len(order) < 10 {
		t.Fatalf("only %d families parsed — registry not fully covered", len(order))
	}
	for _, name := range []string{"uc_http_requests_total", "uc_http_request_seconds", "uc_tenant_requests_total", "uc_store_commits_total", "uc_cache_decoded_hits_total", "uc_cache_decodes_total"} {
		if fams[name] == nil {
			t.Fatalf("family %s missing from exposition", name)
		}
	}
	for _, name := range []string{"uc_cache_decoded_hits_total", "uc_cache_decodes_total"} {
		if f := fams[name]; f.kind != "counter" || len(f.samples) != 1 || f.samples[0].value <= 0 {
			t.Fatalf("%s: want one positive counter sample after the seed's reads, have %s %+v", name, f.kind, f.samples)
		}
	}

	// Histogram invariants per label group.
	for name, f := range fams {
		if f.kind != "histogram" {
			continue
		}
		type group struct {
			les     []float64
			counts  []float64
			count   float64
			hasSum  bool
			hasCnt  bool
			lastInf bool
		}
		groups := map[string]*group{}
		gkey := func(labels map[string]string) string {
			var sb []string
			for k, v := range labels {
				if k != "le" {
					sb = append(sb, k+"="+v)
				}
			}
			// order-independent join
			for i := 0; i < len(sb); i++ {
				for j := i + 1; j < len(sb); j++ {
					if sb[j] < sb[i] {
						sb[i], sb[j] = sb[j], sb[i]
					}
				}
			}
			return strings.Join(sb, ",")
		}
		get := func(k string) *group {
			if groups[k] == nil {
				groups[k] = &group{}
			}
			return groups[k]
		}
		for _, s := range f.samples {
			switch s.name {
			case name + "_bucket":
				le := s.labels["le"]
				if le == "" {
					t.Fatalf("%s bucket without le", name)
				}
				g := get(gkey(s.labels))
				var lv float64
				if le == "+Inf" {
					lv = math.Inf(1)
					g.lastInf = true
				} else {
					var err error
					lv, err = strconv.ParseFloat(le, 64)
					if err != nil {
						t.Fatalf("%s le=%q: %v", name, le, err)
					}
					if g.lastInf {
						t.Fatalf("%s: finite bucket after +Inf", name)
					}
				}
				if n := len(g.les); n > 0 && lv <= g.les[n-1] {
					t.Fatalf("%s: le not ascending (%v after %v)", name, lv, g.les[n-1])
				}
				if n := len(g.counts); n > 0 && s.value < g.counts[n-1] {
					t.Fatalf("%s: bucket counts not monotone (%v after %v)", name, s.value, g.counts[n-1])
				}
				g.les = append(g.les, lv)
				g.counts = append(g.counts, s.value)
			case name + "_sum":
				get(gkey(s.labels)).hasSum = true
			case name + "_count":
				g := get(gkey(s.labels))
				g.hasCnt = true
				g.count = s.value
			}
		}
		for k, g := range groups {
			if !g.lastInf {
				t.Fatalf("%s{%s}: missing +Inf bucket", name, k)
			}
			if !g.hasSum || !g.hasCnt {
				t.Fatalf("%s{%s}: missing _sum or _count", name, k)
			}
			if inf := g.counts[len(g.counts)-1]; inf != g.count {
				t.Fatalf("%s{%s}: +Inf bucket %v != count %v", name, k, inf, g.count)
			}
		}
	}

	// The escaped principal must round-trip through a label value somewhere
	// (tenant metering), proving the escaping path is exercised.
	if !strings.Contains(body, `quo\"te\\ten`) {
		t.Fatalf("escaped label value not found in exposition")
	}
}

// --- trace propagation over the HTTP hop ---

// TestServerAdoptsPropagatedTrace: a request carrying propagation headers
// must continue that trace — same ID on the response header, retained
// honoring the origin's sampling decision even though this server's own
// sampler would never retain it, and audit records carrying the ORIGIN
// trace ID.
func TestServerAdoptsPropagatedTrace(t *testing.T) {
	// SampleEvery/SlowThreshold negative: this server retains nothing on its
	// own; only the adopted sampling decision can retain the trace.
	srv, hs, c := stackWithConfig(t, server.Config{SampleEvery: -1, SlowThreshold: -1})
	seedAssets(t, c)

	req, _ := http.NewRequest("GET", hs.URL+"/api/2.1/unity-catalog/assets/sales.raw.orders", nil)
	req.Header.Set("Authorization", "Bearer admin")
	req.Header.Set("X-UC-Metastore", "ms1")
	const originID = "deadbeef00000001"
	req.Header.Set(obs.TraceIDHeader, originID)
	req.Header.Set(obs.SampledHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceIDHeader); got != originID {
		t.Fatalf("response trace header %q, want adopted %q", got, originID)
	}
	var sum *obs.TraceSummary
	for _, s := range srv.Tracer().Recent() {
		if s.ID == originID {
			sum = s
		}
	}
	if sum == nil {
		t.Fatalf("adopted trace %s not retained", originID)
	}
	recs := srv.Service.Audit().Filter(func(r audit.Record) bool { return r.TraceID == originID })
	if len(recs) == 0 {
		t.Fatalf("no audit records carry the origin trace ID %s", originID)
	}

	// Unsampled propagation: headers without the sampled flag must adopt
	// the ID (response header) but not retain.
	req2, _ := http.NewRequest("GET", hs.URL+"/api/2.1/unity-catalog/assets/sales.raw.orders", nil)
	req2.Header.Set("Authorization", "Bearer admin")
	req2.Header.Set("X-UC-Metastore", "ms1")
	req2.Header.Set(obs.TraceIDHeader, "deadbeef00000002")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(obs.TraceIDHeader); got != "deadbeef00000002" {
		t.Fatalf("unsampled adoption header = %q", got)
	}
	for _, s := range srv.Tracer().Recent() {
		if s.ID == "deadbeef00000002" {
			t.Fatal("unsampled propagated trace was retained")
		}
	}
}

// TestClientPropagatesTrace drives the hop through the client: the client
// carries its caller's span context, and the server's response, its retained
// trace (with the spans of the write underneath) and its audit records all
// carry the caller's trace ID.
func TestClientPropagatesTrace(t *testing.T) {
	srv, hs, c := stackWithConfig(t, server.Config{SampleEvery: -1, SlowThreshold: -1})
	seedAssets(t, c)

	origin := obs.NewTracer(1, 0)
	ot := origin.Start(obs.PropagationContext{}, new([obs.TraceIDLen]byte))
	sc, call := origin.Root(ot).Start("engine.resolve")
	c2 := client.New(hs.URL, "admin", "ms1")
	c2.Trace = sc
	// A write reaches the store layer, which records spans (store.commit,
	// store.wal, ...) under the adopted trace.
	if _, err := c2.CreateSchema("sales", "propagated", ""); err != nil {
		t.Fatal(err)
	}
	call.End()
	origin.Finish(ot, "engine job")

	var sum *obs.TraceSummary
	for _, s := range srv.Tracer().Recent() {
		if s.ID == ot.ID() {
			sum = s
		}
	}
	if sum == nil {
		t.Fatalf("server retained no trace under the client's ID %s", ot.ID())
	}
	if !strings.Contains(sum.Op, "POST /api/2.1/unity-catalog/schemas") {
		t.Fatalf("retained trace op = %q", sum.Op)
	}
	if !spanNamed(sum.Spans, "store.commit") {
		t.Fatalf("retained trace has no store.commit span: %+v", sum.Spans)
	}
	recs := srv.Service.Audit().Filter(func(r audit.Record) bool { return r.TraceID == ot.ID() })
	if len(recs) == 0 {
		t.Fatalf("no audit records carry the client's trace ID %s", ot.ID())
	}
}

func spanNamed(spans []obs.SpanView, name string) bool {
	for _, s := range spans {
		if s.Name == name || spanNamed(s.Children, name) {
			return true
		}
	}
	return false
}

// TestForgedTraceIDIsNotAdopted: a trace header that is not 1–32 hex digits
// is ignored and the request gets a trace of its own. Before, analyst's 403
// with a header of log fields logged them after its own, echoed them on the
// response and stamped them on every audit record of the request.
func TestForgedTraceIDIsNotAdopted(t *testing.T) {
	var logs strings.Builder
	srv, hs, c := stackWithConfig(t, server.Config{AccessLog: true, AccessLogWriter: &logs})
	seedAssets(t, c)

	const forged = `x status=200 principal="admin"`
	req, _ := http.NewRequest("GET", hs.URL+"/api/2.1/unity-catalog/assets/sales", nil)
	req.Header.Set("Authorization", "Bearer analyst")
	req.Header.Set("X-UC-Metastore", "ms1")
	req.Header.Set(obs.TraceIDHeader, forged)
	req.Header.Set(obs.SampledHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("analyst read = %d, want 403", resp.StatusCode)
	}
	minted := resp.Header.Get(obs.TraceIDHeader)
	if len(minted) != 16 || strings.Trim(minted, "0123456789abcdef") != "" {
		t.Fatalf("response trace ID %q, want a minted 16-hex ID", minted)
	}
	var line string
	for _, l := range strings.Split(logs.String(), "\n") {
		if strings.Contains(l, "trace="+minted) {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no access-log line for trace %s:\n%s", minted, logs.String())
	}
	if strings.Count(line, "status=") != 1 || strings.Count(line, "principal=") != 1 || !strings.Contains(line, `status=403`) || !strings.Contains(line, `principal="analyst"`) {
		t.Fatalf("access-log line carries forged fields: %s", line)
	}
	if recs := srv.Service.Audit().Filter(func(r audit.Record) bool { return strings.Contains(r.TraceID, "status=") }); len(recs) != 0 {
		t.Fatalf("%d audit records carry the forged trace ID: %+v", len(recs), recs)
	}
	if recs := srv.Service.Audit().Filter(func(r audit.Record) bool { return r.TraceID == minted }); len(recs) == 0 {
		t.Fatalf("no audit record carries the minted trace ID %s", minted)
	}
}

// --- per-tenant metering ---

func TestTenantMeteringEndToEnd(t *testing.T) {
	_, hs, c := stackWithConfig(t, server.Config{SampleEvery: 1, SlowThreshold: time.Nanosecond, TenantTopK: 8})
	seedAssets(t, c)
	analyst := client.New(hs.URL, "analyst", "ms1")
	for i := 0; i < 5; i++ {
		_, _ = analyst.GetAsset("sales") // 403s still consume capacity: metered
	}

	_, body := mustGet(t, hs.URL+"/debug/tenants")
	var dims map[string]struct {
		Total    int64           `json:"total"`
		Residual int64           `json:"residual"`
		Top      []obs.TopKEntry `json:"top"`
	}
	if err := json.Unmarshal([]byte(body), &dims); err != nil {
		t.Fatalf("/debug/tenants not JSON: %v\n%s", err, body)
	}
	reqs := dims["requests"]
	byKey := map[string]int64{}
	for _, e := range reqs.Top {
		byKey[e.Key] = e.Count
	}
	if byKey["admin"] == 0 || byKey["analyst"] != 5 {
		t.Fatalf("tenant attribution wrong: %+v", reqs.Top)
	}
	if dims["bytes"].Total == 0 || dims["cost_ns"].Total == 0 {
		t.Fatalf("bytes/cost dimensions empty: %s", body)
	}
	if dims["catalog_ops"].Total == 0 {
		t.Fatalf("catalog ops not attributed: %s", body)
	}

	_, metricsBody := mustGet(t, hs.URL+"/metrics")
	for _, want := range []string{
		`uc_tenant_requests_total{tenant="admin"}`,
		`uc_tenant_requests_total{tenant="analyst"} 5`,
		`uc_tenant_requests_total{tenant="_other"}`,
		`uc_tenant_bytes_total{tenant="admin"}`,
		`uc_tenant_cost_seconds_total{tenant="admin"}`,
		`uc_tenant_catalog_ops_total{tenant="admin"}`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// --- flight recorder: fault-injected SLO breach ---

// TestFlightRecorderSLOBreach: healthy traffic, then an injected overload
// degrades the API; the watchdog's windowed per-route p99 breaches the SLO
// budget and the recorder freezes the PRE-incident window — the healthy
// frame and the traces leading up to the breach.
func TestFlightRecorderSLOBreach(t *testing.T) {
	srv, hs, c := stackWithConfig(t, server.Config{
		SampleEvery:   1,
		SlowThreshold: time.Nanosecond,
		SLORouteP99:   time.Nanosecond, // any served request breaches
	})
	seedAssets(t, c)
	// Drain the SLO windows so the seeding traffic doesn't trip the check:
	// rearm after a manual poll.
	srv.Flight().Poll()
	srv.Flight().Rearm()

	// Healthy frame: no API traffic since the last poll, so the window is
	// empty and nothing trips; the frame is captured as pre-incident state.
	_, body := mustGet(t, hs.URL+"/debug/flightrecorder")
	if !strings.Contains(body, `"armed": true`) {
		t.Fatalf("recorder tripped while healthy:\n%s", body)
	}

	// Fault injection: the injector throttles every API request — the
	// degraded traffic is what breaches the (1ns) route budget.
	srv.SetFaults(faults.New(1).AddRule(faults.Rule{Class: faults.Throttled, P: 1, RetryAfter: time.Millisecond}))
	for i := 0; i < 4; i++ {
		if _, err := c.GetAsset("sales.raw.orders"); err == nil {
			t.Fatal("fault injection not active")
		}
	}
	srv.SetFaults(nil)

	_, body = mustGet(t, hs.URL+"/debug/flightrecorder")
	var state struct {
		Armed    bool `json:"armed"`
		Incident *struct {
			Check  string      `json:"check"`
			Reason string      `json:"reason"`
			Frames []obs.Frame `json:"frames"`
			Traces []struct {
				ID string `json:"trace_id"`
				Op string `json:"op"`
			} `json:"traces"`
		} `json:"incident"`
	}
	if err := json.Unmarshal([]byte(body), &state); err != nil {
		t.Fatalf("flightrecorder not JSON: %v\n%s", err, body)
	}
	if state.Armed || state.Incident == nil {
		t.Fatalf("watchdog did not trip:\n%s", body)
	}
	if state.Incident.Check != "slo_route_p99" {
		t.Fatalf("tripped check = %s, want slo_route_p99", state.Incident.Check)
	}
	if !strings.Contains(state.Incident.Reason, "over budget") {
		t.Fatalf("reason %q", state.Incident.Reason)
	}
	// Pre-incident window: the healthy frame precedes the trip frame, and
	// the tracer's retained traces hold the requests that led up to the
	// breach.
	if len(state.Incident.Frames) < 2 {
		t.Fatalf("incident kept %d frames, want the healthy pre-incident frame too", len(state.Incident.Frames))
	}
	sawFaulted := false
	for _, tr := range state.Incident.Traces {
		if strings.Contains(tr.Op, "/assets/") && tr.ID != "" {
			sawFaulted = true
		}
	}
	if !sawFaulted {
		t.Fatalf("pre-incident traces missing the degraded requests: %+v", state.Incident.Traces)
	}

	// The incident is frozen: more breaching traffic must not grow it.
	got := len(state.Incident.Frames)
	for i := 0; i < 3; i++ {
		_, _ = c.GetAsset("sales.raw.orders")
	}
	_, body = mustGet(t, hs.URL+"/debug/flightrecorder")
	var again struct {
		Incident *struct {
			Frames []obs.Frame `json:"frames"`
		} `json:"incident"`
	}
	if err := json.Unmarshal([]byte(body), &again); err != nil {
		t.Fatal(err)
	}
	if len(again.Incident.Frames) != got {
		t.Fatalf("incident mutated after freeze: %d -> %d frames", got, len(again.Incident.Frames))
	}
}

// TestDebugEndpointsShape: /debug/tenants and /debug/flightrecorder always
// answer JSON, including on a fresh server with no traffic.
func TestDebugEndpointsShape(t *testing.T) {
	_, hs, _ := stackWithConfig(t, server.Config{})
	for _, p := range []string{"/debug/tenants", "/debug/flightrecorder"} {
		resp, body := mustGet(t, hs.URL+p)
		if resp.StatusCode != 200 {
			t.Fatalf("%s -> %d", p, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Fatalf("%s content-type %q", p, ct)
		}
		var v any
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("%s not JSON: %v", p, err)
		}
	}
	// Metering disabled: endpoint still answers.
	_, hs2, _ := stackWithConfig(t, server.Config{TenantTopK: -1})
	resp, body := mustGet(t, hs2.URL+"/debug/tenants")
	if resp.StatusCode != 200 || strings.TrimSpace(body) != "{}" {
		t.Fatalf("disabled metering: %d %q", resp.StatusCode, body)
	}
}
