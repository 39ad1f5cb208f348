package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
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

// telemetryStack builds a WAL-backed stack with every trace retained and
// the access log captured, so tests can assert on the full surface.
func telemetryStack(t *testing.T, logBuf *bytes.Buffer) (*server.Server, *httptest.Server, *client.Client) {
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
	cfg := server.Config{SampleEvery: 1, SlowThreshold: time.Nanosecond}
	if logBuf != nil {
		cfg.AccessLog = true
		cfg.AccessLogWriter = logBuf
	}
	srv := server.NewWithConfig(svc, cfg)
	t.Cleanup(func() { srv.Lineage.Close(); srv.Search.Close() })
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs, client.New(hs.URL, "admin", "ms1")
}

func mustGet(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

func seedAssets(t *testing.T, c *client.Client) {
	t.Helper()
	if _, err := c.CreateCatalog("sales", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSchema("sales", "raw", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("sales.raw", "orders", catalog.TableSpec{
		Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}},
	}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetAsset("sales.raw.orders"); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsEndpoint asserts /metrics exposes every layer's families:
// store commits and WAL batching, cache traffic, the event log and its
// followers, authz snapshots, audit aggregates, and per-route HTTP latency.
func TestMetricsEndpoint(t *testing.T) {
	srv, hs, c := telemetryStack(t, nil)
	seedAssets(t, c)
	srv.Search.Sync()

	resp, body := mustGet(t, hs.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	for _, family := range []string{
		"uc_store_commits_total",
		"uc_store_commit_seconds_bucket",
		"uc_store_wal_batches_total",
		"uc_store_wal_batch_size_bucket",
		"uc_store_wal_fsync_seconds_bucket",
		"uc_store_wal_replay_entries_total 0\n", // a log this stack started
		"uc_store_wal_replay_seconds",
		"uc_store_wal_tail_dropped_bytes 0\n",
		"uc_cache_hits_total",
		"uc_cache_misses_total",
		"uc_cache_decoded_hits_total",
		"uc_cache_decodes_total",
		"uc_cache_degraded",
		"uc_events_published_total",
		`uc_events_follower_lag{follower="search"}`,
		"uc_events_retained",
		`uc_events_follower_resyncs_total{follower="search"} 0`,
		"uc_authz_snapshot_hits_total",
		"uc_authz_snapshot_builds_total",
		"uc_authz_snapshot_invalidations_total",
		"uc_authz_snapshot_patches_total",
		"uc_authz_snapshot_memo_dropped_total",
		"uc_authz_snapshot_memo_entries",
		"uc_audit_records_total",
		"uc_audit_retained_records",
		"uc_audit_retained_bytes",
		"uc_store_index_leaf_fill",
		"uc_store_key_fill",
		"uc_cloud_puts_total",
		"uc_http_requests_total",
		"uc_http_request_seconds_bucket",
		fmt.Sprintf("uc_search_documents %d\n", srv.Search.DocCount()),
		"uc_search_tokens",
		"uc_search_postings",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
	// The seed issued writes, so commit counters must be non-zero and the
	// HTTP families must carry route labels.
	if strings.Contains(body, "uc_store_commits_total 0\n") {
		t.Error("uc_store_commits_total still zero after writes")
	}
	if strings.Contains(body, "uc_events_published_total 0\n") {
		t.Error("uc_events_published_total still zero after writes")
	}
	// The search follower has caught up, so the event log holds no more than
	// its open chunk of 63 events.
	var retained int64 = -1
	if i := strings.Index(body, "\nuc_events_retained "); i >= 0 {
		fmt.Sscan(body[i+len("\nuc_events_retained "):], &retained)
	}
	if published := srv.Service.Bus().Published(); retained < 0 || retained > min(published, 63) {
		t.Errorf("uc_events_retained = %d with %d published and the follower caught up, want at most one chunk", retained, published)
	}
	if strings.Contains(body, "uc_authz_snapshot_memo_entries 0\n") || strings.Contains(body, "uc_authz_snapshot_patches_total 0\n") {
		t.Error("the admin's snapshot memoized nothing, or did not follow the seed's commits")
	}
	// Each re-laid structure says what it holds.
	for _, gauge := range []string{"uc_audit_retained_records", "uc_audit_retained_bytes", "uc_store_index_leaf_fill", "uc_store_key_fill", "uc_search_documents", "uc_search_tokens", "uc_search_postings"} {
		if strings.Contains(body, gauge+" 0\n") {
			t.Errorf("%s is zero after the seed's writes", gauge)
		}
	}
	if !strings.Contains(body, `route="POST /api/2.1/unity-catalog/tables"`) {
		t.Error("uc_http_requests_total lacks per-route labels")
	}
	// The seed resolved its parents by name over and over: records were
	// decoded, and then served decoded.
	if strings.Contains(body, "uc_cache_decodes_total 0\n") || strings.Contains(body, "uc_cache_decoded_hits_total 0\n") {
		t.Error("the seed's point reads decoded nothing, or were never served a decoded form")
	}

	// Restart says what it did: a store reopened on a log of four entries
	// whose last write a crash cut short exports the entries it replayed, how
	// long that took and the bytes of torn tail it cut off.
	wal := t.TempDir() + "/restart.wal"
	db, err := store.Open(store.Options{WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateMetastore("m")
	for i := 0; i < 3; i++ {
		if _, err := db.Update("m", func(tx *store.Tx) error { tx.Put("t", fmt.Sprint(i), []byte("v")); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xF7, 40, 0, 0, 0}) // a frame's magic and length, and no more
	f.Close()
	if db, err = store.Open(store.Options{WALPath: wal}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	reg := obs.NewRegistry()
	db.RegisterMetrics(reg)
	var restarted strings.Builder
	reg.WritePrometheus(&restarted)
	for _, line := range []string{"uc_store_wal_replay_entries_total 4\n", "uc_store_wal_tail_dropped_bytes 5\n", "uc_store_wal_replay_seconds "} {
		if !strings.Contains(restarted.String(), line) {
			t.Errorf("after a restart /metrics lacks %q", line)
		}
	}
	if strings.Contains(restarted.String(), "uc_store_wal_replay_seconds 0\n") {
		t.Error("uc_store_wal_replay_seconds is zero after a replay")
	}
}

// TestTraceHeaderAndAuditCorrelation asserts the request's X-UC-Trace-Id
// shows up on the audit records that request produced.
func TestTraceHeaderAndAuditCorrelation(t *testing.T) {
	srv, hs, c := telemetryStack(t, nil)
	seedAssets(t, c)

	req, _ := http.NewRequest("GET", hs.URL+"/api/2.1/unity-catalog/assets/sales.raw.orders", nil)
	req.Header.Set("Authorization", "Bearer admin")
	req.Header.Set("X-UC-Metastore", "ms1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get asset = %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-UC-Trace-Id")
	if len(traceID) != 16 {
		t.Fatalf("X-UC-Trace-Id = %q, want 16 hex chars", traceID)
	}
	recs := srv.Service.Audit().Filter(func(r audit.Record) bool { return r.TraceID == traceID })
	if len(recs) == 0 {
		t.Fatalf("no audit records carry trace %s", traceID)
	}
	// The one request produces both its API-request record and the authz
	// decision underneath it, all under the same trace.
	kinds := map[audit.Kind]bool{}
	for _, r := range recs {
		kinds[r.Kind] = true
	}
	if !kinds[audit.KindAPIRequest] || !kinds[audit.KindAuthz] {
		t.Errorf("trace %s records = %+v, want API request + authz decision", traceID, recs)
	}
	// No other request's records may share the ID.
	for _, r := range recs {
		if r.Operation != "GetAsset" && r.Operation != "GetTABLE" {
			t.Errorf("trace %s matched unrelated record %+v", traceID, r)
		}
	}
}

// TestDebugTracesSpanTree asserts a retained trace of a write request shows
// the store commit phases, and that read traces surface cache and authz
// work.
func TestDebugTracesSpanTree(t *testing.T) {
	_, hs, c := telemetryStack(t, nil)
	seedAssets(t, c)

	resp, body := mustGet(t, hs.URL+"/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces = %d", resp.StatusCode)
	}
	var traces []struct {
		ID    string          `json:"trace_id"`
		Op    string          `json:"op"`
		Spans json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("bad /debug/traces JSON: %v\n%s", err, body)
	}
	if len(traces) == 0 {
		t.Fatal("no traces retained despite 1ns slow threshold")
	}
	for _, span := range []string{"store.commit", "store.sequence", "store.wal", "store.apply", "cache.", "authz.build"} {
		if !strings.Contains(body, span) {
			t.Errorf("retained traces missing %q spans:\n%s", span, body)
		}
	}
	for _, tr := range traces {
		if len(tr.ID) != 16 {
			t.Errorf("trace id %q not 16 chars", tr.ID)
		}
		if tr.Op == "" {
			t.Errorf("trace %s has no op label", tr.ID)
		}
	}
}

// TestHealthzShape pins the /healthz JSON contract: status plus degraded
// flags and the wal/cache/authz sections.
func TestHealthzShape(t *testing.T) {
	_, hs, c := telemetryStack(t, nil)
	seedAssets(t, c)

	resp, body := mustGet(t, hs.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
	var h struct {
		Status   string           `json:"status"`
		Degraded map[string]*bool `json:"degraded"`
		WAL      json.RawMessage  `json:"wal"`
		Cache    json.RawMessage  `json:"cache"`
		Authz    json.RawMessage  `json:"authz"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("bad /healthz JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	for _, key := range []string{"cache", "wal"} {
		if h.Degraded[key] == nil {
			t.Errorf("degraded.%s missing", key)
		} else if *h.Degraded[key] {
			t.Errorf("degraded.%s = true on a healthy stack", key)
		}
	}
	if len(h.WAL) == 0 || len(h.Cache) == 0 || len(h.Authz) == 0 {
		t.Errorf("missing sections in /healthz: %s", body)
	}
	if !strings.Contains(string(h.WAL), "Batches") {
		t.Errorf("wal section lacks batch stats: %s", h.WAL)
	}
	var caches []struct {
		DecodedHits *int64 `json:"decoded_hits"`
		Decodes     *int64 `json:"decodes"`
	}
	if err := json.Unmarshal(h.Cache, &caches); err != nil || len(caches) != 1 {
		t.Fatalf("cache section: %v: %s", err, h.Cache)
	}
	if c := caches[0]; c.DecodedHits == nil || c.Decodes == nil || *c.Decodes == 0 || *c.DecodedHits == 0 {
		t.Errorf("cache section lacks the decoded-form counters, or the seed moved neither: %s", h.Cache)
	}
}

// TestAccessLog asserts per-request lines carry method, path, status,
// principal, and trace ID, and that 5xx lines include the underlying error.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	srv, hs, c := telemetryStack(t, &buf)
	seedAssets(t, c)

	// Force a 5xx via an always-on unavailability fault.
	inj := faults.New(1)
	inj.AddRule(faults.Rule{Op: "http.GET", Class: faults.Unavailable, P: 1})
	srv.SetFaults(inj)
	req, _ := http.NewRequest("GET", hs.URL+"/api/2.1/unity-catalog/assets/sales.raw.orders", nil)
	req.Header.Set("Authorization", "Bearer admin")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("faulted GET = %d", resp.StatusCode)
	}
	srv.SetFaults(nil)

	// A path that decodes to log fields stays one escaped field.
	forged, _ := http.NewRequest("GET", hs.URL+"/api/2.1/unity-catalog/assets/x%20status=200%20principal=%22admin%22", nil)
	forged.Header.Set("Authorization", "Bearer analyst")
	forged.Header.Set("X-UC-Metastore", "ms1")
	if resp, err := http.DefaultClient.Do(forged); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	logs := buf.String()
	if !strings.Contains(logs, `method=POST path=/api/2.1/unity-catalog/tables status=201`) {
		t.Errorf("access log missing create-table line:\n%s", logs)
	}
	if !strings.Contains(logs, `principal="admin"`) || !strings.Contains(logs, "trace=") {
		t.Errorf("access log lines lack principal/trace fields:\n%s", logs)
	}
	var errLine string
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, "status=503") {
			errLine = line
		}
	}
	if errLine == "" {
		t.Fatalf("no 503 line in access log:\n%s", logs)
	}
	for _, line := range strings.Split(logs, "\n") {
		if !strings.Contains(line, `principal="analyst"`) {
			continue
		}
		fields := map[string]int{}
		for _, f := range strings.Fields(line) {
			fields[strings.SplitN(f, "=", 2)[0]]++
		}
		if fields["status"] != 1 || fields["principal"] != 1 {
			t.Errorf("a request path added log fields: %s", line)
		}
	}
	if !strings.Contains(errLine, "error=") || !strings.Contains(errLine, "unavailable") {
		t.Errorf("5xx line lacks underlying error: %s", errLine)
	}
}

// TestPprofGated asserts /debug/pprof/ is 404 by default and served when
// enabled.
func TestPprofGated(t *testing.T) {
	_, hs, _ := telemetryStack(t, nil)
	if resp, _ := mustGet(t, hs.URL+"/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without flag = %d, want 404", resp.StatusCode)
	}

	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := catalog.New(catalog.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithConfig(svc, server.Config{Pprof: true})
	t.Cleanup(func() { srv.Lineage.Close(); srv.Search.Close() })
	hs2 := httptest.NewServer(srv)
	t.Cleanup(hs2.Close)
	if resp, body := mustGet(t, hs2.URL+"/debug/pprof/"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof with flag = %d", resp.StatusCode)
	}
}

// TestRouteLabels holds uc_http_requests_total's {route, code} labels: a
// matched request counts under its route's pattern, whatever its status; an
// unknown path and a known path under a method it does not serve count as
// "unmatched"; a request failed by an injected fault, which reaches no
// handler, still counts under the pattern it would have reached; and the
// operational endpoints are not counted at all.
func TestRouteLabels(t *testing.T) {
	srv, hs, _ := telemetryStack(t, nil)
	if _, err := srv.Service.CreateCatalog(catalog.Ctx{Principal: "admin", Metastore: "ms1"}, "sales", ""); err != nil {
		t.Fatal(err)
	}
	do := func(method, path string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, hs.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer admin")
		req.Header.Set("X-UC-Metastore", "ms1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s = %d, want %d", method, path, resp.StatusCode, want)
		}
	}
	const api = "/api/2.1/unity-catalog"
	do("GET", api+"/assets/sales", http.StatusOK)
	do("GET", api+"/assets/sales", http.StatusOK)
	do("GET", api+"/assets/nosuch", http.StatusNotFound)
	do("GET", api+"/nosuch", http.StatusNotFound)
	do("PUT", api+"/resolve", http.StatusMethodNotAllowed)
	inj := faults.New(1)
	inj.AddRule(faults.Rule{Op: "http.GET", Class: faults.Throttled, P: 1})
	srv.SetFaults(inj)
	do("GET", api+"/assets/sales", http.StatusTooManyRequests)
	do("GET", api+"/nosuch", http.StatusTooManyRequests)
	do("GET", "/healthz", http.StatusOK) // exempt from faults, and not counted
	srv.SetFaults(nil)
	do("GET", "/debug/traces", http.StatusOK)

	_, body := mustGet(t, hs.URL+"/metrics")
	var got []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "uc_http_requests_total{") {
			got = append(got, line)
		}
	}
	want := []string{
		`uc_http_requests_total{route="GET /api/2.1/unity-catalog/assets/{full}",code="200"} 2`,
		`uc_http_requests_total{route="GET /api/2.1/unity-catalog/assets/{full}",code="404"} 1`,
		`uc_http_requests_total{route="GET /api/2.1/unity-catalog/assets/{full}",code="429"} 1`,
		`uc_http_requests_total{route="unmatched",code="404"} 1`,
		`uc_http_requests_total{route="unmatched",code="405"} 1`,
		`uc_http_requests_total{route="unmatched",code="429"} 1`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("uc_http_requests_total:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
