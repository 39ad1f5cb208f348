package server_test

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"unitycatalog/internal/audit"
	"unitycatalog/internal/catalog"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/server"
)

// hotRequest is one request of TestEnvelopePerRequest's mix and what its
// response carried when it was made alone.
type hotRequest struct {
	kind, principal, method, path, body string
	ifNoneMatch                         string

	status                    int
	etag, ctype, cacheControl string
	names                     []string
}

// hotHeaderNames are the response header names of each hot route, as the
// server has always sent them. Date is net/http's.
var hotHeaderNames = map[string][]string{
	"get":         {"Cache-Control", "Content-Length", "Content-Type", "Date", "Etag", "X-Uc-Trace-Id"},
	"list":        {"Cache-Control", "Content-Length", "Content-Type", "Date", "Etag", "X-Uc-Trace-Id"},
	"query":       {"Cache-Control", "Content-Length", "Content-Type", "Date", "Etag", "X-Uc-Trace-Id"},
	"resolve":     {"Cache-Control", "Content-Length", "Content-Type", "Date", "Etag", "X-Uc-Trace-Id"},
	"authz-batch": {"Cache-Control", "Content-Length", "Content-Type", "Date", "Etag", "X-Uc-Trace-Id"},
	"temp-creds":  {"Cache-Control", "Content-Length", "Content-Type", "Date", "X-Uc-Trace-Id"},
	"304":         {"Cache-Control", "Date", "Etag", "X-Uc-Trace-Id"},
}

// TestEnvelopePerRequest: the per-request state a response is built from
// never crosses requests. Eight clients send a mix of the hot routes (get,
// list, query, resolve, authorize-batch, temporary credentials and 304
// revalidations) under three principals, each request with a trace ID of its
// own, and every response must carry that trace ID, the ETag, Content-Type
// and Cache-Control it carries when its request is made alone, and the hot
// route's header names. A request that audits must have records under its
// trace ID, and every one of them must be its principal's.
func TestEnvelopePerRequest(t *testing.T) {
	srv, hs := condStack(t, server.Config{ETagMaxAge: time.Hour, SampleEvery: -1})
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	if _, err := srv.Service.CreateCatalog(admin, "sales", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Service.CreateSchema(admin, "sales", "raw", ""); err != nil {
		t.Fatal(err)
	}
	principals := []string{"admin", "r1", "r2"}
	var tables []string
	var tableIDs []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t%d", i)
		e, err := srv.Service.CreateTable(admin, "sales.raw", name, catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, "")
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, "sales.raw."+name)
		tableIDs = append(tableIDs, string(e.ID))
	}
	for _, p := range principals[1:] {
		for on, priv := range map[string]privilege.Privilege{"sales": privilege.UseCatalog, "sales.raw": privilege.UseSchema} {
			if err := srv.Service.Grant(admin, on, privilege.Principal(p), priv); err != nil {
				t.Fatal(err)
			}
		}
		for _, tbl := range tables {
			if err := srv.Service.Grant(admin, tbl, privilege.Principal(p), privilege.Select); err != nil {
				t.Fatal(err)
			}
		}
	}

	const api = "/api/2.1/unity-catalog"
	var mix []*hotRequest
	for _, p := range principals {
		for i, tbl := range tables {
			mix = append(mix,
				&hotRequest{kind: "get", principal: p, method: "GET", path: api + "/assets/" + tbl},
				&hotRequest{kind: "resolve", principal: p, method: "POST", path: api + "/resolve", body: `{"Names":["` + tbl + `"]}`},
				&hotRequest{kind: "authz-batch", principal: p, method: "POST", path: api + "/authorize-batch", body: `{"asset_ids":["` + tableIDs[i] + `"],"privilege":"SELECT"}`},
				&hotRequest{kind: "temp-creds", principal: p, method: "POST", path: api + "/temporary-credentials", body: `{"asset":"` + tbl + `","operation":"READ"}`},
			)
		}
		mix = append(mix,
			&hotRequest{kind: "list", principal: p, method: "GET", path: api + "/assets?parent=sales.raw&type=TABLE&maxResults=2"},
			&hotRequest{kind: "query", principal: p, method: "POST", path: api + "/query-assets", body: `{"catalog_name":"sales","max_results":2}`},
		)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	t.Cleanup(client.CloseIdleConnections)
	send := func(rq *hotRequest, traceID string) (*http.Response, error) {
		req, err := http.NewRequest(rq.method, hs.URL+rq.path, strings.NewReader(rq.body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Authorization", "Bearer "+rq.principal)
		req.Header.Set("X-UC-Metastore", "ms1")
		req.Header.Set("X-UC-Trace-Id", traceID)
		if rq.ifNoneMatch != "" {
			req.Header.Set("If-None-Match", rq.ifNoneMatch)
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp, nil
	}
	headerNames := func(h http.Header) []string {
		var names []string
		for k := range h {
			names = append(names, k)
		}
		slices.Sort(names)
		return names
	}

	// Each request alone, then its revalidation with the validator it got.
	for _, rq := range slices.Clone(mix) {
		resp, err := send(rq, "00000000000000ff")
		if err != nil {
			t.Fatal(err)
		}
		rq.status, rq.etag = resp.StatusCode, resp.Header.Get("Etag")
		rq.ctype, rq.cacheControl = resp.Header.Get("Content-Type"), resp.Header.Get("Cache-Control")
		rq.names = headerNames(resp.Header)
		if rq.status != http.StatusOK {
			t.Fatalf("%s %s as %s: %d", rq.method, rq.path, rq.principal, rq.status)
		}
		if rq.kind == "get" {
			reval := *rq
			reval.kind, reval.ifNoneMatch = "304", rq.etag
			resp, err := send(&reval, "00000000000000ff")
			if err != nil {
				t.Fatal(err)
			}
			reval.status, reval.ctype, reval.cacheControl = resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Cache-Control")
			reval.names = headerNames(resp.Header)
			if reval.status != http.StatusNotModified || resp.Header.Get("Etag") != rq.etag {
				t.Fatalf("revalidating %s as %s: %d, etag %q", rq.path, rq.principal, reval.status, resp.Header.Get("Etag"))
			}
			mix = append(mix, &reval)
		}
	}
	for _, rq := range mix {
		if want := hotHeaderNames[rq.kind]; !slices.Equal(rq.names, want) {
			t.Errorf("%s response header names %v, want %v", rq.kind, rq.names, want)
		}
		wantType, wantCC := "application/json", "private, must-revalidate"
		switch rq.kind {
		case "temp-creds":
			wantCC = "no-store"
		case "304":
			wantType = ""
		}
		if rq.ctype != wantType || rq.cacheControl != wantCC {
			t.Errorf("%s: Content-Type %q, Cache-Control %q; want %q, %q", rq.kind, rq.ctype, rq.cacheControl, wantType, wantCC)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	const clients, perClient = 8, 500
	var (
		mu     sync.Mutex
		traced = map[string]*hotRequest{} // trace ID -> the request that sent it
		wg     sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rq := mix[(c*7+i*13)%len(mix)]
				traceID := fmt.Sprintf("%08x%08x", c+1, i+1)
				resp, err := send(rq, traceID)
				if err != nil {
					t.Error(err)
					return
				}
				got := resp.Header
				switch {
				case resp.StatusCode != rq.status:
					t.Errorf("%s %s as %s: %d, alone %d", rq.kind, rq.path, rq.principal, resp.StatusCode, rq.status)
				case got.Get("X-Uc-Trace-Id") != traceID:
					t.Errorf("%s request sent trace %s, response carries %s", rq.kind, traceID, got.Get("X-Uc-Trace-Id"))
				case got.Get("Etag") != rq.etag:
					t.Errorf("%s %s as %s: ETag %q, alone %q", rq.kind, rq.path, rq.principal, got.Get("Etag"), rq.etag)
				case got.Get("Content-Type") != rq.ctype || got.Get("Cache-Control") != rq.cacheControl:
					t.Errorf("%s: Content-Type %q, Cache-Control %q; alone %q, %q", rq.kind, got.Get("Content-Type"), got.Get("Cache-Control"), rq.ctype, rq.cacheControl)
				case !slices.Equal(headerNames(got), rq.names):
					t.Errorf("%s response header names %v, alone %v", rq.kind, headerNames(got), rq.names)
				}
				if rq.kind != "304" && rq.kind != "authz-batch" { // neither audits anything
					mu.Lock()
					traced[traceID] = rq
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()

	seen := map[string]bool{}
	for _, rec := range srv.Service.Audit().Filter(func(r audit.Record) bool { return traced[r.TraceID] != nil }) {
		seen[rec.TraceID] = true
		if rq := traced[rec.TraceID]; rec.Principal != rq.principal {
			t.Errorf("audit record %+v under the trace of %s's %s request", rec, rq.principal, rq.kind)
		}
	}
	for id, rq := range traced {
		if !seen[id] {
			t.Errorf("no audit record carries trace %s of %s's %s request", id, rq.principal, rq.kind)
		}
	}
}

// lockedBuffer is an access-log writer that a test reads once the server is
// done with it.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *lockedBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *lockedBuffer) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestHeaderStringsMatchTheirRequest: the trace IDs the server mints and the
// ETags it builds are strings over their request's envelope, so nothing a
// request leaves behind may read another's bytes. A trace retained and kept
// as a histogram exemplar reads the same after 10,000 later requests, and,
// under eight concurrent clients, every response's minted X-Uc-Trace-Id is
// its own, named by exactly one access-log line and by audit records that
// are all its request's, and its ETag is the one its request gets alone.
func TestHeaderStringsMatchTheirRequest(t *testing.T) {
	var accessLog lockedBuffer
	srv, hs := condStack(t, server.Config{ETagMaxAge: time.Hour, SampleEvery: 1, SlowThreshold: -1, AccessLog: true, AccessLogWriter: &accessLog})
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	if _, err := srv.Service.CreateCatalog(admin, "sales", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Service.CreateSchema(admin, "sales", "raw", ""); err != nil {
		t.Fatal(err)
	}
	principals := []string{"admin", "r1", "r2"}
	for _, p := range principals[1:] {
		for on, priv := range map[string]privilege.Privilege{"sales": privilege.UseCatalog, "sales.raw": privilege.UseSchema} {
			if err := srv.Service.Grant(admin, on, privilege.Principal(p), priv); err != nil {
				t.Fatal(err)
			}
		}
	}
	var tables []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("sales.raw.t%d", i)
		if _, err := srv.Service.CreateTable(admin, "sales.raw", name[len("sales.raw."):], catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, ""); err != nil {
			t.Fatal(err)
		}
		for _, p := range principals[1:] {
			if err := srv.Service.Grant(admin, name, privilege.Principal(p), privilege.Select); err != nil {
				t.Fatal(err)
			}
		}
		tables = append(tables, name)
	}

	const api = "/api/2.1/unity-catalog"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	t.Cleanup(client.CloseIdleConnections)
	send := func(rq *hotRequest) (*http.Response, error) {
		req, err := http.NewRequest(rq.method, hs.URL+rq.path, strings.NewReader(rq.body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Authorization", "Bearer "+rq.principal)
		req.Header.Set("X-UC-Metastore", "ms1")
		if rq.ifNoneMatch != "" {
			req.Header.Set("If-None-Match", rq.ifNoneMatch)
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp, nil
	}

	// A request on a route nothing else takes: its trace is retained and is
	// that route's exemplar from now on.
	resp, err := send(&hotRequest{principal: "admin", method: "GET", path: api + "/catalogs"})
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("list catalogs: %v, %v", resp, err)
	}
	kept := resp.Header.Get("X-Uc-Trace-Id")
	recent := srv.Tracer().Recent()
	if len(kept) != 16 || len(recent) == 0 || recent[0].ID != kept {
		t.Fatalf("minted trace ID %q, newest retained trace %+v", kept, recent)
	}
	retained := recent[0]
	exemplar := `trace_id="` + kept + `"`

	var mix []*hotRequest
	for _, p := range principals {
		for _, tbl := range tables {
			get := &hotRequest{kind: "get", principal: p, method: "GET", path: api + "/assets/" + tbl}
			mix = append(mix, get,
				&hotRequest{kind: "resolve", principal: p, method: "POST", path: api + "/resolve", body: `{"Names":["` + tbl + `"]}`},
				&hotRequest{kind: "temp-creds", principal: p, method: "POST", path: api + "/temporary-credentials", body: `{"asset":"` + tbl + `","operation":"READ"}`},
			)
			resp, err := send(get)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s as %s: %v, %v", tbl, p, resp, err)
			}
			get.status, get.etag = resp.StatusCode, resp.Header.Get("Etag")
			mix = append(mix, &hotRequest{kind: "304", principal: p, method: "GET", path: get.path, ifNoneMatch: get.etag, status: http.StatusNotModified, etag: get.etag})
		}
	}
	for _, rq := range mix {
		if rq.status == 0 {
			resp, err := send(rq)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s as %s: %v, %v", rq.kind, rq.principal, resp, err)
			}
			rq.status, rq.etag = resp.StatusCode, resp.Header.Get("Etag")
		}
	}

	const clients, perClient = 8, 1250
	var (
		mu     sync.Mutex
		traced = map[string]*hotRequest{} // minted trace ID -> the request it answered
		wg     sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rq := mix[(c*7+i*13)%len(mix)]
				resp, err := send(rq)
				if err != nil {
					t.Error(err)
					return
				}
				id := resp.Header.Get("X-Uc-Trace-Id")
				if resp.StatusCode != rq.status || resp.Header.Get("Etag") != rq.etag {
					t.Errorf("%s as %s: %d, ETag %q; alone %d, %q", rq.kind, rq.principal, resp.StatusCode, resp.Header.Get("Etag"), rq.status, rq.etag)
				}
				mu.Lock()
				if traced[id] != nil || len(id) != 16 {
					t.Errorf("%s as %s: trace ID %q, minted twice or malformed", rq.kind, rq.principal, id)
				}
				traced[id] = rq
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Each minted ID names one access-log line, of its request.
	logged := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(accessLog.String()), "\n") {
		_, id, _ := strings.Cut(line, " trace=")
		id, _, _ = strings.Cut(id, " ")
		rq := traced[id]
		if rq == nil {
			continue
		}
		logged[id]++
		path, _, _ := strings.Cut(rq.path, "?")
		if want := fmt.Sprintf(" path=%s status=%d ", path, rq.status); !strings.Contains(line, want) || !strings.Contains(line, ` principal="`+rq.principal+`"`) {
			t.Errorf("access-log line %q under the trace of %s's %s request", line, rq.principal, rq.kind)
		}
	}
	for id, rq := range traced {
		if logged[id] != 1 {
			t.Errorf("%d access-log lines name trace %s of %s's %s request, want 1", logged[id], id, rq.principal, rq.kind)
		}
	}
	// Each audit record under a minted ID is its request's, and every request
	// that audits has one.
	audited := map[string]bool{}
	for _, rec := range srv.Service.Audit().Filter(func(r audit.Record) bool { return traced[r.TraceID] != nil }) {
		audited[rec.TraceID] = true
		if rq := traced[rec.TraceID]; rec.Principal != rq.principal {
			t.Errorf("audit record %+v under the trace of %s's %s request", rec, rq.principal, rq.kind)
		}
	}
	for id, rq := range traced {
		if rq.kind != "304" && !audited[id] {
			t.Errorf("no audit record carries trace %s of %s's %s request", id, rq.principal, rq.kind)
		}
	}

	// The retained trace and the exemplar still read the ID they were given.
	if retained.ID != kept {
		t.Errorf("a retained trace's ID reads %q after %d requests, was %q", retained.ID, clients*perClient, kept)
	}
	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "uc_http_request_seconds_bucket{") && strings.Contains(line, api+"/catalogs") && strings.Contains(line, exemplar) {
			found = true
		}
	}
	if !found {
		t.Errorf("no uc_http_request_seconds bucket of the catalogs route keeps exemplar %s after %d requests", exemplar, clients*perClient)
	}
}
