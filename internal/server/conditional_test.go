package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/client"
	"unitycatalog/internal/clock"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/server"
	"unitycatalog/internal/store"
)

// condStack builds a stack with explicit server config.
func condStack(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	return condStackOn(t, cfg, nil)
}

// condStackOn is condStack with the catalog on clk (nil: the real clock).
func condStackOn(t *testing.T, cfg server.Config, clk clock.Clock) (*server.Server, *httptest.Server) {
	t.Helper()
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := catalog.New(catalog.Config{DB: db, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1"); err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithConfig(svc, cfg)
	t.Cleanup(func() { srv.Lineage.Close(); srv.Search.Close() })
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
}

func condGet(t *testing.T, base, path, etag string) (*http.Response, []byte) {
	t.Helper()
	return condDo(t, base, "GET", path, "", etag)
}

func condDo(t *testing.T, base, method, path, reqBody, etag string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer admin")
	req.Header.Set("X-UC-Metastore", "ms1")
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestConditionalGetInterleavedWrites drives the version-keyed validator
// through its whole life cycle: a fresh 200 with an ETag, a 304 on
// revalidation, and — after each write bumps the metastore version — a fresh
// body, never a stale 304.
func TestConditionalGetInterleavedWrites(t *testing.T) {
	srv, hs := condStack(t, server.Config{ETagMaxAge: time.Hour})
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	if _, err := srv.Service.CreateCatalog(admin, "sales", "v1"); err != nil {
		t.Fatal(err)
	}

	const path = "/api/2.1/unity-catalog/assets/sales"
	resp, body := condGet(t, hs.URL, path, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh get: %d %s", resp.StatusCode, body)
	}
	tag := resp.Header.Get("ETag")
	if tag == "" {
		t.Fatal("fresh get: no ETag")
	}
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "must-revalidate") {
		t.Fatalf("Cache-Control = %q", cc)
	}
	if !strings.Contains(string(body), `"comment":"v1"`) {
		t.Fatalf("body = %s", body)
	}

	// Unchanged version: revalidation is a 304 with no body.
	resp, body = condGet(t, hs.URL, path, tag)
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("revalidate: %d, body %q", resp.StatusCode, body)
	}

	// A write bumps the metastore version: the old validator must miss and
	// the response must carry the fresh comment.
	comment := "v2"
	if _, err := srv.Service.UpdateAsset(admin, "sales", catalog.UpdateRequest{Comment: &comment}); err != nil {
		t.Fatal(err)
	}
	resp, body = condGet(t, hs.URL, path, tag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-write get: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"comment":"v2"`) {
		t.Fatalf("post-write body is stale: %s", body)
	}
	tag2 := resp.Header.Get("ETag")
	if tag2 == "" || tag2 == tag {
		t.Fatalf("post-write ETag %q should differ from %q", tag2, tag)
	}
	// And the new validator revalidates again.
	resp, _ = condGet(t, hs.URL, path, tag2)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("second revalidate: %d", resp.StatusCode)
	}

	// Each of the other conditional routes makes its own call to stamp and
	// compare the validator, so each is driven: a fresh 200 carries an ETag,
	// and that ETag revalidates to an empty 304.
	if _, err := srv.Service.CreateSchema(admin, "sales", "raw", ""); err != nil {
		t.Fatal(err)
	}
	tbl, err := srv.Service.CreateTable(admin, "sales.raw", "t0", catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, "")
	if err != nil {
		t.Fatal(err)
	}
	const api = "/api/2.1/unity-catalog"
	for _, rt := range []struct{ method, path, body string }{
		{"GET", api + "/assets?parent=sales.raw&type=TABLE&maxResults=20", ""},
		{"POST", api + "/resolve", `{"Names":["sales.raw.t0"]}`},
		{"POST", api + "/query-assets", `{"type":"TABLE","catalog_name":"sales","max_results":20}`},
		{"POST", api + "/authorize-batch", `{"asset_ids":["` + string(tbl.ID) + `"],"privilege":"SELECT"}`},
	} {
		resp, body := condDo(t, hs.URL, rt.method, rt.path, rt.body, "")
		tag := resp.Header.Get("ETag")
		if resp.StatusCode != http.StatusOK || tag == "" {
			t.Fatalf("%s %s: %d, ETag %q, body %s", rt.method, rt.path, resp.StatusCode, tag, body)
		}
		resp, body = condDo(t, hs.URL, rt.method, rt.path, rt.body, tag)
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("%s %s revalidate: %d, body %q", rt.method, rt.path, resp.StatusCode, body)
		}
	}
}

// TestClientConditionalAgainstServer is the end-to-end version of the
// client validator-cache regression test: the SDK transparently revalidates
// and still observes every write.
func TestClientConditionalAgainstServer(t *testing.T) {
	srv, hs := condStack(t, server.Config{ETagMaxAge: time.Hour})
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	if _, err := srv.Service.CreateCatalog(admin, "sales", "v1"); err != nil {
		t.Fatal(err)
	}
	c := client.New(hs.URL, "admin", "ms1")

	for i := 0; i < 3; i++ { // first call caches, later calls revalidate
		e, err := c.GetAsset("sales")
		if err != nil || e.Comment != "v1" {
			t.Fatalf("get %d = %+v, %v", i, e, err)
		}
	}
	comment := "v2"
	if _, err := srv.Service.UpdateAsset(admin, "sales", catalog.UpdateRequest{Comment: &comment}); err != nil {
		t.Fatal(err)
	}
	e, err := c.GetAsset("sales")
	if err != nil || e.Comment != "v2" {
		t.Fatalf("post-write get = %+v, %v (client served stale cache?)", e, err)
	}
}

// TestPooledMatchesNaiveBodies holds the pooled encoders to their oracle on
// the wire: for each hot route the expected body is built here, with
// encoding/json, from what the catalog service returns for the same request
// (for a create or a PATCH, the entity it wrote, read back), and the server's
// body must match it byte for byte, including the empty/null edge cases.
func TestPooledMatchesNaiveBodies(t *testing.T) {
	db, err := store.Open(store.Options{})
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
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	if _, err := svc.CreateCatalog(admin, "sales", "all of it"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateSchema(admin, "sales", "raw", ""); err != nil {
		t.Fatal(err)
	}
	var assetID string
	for i := 0; i < 7; i++ {
		e, terr := svc.CreateTable(admin, "sales.raw", fmt.Sprintf("t%d", i), catalog.TableSpec{Columns: []catalog.ColumnInfo{
			{Name: "id", Type: "BIGINT", Comment: `quoted "id" <&>`}, {Name: "region", Type: "STRING", Nullable: true},
		}}, "")
		if terr != nil {
			t.Fatal(terr)
		}
		assetID = string(e.ID)
	}

	pooled := server.NewWithConfig(svc, server.Config{ETagMaxAge: -1})
	t.Cleanup(func() { pooled.Lineage.Close(); pooled.Search.Close() })

	// The reference shapes: what the reflection encoder made of each result.
	assets := func(out []*erm.Entity, err error) (any, error) {
		return map[string]any{"assets": out}, err
	}
	paged := func(page *catalog.Page, err error) (any, error) {
		if err != nil {
			return nil, err
		}
		resp := map[string]any{"assets": page.Assets}
		if page.NextPageToken != "" {
			resp["nextPageToken"] = page.NextPageToken
		}
		return resp, nil
	}
	allowed := func(out []bool, err error) (any, error) {
		return map[string]any{"allowed": out}, err
	}

	const p = "/api/2.1/unity-catalog"
	entity := func(full string) func() (any, error) {
		return func() (any, error) { return svc.GetAsset(admin, full) }
	}
	cases := []struct {
		name, method, path, body string
		// want is nil for healthz, whose body carries wall-clock fields.
		want func() (any, error)
	}{
		{"get_asset", "GET", p + "/assets/sales.raw.t0", "",
			func() (any, error) { return svc.GetAsset(admin, "sales.raw.t0") }},
		{"list_unpaged", "GET", p + "/assets?parent=sales.raw&type=TABLE", "",
			func() (any, error) { return assets(svc.ListAssets(admin, "sales.raw", erm.TypeTable)) }},
		{"list_paged", "GET", p + "/assets?parent=sales.raw&type=TABLE&maxResults=3", "",
			func() (any, error) { return paged(svc.ListAssetsPage(admin, "sales.raw", erm.TypeTable, 3, "")) }},
		{"list_last_page", "GET", p + "/assets?parent=sales.raw&type=TABLE&maxResults=50", "",
			func() (any, error) { return paged(svc.ListAssetsPage(admin, "sales.raw", erm.TypeTable, 50, "")) }},
		{"list_empty", "GET", p + "/assets?parent=sales.raw&type=VOLUME&maxResults=5", "",
			func() (any, error) { return paged(svc.ListAssetsPage(admin, "sales.raw", erm.TypeVolume, 5, "")) }},
		{"resolve", "POST", p + "/resolve", `{"Names":["sales.raw.t0","sales.raw.t1"]}`,
			func() (any, error) {
				return svc.Resolve(admin, catalog.ResolveRequest{Names: []string{"sales.raw.t0", "sales.raw.t1"}})
			}},
		{"query_unpaged", "POST", p + "/query-assets", `{"type":"TABLE","catalog_name":"sales"}`,
			func() (any, error) {
				return assets(svc.QueryAssets(admin, catalog.Filter{Type: erm.TypeTable, CatalogName: "sales"}))
			}},
		{"query_paged", "POST", p + "/query-assets", `{"type":"TABLE","catalog_name":"sales","max_results":2}`,
			func() (any, error) {
				return paged(svc.QueryAssetsPage(admin, catalog.Filter{Type: erm.TypeTable, CatalogName: "sales", MaxResults: 2}))
			}},
		{"query_empty", "POST", p + "/query-assets", `{"type":"VOLUME","max_results":5}`,
			func() (any, error) {
				return paged(svc.QueryAssetsPage(admin, catalog.Filter{Type: erm.TypeVolume, MaxResults: 5}))
			}},
		{"authorize_batch", "POST", p + "/authorize-batch", `{"asset_ids":["` + assetID + `","nope"],"privilege":"SELECT"}`,
			func() (any, error) {
				return allowed(svc.AuthorizeBatch(admin, []ids.ID{ids.ID(assetID), "nope"}, privilege.Select))
			}},
		{"authorize_empty", "POST", p + "/authorize-batch", `{"privilege":"SELECT"}`,
			func() (any, error) { return allowed(svc.AuthorizeBatch(admin, []ids.ID{}, privilege.Select)) }},
		{"healthz_status", "GET", "/healthz", "", nil},
		{"create_table", "POST", p + "/tables", `{"schema_full":"sales.raw","name":"created","spec":{"table_type":"","format":"",` +
			`"columns":[{"name":"id","type":"BIGINT","nullable":false,"position":0},{"name":"ts","type":"TIMESTAMP","nullable":true,"position":1}],"fgac":{}}}`,
			entity("sales.raw.created")},
		{"create_table_escaped", "POST", p + "/tables", `{"schema_full":"sales.raw","name":"escaped","spec":` +
			`{"columns":[{"name":"id","type":"BIGINT","comment":"quoted \"id\" <&> \u2028"}],"fgac":{"row_filters":[{"columns":["id"],"predicate":"id > 0"}]}}}`,
			entity("sales.raw.escaped")},
		{"patch_comment", "PATCH", p + "/assets/sales.raw.t1", `{"comment":"patched"}`, entity("sales.raw.t1")},
		{"patch_escaped", "PATCH", p + "/assets/sales.raw.t2", `{"comment":"<b>x</b> & \"y\"","properties":{"k":"v"}}`, entity("sales.raw.t2")},
	}
	for _, tc := range cases {
		var rdr io.Reader
		if tc.body != "" {
			rdr = strings.NewReader(tc.body)
		}
		req := httptest.NewRequest(tc.method, tc.path, rdr)
		req.Header.Set("Authorization", "Bearer admin")
		req.Header.Set("X-UC-Metastore", "ms1")
		rec := httptest.NewRecorder()
		pooled.ServeHTTP(rec, req)
		got := rec.Body.Bytes()
		code := http.StatusOK
		if tc.method == "POST" && strings.HasSuffix(tc.path, "/tables") {
			code = http.StatusCreated
		}
		if rec.Code != code {
			t.Fatalf("%s: code %d, body %s", tc.name, rec.Code, got)
		}
		if tc.want == nil {
			continue
		}
		v, err := tc.want()
		if err != nil {
			t.Fatalf("%s: service: %v", tc.name, err)
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s: naive and pooled bodies differ\nnaive:  %s\npooled: %s", tc.name, want, got)
		}
	}
}

// TestAuthorizeBatchRoute checks the bulk authorization endpoint's answers.
func TestAuthorizeBatchRoute(t *testing.T) {
	srv, hs := condStack(t, server.Config{})
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	if _, err := srv.Service.CreateCatalog(admin, "sales", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Service.CreateSchema(admin, "sales", "raw", ""); err != nil {
		t.Fatal(err)
	}
	e, err := srv.Service.CreateTable(admin, "sales.raw", "orders", catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, "")
	if err != nil {
		t.Fatal(err)
	}

	body := `{"asset_ids":["` + string(e.ID) + `","missing"],"privilege":"SELECT"}`
	req, err := http.NewRequest("POST", hs.URL+"/api/2.1/unity-catalog/authorize-batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer admin")
	req.Header.Set("X-UC-Metastore", "ms1")
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(got) != `{"allowed":[true,false]}` {
		t.Fatalf("authorize-batch: %d %s", resp.StatusCode, got)
	}
}

// TestETagBucketFollowsTheClock: a validator's time bucket is read from the
// catalog's clock, so a revalidation within the bucket is a 304 and one
// ETagMaxAge later is a 200 with a new validator — on a fake clock, with no
// sleep.
func TestETagBucketFollowsTheClock(t *testing.T) {
	const maxAge = time.Hour
	clk := clock.NewFake(time.Date(2024, 1, 1, 0, 30, 0, 0, time.UTC))
	srv, hs := condStackOn(t, server.Config{ETagMaxAge: maxAge}, clk)
	if _, err := srv.Service.CreateCatalog(catalog.Ctx{Principal: "admin", Metastore: "ms1"}, "sales", ""); err != nil {
		t.Fatal(err)
	}
	const path = "/api/2.1/unity-catalog/assets/sales"
	resp, _ := condGet(t, hs.URL, path, "")
	tag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || tag == "" {
		t.Fatalf("first read: %d, etag %q", resp.StatusCode, tag)
	}
	if resp, _ = condGet(t, hs.URL, path, tag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation within the bucket: %d, want 304", resp.StatusCode)
	}
	clk.Advance(maxAge)
	resp, body := condGet(t, hs.URL, path, tag)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("revalidation one ETagMaxAge later: %d with %d body bytes, want 200 with the asset", resp.StatusCode, len(body))
	}
	if next := resp.Header.Get("ETag"); next == "" || next == tag {
		t.Fatalf("validator after the bucket rolled: %q, was %q", next, tag)
	}
}

// revalidationAllocs is what a 304 revalidation allocated when the request
// path last changed on purpose: one envelope, which holds the bytes of the
// trace ID and the validator, one route match, and no header value or context
// of its own. The reflection-encoded fresh path costs several times more, so
// a regression that re-encodes on 304 trips it.
const revalidationAllocs = 3 // 5 before one object per layer, 16 before that

// TestRevalidationAllocsGate pins the 304 fast path: it fails at 10 % over
// revalidationAllocs; `make allocs` prints the figure.
func TestRevalidationAllocsGate(t *testing.T) {
	srv, _ := condStack(t, server.Config{ETagMaxAge: time.Hour, SampleEvery: -1})
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	if _, err := srv.Service.CreateCatalog(admin, "sales", ""); err != nil {
		t.Fatal(err)
	}

	const path = "/api/2.1/unity-catalog/assets/sales"
	first := httptest.NewRequest("GET", path, nil)
	first.Header.Set("Authorization", "Bearer admin")
	first.Header.Set("X-UC-Metastore", "ms1")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, first)
	tag := rec.Header().Get("ETag")
	if rec.Code != http.StatusOK || tag == "" {
		t.Fatalf("prime: %d, etag %q", rec.Code, tag)
	}

	req := httptest.NewRequest("GET", path, nil)
	req.Header.Set("Authorization", "Bearer admin")
	req.Header.Set("X-UC-Metastore", "ms1")
	req.Header.Set("If-None-Match", tag)
	hdr := http.Header{}
	allocs := testing.AllocsPerRun(200, func() {
		clear(hdr)
		srv.ServeHTTP(&discardRW{hdr: hdr}, req)
	})
	t.Logf("304 revalidation: %.0f allocations (recorded %d)", allocs, revalidationAllocs)
	if allocs > 1.10*revalidationAllocs {
		t.Fatalf("304 revalidation: %.0f allocations, more than 10 %% over the recorded %d", allocs, revalidationAllocs)
	}
}

type discardRW struct {
	hdr    http.Header
	status int
}

func (w *discardRW) Header() http.Header         { return w.hdr }
func (w *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardRW) WriteHeader(c int)           { w.status = c }
