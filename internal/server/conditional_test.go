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
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/server"
	"unitycatalog/internal/store"
)

// condStack builds a stack with explicit server config.
func condStack(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
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
// encoding/json, from what the catalog service returns for the same request,
// and the server's body must match it byte for byte, including the
// empty/null edge cases.
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
		if rec.Code != http.StatusOK {
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

// TestRevalidationAllocsGate pins the 304 fast path: revalidating an
// unchanged resource must stay cheap. The bound is deliberately loose (the
// trace/ctx machinery allocates a little); the reflection-encoded fresh path
// costs several times more, so a regression that re-encodes on 304 trips it.
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
	if allocs > 64 {
		t.Fatalf("304 revalidation allocates %.0f/request, want <= 64", allocs)
	}
}

type discardRW struct {
	hdr    http.Header
	status int
}

func (w *discardRW) Header() http.Header         { return w.hdr }
func (w *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardRW) WriteHeader(c int)           { w.status = c }
