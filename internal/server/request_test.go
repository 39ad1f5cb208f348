package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// flatTypes are the request types decodeFlat reads, each with the check that
// holds it to encoding/json.
var flatTypes = []struct {
	name  string
	check func(*testing.T, []byte) bool
}{
	{"resolve", checkFlatDecode[catalog.ResolveRequest]},
	{"temp", checkFlatDecode[TempCredentialRequest]},
	{"authz", checkFlatDecode[AuthorizeBatchRequest]},
	{"query", checkFlatDecode[QueryAssetsRequest]},
	{"grant", checkFlatDecode[GrantRequest]},
	{"tag", checkFlatDecode[TagRequest]},
	{"create", checkFlatDecode[CreateTableRequest]},
	{"patch", checkFlatDecode[UpdateAssetRequest]},
}

// perfSpec is the spec perf/exec.go sends with every create-table: four
// columns and an empty fgac, as json.Marshal writes a catalog.TableSpec.
var perfSpec = mustMarshal(catalog.TableSpec{Columns: []catalog.ColumnInfo{
	{Name: "id", Type: "BIGINT"}, {Name: "region", Type: "STRING", Nullable: true, Position: 1},
	{Name: "amount", Type: "DOUBLE", Nullable: true, Position: 2}, {Name: "ts", Type: "TIMESTAMP", Nullable: true, Position: 3},
}})

// perfCreateBody is perf/exec.go's create-table body.
var perfCreateBody = `{"schema_full":"c0.s1","name":"w1_000001","spec":` + perfSpec + `}`

// manyColumns is a spec with more columns than decodeFlat reads on its stack.
func manyColumns() string {
	var spec catalog.TableSpec
	for i := 0; i < 11; i++ {
		spec.Columns = append(spec.Columns, catalog.ColumnInfo{Name: fmt.Sprintf("c%d", i), Type: "INT", Position: i, Comment: "x"})
	}
	return mustMarshal(spec)
}

// mustMarshal is what internal/client sends: json.Marshal of the request.
func mustMarshal(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// requestBodies are the seeded corpus: what perf/exec.go and internal/client
// send, and a body of each form decodeFlat leaves to encoding/json. fast
// names the types that read the body without encoding/json ("*": all).
var requestBodies = []struct{ body, fast string }{
	// perf/exec.go's bodies.
	{`{"Names":["c0.s1.t2","c0.s1.v3"]}`, "resolve"},
	{`{"type":"TABLE","catalog_name":"c0","schema_name":"s1","name_prefix":"t1","max_results":100}`, "query"},
	{`{"type":"TABLE","tag_key":"pii","tag_value":"high","max_results":100}`, "query"},
	{`{"path":"s3://lake/ms1/c0/s1/t2/part-0","operation":"READ"}`, "temp"},
	{`{"asset":"c0.s1.t2","operation":"READ"}`, "temp"},
	{`{"asset_ids":["0123456789abcdef","fedcba9876543210"],"privilege":"SELECT"}`, "authz"},
	{`{"securable":"c0.s1.t2","principal":"org3","privilege":"SELECT"}`, "grant"},
	{`{"securable":"c0.s1.t2","key":"pii","value":"high"}`, "tag"},
	{perfCreateBody, "create"},
	{`{"comment":"c-000042"}`, "patch"},
	// internal/client's bodies (json.Marshal escapes <, > and &, which falls back).
	{mustMarshal(catalog.ResolveRequest{Names: []string{"c.s.t"}}), "resolve"},
	{mustMarshal(catalog.ResolveRequest{Names: []string{"c.s.t"}, WithCredentials: true, Access: "READ_WRITE"}), "resolve"},
	{mustMarshal(TempCredentialRequest{Path: "s3://b/p", Operation: "READ_WRITE"}), "temp"},
	{mustMarshal(QueryAssetsRequest{CatalogName: "sales", SchemaName: "raw", Type: "TABLE", MaxResults: 7, PageToken: "sales.raw.t7"}), "query"},
	{mustMarshal(QueryAssetsRequest{}), "*"}, // every field omitted: {}
	{mustMarshal(GrantRequest{Securable: "c.s.t", Principal: "bob", Privilege: "MODIFY"}), "grant"},
	{mustMarshal(TagRequest{Securable: "c.s.t", Column: "id", Key: "k"}), "tag"},
	{mustMarshal(TagRequest{Securable: "c<s>t", Key: "a&b"}), ""},
	{mustMarshal(map[string]any{"schema_full": "c.s", "name": "t", "spec": catalog.TableSpec{
		Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, "storage_path": ""}), "create"},
	{mustMarshal(UpdateAssetRequest{Comment: new(string), Owner: new(string)}), "patch"},
	{mustMarshal(UpdateAssetRequest{Properties: map[string]string{"k": "v"}}), ""},
	// A create-table body: every spec member, an empty spec, an empty column
	// list, more columns than the stack holds, and insignificant space.
	{`{"schema_full":"c.s","name":"t","storage_path":"s3://b/t","spec":{"table_type":"FOREIGN","format":"ICEBERG",` +
		`"columns":[{"name":"a","type":"struct<x:int>","nullable":true,"position":-1,"comment":"ü"}],"fgac":{},` +
		`"base_table":"0123","foreign_connection":"pg","foreign_source_type":"postgres","uniform_enabled":true}}`, "create"},
	{`{"spec":{}}`, "create"},
	{`{"spec":{"columns":[]}}`, "create"},
	{`{"name":"t","spec":` + manyColumns() + `}`, "create"},
	{` { "spec" : { "fgac" : { } , "columns" : [ { "name" : "a" } , { } ] } } `, "create"},
	// The same key in two objects is no repeat.
	{`{"name":"t","spec":{"columns":[{"name":"a"},{"name":"b"}]}}`, "create"},
	// A PATCH: an absent comment, an empty one, an owner.
	{`{"comment":""}`, "patch"},
	{`{"owner":"bob","comment":"x"}`, "patch"},
	// A create-table or PATCH body decodeFlat leaves to encoding/json: an
	// unknown field at any depth, a non-empty fgac, a spec or properties in
	// a PATCH, null, an escape, a repeated key, a value of the wrong kind.
	{`{"name":"t","bogus":1}`, ""},
	{`{"spec":{"bogus":1}}`, ""},
	{`{"spec":{"columns":[{"name":"a","bogus":1}]}}`, ""},
	{`{"spec":{"fgac":{"row_filters":[]}}}`, ""},
	{`{"spec":{"fgac":{"column_masks":[{"column":"a","function":"f"}]}}}`, ""},
	{`{"comment":"x","spec":{}}`, ""},
	{`{"comment":"x","properties":{"k":"v"}}`, ""},
	{`{"spec":null}`, ""},
	{`{"spec":{"columns":null}}`, ""},
	{`{"spec":{"columns":[null]}}`, ""},
	{`{"spec":{"fgac":null}}`, ""},
	{`{"spec":{"table_type":null}}`, ""},
	{`{"comment":null}`, ""},
	{`{"owner":null,"comment":"x"}`, ""},
	{`{"name":"a\"b"}`, ""},
	{`{"comment":"line\nbreak"}`, ""},
	{`{"spec":{"columns":[{"name":"\` + `u0061"}]}}`, ""},
	{`{"name":"a","name":"b"}`, ""},
	{`{"comment":"a","comment":"b"}`, ""},
	{`{"spec":{"format":"DELTA","format":"ICEBERG"}}`, ""},
	{`{"spec":{"columns":[{"name":"a","name":"b"}]}}`, ""},
	{`{"spec":{"columns":[{"position":1.5}]}}`, ""},
	{`{"spec":{"columns":[{"nullable":"yes"}]}}`, ""},
	{`{"spec":{"columns":[1]}}`, ""},
	{`{"spec":{"columns":{}}}`, ""},
	{`{"spec":[]}`, ""},
	{`{"spec":{"columns":[{"name":"a"},]}}`, ""},
	{`{"spec":{"columns":[{"name":"a"}}`, ""},
	{`{"spec":{"uniform_enabled":1}}`, ""},
	{`{"comment":7}`, ""},
	{`{"Comment":"x"}`, ""},
	{`{"spec":{"Columns":[]}}`, ""},
	// Canonical forms of every value kind.
	{`{}`, "*"},
	{" \t\r\n{ \"Names\" : [ \"a\" , \"bc\" ] , \"WithCredentials\" : false , \"Access\" : \"\" } \n", "resolve"},
	{`{"Names":[],"WithCredentials":true}`, "resolve"},
	{`{"asset_ids":[],"privilege":"select"}`, "authz"},
	{`{"limit":-0,"max_results":999999999999999999,"owner":"ü","name_contains":"€x"}`, "query"},
	{`{"limit":-42,"type":"table"}`, "query"},
	{"{\"securable\":\"a\x7f\",\"principal\":\"\xef\xbf\xbd\"}", "grant"},
	{`{"securable":"","key":"","value":""}`, "tag"},
	// A key not spelled exactly as its field: encoding/json folds case.
	{`{"names":["a"]}`, ""},
	{`{"ASSET":"a"}`, ""},
	{`{"Asset_IDs":["x"]}`, ""},
	{`{"bogus":1}`, ""},
	// A repeated key.
	{`{"Names":["a"],"Names":["b"]}`, ""},
	{`{"asset":"a","asset":"b"}`, ""},
	{`{"limit":1,"limit":2}`, ""},
	// Any escape, in a value or a key.
	{`{"asset":"a\/b"}`, ""},
	{`{"Names":["\` + `u0061"]}`, ""},
	{`{"p\` + `u0061th":"x"}`, ""},
	{`{"securable":"\"quoted\""}`, ""},
	// Invalid UTF-8, and a control character.
	{"{\"asset\":\"\xff\"}", ""},
	{"{\"asset\":\"\xed\xa0\x80\"}", ""},
	{"{\"Names\":[\"\xc3\"]}", ""},
	{"{\"asset\":\"a\tb\"}", ""},
	{"{\"asset\":\"a\x00\"}", ""},
	// null, anywhere.
	{`null`, ""},
	{`{"Names":null}`, ""},
	{`{"asset":null}`, ""},
	{`{"limit":null}`, ""},
	{`{"WithCredentials":null}`, ""},
	{`{"asset_ids":["a",null]}`, ""},
	// A number that is not a small integer.
	{`{"limit":1.5}`, ""},
	{`{"limit":1e2}`, ""},
	{`{"limit":01}`, ""},
	{`{"limit":-}`, ""},
	{`{"limit":1234567890123456789}`, ""},
	{`{"limit":99999999999999999999}`, ""},
	// Bytes after the object: encoding/json's Decoder reads one value.
	{`{"asset":"a"}x`, ""},
	{`{"asset":"a"}{}`, ""},
	{`{"asset":"a"}}`, ""},
	// An empty or truncated body, and one that is not an object.
	{``, ""},
	{"  \n", ""},
	{`{`, ""},
	{`{"asset":`, ""},
	{`{"asset":"a"`, ""},
	{`{"asset":"a",}`, ""},
	{`{"Names":["a",]}`, ""},
	{`{"Names":["a" "b"]}`, ""},
	{`[]`, ""},
	{`"x"`, ""},
	{`7`, ""},
	{"\xef\xbb\xbf{}", ""},
	// A value of the wrong kind.
	{`{"Names":"a"}`, ""},
	{`{"WithCredentials":"true"}`, ""},
	{`{"WithCredentials":truex}`, ""},
	{`{"WithCredentials":tru}`, ""},
	{`{"WithCredentials":1}`, ""},
	{`{"limit":"1"}`, ""},
	{`{"asset_ids":[1]}`, ""},
	{`{"asset_ids":[["a"]]}`, ""},
	{`{"asset":{"a":1}}`, ""},
}

// checkFlatDecode decodes body as a T three ways: with encoding/json as
// readJSONHash always did, with decodeFlat, and through readJSONHash. When
// decodeFlat takes the body it must give encoding/json's struct, and
// readJSONHash must give encoding/json's struct or its error text, and the
// body's hash. It reports whether decodeFlat took the body.
func checkFlatDecode[T any](t *testing.T, body []byte) bool {
	t.Helper()
	var want T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	wantErr := dec.Decode(&want)

	var flat T
	took := decodeFlat(body, &flat)
	if took && (wantErr != nil || !reflect.DeepEqual(flat, want)) {
		t.Errorf("%T %q: decodeFlat gives %+v, encoding/json %+v (%v)", flat, body, flat, want, wantErr)
	}

	var got T
	hash, err := readJSONHash(httptest.NewRequest("POST", "/", bytes.NewReader(body)), &got)
	if wantErr != nil {
		if wantText := fmt.Errorf("%w: bad request body: %v", catalog.ErrInvalidArgument, wantErr).Error(); err == nil || err.Error() != wantText {
			t.Errorf("%T %q: readJSONHash reports %v, want %q", got, body, err, wantText)
		}
	} else if err != nil || !reflect.DeepEqual(got, want) || hash != fnv1a(body) {
		t.Errorf("%T %q: readJSONHash gives %+v, %x, %v; encoding/json %+v", got, body, got, hash, err, want)
	}
	return took
}

// TestRequestDecodeMatchesEncodingJSON: for every flat request type and every
// body of the corpus, decodeFlat and readJSONHash give encoding/json's struct
// and error text, and decodeFlat takes exactly the canonical bodies.
func TestRequestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, c := range requestBodies {
		for _, ft := range flatTypes {
			took := ft.check(t, []byte(c.body))
			if want := c.fast == "*" || c.fast == ft.name; took != want {
				t.Errorf("%s %q: decodeFlat took it: %v, want %v", ft.name, c.body, took, want)
			}
		}
	}
}

// FuzzRequestBody: whatever the body, each flat request type decodes to what
// encoding/json makes of it, or fails with its error text.
func FuzzRequestBody(f *testing.F) {
	for _, c := range requestBodies {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ft := range flatTypes {
			ft.check(t, body)
		}
	})
}

// The hot routes' allocations through Server.ServeHTTP on a warm cache, when
// their request path last changed on purpose: one envelope per request that
// holds the bytes of its header values (a minted trace ID, the ETag, the
// Content-Length), the constant ones shared, one route match, one catalog
// request state that holds the view, the authorizer and a name's resolution,
// a body's decoded strings, and a credential's table read for rules in place.
// TestHotRequestAllocs fails at 10 % over; `make allocs` prints the figures.
const (
	getAssetRequestAllocs   = 3  // 9 before one object per layer, 14 before one buffer and one authorizer, 30 before that
	resolveRequestAllocs    = 23 // 29, 34, 49
	tempCredsRequestAllocs  = 3  // 7, 24 before the in-place rules read too, 34
	authzBatchRequestAllocs = 6  // 9, 22 before
)

// replayBody is a request body that can be read again after a rewind.
type replayBody struct {
	b   []byte
	off int
}

func (r *replayBody) Read(p []byte) (int, error) {
	if r.off == len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *replayBody) Close() error { return nil }

type statusRW struct {
	hdr    http.Header
	status int
}

func (w *statusRW) Header() http.Header         { return w.hdr }
func (w *statusRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *statusRW) WriteHeader(c int)           { w.status = c }

// TestHotRequestAllocs gates what a GET of an asset (trace_read's commonest
// request), resolve, temporary-credentials and authorize-batch allocate
// through the whole HTTP request path — trace, routing, body decode, the
// catalog's read, authorization and audit, and the response — for a reader on
// a warm cache.
func TestHotRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("counts pooled allocations")
	}
	srv, tbl := readerStack(t, Config{SampleEvery: -1})
	for _, c := range []struct {
		method, route, body string
		recorded            float64
	}{
		{"GET", "assets/sales.raw.orders", "", getAssetRequestAllocs},
		{"POST", "resolve", `{"Names":["sales.raw.orders"]}`, resolveRequestAllocs},
		{"POST", "temporary-credentials", `{"asset":"sales.raw.orders","operation":"READ"}`, tempCredsRequestAllocs},
		{"POST", "authorize-batch", `{"asset_ids":["` + string(tbl.ID) + `"],"privilege":"SELECT"}`, authzBatchRequestAllocs},
	} {
		body := &replayBody{b: []byte(c.body)}
		req := httptest.NewRequest(c.method, apiPrefix+"/"+c.route, nil)
		req.Body = body
		req.Header.Set(hdrAuthorization, "Bearer reader")
		req.Header.Set(hdrMetastore, "ms1")
		rw := &statusRW{hdr: http.Header{}}
		serve := func() {
			body.off = 0
			clear(rw.hdr)
			rw.status = 0
			srv.ServeHTTP(rw, req)
			if rw.status != http.StatusOK {
				t.Fatalf("%s: status %d", c.route, rw.status)
			}
		}
		serve() // warms the cache, the authorization snapshot and the token cache
		got := testing.AllocsPerRun(200, serve)
		t.Logf("%s: %.0f allocations (recorded %.0f)", c.route, got, c.recorded)
		if got > 1.10*c.recorded {
			t.Errorf("%s: %.0f allocations, more than 10 %% over the recorded %.0f", c.route, got, c.recorded)
		}
	}
}

// readerStack is a server with sales.raw.orders, readable by "reader".
func readerStack(t *testing.T, cfg Config) (*Server, *erm.Entity) {
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
	if _, err := svc.CreateMetastore("ms1", "main", "r", "admin", "s3://lake/ms1"); err != nil {
		t.Fatal(err)
	}
	srv := NewWithConfig(svc, cfg)
	t.Cleanup(func() { srv.Lineage.Close(); srv.Search.Close() })
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	if _, err := svc.CreateCatalog(admin, "sales", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateSchema(admin, "sales", "raw", ""); err != nil {
		t.Fatal(err)
	}
	tbl, err := svc.CreateTable(admin, "sales.raw", "orders", catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, "")
	if err != nil {
		t.Fatal(err)
	}
	for on, priv := range map[string]privilege.Privilege{"sales": privilege.UseCatalog, "sales.raw": privilege.UseSchema, "sales.raw.orders": privilege.Select} {
		if err := svc.Grant(admin, on, "reader", priv); err != nil {
			t.Fatal(err)
		}
	}
	return srv, tbl
}

// TestRequestDecodeAllocs: decodeFlat allocates one object per string value
// it keeps and one per non-empty array, and none for an enum value that
// spells one of the API's constants.
func TestRequestDecodeAllocs(t *testing.T) {
	cases := []struct {
		body   string
		decode func([]byte) bool
		want   float64
	}{
		{`{"Names":["sales.raw.orders","sales.raw.items","sales.raw.users"],"WithCredentials":true,"Access":"READ"}`,
			func(b []byte) bool { var r catalog.ResolveRequest; return decodeFlat(b, &r) }, 3 + 1},
		{`{"asset":"sales.raw.orders","operation":"READ"}`,
			func(b []byte) bool { var r TempCredentialRequest; return decodeFlat(b, &r) }, 1},
		{`{"asset_ids":["0123456789abcdef","fedcba9876543210"],"privilege":"SELECT"}`,
			func(b []byte) bool { var r AuthorizeBatchRequest; return decodeFlat(b, &r) }, 2 + 1},
		{`{"type":"TABLE","catalog_name":"c10","schema_name":"s11","name_prefix":"t12","max_results":100}`,
			func(b []byte) bool { var r QueryAssetsRequest; return decodeFlat(b, &r) }, 3},
		{`{"securable":"sales.raw.orders","principal":"org3","privilege":"SELECT"}`,
			func(b []byte) bool { var r GrantRequest; return decodeFlat(b, &r) }, 2},
		{`{"Names":[]}`,
			func(b []byte) bool { var r catalog.ResolveRequest; return decodeFlat(b, &r) }, 0},
		// The schema, the name and the four column names kept, the column
		// slice; the table type, the format and the column types are enums.
		{perfCreateBody,
			func(b []byte) bool { var r CreateTableRequest; return decodeFlat(b, &r) }, 2 + 4 + 1},
		// The comment and the pointer to it.
		{`{"comment":"c-000042"}`,
			func(b []byte) bool { var r UpdateAssetRequest; return decodeFlat(b, &r) }, 2},
	}
	for _, c := range cases {
		body := []byte(c.body)
		if !c.decode(body) {
			t.Fatalf("%s: not decoded", c.body)
		}
		if got := testing.AllocsPerRun(100, func() { c.decode(body) }); got != c.want {
			t.Errorf("%s: %.0f allocations, want %.0f", c.body, got, c.want)
		}
	}
}
