package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/privilege"
)

// The write routes' allocations through Server.ServeHTTP on a warm stack (no
// WAL, the search follower stopped so that its indexing is not counted),
// when their request path last changed on purpose: the envelope, the body's
// decoded strings, the catalog's view, authorization and commit, the change
// event, the audit records and the response. TestWriteRequestAllocs fails at
// 10 % over; `make allocs` prints the figures. Beside each are its figures
// before write bodies were decoded in place, created and updated entities
// answered through jsonenc, and grants read from their keys (a revoke then
// decoded every grant left on its table, about a hundred here, when its own
// commit dropped the table's memo entry), and then before the writer's authz
// snapshot advanced over its commit in place and write keys were built in
// buffers.
const (
	createTableRequestAllocs = 34 // 68, 44
	patchRequestAllocs       = 17 // 42, 20
	grantRequestAllocs       = 13 // 41, 19
	revokeRequestAllocs      = 12 // 931, 23
	setTagRequestAllocs      = 12 // 15, 15
)

// TestWriteRequestAllocs gates what the writes of ddl_write allocate: a
// create-table with perf's four-column body, a PATCH of a comment, a grant, a
// revoke and a set-tag, each by the owner.
func TestWriteRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("counts pooled allocations")
	}
	srv, _ := readerStack(t, Config{SampleEvery: -1})
	srv.Search.Close()
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	const runs = 200
	// Each create needs a name of its own and each revoke a grant to drop,
	// so those bodies are made before anything is counted.
	creates, revokes := make([][]byte, runs+2), make([][]byte, runs+2)
	if _, err := srv.Service.CreateTable(admin, "sales.raw", "revoked", catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, ""); err != nil {
		t.Fatal(err)
	}
	for i := range creates {
		creates[i] = []byte(`{"schema_full":"sales.raw","name":"w_` + fmt.Sprint(i) + `","spec":` + perfSpec + `}`)
		p := fmt.Sprintf("p%d", i)
		if err := srv.Service.Grant(admin, "sales.raw.revoked", privilege.Principal(p), privilege.Select); err != nil {
			t.Fatal(err)
		}
		revokes[i] = []byte(`{"securable":"sales.raw.revoked","principal":"` + p + `","privilege":"SELECT"}`)
	}
	for _, c := range []struct {
		name, method, route string
		bodies              [][]byte
		status              int
		recorded            float64
	}{
		{"create_table", "POST", "tables", creates, http.StatusCreated, createTableRequestAllocs},
		{"patch", "PATCH", "assets/sales.raw.orders", [][]byte{[]byte(`{"comment":"c-000042"}`)}, http.StatusOK, patchRequestAllocs},
		{"grant", "POST", "grants", [][]byte{[]byte(`{"securable":"sales.raw.orders","principal":"org3","privilege":"SELECT"}`)}, http.StatusNoContent, grantRequestAllocs},
		{"revoke", "DELETE", "grants", revokes, http.StatusNoContent, revokeRequestAllocs},
		{"set_tag", "POST", "tags", [][]byte{[]byte(`{"securable":"sales.raw.orders","key":"pii","value":"high"}`)}, http.StatusNoContent, setTagRequestAllocs},
	} {
		body := &replayBody{}
		req := httptest.NewRequest(c.method, apiPrefix+"/"+c.route, nil)
		req.Body = body
		req.Header.Set(hdrAuthorization, "Bearer admin")
		req.Header.Set(hdrMetastore, "ms1")
		rw := &statusRW{hdr: http.Header{}}
		n := 0
		serve := func() {
			*body = replayBody{b: c.bodies[n%len(c.bodies)]}
			n++
			clear(rw.hdr)
			rw.status = 0
			srv.ServeHTTP(rw, req)
			if rw.status != c.status {
				t.Fatalf("%s: status %d", c.name, rw.status)
			}
		}
		serve() // warms the cache, the authorization snapshot and the pools
		got := testing.AllocsPerRun(runs, serve)
		t.Logf("%s: %.0f allocations (recorded %.0f)", c.name, got, c.recorded)
		if got > 1.10*c.recorded {
			t.Errorf("%s: %.0f allocations, more than 10 %% over the recorded %.0f", c.name, got, c.recorded)
		}
	}
}
