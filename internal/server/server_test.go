package server_test

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/client"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/delta"
	"unitycatalog/internal/engine"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/lineage"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/server"
	"unitycatalog/internal/store"
)

// testStack spins up a full HTTP stack and returns a client for "admin".
func testStack(t *testing.T) (*server.Server, *httptest.Server, *client.Client) {
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
	srv := server.New(svc)
	t.Cleanup(func() { srv.Lineage.Close(); srv.Search.Close() })
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs, client.New(hs.URL, "admin", "ms1")
}

func TestCRUDOverHTTP(t *testing.T) {
	_, _, c := testStack(t)
	if _, err := c.CreateCatalog("sales", "sales data"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSchema("sales", "raw", ""); err != nil {
		t.Fatal(err)
	}
	tbl, err := c.CreateTable("sales.raw", "orders", catalog.TableSpec{Columns: []catalog.ColumnInfo{
		{Name: "id", Type: "BIGINT"}, {Name: "region", Type: "STRING"},
	}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.FullName != "sales.raw.orders" || tbl.StoragePath == "" {
		t.Fatalf("table = %+v", tbl)
	}
	got, err := c.GetAsset("sales.raw.orders")
	if err != nil || got.ID != tbl.ID {
		t.Fatalf("get = %v", err)
	}
	// Update.
	comment := "latest orders"
	upd, err := c.UpdateAsset("sales.raw.orders", server.UpdateAssetRequest{Comment: &comment})
	if err != nil || upd.Comment != comment {
		t.Fatalf("update = %+v, %v", upd, err)
	}
	// List.
	tables, err := c.ListAssets("sales.raw", erm.TypeTable)
	if err != nil || len(tables) != 1 {
		t.Fatalf("list = %v, %v", tables, err)
	}
	// Duplicate create maps to 409 / ErrAlreadyExists.
	_, err = c.CreateTable("sales.raw", "orders", catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "x", Type: "STRING"}}}, "")
	if !errors.Is(err, catalog.ErrAlreadyExists) {
		t.Fatalf("dup create: %v", err)
	}
	// Delete then 404.
	if err := c.DeleteAsset("sales.raw.orders", false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetAsset("sales.raw.orders"); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
}

func TestGrantsAndAuthzOverHTTP(t *testing.T) {
	_, hs, admin := testStack(t)
	admin.CreateCatalog("c", "")
	admin.CreateSchema("c", "s", "")
	admin.CreateTable("c.s", "t", catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "x", Type: "BIGINT"}}}, "")

	alice := client.New(hs.URL, "alice", "ms1")
	if _, err := alice.GetAsset("c.s.t"); !errors.Is(err, catalog.ErrPermissionDenied) {
		t.Fatalf("default deny: %v", err)
	}
	for _, g := range []struct {
		obj  string
		priv privilege.Privilege
	}{{"c", privilege.UseCatalog}, {"c.s", privilege.UseSchema}, {"c.s.t", privilege.Select}} {
		if err := admin.Grant(g.obj, "alice", g.priv); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := alice.GetAsset("c.s.t"); err != nil {
		t.Fatalf("after grants: %v", err)
	}
	privs, err := alice.EffectivePrivileges("c.s.t")
	if err != nil || len(privs) == 0 {
		t.Fatalf("effective = %v, %v", privs, err)
	}
	gs, err := admin.GrantsOn("c.s.t")
	if err != nil || len(gs) != 1 {
		t.Fatalf("grants = %v, %v", gs, err)
	}
	if err := admin.Revoke("c.s.t", "alice", privilege.Select); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.GetAsset("c.s.t"); !errors.Is(err, catalog.ErrPermissionDenied) {
		t.Fatalf("after revoke: %v", err)
	}
}

func TestEngineOverRESTClient(t *testing.T) {
	srv, _, admin := testStack(t)
	admin.CreateCatalog("c", "")
	admin.CreateSchema("c", "s", "")
	tbl, err := admin.CreateTable("c.s", "t", catalog.TableSpec{Columns: []catalog.ColumnInfo{
		{Name: "id", Type: "BIGINT"}, {Name: "v", Type: "STRING"},
	}}, "")
	if err != nil {
		t.Fatal(err)
	}
	schema := delta.Schema{Fields: []delta.SchemaField{
		{Name: "id", Type: delta.TypeInt64}, {Name: "v", Type: delta.TypeString},
	}}
	if _, err := delta.Create(delta.ServiceBlobs{Store: srv.Service.Cloud()}, tbl.StoragePath, "t", schema, nil); err != nil {
		t.Fatal(err)
	}

	// The engine talks to the catalog purely over HTTP.
	eng := &engine.Engine{Name: "remote-engine", Catalog: admin, Cloud: srv.Service.Cloud(), Trusted: true}
	adminCtx := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	if _, err := eng.Execute(adminCtx, "INSERT INTO c.s.t VALUES (1, 'a'), (2, 'b'), (3, 'c')"); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Execute(adminCtx, "SELECT id FROM c.s.t WHERE id >= 2")
	if err != nil || res.RowsReturned != 2 {
		t.Fatalf("select over REST: %+v, %v", res, err)
	}
}

func TestTempCredentialsOverHTTP(t *testing.T) {
	srv, _, admin := testStack(t)
	admin.CreateCatalog("c", "")
	admin.CreateSchema("c", "s", "")
	tbl, _ := admin.CreateTable("c.s", "t", catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "x", Type: "BIGINT"}}}, "")

	tc, err := admin.TempCredentialForAsset("c.s.t", cloudsim.AccessReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Service.Cloud().Put(tc.Credential.Token, tbl.StoragePath+"/f", []byte("x")); err != nil {
		t.Fatalf("vended token rejected: %v", err)
	}
	// By path too.
	tc2, err := admin.TempCredentialForPath(tbl.StoragePath+"/f", cloudsim.AccessRead)
	if err != nil || tc2.Asset != tbl.ID {
		t.Fatalf("path cred = %+v, %v", tc2, err)
	}
}

func TestSearchLineageModelsOverHTTP(t *testing.T) {
	srv, hs, admin := testStack(t)
	admin.CreateCatalog("ml", "")
	admin.CreateSchema("ml", "prod", "")
	model, err := admin.CreateModel("ml.prod", "churn", "predicts churn")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := admin.CreateModelVersion("ml.prod.churn", "run-9", "")
	if err != nil || mv.Version != 1 {
		t.Fatalf("mv = %+v, %v", mv, err)
	}
	vs, err := admin.ListModelVersions("ml.prod.churn")
	if err != nil || len(vs) != 1 {
		t.Fatalf("versions = %v, %v", vs, err)
	}

	// Search finds the model once the index has caught up with the events.
	srv.Search.Sync()
	if res, err := admin.Search("churn", 0); err != nil || len(res) == 0 {
		t.Fatalf("search found %v, %v", res, err)
	}

	// Lineage round trip.
	other, err := admin.CreateModel("ml.prod", "features", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := admin.SubmitLineage([]lineage.Edge{{Upstream: other.ID, Downstream: model.ID, JobName: "train"}}); err != nil {
		t.Fatal(err)
	}
	nodes, err := admin.Lineage(model.ID, "upstream", 0)
	if err != nil || len(nodes) != 1 || nodes[0].Asset != other.ID {
		t.Fatalf("lineage = %v, %v", nodes, err)
	}
	_ = hs
}

// TestLineageAPIAuthorizedAndAudited: POST /lineage and GET /lineage/{id}
// accept only assets the caller can see — an unseen one is a 404, as anywhere
// in the catalog — and an edge across metastores is a 400. The edge's
// principal and time are the caller's and the catalog clock's, whatever the
// body says, and every call writes one audit record. A resubmitted edge
// commits nothing, so a read's ETag stays valid.
func TestLineageAPIAuthorizedAndAudited(t *testing.T) {
	srv, hs := condStack(t, server.Config{ETagMaxAge: time.Hour})
	admin := client.New(hs.URL, "admin", "ms1")
	spec := catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "x", Type: "BIGINT"}}}
	admin.CreateCatalog("c", "")
	admin.CreateSchema("c", "s", "")
	a, _ := admin.CreateTable("c.s", "a", spec, "")
	b, _ := admin.CreateTable("c.s", "b", spec, "")
	srv.Service.CreateMetastore("ms2", "other", "r", "admin", "s3://lake/ms2")
	elsewhere := catalog.Ctx{Principal: "admin", Metastore: "ms2"}
	srv.Service.CreateCatalog(elsewhere, "c", "")
	srv.Service.CreateSchema(elsewhere, "c", "s", "")
	far, _ := srv.Service.CreateTable(elsewhere, "c.s", "far", spec, "")
	for full, priv := range map[string]privilege.Privilege{"c": privilege.UseCatalog, "c.s": privilege.UseSchema, "c.s.a": privilege.Select} {
		admin.Grant(full, "alice", priv)
	}
	alice := client.New(hs.URL, "alice", "ms1")
	forged := lineage.Edge{Upstream: a.ID, Downstream: b.ID, JobName: "etl", Principal: "mallory", Time: time.Unix(1, 0)}

	for _, tc := range []struct {
		what, op string
		call     func() error
		want     error
	}{
		{"alice links a to b, which she cannot see", "SubmitLineage", func() error { return alice.SubmitLineage([]lineage.Edge{{Upstream: a.ID, Downstream: b.ID}}) }, catalog.ErrNotFound},
		{"alice walks from b", "GetLineage", func() error { _, err := alice.Lineage(b.ID, "upstream", 0); return err }, catalog.ErrNotFound},
		{"admin links a to another metastore", "SubmitLineage", func() error { return admin.SubmitLineage([]lineage.Edge{{Upstream: a.ID, Downstream: far.ID}}) }, catalog.ErrInvalidArgument},
		{"admin links a to b in mallory's name", "SubmitLineage", func() error { return admin.SubmitLineage([]lineage.Edge{forged}) }, nil},
		{"alice walks from a", "GetLineage", func() error {
			nodes, err := alice.Lineage(a.ID, "downstream", 0)
			if err == nil && len(nodes) != 0 {
				return fmt.Errorf("alice sees %+v", nodes)
			}
			return err
		}, nil},
	} {
		before := srv.Service.Audit().Stats().ByOperation[tc.op]
		if err := tc.call(); !errors.Is(err, tc.want) {
			t.Fatalf("%s: %v, want %v", tc.what, err, tc.want)
		}
		if n := srv.Service.Audit().Stats().ByOperation[tc.op] - before; n != 1 {
			t.Fatalf("%s: %d %s audit records", tc.what, n, tc.op)
		}
	}
	nodes, err := admin.Lineage(b.ID, "upstream", 0)
	if err != nil || len(nodes) != 1 || nodes[0].Via.Principal != "admin" || nodes[0].Via.Time.Equal(forged.Time) {
		t.Fatalf("upstream of b = %+v, %v", nodes, err)
	}

	resp, _ := condGet(t, hs.URL, "/api/2.1/unity-catalog/assets/c.s.a", "")
	etag := resp.Header.Get("ETag")
	if err := admin.SubmitLineage([]lineage.Edge{forged}); err != nil {
		t.Fatal(err)
	}
	if resp, _ := condGet(t, hs.URL, "/api/2.1/unity-catalog/assets/c.s.a", etag); etag == "" || resp.StatusCode != http.StatusNotModified {
		t.Fatalf("after resubmitting an edge, revalidating %s is a %d", etag, resp.StatusCode)
	}
}
