package server_test

import (
	"errors"
	"net/http/httptest"
	"testing"

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
