package uc_test

import (
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"unitycatalog/internal/delta"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/events"
	"unitycatalog/internal/lineage"
	"unitycatalog/uc"
)

func open(t *testing.T, cfg uc.Config) *uc.Catalog {
	t.Helper()
	cat, err := uc.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	if _, err := cat.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1"); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestFacadeEndToEnd(t *testing.T) {
	cat := open(t, uc.Config{})
	admin := cat.Session("admin", "ms1")
	if _, err := admin.CreateCatalog("c", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.CreateSchema("c", "s", ""); err != nil {
		t.Fatal(err)
	}
	cols := []uc.ColumnInfo{{Name: "id", Type: "BIGINT"}, {Name: "v", Type: "STRING"}}
	tbl, err := admin.CreateTable("c.s", "t", uc.TableSpec{Columns: cols}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.BootstrapDeltaTable(tbl.StoragePath, cols); err != nil {
		t.Fatal(err)
	}
	eng := cat.NewEngine("e", true)
	ctx := uc.Ctx{Principal: "admin", Metastore: "ms1"}
	if _, err := eng.Execute(ctx, "INSERT INTO c.s.t VALUES (1, 'x'), (2, 'y')"); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Execute(ctx, "SELECT id FROM c.s.t WHERE id >= 2")
	if err != nil || res.RowsReturned != 1 {
		t.Fatalf("query = %+v, %v", res, err)
	}
	// Grants + sentinel errors across the facade.
	if err := admin.Grant("c.s.t", "alice", uc.Select); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Session("mallory", "ms1").Get("c.s.t"); !errors.Is(err, uc.ErrPermissionDenied) {
		t.Fatalf("mallory: %v", err)
	}
	// List via session.
	tables, err := admin.List("c.s", erm.TypeTable)
	if err != nil || len(tables) != 1 {
		t.Fatalf("list = %v, %v", tables, err)
	}
	// Credential via session; the token works on the data plane.
	cred, err := admin.Credential("c.s.t", uc.AccessRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Cloud.List(cred.Credential.Token, tbl.StoragePath); err != nil {
		t.Fatalf("vended token rejected: %v", err)
	}
}

func TestFacadeHTTPHandler(t *testing.T) {
	cat := open(t, uc.Config{})
	hs := httptest.NewServer(cat.Handler())
	defer hs.Close()
	resp, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz = %v, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

func TestFacadeDurability(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "uc.wal")
	cat, err := uc.Open(uc.Config{WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	cat.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1")
	admin := cat.Session("admin", "ms1")
	admin.CreateCatalog("persisted", "")
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	cat2, err := uc.Open(uc.Config{WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer cat2.Close()
	if _, err := cat2.Service.OpenMetastore("ms1"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat2.Session("admin", "ms1").Get("persisted"); err != nil {
		t.Fatalf("metadata lost across restart: %v", err)
	}
}

// TestLineageSurvivesRestart: lineage edges are rows of the store, so a
// stack reopened on the same WAL walks the same graph.
func TestLineageSurvivesRestart(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "uc.wal")
	cat, err := uc.Open(uc.Config{WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	cat.CreateMetastore("ms1", "main", "r", "admin", "s3://lake/ms1")
	admin := cat.Session("admin", "ms1")
	admin.CreateCatalog("c", "")
	admin.CreateSchema("c", "s", "")
	var tbl [3]*uc.Entity
	for i := range tbl {
		if tbl[i], err = admin.CreateTable("c.s", fmt.Sprintf("t%d", i), uc.TableSpec{Columns: []uc.ColumnInfo{{Name: "x", Type: "BIGINT"}}}, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Lineage.Submit(admin.Ctx(), []lineage.Edge{
		{Upstream: tbl[0].ID, Downstream: tbl[1].ID, JobName: "clean"},
		{Upstream: tbl[1].ID, Downstream: tbl[2].ID, JobName: "report", QueryText: "INSERT INTO c.s.t2 SELECT ..."},
	}); err != nil {
		t.Fatal(err)
	}
	want, err := cat.Lineage.Downstream(admin.Ctx(), tbl[0].ID, 0)
	if err != nil || len(want) != 2 {
		t.Fatalf("before the restart: %+v, %v", want, err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	cat2, err := uc.Open(uc.Config{WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer cat2.Close()
	if _, err := cat2.Service.OpenMetastore("ms1"); err != nil {
		t.Fatal(err)
	}
	got, err := cat2.Lineage.Downstream(cat2.Session("admin", "ms1").Ctx(), tbl[0].ID, 0)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after the restart:\n  got  %+v, %v\n  want %+v", got, err, want)
	}
}

func TestFacadeWALSyncPolicies(t *testing.T) {
	for _, name := range []string{"batch", "never", "always"} {
		policy, err := uc.ParseSyncPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		wal := filepath.Join(t.TempDir(), "uc.wal")
		cat, err := uc.Open(uc.Config{WALPath: wal, WALSync: policy})
		if err != nil {
			t.Fatal(err)
		}
		cat.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1")
		if err := cat.Close(); err != nil {
			t.Fatalf("policy %s: %v", name, err)
		}
		cat2, err := uc.Open(uc.Config{WALPath: wal})
		if err != nil {
			t.Fatalf("policy %s: reopen: %v", name, err)
		}
		if _, err := cat2.Service.OpenMetastore("ms1"); err != nil {
			t.Fatalf("policy %s: metadata lost: %v", name, err)
		}
		cat2.Close()
	}
	if _, err := uc.ParseSyncPolicy("fsync-maybe"); err == nil {
		t.Fatal("ParseSyncPolicy should reject unknown policies")
	}
}

// TestCatalogAndTxnEventsDoNotSpill: every event that catalog operations and a
// multi-table transaction publish has the event ring's packed form, so
// uc_events_spilled_total stays 0 on /metrics.
func TestCatalogAndTxnEventsDoNotSpill(t *testing.T) {
	cat := open(t, uc.Config{})
	bus := cat.Events()
	sub := bus.Subscribe()
	admin := cat.Session("admin", "ms1")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := admin.CreateCatalog("c", "")
	must(err)
	_, err = admin.CreateSchema("c", "s", "")
	must(err)
	cols := []uc.ColumnInfo{{Name: "id", Type: "BIGINT"}}
	for _, name := range []string{"a", "b"} {
		tbl, err := admin.CreateTable("c.s", name, uc.TableSpec{Columns: cols}, "")
		must(err)
		must(cat.BootstrapDeltaTable(tbl.StoragePath, cols))
	}
	must(admin.Grant("c.s.a", "alice", uc.Select))
	must(admin.Revoke("c.s.a", "alice", uc.Select))
	must(admin.SetTag("c.s.a", "", "pii", "true"))
	_, err = admin.Rename("c.s.b", "b2")
	must(err)

	tx, err := cat.NewTransactionCoordinator().Begin(admin.Ctx(), []string{"c.s.a", "c.s.b2"})
	must(err)
	for _, name := range []string{"c.s.a", "c.s.b2"} {
		batch := delta.NewBatch(delta.Schema{Fields: []delta.SchemaField{{Name: "id", Type: delta.TypeInt64}}})
		must(batch.AppendRow(int64(1)))
		must(tx.StageAppend(name, batch))
	}
	must(tx.Commit())
	must(admin.Delete("c.s.b2", true))

	sub.Cancel()
	ops := map[events.Op]int{}
	for e := range sub.C {
		ops[e.Op]++
	}
	if ops[events.OpCommit] != 2 || ops[events.OpGrant] != 1 || ops[events.OpDelete] == 0 {
		t.Fatalf("published ops %v, want the workload's", ops)
	}
	if bus.Spilled() != 0 {
		t.Fatalf("%d of %d events spilled, want 0", bus.Spilled(), bus.Published())
	}
	hs := httptest.NewServer(cat.Handler())
	defer hs.Close()
	resp, err := hs.Client().Get(hs.URL + "/metrics")
	must(err)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	must(err)
	if !strings.Contains(string(body), "\nuc_events_spilled_total 0\n") {
		t.Fatal("/metrics lacks uc_events_spilled_total 0")
	}
}

func TestFacadeOptimizerAndTxn(t *testing.T) {
	cat := open(t, uc.Config{})
	if cat.Optimizer == nil || cat.NewTransactionCoordinator() == nil {
		t.Fatal("facade missing optimizer or txn coordinator")
	}
	if cat.Models == nil || cat.Artifacts == nil || cat.Sharing == nil {
		t.Fatal("facade missing registry subsystems")
	}
}
