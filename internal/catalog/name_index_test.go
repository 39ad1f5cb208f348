package catalog

import (
	"errors"
	"testing"
	"time"

	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/store"
)

// TestCaseOnlyRename: renaming an asset to its own name in another case is no
// conflict with itself, and it resolves under either case after; renaming
// another asset to that name, in any case, is ErrAlreadyExists with the
// message it always had.
func TestCaseOnlyRename(t *testing.T) {
	_, nodes, admin := multiNode(t, 1)
	svc := nodes[0]
	if _, err := svc.CreateTable(admin, "c.s", "Sales", TableSpec{Columns: cols("x")}, ""); err != nil {
		t.Fatal(err)
	}
	e, err := svc.RenameAsset(admin, "c.s.Sales", "sales")
	if err != nil {
		t.Fatalf("a case-only rename: %v", err)
	}
	if e.Name != "sales" || e.FullName != "c.s.sales" {
		t.Fatalf("renamed to %q (%q)", e.Name, e.FullName)
	}
	for _, full := range []string{"c.s.sales", "c.s.SALES", "c.s.Sales"} {
		if got, err := svc.GetAsset(admin, full); err != nil || got.ID != e.ID {
			t.Fatalf("GetAsset(%s) = %v, %v", full, got, err)
		}
	}
	for _, name := range []string{"sales", "SALES", "Sales"} {
		_, err := svc.RenameAsset(admin, "c.s.t", name)
		if !errors.Is(err, ErrAlreadyExists) || err.Error() != `catalog: already exists: TABLE "`+name+`"` {
			t.Fatalf("renaming t to %s: %v", name, err)
		}
	}
	if _, err := svc.CreateTable(admin, "c.s", "SALES", TableSpec{Columns: cols("x")}, ""); !errors.Is(err, ErrAlreadyExists) || err.Error() != `catalog: already exists: TABLE "SALES" in c.s` {
		t.Fatalf("creating SALES: %v", err)
	}
}

// TestWarmNameEntryFollowsNameChanges: a name read by a warm view of the node
// that writes (write-through) and of a second node over the same database
// (which reconciles) is what a fresh store snapshot reads, after a create, a
// rename, a case-only rename, a soft delete, an undelete, a purge, and a delete
// and a create under the same name: never the old ID of a reused name.
func TestWarmNameEntryFollowsNameChanges(t *testing.T) {
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cloud := cloudsim.New()
	nodes := make([]*Service, 2)
	for i := range nodes {
		if nodes[i], err = New(Config{DB: db, Cloud: cloud, SoftDeleteRetention: time.Nanosecond}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			_, err = nodes[i].CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1")
		} else {
			_, err = nodes[i].OpenMetastore("ms1")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	admin := Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
	w := nodes[0]
	if _, err := w.CreateCatalog(admin, "c", ""); err != nil {
		t.Fatal(err)
	}
	sch, err := w.CreateSchema(admin, "c", "s", "")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"orders", "ORDERS", "items", "Items", "gone"}
	check := func(what string) {
		t.Helper()
		snap, err := db.Snapshot("ms1")
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		for i, node := range nodes {
			// Read twice: the second read is served by the entries the first
			// warmed, or wrote through.
			for range 2 {
				v, err := node.view(admin)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range names {
					got, ok := erm.GetByName(v, erm.AppendNameKey(nil, relationGroup, sch.ID, name))
					want, wantOK := erm.GetByName(snap, erm.AppendNameKey(nil, relationGroup, sch.ID, name))
					if ok != wantOK || ok && got.ID != want.ID {
						t.Fatalf("after %s: node %d reads %q as %v (%v), the store as %v (%v)", what, i, name, entityIDOf(got), ok, entityIDOf(want), wantOK)
					}
				}
				v.Close()
			}
		}
	}
	check("nothing")
	first, err := w.CreateTable(admin, "c.s", "orders", TableSpec{Columns: cols("x")}, "")
	if err != nil {
		t.Fatal(err)
	}
	check("a create")
	if _, err := w.RenameAsset(admin, "c.s.orders", "items"); err != nil {
		t.Fatal(err)
	}
	check("a rename")
	if _, err := w.RenameAsset(admin, "c.s.items", "ITEMS"); err != nil {
		t.Fatal(err)
	}
	check("a case-only rename")
	if err := w.DeleteAsset(admin, "c.s.items", false); err != nil {
		t.Fatal(err)
	}
	check("a soft delete")
	if _, err := w.Undelete(admin, first.ID); err != nil {
		t.Fatal(err)
	}
	check("an undelete")
	if err := w.DeleteAsset(admin, "c.s.items", false); err != nil {
		t.Fatal(err)
	}
	second, err := w.CreateTable(admin, "c.s", "Items", TableSpec{Columns: cols("x")}, "")
	if err != nil {
		t.Fatal(err)
	}
	check("a soft delete and a create under the same name")
	if res, err := w.RunGC("ms1"); err != nil || res.PurgedEntities != 1 {
		t.Fatalf("gc: %+v, %v", res, err)
	}
	check("a purge of a name taken again")
	if _, err := w.Undelete(admin, first.ID); err == nil {
		t.Fatal("a purged asset came back")
	}
	if err := w.DeleteAsset(admin, "c.s.items", false); err != nil {
		t.Fatal(err)
	}
	if res, err := w.RunGC("ms1"); err != nil || res.PurgedEntities != 1 {
		t.Fatalf("gc: %+v, %v", res, err)
	}
	check("a purge")
	third, err := w.CreateTable(admin, "c.s", "items", TableSpec{Columns: cols("x")}, "")
	if err != nil || third.ID == second.ID {
		t.Fatalf("a create under a purged name: %v", err)
	}
	check("a delete and a create under the same name")
	if got, err := nodes[1].GetAsset(admin, "c.s.ITEMS"); err != nil || got.ID != third.ID {
		t.Fatalf("node 1 resolves c.s.ITEMS to %v, %v; want %s", got, err, third.ID)
	}
}

func entityIDOf(e *erm.Entity) ids.ID {
	if e == nil {
		return ids.Nil
	}
	return e.ID
}

// TestNameClashBeforePathClash: a create or an undelete that clashes with a
// live entity on both its name and its storage path fails with
// ErrAlreadyExists, as a retried create expects; a path clash alone is
// ErrPathOverlap.
func TestNameClashBeforePathClash(t *testing.T) {
	_, nodes, admin := multiNode(t, 1)
	svc := nodes[0]
	const path = "s3://ext/orders"
	old, err := svc.CreateTable(admin, "c.s", "orders", TableSpec{Columns: cols("x")}, path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.CreateTable(admin, "c.s", "orders", TableSpec{Columns: cols("x")}, path)
	if !errors.Is(err, ErrAlreadyExists) || err.Error() != `catalog: already exists: TABLE "orders" in c.s` {
		t.Fatalf("a create clashing on name and path: %v", err)
	}
	if _, err := svc.CreateTable(admin, "c.s", "other", TableSpec{Columns: cols("x")}, path); !errors.Is(err, ErrPathOverlap) {
		t.Fatalf("a create clashing on its path: %v", err)
	}
	if err := svc.DeleteAsset(admin, "c.s.orders", false); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateTable(admin, "c.s", "orders", TableSpec{Columns: cols("x")}, path); err != nil {
		t.Fatal(err)
	}
	_, err = svc.Undelete(admin, old.ID)
	if !errors.Is(err, ErrAlreadyExists) || err.Error() != `catalog: already exists: name orders was reused` {
		t.Fatalf("an undelete clashing on name and path: %v", err)
	}
}
