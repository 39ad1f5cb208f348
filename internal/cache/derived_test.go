package cache

import (
	"testing"

	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/store"
)

// TestDerivedRowsAreNotCached: a child row read by key through a view is the
// store's answer at the view's version, before and after its entity is
// deleted, and never a cached one: no change names a child row, so none
// could invalidate it (a name row, which changes name, is cached).
// GroupRows reads the groups at the view's version.
func TestDerivedRowsAreNotCached(t *testing.T) {
	db := newDB(t)
	c := New(db, Options{})
	c.Own("m")
	e := &erm.Entity{ID: ids.New(), Type: erm.TypeTable, Name: "t", ParentID: ids.New(), State: erm.StateActive}
	key := erm.ChildKey(e.ParentID, e.Type, e.ID)
	if _, err := c.Update("m", func(tx *store.Tx) error { return erm.PutEntity(tx, e) }); err != nil {
		t.Fatal(err)
	}
	read := func(want bool) {
		t.Helper()
		v, err := c.NewView("m")
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		for i := 0; i < 2; i++ {
			if _, ok := v.Get(erm.TableChild, key); ok != want {
				t.Fatalf("child row read %v, want %v", ok, want)
			}
		}
		if rows := v.GroupRows(erm.TableChild, "", "", 0); (len(rows) == 1) != want || want && rows[0].Group+rows[0].Key != key {
			t.Fatalf("group rows %v, want the row: %v", rows, want)
		}
	}
	read(true)
	if _, err := c.Update("m", func(tx *store.Tx) error { erm.DeleteEntity(tx, e); return nil }); err != nil {
		t.Fatal(err)
	}
	read(false)
}
