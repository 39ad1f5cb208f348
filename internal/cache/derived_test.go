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

// TestFillCopiesALentKey: a name row's key a reader builds in its own buffer
// is lent for the read. The fill that caches the row, and the absence of a
// name it was asked about, keeps a copy, so the reader may build its next key
// over the buffer and later reads by the same name still hit; the hit copies
// nothing.
func TestFillCopiesALentKey(t *testing.T) {
	db := newDB(t)
	c := New(db, Options{})
	c.Own("m")
	e := &erm.Entity{ID: ids.New(), Type: erm.TypeTable, Name: "orders", ParentID: ids.New(), State: erm.StateActive}
	if _, err := c.Update("m", func(tx *store.Tx) error { return erm.PutEntity(tx, e) }); err != nil {
		t.Fatal(err)
	}
	c.ReconcileFull("m") // the write-through's rows go: the reads below fill
	v, err := c.NewView("m")
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	buf := make([]byte, 0, 128)
	lookup := func(name string) (*erm.Entity, bool) {
		buf = erm.AppendNameKey(buf[:0], "RELATION", e.ParentID, name)
		return erm.GetByName(v, buf)
	}
	if got, ok := lookup("orders"); !ok || got.ID != e.ID {
		t.Fatalf("a miss by name read %v, %v", got, ok)
	}
	if _, ok := lookup("refunds"); ok { // over the same buffer; caches an absence
		t.Fatal("an absent name read live")
	}
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = 'x' // the reader's next keys
	}
	buf = make([]byte, 0, 128)
	misses := c.Metrics().Misses
	for _, name := range []string{"orders", "refunds"} {
		name := name
		want := name == "orders"
		if a := testing.AllocsPerRun(10, func() {
			if _, ok := lookup(name); ok != want {
				t.Fatalf("%s read live: %v, want %v", name, ok, want)
			}
		}); a != 0 {
			t.Errorf("a hit by name %s allocates %.0f, want 0", name, a)
		}
	}
	if m := c.Metrics().Misses; m != misses {
		t.Fatalf("%d more misses: the cached name keys were not copied", m-misses)
	}
}
