package erm

import (
	"testing"
	"time"

	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

func TestRegistryBuiltins(t *testing.T) {
	r := NewRegistry()
	for _, typ := range []SecurableType{TypeCatalog, TypeSchema, TypeTable, TypeView, TypeVolume, TypeFunction, TypeRegisteredModel, TypeModelVersion, TypeExternalLocation, TypeStorageCredential, TypeConnection, TypeShare, TypeRecipient} {
		if _, ok := r.Manifest(typ); !ok {
			t.Errorf("missing builtin manifest for %s", typ)
		}
	}
	// Tables and views share a name group.
	if tg, vg := NameGroupOf(TypeTable), NameGroupOf(TypeView); tg != "RELATION" || vg != "RELATION" {
		t.Fatalf("relation groups: %q, %q", tg, vg)
	}
}

func TestValidParent(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		child, parent SecurableType
		want          bool
	}{
		{TypeCatalog, TypeMetastore, true},
		{TypeSchema, TypeCatalog, true},
		{TypeTable, TypeSchema, true},
		{TypeTable, TypeCatalog, false},
		{TypeModelVersion, TypeRegisteredModel, true},
		{TypeModelVersion, TypeSchema, false},
		{TypeSchema, TypeSchema, false},
	}
	for _, c := range cases {
		if got := r.ValidParent(c.child, c.parent); got != c.want {
			t.Errorf("ValidParent(%s, %s) = %v, want %v", c.child, c.parent, got, c.want)
		}
	}
}

func TestRegisterCustomType(t *testing.T) {
	r := NewRegistry()
	err := r.Register(TypeManifest{
		Type:            "DASHBOARD",
		ParentTypes:     []SecurableType{TypeSchema},
		CreatePrivilege: privilege.CreateTable,
		ReadPrivilege:   privilege.Select,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := r.Manifest("DASHBOARD")
	if !ok || NameGroupOf(m.Type) != "DASHBOARD" || m.NameMaxLen != 255 {
		t.Fatalf("manifest = %+v, %v", m, ok)
	}
	if err := r.Register(TypeManifest{}); err == nil {
		t.Fatal("empty manifest should fail")
	}
}

func TestValidateName(t *testing.T) {
	r := NewRegistry()
	if err := r.ValidateName(TypeTable, "orders_2024"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "has space", "semi;colon", "-leading", string(make([]byte, 300))} {
		if err := r.ValidateName(TypeTable, bad); err == nil {
			t.Errorf("name %q should be invalid", bad)
		}
	}
	if err := r.ValidateName("NOPE", "x"); err == nil {
		t.Fatal("unknown type should fail")
	}
}

func TestEntitySpecRoundTrip(t *testing.T) {
	e := &Entity{ID: ids.New(), Type: TypeTable, Name: "t"}
	type spec struct {
		Format  string   `json:"format"`
		Columns []string `json:"columns"`
	}
	if err := e.EncodeSpec(spec{Format: "DELTA", Columns: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	var got spec
	if err := e.DecodeSpec(&got); err != nil {
		t.Fatal(err)
	}
	if got.Format != "DELTA" || len(got.Columns) != 2 {
		t.Fatalf("spec = %+v", got)
	}
	// Decoding an empty spec is a no-op.
	var empty Entity
	var s2 spec
	if err := empty.DecodeSpec(&s2); err != nil {
		t.Fatal(err)
	}
}

func TestEntityClone(t *testing.T) {
	now := time.Now()
	e := &Entity{ID: ids.New(), Name: "x", Properties: map[string]string{"a": "1"}, DeletedAt: &now}
	e.EncodeSpec(map[string]int{"v": 1})
	c := e.Clone()
	c.Properties["a"] = "2"
	c.Spec[0] = 'X'
	*c.DeletedAt = now.Add(time.Hour)
	if e.Properties["a"] != "1" || e.Spec[0] == 'X' || !e.DeletedAt.Equal(now) {
		t.Fatal("clone aliases original")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateMetastore("m")

	parent := ids.New()
	e := &Entity{
		ID: ids.New(), Type: TypeTable, Name: "Orders", ParentID: parent,
		FullName: "c.s.Orders", Owner: "alice", State: StateActive,
		StoragePath: "s3://b/wh/orders",
	}
	if _, err := db.Update("m", func(tx *store.Tx) error {
		return PutEntity(tx, e)
	}); err != nil {
		t.Fatal(err)
	}

	snap, _ := db.Snapshot("m")
	defer snap.Close()
	got, ok := GetEntity(snap, e.ID)
	if !ok || got.Name != "Orders" || got.Owner != "alice" {
		t.Fatalf("GetEntity = %+v, %v", got, ok)
	}
	// Name lookup is case-insensitive.
	if got, ok := GetByName(snap, AppendNameKey(nil, "RELATION", parent, "orders")); !ok || got.ID != e.ID {
		t.Fatalf("GetByName = %+v, %v", got, ok)
	}
	// The registered path governs itself and every path under it, and nothing
	// above it or beside it.
	for _, p := range []string{"s3://b/wh/orders", "s3://b/wh/orders/", "s3://b/wh/orders/part-0/x"} {
		if prefix, id, ok := RegisteredPrefix(snap, TablePath, p); !ok || id != e.ID || prefix != "s3://b/wh/orders" {
			t.Fatalf("RegisteredPrefix(%q) = %q, %v, %v", p, prefix, id, ok)
		}
	}
	for _, p := range []string{"s3://b/wh", "s3://b/wh/orders2", "s3://b/wh/order"} {
		if prefix, _, ok := RegisteredPrefix(snap, TablePath, p); ok {
			t.Fatalf("RegisteredPrefix(%q) = %q", p, prefix)
		}
	}
	children := ListChildren(snap, parent, TypeTable)
	if len(children) != 1 || children[0].ID != e.ID {
		t.Fatalf("children = %v", children)
	}
}

func TestDeleteEntityRemovesIndexes(t *testing.T) {
	db, _ := store.Open(store.Options{})
	defer db.Close()
	db.CreateMetastore("m")
	parent := ids.New()
	e := &Entity{ID: ids.New(), Type: TypeVolume, Name: "v1", ParentID: parent, StoragePath: "s3://b/v1"}
	db.Update("m", func(tx *store.Tx) error { return PutEntity(tx, e) })
	db.Update("m", func(tx *store.Tx) error { DeleteEntity(tx, e); return nil })

	snap, _ := db.Snapshot("m")
	defer snap.Close()
	if _, ok := GetEntity(snap, e.ID); ok {
		t.Fatal("entity still present")
	}
	if _, ok := GetByName(snap, AppendNameKey(nil, string(TypeVolume), parent, "v1")); ok {
		t.Fatal("name index still present")
	}
	if _, _, ok := RegisteredPrefix(snap, TablePath, "s3://b/v1"); ok {
		t.Fatal("path index still present")
	}
	if len(ListChildren(snap, parent, TypeVolume)) != 0 {
		t.Fatal("child index still present")
	}
}

func TestKeyBuilders(t *testing.T) {
	p := ids.New()
	if NameKey("G", p, "AbC") != NameKey("G", p, "abc") {
		t.Fatal("name keys should be case-insensitive")
	}
	if ChildPrefix(p, "") == ChildPrefix(p, TypeTable) {
		t.Fatal("typed and untyped child prefixes should differ")
	}
	sec := ids.New()
	if GrantKey(sec, "u", privilege.Select) == GrantKey(sec, "u", privilege.Modify) {
		t.Fatal("grant keys should include the privilege")
	}
	if TagKey(sec, "k") == ColumnTagKey(sec, "c", "k") {
		t.Fatal("column tags must not collide with entity tags")
	}
}

// TestNoNameRowIsWritten: creating, renaming, soft-deleting, undeleting and
// purging an entity writes no name row — the store derives it, refuses a
// write to it, and a WAL frame therefore carries none — and a reopened log
// finds the entity by name again.
func TestNoNameRowIsWritten(t *testing.T) {
	path := t.TempDir() + "/wal"
	db, err := store.Open(store.Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateMetastore("m")
	parent := ids.New()
	e := &Entity{ID: ids.New(), Type: TypeTable, Name: "Orders", ParentID: parent, State: StateActive}
	steps := []func(tx *store.Tx) error{
		func(tx *store.Tx) error { return PutEntity(tx, e) },
		func(tx *store.Tx) error { e.Name = "orders"; return PutEntity(tx, e) },
		func(tx *store.Tx) error { e.State = StateSoftDeleted; return PutEntity(tx, e) },
		func(tx *store.Tx) error { e.State = StateActive; return PutEntity(tx, e) },
	}
	for i, step := range steps {
		if _, err := db.Update("m", func(tx *store.Tx) error {
			if err := step(tx); err != nil {
				return err
			}
			for _, w := range tx.Writes() {
				if w.Table == TableName || w.Table == TableChild {
					t.Errorf("step %d writes %s row %q", i, w.Table, w.Key)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Update("m", func(tx *store.Tx) error {
		tx.Put(TableName, NameKey("RELATION", parent, "x"), idValue(e.ID))
		return nil
	}); err == nil {
		t.Error("the store took a name row")
	}
	db.Close()
	db, err = store.Open(store.Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap, _ := db.Snapshot("m")
	defer snap.Close()
	if got, ok := GetByName(snap, AppendNameKey(nil, "RELATION", parent, "ORDERS")); !ok || got.ID != e.ID {
		t.Fatalf("after replay, ORDERS names %v (%v)", got, ok)
	}
}
