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
	tm, _ := r.Manifest(TypeTable)
	vm, _ := r.Manifest(TypeView)
	if tm.NameGroup != "RELATION" || vm.NameGroup != "RELATION" {
		t.Fatalf("relation groups: %q, %q", tm.NameGroup, vm.NameGroup)
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
	if !ok || m.NameGroup != "DASHBOARD" || m.NameMaxLen != 255 {
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
		return PutEntity(tx, e, "RELATION")
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
	if got, ok := GetByName(snap, "RELATION", parent, "orders"); !ok || got.ID != e.ID {
		t.Fatalf("GetByName = %+v, %v", got, ok)
	}
	if got, ok := GetByPath(snap, "s3://b/wh/orders"); !ok || got.ID != e.ID {
		t.Fatalf("GetByPath = %+v, %v", got, ok)
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
	db.Update("m", func(tx *store.Tx) error { return PutEntity(tx, e, string(TypeVolume)) })
	db.Update("m", func(tx *store.Tx) error { DeleteEntity(tx, e, string(TypeVolume)); return nil })

	snap, _ := db.Snapshot("m")
	defer snap.Close()
	if _, ok := GetEntity(snap, e.ID); ok {
		t.Fatal("entity still present")
	}
	if _, ok := GetByName(snap, string(TypeVolume), parent, "v1"); ok {
		t.Fatal("name index still present")
	}
	if _, ok := GetByPath(snap, "s3://b/v1"); ok {
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
