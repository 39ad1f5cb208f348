package catalog

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"unitycatalog/internal/clock"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

func TestDirectoryTransitiveGroups(t *testing.T) {
	d := NewDirectory(time.Minute)
	d.AddMember("engineering", "alice")
	d.AddMember("staff", "engineering") // nested group
	d.AddMember("oncall", "alice")

	groups := d.GroupsOf("alice")
	want := map[privilege.Principal]bool{"engineering": true, "staff": true, "oncall": true}
	if len(groups) != len(want) {
		t.Fatalf("groups = %v", groups)
	}
	for _, g := range groups {
		if !want[g] {
			t.Fatalf("unexpected group %s in %v", g, groups)
		}
	}
	if got := d.GroupsOf("nobody"); len(got) != 0 {
		t.Fatalf("nobody's groups = %v", got)
	}
}

func TestDirectoryTTLCache(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	d := NewDirectory(10 * time.Second)
	d.SetClock(fake)
	d.AddMember("g", "alice")

	d.GroupsOf("alice")
	d.GroupsOf("alice")
	if d.CacheHits != 1 {
		t.Fatalf("cache hits = %d", d.CacheHits)
	}
	// Removal is visible only after the TTL (bounded staleness).
	d.RemoveMember("g", "alice")
	if got := d.GroupsOf("alice"); len(got) != 1 {
		t.Fatalf("stale read expected within TTL, got %v", got)
	}
	fake.Advance(11 * time.Second)
	if got := d.GroupsOf("alice"); len(got) != 0 {
		t.Fatalf("after TTL, groups = %v", got)
	}
	// Additions invalidate immediately.
	d.AddMember("g2", "alice")
	if got := d.GroupsOf("alice"); len(got) != 1 {
		t.Fatalf("addition should be immediate, got %v", got)
	}
}

func TestDirectoryIntegratesWithGrants(t *testing.T) {
	db, _ := store.Open(store.Options{})
	defer db.Close()
	dir := NewDirectory(time.Minute)
	svc, err := New(Config{DB: db, Groups: dir})
	if err != nil {
		t.Fatal(err)
	}
	svc.CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1")
	admin := Ctx{Principal: "admin", Metastore: "ms1"}
	seedNamespace(t, svc, admin)

	// Grant to a group; members inherit through directory resolution.
	svc.Grant(admin, "sales", "analysts", privilege.UseCatalog)
	svc.Grant(admin, "sales.raw", "analysts", privilege.UseSchema)
	svc.Grant(admin, "sales.raw.orders", "analysts", privilege.Select)
	dir.AddMember("analysts", "dana")

	dana := Ctx{Principal: "dana", Metastore: "ms1"}
	if _, err := svc.GetAsset(dana, "sales.raw.orders"); err != nil {
		t.Fatalf("group member denied: %v", err)
	}
	if _, err := svc.GetAsset(Ctx{Principal: "erik", Metastore: "ms1"}, "sales.raw.orders"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("non-member allowed: %v", err)
	}
}

func TestWorkspaceBindings(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	svc.Grant(admin, "sales", "alice", privilege.UseCatalog)
	svc.Grant(admin, "sales.raw", "alice", privilege.UseSchema)
	svc.Grant(admin, "sales.raw.orders", "alice", privilege.Select)

	// Unbound: reachable from anywhere.
	alice := Ctx{Principal: "alice", Metastore: "ms1", Workspace: "ws-eu"}
	if _, err := svc.GetAsset(alice, "sales.raw.orders"); err != nil {
		t.Fatalf("unbound catalog: %v", err)
	}

	// Bind to ws-us: ws-eu (and workspace-less clients) are shut out, even
	// the metastore admin.
	if err := svc.SetWorkspaceBindings(admin, "sales", []string{"ws-us"}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.GetAsset(alice, "sales.raw.orders"); !errors.Is(err, ErrWorkspaceBinding) {
		t.Fatalf("bound catalog from wrong workspace: %v", err)
	}
	adminNoWS := admin
	adminNoWS.Workspace = ""
	if _, err := svc.GetAsset(adminNoWS, "sales"); !errors.Is(err, ErrWorkspaceBinding) {
		t.Fatalf("workspace-less client on bound catalog: %v", err)
	}
	// From the bound workspace, everything works: metadata and credentials.
	aliceUS := Ctx{Principal: "alice", Metastore: "ms1", Workspace: "ws-us"}
	if _, err := svc.GetAsset(aliceUS, "sales.raw.orders"); err != nil {
		t.Fatalf("bound workspace: %v", err)
	}
	// Unbinding restores access.
	adminUS := admin
	adminUS.Workspace = "ws-us"
	if err := svc.SetWorkspaceBindings(adminUS, "sales", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.GetAsset(alice, "sales.raw.orders"); err != nil {
		t.Fatalf("after unbind: %v", err)
	}
	// Only admins may set bindings.
	if err := svc.SetWorkspaceBindings(alice, "sales", []string{"x"}); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("non-admin binding change: %v", err)
	}
}

// TestCatalogSpecThatDoesNotDecodeFailsClosed: a catalog spec that does not
// decode into CatalogSpec is refused on create and update, and a catalog
// whose stored bindings cannot be read — a record written before that check,
// or a damaged one — admits no workspace, while one whose bindings member is
// absent stays unbound. A spec that did not decode used to unbind its catalog.
func TestCatalogSpecThatDoesNotDecodeFailsClosed(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	bad := json.RawMessage(`{"kind":1,"workspace_bindings":["ws-us"]}`)
	if _, err := svc.CreateAsset(admin, CreateRequest{Type: erm.TypeCatalog, Name: "hr", Spec: bad}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("create a catalog with spec %s: %v, want invalid argument", bad, err)
	}
	if _, err := svc.GetAsset(admin, "hr"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after the refused create: %v", err)
	}
	if _, err := svc.UpdateAsset(admin, "sales", UpdateRequest{Spec: bad}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("update a catalog with spec %s: %v, want invalid argument", bad, err)
	}

	cat, err := svc.GetAsset(admin, "sales")
	if err != nil {
		t.Fatal(err)
	}
	bound := erm.PackSpec([]byte(`{"kind":"REGULAR","workspace_bindings":["ws-us"]}`))
	for _, c := range []struct {
		what   string
		spec   erm.Spec
		us, eu bool // admitted from ws-us, from ws-eu
	}{
		{"bound to ws-us", bound, true, false},
		{"a kind that does not decode, packed", erm.PackSpec(bad), true, false},
		{"a kind that does not decode, as JSON", erm.Spec(`{"kind": 1, "workspace_bindings": ["ws-us"]}`), true, false},
		{"bindings that are not an array", erm.PackSpec([]byte(`{"kind":"REGULAR","workspace_bindings":"ws-us"}`)), false, false},
		{"bindings that do not decode, then an array", erm.PackSpec([]byte(`{"workspace_bindings":[1],"workspace_bindings":["ws-us"]}`)), false, false},
		{"a damaged packed spec", bound[:len(bound)-1], false, false},
		{"a JSON spec that is not JSON", erm.Spec(`{"kind":"REGULAR","workspace_bindings":["ws-us"]`), false, false},
		{"no bindings member, and a kind that does not decode", erm.PackSpec([]byte(`{"kind":1}`)), true, true},
		{"no spec", nil, true, true},
	} {
		upd := cat.Clone()
		upd.Spec = c.spec
		if _, err := svc.cache.Update("ms1", func(tx *store.Tx) error { return erm.PutEntity(tx, upd) }); err != nil {
			t.Fatal(err)
		}
		for ws, want := range map[string]bool{"ws-us": c.us, "ws-eu": c.eu} {
			from := admin
			from.Workspace = ws
			_, err := svc.GetAsset(from, "sales.raw.orders")
			if want && err != nil || !want && !errors.Is(err, ErrWorkspaceBinding) {
				t.Errorf("%s: a read from %s: %v, want admitted %v", c.what, ws, err, want)
			}
		}
	}
}

// TestWorkspaceBindingCheckAllocs pins the cost of the binding check every
// authorized request starts with, for a securable reached by ID: the chain
// (one slice; its entities are the cache's own, decoded once per version) and
// nothing else, bound or not, for the catalog's bindings are read in place.
// A decode of the whole catalog spec made it 12.
func TestWorkspaceBindingCheckAllocs(t *testing.T) {
	svc, admin := testService(t)
	tbl := seedNamespace(t, svc, admin)
	ctx := Ctx{Principal: "alice", Metastore: "ms1", Workspace: "ws-eu"}
	measure := func() float64 {
		v, err := svc.view(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		bindingCheck := func() error {
			chain, err := svc.chainOf(ctx, v, tbl, "test")
			if err != nil {
				return err
			}
			return checkWorkspaceBinding(ctx, chain)
		}
		if err := bindingCheck(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() { _ = bindingCheck() })
	}
	unbound := measure()
	if err := svc.SetWorkspaceBindings(admin, "sales", []string{"ws-us", "ws-eu"}); err != nil {
		t.Fatal(err)
	}
	bound := measure()
	t.Logf("chainOf + checkWorkspaceBinding: %v allocations for a table under an unbound catalog, %v under a bound one", unbound, bound)
	if unbound > 1 || bound > 1 { // the chain slice
		t.Fatalf("the binding check allocates %v times for a table under an unbound catalog, %v under a bound one, want at most 1", unbound, bound)
	}
}
