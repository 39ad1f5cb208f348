package catalog

import (
	"errors"
	"testing"
	"time"

	"unitycatalog/internal/clock"
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

// TestWorkspaceBindingCheckAllocs pins the cost of the binding check every
// authorized request starts with, for a securable reached by ID: the chain
// (one slice; its entities are the cache's own, decoded once per version) and
// one decode of the catalog's spec. It decoded every ancestor per check until
// PR 20 (21 allocations), and twice until PR 16 (34).
func TestWorkspaceBindingCheckAllocs(t *testing.T) {
	svc, admin := testService(t)
	tbl := seedNamespace(t, svc, admin)
	if err := svc.SetWorkspaceBindings(admin, "sales", []string{"ws-us", "ws-eu"}); err != nil {
		t.Fatal(err)
	}
	ctx := Ctx{Principal: "alice", Metastore: "ms1", Workspace: "ws-eu"}
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
	allocs := testing.AllocsPerRun(100, func() { _ = bindingCheck() })
	t.Logf("chainOf + checkWorkspaceBinding: %v allocations for a table", allocs)
	if allocs > 13 { // measures 12: the slice and eleven under json.Unmarshal of the spec
		t.Fatalf("the binding check allocates %v times for a table, want at most 13", allocs)
	}
}
