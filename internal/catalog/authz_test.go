package catalog

import (
	"fmt"
	"sync"
	"testing"

	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// TestAuthzSnapshotInvalidation proves the version-keyed snapshot cache
// never serves stale decisions through the service API: a revoke bumps the
// metastore version, so the next check compiles a fresh snapshot and denies.
func TestAuthzSnapshotInvalidation(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	reader := Ctx{Principal: "reader", Metastore: "ms1"}

	for _, g := range []struct {
		full string
		priv privilege.Privilege
	}{
		{"sales", privilege.UseCatalog},
		{"sales.raw", privilege.UseSchema},
		{"sales.raw.orders", privilege.Select},
	} {
		if err := svc.Grant(admin, g.full, "reader", g.priv); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.GetAsset(reader, "sales.raw.orders"); err != nil {
		t.Fatalf("granted reader denied: %v", err)
	}
	// Repeat reads hit the cached snapshot.
	before := svc.AuthzMetrics()
	if _, err := svc.GetAsset(reader, "sales.raw.orders"); err != nil {
		t.Fatal(err)
	}
	if after := svc.AuthzMetrics(); after.Hits <= before.Hits {
		t.Fatalf("no snapshot-cache hits: before %+v after %+v", before, after)
	}

	if err := svc.Revoke(admin, "sales.raw.orders", "reader", privilege.Select); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.GetAsset(reader, "sales.raw.orders"); err == nil {
		t.Fatal("stale snapshot allowed access after revoke")
	}
	m := svc.AuthzMetrics()
	if m.Invalidations == 0 {
		t.Fatalf("revoke did not invalidate: %+v", m)
	}
}

// TestAuthorizerMatchesReferenceEngine holds the service's one authorization
// path to its oracle: for a namespace with group grants, ownership, USE
// gates (one principal holds SELECT without them), a grant and a revoke,
// every decision the compiled authorizer makes over a request view equals
// the reference privilege.Engine's over the same view — Check, CheckNoGate,
// CheckMany, IsOwner, EffectivePrivileges and EffectiveSet, for every
// (principal, privilege, securable), before and after the revoke.
func TestAuthorizerMatchesReferenceEngine(t *testing.T) {
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	dir := NewDirectory(0)
	svc, err := New(Config{DB: db, Groups: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateMetastore("ms1", "main", "us-east-1", "admin", "s3://metastore-root/ms1"); err != nil {
		t.Fatal(err)
	}
	admin := Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
	seedNamespace(t, svc, admin)
	if _, err := svc.CreateTable(admin, "sales.raw", "refunds", TableSpec{Columns: cols("id")}, ""); err != nil {
		t.Fatal(err)
	}
	steward := privilege.Principal("steward")
	if _, err := svc.UpdateAsset(admin, "sales.raw.refunds", UpdateRequest{Owner: &steward}); err != nil {
		t.Fatal(err)
	}
	dir.AddMember("analysts", "dana")
	for _, g := range []struct {
		full string
		who  privilege.Principal
		priv privilege.Privilege
	}{
		{"sales", "reader", privilege.UseCatalog},
		{"sales.raw", "reader", privilege.UseSchema},
		{"sales.raw", "reader", privilege.Select},
		{"sales.raw.orders", "reader", privilege.Modify}, // revoked below
		{"sales", "analysts", privilege.UseCatalog},
		{"sales.raw", "analysts", privilege.UseSchema},
		{"sales.raw.orders", "analysts", privilege.Select},
		{"sales.raw.orders", "gateless", privilege.Select}, // no USE grants
		{"sales", "builder", privilege.AllPrivileges},
	} {
		if err := svc.Grant(admin, g.full, g.who, g.priv); err != nil {
			t.Fatal(err)
		}
	}

	ms, err := svc.meta("ms1")
	if err != nil {
		t.Fatal(err)
	}
	secs := []ids.ID{ms.info.EntityID, ids.ID("no-such-securable")}
	for _, full := range []string{"sales", "sales.raw", "sales.raw.orders", "sales.raw.refunds"} {
		e, err := svc.GetAsset(admin, full)
		if err != nil {
			t.Fatal(err)
		}
		secs = append(secs, e.ID)
	}
	principals := []privilege.Principal{"admin", "steward", "reader", "dana", "gateless", "builder", "stranger"}
	privs := []privilege.Privilege{
		privilege.Select, privilege.Modify, privilege.UseCatalog, privilege.UseSchema,
		privilege.CreateTable, privilege.CreateSchema, privilege.Manage, privilege.AllPrivileges,
	}

	compare := func(stage string) {
		t.Helper()
		view, err := svc.view(admin)
		if err != nil {
			t.Fatal(err)
		}
		defer view.Close()
		oracle := privilege.NewEngine(viewResolver{view}, viewGrants{view}, dir)
		for _, p := range principals {
			got, want := svc.authorizer(Ctx{Principal: p, Metastore: "ms1"}, view), oracle.For(p)
			for _, sec := range secs {
				for _, priv := range privs {
					if g, w := got.Check(priv, sec), want.Check(priv, sec); g != w {
						t.Fatalf("%s: Check(%s, %s, %s): service %+v, reference %+v", stage, p, priv, sec.Short(), g, w)
					}
					if g, w := got.CheckNoGate(priv, sec), want.CheckNoGate(priv, sec); g != w {
						t.Fatalf("%s: CheckNoGate(%s, %s, %s): service %+v, reference %+v", stage, p, priv, sec.Short(), g, w)
					}
				}
				if g, w := got.IsOwner(sec), want.IsOwner(sec); g != w {
					t.Fatalf("%s: IsOwner(%s, %s): service %v, reference %v", stage, p, sec.Short(), g, w)
				}
				if g, w := fmt.Sprint(got.EffectivePrivileges(sec)), fmt.Sprint(want.EffectivePrivileges(sec)); g != w {
					t.Fatalf("%s: EffectivePrivileges(%s, %s): service %s, reference %s", stage, p, sec.Short(), g, w)
				}
				gs, gok := got.EffectiveSet(sec)
				if ws, wok := want.EffectiveSet(sec); gs != ws || gok != wok {
					t.Fatalf("%s: EffectiveSet(%s, %s): service %b/%v, reference %b/%v", stage, p, sec.Short(), gs, gok, ws, wok)
				}
			}
			for _, priv := range privs {
				g, w := got.CheckMany(priv, secs), want.CheckMany(priv, secs)
				for i := range w {
					if g[i] != w[i] {
						t.Fatalf("%s: CheckMany(%s, %s)[%d]: service %+v, reference %+v", stage, p, priv, i, g[i], w[i])
					}
				}
			}
		}
	}
	compare("granted")
	if err := svc.Revoke(admin, "sales.raw.orders", "reader", privilege.Modify); err != nil {
		t.Fatal(err)
	}
	compare("revoked")

	// The scenario is not vacuous: the gates, the group and the revoke each
	// decide something.
	view, err := svc.view(admin)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	orders := secs[4]
	for _, c := range []struct {
		who   privilege.Principal
		priv  privilege.Privilege
		allow bool
	}{
		{"reader", privilege.Select, true},
		{"reader", privilege.Modify, false}, // revoked
		{"dana", privilege.Select, true},    // through the group
		{"gateless", privilege.Select, false},
		{"stranger", privilege.Select, false},
	} {
		if d := svc.authorizer(Ctx{Principal: c.who, Metastore: "ms1"}, view).Check(c.priv, orders); d.Allowed != c.allow {
			t.Fatalf("%s %s on orders: allowed=%v, want %v (%s)", c.who, c.priv, d.Allowed, c.allow, d.Reason)
		}
	}
	if !svc.authorizer(Ctx{Principal: "gateless", Metastore: "ms1"}, view).CheckNoGate(privilege.Select, orders).Allowed {
		t.Fatal("gateless holds SELECT on orders when gates are not applied")
	}
}

// TestAuthzListMatchesPerAssetChecks cross-checks the batched list filter
// against per-asset service checks for a mixed-visibility schema.
func TestAuthzListMatchesPerAssetChecks(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	for i := 0; i < 8; i++ {
		if _, err := svc.CreateTable(admin, "sales.raw", fmt.Sprintf("t%d", i), TableSpec{Columns: cols("id")}, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Grant(admin, "sales", "reader", privilege.UseCatalog); err != nil {
		t.Fatal(err)
	}
	if err := svc.Grant(admin, "sales.raw", "reader", privilege.UseSchema); err != nil {
		t.Fatal(err)
	}
	// Visibility on a strict subset of tables.
	for _, name := range []string{"t1", "t4", "t6"} {
		if err := svc.Grant(admin, "sales.raw."+name, "reader", privilege.Select); err != nil {
			t.Fatal(err)
		}
	}
	reader := Ctx{Principal: "reader", Metastore: "ms1"}
	listed, err := svc.ListAssets(reader, "sales.raw", erm.TypeTable)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	var idsList []ids.ID
	for _, e := range listed {
		got[e.Name] = true
		idsList = append(idsList, e.ID)
	}
	want := map[string]bool{"t1": true, "t4": true, "t6": true}
	if len(got) != len(want) {
		t.Fatalf("listed %v, want %v", got, want)
	}
	for name := range want {
		if !got[name] {
			t.Fatalf("listed %v, want %v", got, want)
		}
	}
	// AuthorizeBatch agrees with the listing.
	oks, err := svc.AuthorizeBatch(reader, idsList, privilege.Select)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range oks {
		if !ok {
			t.Fatalf("AuthorizeBatch denied listed asset %s", listed[i].FullName)
		}
	}
}

// TestAuthzConcurrentStress runs concurrent reads (list, get, batch) across
// several principals interleaved with grant/revoke writes that bump the
// metastore version. Run under -race via the Makefile race gate, it checks
// the snapshot cache and compiled engines for data races and ensures
// decisions keep flowing during invalidation churn.
func TestAuthzConcurrentStress(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	for i := 0; i < 16; i++ {
		if _, err := svc.CreateTable(admin, "sales.raw", fmt.Sprintf("t%d", i), TableSpec{Columns: cols("id")}, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []privilege.Principal{"r0", "r1", "r2"} {
		if err := svc.Grant(admin, "sales", p, privilege.UseCatalog); err != nil {
			t.Fatal(err)
		}
		if err := svc.Grant(admin, "sales.raw", p, privilege.UseSchema); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := Ctx{Principal: privilege.Principal(fmt.Sprintf("r%d", w%3)), Metastore: "ms1"}
			for i := 0; i < 60; i++ {
				if _, err := svc.ListAssets(ctx, "sales.raw", erm.TypeTable); err != nil {
					t.Error(err)
					return
				}
				svc.GetAsset(ctx, "sales.raw.t3")
				svc.EffectivePrivileges(ctx, "sales.raw.t3")
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			tbl := fmt.Sprintf("sales.raw.t%d", i%16)
			p := privilege.Principal(fmt.Sprintf("r%d", i%3))
			if err := svc.Grant(admin, tbl, p, privilege.Select); err != nil {
				t.Error(err)
				return
			}
			if err := svc.Revoke(admin, tbl, p, privilege.Select); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	m := svc.AuthzMetrics()
	if m.Misses == 0 || m.Invalidations == 0 {
		t.Fatalf("stress produced no invalidation churn: %+v", m)
	}
}
