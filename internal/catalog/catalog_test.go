package catalog

import (
	"errors"
	"strings"
	"testing"
	"time"

	"unitycatalog/internal/audit"
	"unitycatalog/internal/clock"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/events"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// testService builds a Service with one metastore owned by "admin".
func testService(t *testing.T) (*Service, Ctx) {
	t.Helper()
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateMetastore("ms1", "main", "us-east-1", "admin", "s3://metastore-root/ms1"); err != nil {
		t.Fatal(err)
	}
	return svc, Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
}

func cols(names ...string) []ColumnInfo {
	out := make([]ColumnInfo, len(names))
	for i, n := range names {
		out[i] = ColumnInfo{Name: n, Type: "STRING", Nullable: true, Position: i}
	}
	return out
}

// seedNamespace creates sales.raw with a managed table.
func seedNamespace(t *testing.T, svc *Service, admin Ctx) *erm.Entity {
	t.Helper()
	if _, err := svc.CreateCatalog(admin, "sales", "sales data"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateSchema(admin, "sales", "raw", ""); err != nil {
		t.Fatal(err)
	}
	tbl, err := svc.CreateTable(admin, "sales.raw", "orders", TableSpec{Columns: cols("id", "amount", "region")}, "")
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestCreateNamespaceHierarchy(t *testing.T) {
	svc, admin := testService(t)
	tbl := seedNamespace(t, svc, admin)
	if tbl.FullName != "sales.raw.orders" {
		t.Fatalf("full name = %q", tbl.FullName)
	}
	if !tbl.Managed || !strings.HasPrefix(tbl.StoragePath, "s3://metastore-root/ms1/table/") {
		t.Fatalf("managed path = %q (managed=%v)", tbl.StoragePath, tbl.Managed)
	}
	got, err := svc.GetAsset(admin, "sales.raw.orders")
	if err != nil || got.ID != tbl.ID {
		t.Fatalf("get = %+v, %v", got, err)
	}
	spec, err := TableSpecOf(got)
	if err != nil || spec.TableType != TableManaged || spec.Format != FormatDelta || len(spec.Columns) != 3 {
		t.Fatalf("spec = %+v, %v", spec, err)
	}
}

func TestNameUniquenessAcrossTablesAndViews(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	// A view cannot reuse a table's name in the same schema.
	_, err := svc.CreateView(admin, "sales.raw", "orders", ViewSpec{Definition: "SELECT 1"})
	if !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("view with table name: %v", err)
	}
	// But a volume can (different name group).
	if _, err := svc.CreateVolume(admin, "sales.raw", "orders", ""); err != nil {
		t.Fatalf("volume with same name: %v", err)
	}
	// Case-insensitive collision.
	_, err = svc.CreateTable(admin, "sales.raw", "ORDERS", TableSpec{Columns: cols("x")}, "")
	if !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("case-insensitive dup: %v", err)
	}
}

func TestOneAssetPerPath(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	if _, err := svc.CreateTable(admin, "sales.raw", "ext1", TableSpec{Columns: cols("a")}, "s3://lake/raw/ext1"); err != nil {
		t.Fatal(err)
	}
	// Same path.
	if _, err := svc.CreateTable(admin, "sales.raw", "ext2", TableSpec{Columns: cols("a")}, "s3://lake/raw/ext1"); !errors.Is(err, ErrPathOverlap) {
		t.Fatalf("same path: %v", err)
	}
	// Path under an existing asset.
	if _, err := svc.CreateTable(admin, "sales.raw", "ext3", TableSpec{Columns: cols("a")}, "s3://lake/raw/ext1/sub"); !errors.Is(err, ErrPathOverlap) {
		t.Fatalf("nested path: %v", err)
	}
	// Path above an existing asset.
	if _, err := svc.CreateVolume(admin, "sales.raw", "vol1", "s3://lake/raw"); !errors.Is(err, ErrPathOverlap) {
		t.Fatalf("ancestor path: %v", err)
	}
	// Disjoint sibling is fine.
	if _, err := svc.CreateTable(admin, "sales.raw", "ext4", TableSpec{Columns: cols("a")}, "s3://lake/raw/ext4"); err != nil {
		t.Fatal(err)
	}
	// Overlap listing.
	paths, err := svc.OverlappingPaths(admin, "s3://lake/raw")
	if err != nil || len(paths) != 2 {
		t.Fatalf("overlapping = %v, %v", paths, err)
	}
}

func TestAccessControlEndToEnd(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	alice := Ctx{Principal: "alice", Metastore: "ms1", TrustedEngine: true}

	// Default deny: alice sees nothing.
	if _, err := svc.GetAsset(alice, "sales.raw.orders"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("default deny: %v", err)
	}
	// Grant SELECT only: still gated by usage privileges.
	if err := svc.Grant(admin, "sales.raw.orders", "alice", privilege.Select); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.GetAsset(alice, "sales.raw.orders"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("missing usage privileges: %v", err)
	}
	if err := svc.Grant(admin, "sales.raw", "alice", privilege.UseSchema); err != nil {
		t.Fatal(err)
	}
	if err := svc.Grant(admin, "sales", "alice", privilege.UseCatalog); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.GetAsset(alice, "sales.raw.orders"); err != nil {
		t.Fatalf("full chain: %v", err)
	}
	// But alice cannot grant or delete.
	if err := svc.Grant(alice, "sales.raw.orders", "bob", privilege.Select); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("non-owner grant: %v", err)
	}
	if err := svc.DeleteAsset(alice, "sales.raw.orders", false); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("non-owner delete: %v", err)
	}
	// Revoke closes access again.
	if err := svc.Revoke(admin, "sales.raw.orders", "alice", privilege.Select); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.GetAsset(alice, "sales.raw.orders"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("after revoke: %v", err)
	}
}

func TestCredentialVendingByNameAndPath(t *testing.T) {
	svc, admin := testService(t)
	tbl := seedNamespace(t, svc, admin)

	// By name.
	tc, err := svc.TempCredentialForAsset(admin, "sales.raw.orders", cloudsim.AccessReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Asset != tbl.ID || tc.Credential.Scope != tbl.StoragePath {
		t.Fatalf("cred = %+v", tc)
	}
	// The token actually works against the object store, and only in scope.
	if err := svc.Cloud().Put(tc.Credential.Token, tbl.StoragePath+"/part-0", []byte("rows")); err != nil {
		t.Fatal(err)
	}
	if err := svc.Cloud().Put(tc.Credential.Token, "s3://metastore-root/ms1/other", []byte("x")); err == nil {
		t.Fatal("out-of-scope write should fail")
	}

	// By raw path: resolves to the same asset and enforces its privileges.
	tc2, err := svc.TempCredentialForPath(admin, tbl.StoragePath+"/part-0", cloudsim.AccessRead)
	if err != nil || tc2.Asset != tbl.ID {
		t.Fatalf("path cred = %+v, %v", tc2, err)
	}
	// Unauthorized principal is denied by path exactly like by name.
	mallory := Ctx{Principal: "mallory", Metastore: "ms1"}
	if _, err := svc.TempCredentialForPath(mallory, tbl.StoragePath+"/part-0", cloudsim.AccessRead); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("path-based bypass: %v", err)
	}
	// Ungoverned path.
	if _, err := svc.TempCredentialForPath(admin, "s3://elsewhere/file", cloudsim.AccessRead); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ungoverned path: %v", err)
	}
}

func TestTokenCacheReuse(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	a, _ := svc.TempCredentialForAsset(admin, "sales.raw.orders", cloudsim.AccessRead)
	b, _ := svc.TempCredentialForAsset(admin, "sales.raw.orders", cloudsim.AccessRead)
	if a.Credential.Token != b.Credential.Token {
		t.Fatal("token should be reused from the cache")
	}
	// Different level and different principal mint fresh tokens.
	c, _ := svc.TempCredentialForAsset(admin, "sales.raw.orders", cloudsim.AccessReadWrite)
	if c.Credential.Token == a.Credential.Token {
		t.Fatal("different level must not share tokens")
	}
}

func TestResolveBatchWithViewClosure(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	if _, err := svc.CreateTable(admin, "sales.raw", "customers", TableSpec{Columns: cols("id", "name")}, ""); err != nil {
		t.Fatal(err)
	}
	_, err := svc.CreateView(admin, "sales.raw", "order_names", ViewSpec{
		Definition:   "SELECT o.id, c.name FROM sales.raw.orders o JOIN sales.raw.customers c",
		Dependencies: []string{"sales.raw.orders", "sales.raw.customers"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A nested view over the first view.
	if _, err := svc.CreateView(admin, "sales.raw", "top", ViewSpec{
		Definition: "SELECT * FROM sales.raw.order_names", Dependencies: []string{"sales.raw.order_names"},
	}); err != nil {
		t.Fatal(err)
	}

	resp, err := svc.Resolve(admin, ResolveRequest{Names: []string{"sales.raw.top"}, WithCredentials: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Assets) != 4 {
		t.Fatalf("closure = %d assets: %v", len(resp.Assets), keysOf(resp.Assets))
	}
	ra := resp.Assets["sales.raw.orders"]
	if ra == nil || ra.Table == nil || ra.Credential == nil {
		t.Fatalf("orders = %+v", ra)
	}

	// alice has SELECT only on the view; base tables flow via the view for
	// a trusted engine.
	for _, g := range []struct {
		obj  string
		priv privilege.Privilege
	}{{"sales", privilege.UseCatalog}, {"sales.raw", privilege.UseSchema}, {"sales.raw.top", privilege.Select}} {
		if err := svc.Grant(admin, g.obj, "alice", g.priv); err != nil {
			t.Fatal(err)
		}
	}
	alice := Ctx{Principal: "alice", Metastore: "ms1", TrustedEngine: true}
	resp, err = svc.Resolve(alice, ResolveRequest{Names: []string{"sales.raw.top"}, WithCredentials: true})
	if err != nil {
		t.Fatal(err)
	}
	if ra := resp.Assets["sales.raw.orders"]; ra == nil || !ra.ViaView || ra.Credential == nil {
		t.Fatalf("via-view base table = %+v", ra)
	}
	// An untrusted engine must be refused.
	aliceUntrusted := alice
	aliceUntrusted.TrustedEngine = false
	if _, err := svc.Resolve(aliceUntrusted, ResolveRequest{Names: []string{"sales.raw.top"}}); !errors.Is(err, ErrTrustedEngineRequired) {
		t.Fatalf("untrusted view access: %v", err)
	}
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestFGACRequiresTrustedEngine(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	// Attach a row filter.
	spec := TableSpec{Columns: cols("id", "amount", "region"),
		FGAC: privilege.FGACPolicy{RowFilters: []privilege.RowFilter{{Predicate: "region = 'EU'", Columns: []string{"region"}, ExemptPrincipals: []privilege.Principal{"admin"}}}}}
	if _, err := svc.UpdateAsset(admin, "sales.raw.orders", UpdateRequest{Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		obj  string
		priv privilege.Privilege
	}{{"sales", privilege.UseCatalog}, {"sales.raw", privilege.UseSchema}, {"sales.raw.orders", privilege.Select}} {
		svc.Grant(admin, g.obj, "alice", g.priv)
	}

	trusted := Ctx{Principal: "alice", Metastore: "ms1", TrustedEngine: true}
	resp, err := svc.Resolve(trusted, ResolveRequest{Names: []string{"sales.raw.orders"}})
	if err != nil {
		t.Fatal(err)
	}
	if ra := resp.Assets["sales.raw.orders"]; ra.FGAC == nil || len(ra.FGAC.RowFilters) != 1 {
		t.Fatalf("trusted engine should receive rules: %+v", ra.FGAC)
	}

	untrusted := Ctx{Principal: "alice", Metastore: "ms1"}
	if _, err := svc.Resolve(untrusted, ResolveRequest{Names: []string{"sales.raw.orders"}}); !errors.Is(err, ErrTrustedEngineRequired) {
		t.Fatalf("untrusted resolve: %v", err)
	}
	if _, err := svc.TempCredentialForAsset(untrusted, "sales.raw.orders", cloudsim.AccessRead); !errors.Is(err, ErrTrustedEngineRequired) {
		t.Fatalf("untrusted vend: %v", err)
	}
	// The exempt principal sees no rules and may use any engine.
	adminUntrusted := Ctx{Principal: "admin", Metastore: "ms1"}
	resp, err = svc.Resolve(adminUntrusted, ResolveRequest{Names: []string{"sales.raw.orders"}})
	if err != nil {
		t.Fatal(err)
	}
	if ra := resp.Assets["sales.raw.orders"]; ra.FGAC != nil {
		t.Fatalf("exempt principal got rules: %+v", ra.FGAC)
	}
}

func TestABACGrantAndMask(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	// Tag the region column as PII and the table as gold.
	if err := svc.SetTag(admin, "sales.raw.orders", "region", "classification", "pii"); err != nil {
		t.Fatal(err)
	}
	if err := svc.SetTag(admin, "sales.raw.orders", "", "tier", "gold"); err != nil {
		t.Fatal(err)
	}
	// ABAC: grant SELECT on anything tagged tier=gold within the catalog;
	// mask anything with classification=pii.
	if _, err := svc.CreateABACRule(admin, "sales", privilege.ABACRule{
		Name: "gold-readers", TagKey: "tier", TagValue: "gold",
		Action: privilege.ABACGrant, Privilege: privilege.Select, Principals: []privilege.Principal{"alice"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateABACRule(admin, "", privilege.ABACRule{
		Name: "mask-pii", TagKey: "classification", TagValue: "pii",
		Action: privilege.ABACColumnMask, Mask: &privilege.ColumnMask{Kind: privilege.MaskRedact, Replacement: "###"},
		ExemptPrincipals: []privilege.Principal{"admin"},
	}); err != nil {
		t.Fatal(err)
	}
	svc.Grant(admin, "sales", "alice", privilege.UseCatalog)
	svc.Grant(admin, "sales.raw", "alice", privilege.UseSchema)

	alice := Ctx{Principal: "alice", Metastore: "ms1", TrustedEngine: true}
	resp, err := svc.Resolve(alice, ResolveRequest{Names: []string{"sales.raw.orders"}})
	if err != nil {
		t.Fatalf("ABAC grant should allow: %v", err)
	}
	ra := resp.Assets["sales.raw.orders"]
	if ra.FGAC == nil || len(ra.FGAC.ColumnMasks) != 1 || ra.FGAC.ColumnMasks[0].Column != "region" {
		t.Fatalf("ABAC mask = %+v", ra.FGAC)
	}
	// admin is exempt from the mask.
	resp, _ = svc.Resolve(Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}, ResolveRequest{Names: []string{"sales.raw.orders"}})
	if resp.Assets["sales.raw.orders"].FGAC != nil {
		t.Fatal("admin should be exempt from ABAC mask")
	}
	// Rules list and deletion.
	rules, err := svc.ABACRules(admin)
	if err != nil || len(rules) != 2 {
		t.Fatalf("rules = %v, %v", rules, err)
	}
	if err := svc.DeleteABACRule(admin, rules[0].ID); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteCascadeAndGC(t *testing.T) {
	db, _ := store.Open(store.Options{})
	defer db.Close()
	fake := clock.NewFake(time.Unix(1_700_000_000, 0))
	svc, _ := New(Config{DB: db, Clock: fake, SoftDeleteRetention: time.Hour})
	svc.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1")
	admin := Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
	tbl := seedNamespace(t, svc, admin)

	// Write some managed data so GC has something to clean.
	svc.Cloud().ServicePut(tbl.StoragePath+"/part-0", []byte("rows"))

	// Non-empty container without force fails.
	if err := svc.DeleteAsset(admin, "sales", false); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("non-empty delete: %v", err)
	}
	if err := svc.DeleteAsset(admin, "sales", true); err != nil {
		t.Fatal(err)
	}
	// Everything is gone from the namespace, name is reusable.
	if _, err := svc.GetAsset(admin, "sales.raw.orders"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted table: %v", err)
	}
	if _, err := svc.CreateCatalog(admin, "sales", ""); err != nil {
		t.Fatalf("name reuse: %v", err)
	}
	// GC before retention: nothing purged.
	res, err := svc.RunGC("ms1")
	if err != nil || res.PurgedEntities != 0 {
		t.Fatalf("early gc = %+v, %v", res, err)
	}
	// After retention: purged, and managed storage cleaned.
	fake.Advance(2 * time.Hour)
	res, err = svc.RunGC("ms1")
	if err != nil {
		t.Fatal(err)
	}
	if res.PurgedEntities != 3 || res.DeletedObjects != 1 {
		t.Fatalf("gc = %+v", res)
	}
	if svc.Cloud().ObjectCount(tbl.StoragePath) != 0 {
		t.Fatal("managed storage not cleaned")
	}
}

func TestUndelete(t *testing.T) {
	svc, admin := testService(t)
	tbl := seedNamespace(t, svc, admin)
	if err := svc.DeleteAsset(admin, "sales.raw.orders", false); err != nil {
		t.Fatal(err)
	}
	restored, err := svc.Undelete(admin, tbl.ID)
	if err != nil || restored.State != erm.StateActive {
		t.Fatalf("undelete = %+v, %v", restored, err)
	}
	if _, err := svc.GetAsset(admin, "sales.raw.orders"); err != nil {
		t.Fatalf("after undelete: %v", err)
	}
	// Undelete fails when the name was reused.
	svc.DeleteAsset(admin, "sales.raw.orders", false)
	if _, err := svc.CreateTable(admin, "sales.raw", "orders", TableSpec{Columns: cols("x")}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Undelete(admin, tbl.ID); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("undelete with reused name: %v", err)
	}
}

func TestUpdateAssetValidation(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	long := strings.Repeat("x", 2000)
	if _, err := svc.UpdateAsset(admin, "sales.raw.orders", UpdateRequest{Comment: &long}); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("oversized comment: %v", err)
	}
	c := "nightly orders"
	e, err := svc.UpdateAsset(admin, "sales.raw.orders", UpdateRequest{Comment: &c, Properties: map[string]string{"team": "sales"}})
	if err != nil || e.Comment != c || e.Properties["team"] != "sales" {
		t.Fatalf("update = %+v, %v", e, err)
	}
	// Property deletion via empty value.
	e, _ = svc.UpdateAsset(admin, "sales.raw.orders", UpdateRequest{Properties: map[string]string{"team": ""}})
	if _, ok := e.Properties["team"]; ok {
		t.Fatal("property not deleted")
	}
	// Ownership transfer requires admin.
	newOwner := privilege.Principal("bob")
	alice := Ctx{Principal: "alice", Metastore: "ms1"}
	if _, err := svc.UpdateAsset(alice, "sales.raw.orders", UpdateRequest{Owner: &newOwner}); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("non-admin owner change: %v", err)
	}
	e, err = svc.UpdateAsset(admin, "sales.raw.orders", UpdateRequest{Owner: &newOwner})
	if err != nil || e.Owner != "bob" {
		t.Fatalf("owner change = %+v, %v", e, err)
	}
}

func TestQueryAssetsFilterPushdown(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	svc.CreateTable(admin, "sales.raw", "customers", TableSpec{Columns: cols("id")}, "")
	svc.CreateCatalog(admin, "hr", "")
	svc.CreateSchema(admin, "hr", "people", "")
	svc.CreateTable(admin, "hr.people", "employees", TableSpec{Columns: cols("id", "ssn")}, "")
	svc.SetTag(admin, "hr.people.employees", "ssn", "classification", "pii")

	// By catalog+schema+type.
	got, err := svc.QueryAssets(admin, Filter{CatalogName: "sales", SchemaName: "raw", Type: erm.TypeTable})
	if err != nil || len(got) != 2 {
		t.Fatalf("query = %v, %v", names(got), err)
	}
	// By tag anywhere.
	got, err = svc.QueryAssets(admin, Filter{TagKey: "classification", TagValue: "pii"})
	if err != nil || len(got) != 1 || got[0].FullName != "hr.people.employees" {
		t.Fatalf("tag query = %v, %v", names(got), err)
	}
	// Name substring.
	got, _ = svc.QueryAssets(admin, Filter{NameContains: "cust"})
	if len(got) != 1 || got[0].Name != "customers" {
		t.Fatalf("name query = %v", names(got))
	}
	// Authorization filters results: alice sees nothing.
	alice := Ctx{Principal: "alice", Metastore: "ms1"}
	got, _ = svc.QueryAssets(alice, Filter{Type: erm.TypeTable})
	if len(got) != 0 {
		t.Fatalf("alice sees %v", names(got))
	}
	// Limit.
	got, _ = svc.QueryAssets(admin, Filter{Type: erm.TypeTable, Limit: 1})
	if len(got) != 1 {
		t.Fatalf("limit = %v", names(got))
	}
}

func names(es []*erm.Entity) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.FullName
	}
	return out
}

func TestListAssetsVisibility(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	svc.CreateTable(admin, "sales.raw", "secret", TableSpec{Columns: cols("x")}, "")
	svc.Grant(admin, "sales", "alice", privilege.UseCatalog)
	svc.Grant(admin, "sales.raw", "alice", privilege.UseSchema)
	svc.Grant(admin, "sales.raw.orders", "alice", privilege.Select)

	alice := Ctx{Principal: "alice", Metastore: "ms1"}
	got, err := svc.ListAssets(alice, "sales.raw", erm.TypeTable)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "orders" {
		t.Fatalf("alice list = %v", names(got))
	}
	// Admin sees both.
	got, _ = svc.ListAssets(admin, "sales.raw", erm.TypeTable)
	if len(got) != 2 {
		t.Fatalf("admin list = %v", names(got))
	}
}

func TestChangeEventsPublished(t *testing.T) {
	svc, admin := testService(t)
	sub := svc.Bus().Subscribe()
	defer sub.Cancel()
	seedNamespace(t, svc, admin)
	svc.Grant(admin, "sales.raw.orders", "alice", privilege.Select)
	svc.DeleteAsset(admin, "sales.raw.orders", false)

	var ops []events.Op
	var lastV uint64
	timeout := time.After(2 * time.Second)
	for len(ops) < 5 {
		select {
		case e := <-sub.C:
			ops = append(ops, e.Op)
			if e.Version < lastV {
				t.Fatal("event versions not monotonic")
			}
			lastV = e.Version
		case <-timeout:
			t.Fatalf("timed out; got %v", ops)
		}
	}
	want := []events.Op{events.OpCreate, events.OpCreate, events.OpCreate, events.OpGrant, events.OpDelete}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
}

func TestAuditTrail(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	svc.GetAsset(admin, "sales.raw.orders")
	svc.GetAsset(Ctx{Principal: "eve", Metastore: "ms1"}, "sales.raw.orders")

	st := svc.Audit().Stats()
	if st.Total == 0 || st.Denied == 0 {
		t.Fatalf("audit stats = %+v", st)
	}
	denials := svc.Audit().Filter(func(r audit.Record) bool { return !r.Allowed && r.Principal == "eve" })
	if len(denials) == 0 {
		t.Fatal("no denial recorded for eve")
	}
}

// TestReadAPIsAudited: the read APIs of grants.go write exactly one audit
// record per call, allowed or not, as every other API does.
func TestReadAPIsAudited(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	eve := Ctx{Principal: "eve", Metastore: "ms1"}
	for _, tc := range []struct {
		op      string
		ctx     Ctx
		call    func(Ctx) error
		allowed bool
	}{
		{"EffectivePrivileges", admin, func(c Ctx) error { _, err := svc.EffectivePrivileges(c, "sales.raw.orders"); return err }, true},
		{"EffectivePrivileges", admin, func(c Ctx) error { _, err := svc.EffectivePrivileges(c, "sales.raw.nope"); return err }, false},
		{"Tags", admin, func(c Ctx) error { _, err := svc.Tags(c, "sales.raw.orders"); return err }, true},
		{"Tags", eve, func(c Ctx) error { _, err := svc.Tags(c, "sales.raw.orders"); return err }, false},
		{"ABACRules", admin, func(c Ctx) error { _, err := svc.ABACRules(c); return err }, true},
		{"ABACRules", Ctx{Principal: "admin", Metastore: "nope"}, func(c Ctx) error { _, err := svc.ABACRules(c); return err }, false},
	} {
		before := svc.Audit().Stats().ByOperation[tc.op]
		if err := tc.call(tc.ctx); (err == nil) != tc.allowed {
			t.Fatalf("%s as %s: %v, want allowed=%v", tc.op, tc.ctx.Principal, err, tc.allowed)
		}
		if n := svc.Audit().Stats().ByOperation[tc.op] - before; n != 1 {
			t.Fatalf("%s as %s: %d audit records for one call", tc.op, tc.ctx.Principal, n)
		}
		last := svc.Audit().Filter(func(r audit.Record) bool { return r.Kind == audit.KindAPIRequest && r.Operation == tc.op })
		if r := last[len(last)-1]; r.Allowed != tc.allowed || !r.ReadOnly || r.Principal != string(tc.ctx.Principal) {
			t.Fatalf("%s as %s: audit record %+v", tc.op, tc.ctx.Principal, r)
		}
	}
}

func TestMetastoreReopen(t *testing.T) {
	db, _ := store.Open(store.Options{})
	defer db.Close()
	svc1, _ := New(Config{DB: db})
	svc1.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1")
	admin := Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
	tbl := seedNamespace(t, svc1, admin)

	// A second service node over the same DB opens the metastore and sees
	// everything, including the rebuilt path trie.
	svc2, _ := New(Config{DB: db})
	info, err := svc2.OpenMetastore("ms1")
	if err != nil || info.Name != "main" {
		t.Fatalf("open = %+v, %v", info, err)
	}
	got, err := svc2.GetAsset(admin, "sales.raw.orders")
	if err != nil || got.ID != tbl.ID {
		t.Fatalf("get via node2 = %v", err)
	}
	if _, err := svc2.TempCredentialForPath(admin, tbl.StoragePath+"/f", cloudsim.AccessRead); err != nil {
		t.Fatalf("path vend via node2: %v", err)
	}
}

func TestWorkingSetAndTypeCounts(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	counts, err := svc.TypeCounts("ms1")
	if err != nil || counts[erm.TypeTable] != 1 || counts[erm.TypeCatalog] != 1 {
		t.Fatalf("counts = %v, %v", counts, err)
	}
	n, err := svc.WorkingSetBytes("ms1")
	if err != nil || n <= 0 {
		t.Fatalf("working set = %d, %v", n, err)
	}
}
