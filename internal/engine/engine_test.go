package engine

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/delta"
	"unitycatalog/internal/faults"
	"unitycatalog/internal/lineage"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// env bundles a catalog service, a trusted engine, and a seeded table.
type env struct {
	svc     *catalog.Service
	trusted *Engine
	admin   catalog.Ctx
}

func newEnv(t *testing.T) *env {
	t.Helper()
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := catalog.New(catalog.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1"); err != nil {
		t.Fatal(err)
	}
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	eng := &Engine{Name: "dbr-test", Catalog: svc, Cloud: svc.Cloud(), Trusted: true}
	e := &env{svc: svc, trusted: eng, admin: admin}
	e.mustExecDDL(t)
	return e
}

func (e *env) mustExecDDL(t *testing.T) {
	t.Helper()
	if _, err := e.svc.CreateCatalog(e.admin, "sales", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := e.svc.CreateSchema(e.admin, "sales", "raw", ""); err != nil {
		t.Fatal(err)
	}
	tblEntity, err := e.svc.CreateTable(e.admin, "sales.raw", "orders", catalog.TableSpec{Columns: []catalog.ColumnInfo{
		{Name: "id", Type: "BIGINT"}, {Name: "amount", Type: "DOUBLE"}, {Name: "region", Type: "STRING"}, {Name: "owner_user", Type: "STRING"},
	}}, "")
	if err != nil {
		t.Fatal(err)
	}
	schema := delta.Schema{Fields: []delta.SchemaField{
		{Name: "id", Type: delta.TypeInt64}, {Name: "amount", Type: delta.TypeFloat64},
		{Name: "region", Type: delta.TypeString}, {Name: "owner_user", Type: delta.TypeString},
	}}
	if _, err := delta.Create(delta.ServiceBlobs{Store: e.svc.Cloud()}, tblEntity.StoragePath, "orders", schema, nil); err != nil {
		t.Fatal(err)
	}
}

func (e *env) insertRows(t *testing.T, n int) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("INSERT INTO sales.raw.orders VALUES ")
	regions := []string{"US", "EU", "APAC"}
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		owner := "alice"
		if i%2 == 0 {
			owner = "bob"
		}
		sb.WriteString("(")
		sb.WriteString(strings.Join([]string{
			itoa(i), itoa(i) + ".5", "'" + regions[i%3] + "'", "'" + owner + "'",
		}, ", "))
		sb.WriteString(")")
	}
	if _, err := e.trusted.Execute(e.admin, sb.String()); err != nil {
		t.Fatal(err)
	}
}

func itoa(i int) string { return strconv.Itoa(i) }

func TestParseSelect(t *testing.T) {
	st, err := Parse("SELECT id, amount FROM cat.sch.t WHERE id >= 10 AND region = 'EU' LIMIT 5;")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindSelect || len(st.Columns) != 2 || st.Table != "cat.sch.t" || st.Limit != 5 {
		t.Fatalf("st = %+v", st)
	}
	if len(st.Where) != 2 || st.Where[0].Op != ">=" || st.Where[1].Value != "EU" {
		t.Fatalf("where = %+v", st.Where)
	}
	if st.Where[0].Value.(int64) != 10 {
		t.Fatalf("int literal = %v", st.Where[0].Value)
	}
}

func TestParseVariants(t *testing.T) {
	good := []string{
		"SELECT * FROM t",
		"select count(*) from db.t where x < 3.5",
		"INSERT INTO t VALUES (1, 'a'), (2, 'b')",
		"INSERT INTO t SELECT a, b FROM s WHERE a = current_user()",
		"SELECT x FROM t WHERE s = 'it''s'",
	}
	for _, q := range good {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
	bad := []string{
		"", "DROP TABLE t", "SELECT FROM t", "SELECT * FROM", "SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a != 3", "INSERT INTO t", "SELECT * FROM t LIMIT x",
		"SELECT * FROM t extra",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestInsertAndSelect(t *testing.T) {
	e := newEnv(t)
	e.insertRows(t, 30)
	res, err := e.trusted.Execute(e.admin, "SELECT id, region FROM sales.raw.orders WHERE id >= 20")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsReturned != 10 || res.MetadataCalls != 1 {
		t.Fatalf("res = %+v", res)
	}
	// COUNT(*).
	res, err = e.trusted.Execute(e.admin, "SELECT COUNT(*) FROM sales.raw.orders")
	if err != nil || res.Count != 30 {
		t.Fatalf("count = %d, %v", res.Count, err)
	}
	// LIMIT.
	res, _ = e.trusted.Execute(e.admin, "SELECT id FROM sales.raw.orders LIMIT 7")
	if res.RowsReturned != 7 {
		t.Fatalf("limit rows = %d", res.RowsReturned)
	}
}

func TestSelectThroughView(t *testing.T) {
	e := newEnv(t)
	e.insertRows(t, 30)
	if _, err := e.svc.CreateView(e.admin, "sales.raw", "eu_orders", catalog.ViewSpec{
		Definition:   "SELECT id, amount, region FROM sales.raw.orders WHERE region = 'EU'",
		Dependencies: []string{"sales.raw.orders"},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.trusted.Execute(e.admin, "SELECT id FROM sales.raw.eu_orders WHERE id >= 10")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.Batch.Ints["id"] {
		if id < 10 || id%3 != 1 { // region EU corresponds to i%3==1
			t.Fatalf("unexpected id %d", id)
		}
	}
	// A user with SELECT only on the view reads through it (trusted engine).
	for _, g := range []struct {
		obj  string
		priv privilege.Privilege
	}{{"sales", privilege.UseCatalog}, {"sales.raw", privilege.UseSchema}, {"sales.raw.eu_orders", privilege.Select}} {
		if err := e.svc.Grant(e.admin, g.obj, "carol", g.priv); err != nil {
			t.Fatal(err)
		}
	}
	carol := catalog.Ctx{Principal: "carol", Metastore: "ms1"}
	res, err = e.trusted.Execute(carol, "SELECT id FROM sales.raw.eu_orders")
	if err != nil || res.RowsReturned == 0 {
		t.Fatalf("view-only access: %+v, %v", res, err)
	}
	// But carol cannot query the base table directly.
	if _, err := e.trusted.Execute(carol, "SELECT id FROM sales.raw.orders"); !errors.Is(err, catalog.ErrPermissionDenied) {
		t.Fatalf("base table access: %v", err)
	}
}

func TestFGACRowFilterAndMaskEnforced(t *testing.T) {
	e := newEnv(t)
	e.insertRows(t, 30)
	spec := catalog.TableSpec{
		Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}, {Name: "amount", Type: "DOUBLE"}, {Name: "region", Type: "STRING"}, {Name: "owner_user", Type: "STRING"}},
		FGAC: privilege.FGACPolicy{
			RowFilters:  []privilege.RowFilter{{Predicate: "owner_user = current_user()", Columns: []string{"owner_user"}, ExemptPrincipals: []privilege.Principal{"admin"}}},
			ColumnMasks: []privilege.ColumnMask{{Column: "region", Kind: privilege.MaskRedact, Replacement: "##", ExemptPrincipals: []privilege.Principal{"admin"}}},
		},
	}
	if _, err := e.svc.UpdateAsset(e.admin, "sales.raw.orders", catalog.UpdateRequest{Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		obj  string
		priv privilege.Privilege
	}{{"sales", privilege.UseCatalog}, {"sales.raw", privilege.UseSchema}, {"sales.raw.orders", privilege.Select}} {
		e.svc.Grant(e.admin, g.obj, "alice", g.priv)
	}
	alice := catalog.Ctx{Principal: "alice", Metastore: "ms1"}
	res, err := e.trusted.Execute(alice, "SELECT id, region, owner_user FROM sales.raw.orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsReturned != 15 {
		t.Fatalf("row filter returned %d rows, want 15", res.RowsReturned)
	}
	for _, u := range res.Batch.Strings["owner_user"] {
		if u != "alice" {
			t.Fatalf("leaked row for %q", u)
		}
	}
	for _, r := range res.Batch.Strings["region"] {
		if r != "##" {
			t.Fatalf("unmasked region %q", r)
		}
	}
	// Admin (exempt) sees everything unmasked.
	res, _ = e.trusted.Execute(e.admin, "SELECT region FROM sales.raw.orders")
	if res.RowsReturned != 30 || res.Batch.Strings["region"][0] == "##" {
		t.Fatalf("admin result = %+v", res)
	}
}

func TestUntrustedEngineDelegatesToFilterService(t *testing.T) {
	e := newEnv(t)
	e.insertRows(t, 10)
	spec := catalog.TableSpec{
		Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}, {Name: "amount", Type: "DOUBLE"}, {Name: "region", Type: "STRING"}, {Name: "owner_user", Type: "STRING"}},
		FGAC: privilege.FGACPolicy{
			RowFilters: []privilege.RowFilter{{Predicate: "owner_user = current_user()", Columns: []string{"owner_user"}}},
		},
	}
	if _, err := e.svc.UpdateAsset(e.admin, "sales.raw.orders", catalog.UpdateRequest{Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		obj  string
		priv privilege.Privilege
	}{{"sales", privilege.UseCatalog}, {"sales.raw", privilege.UseSchema}, {"sales.raw.orders", privilege.Select}} {
		e.svc.Grant(e.admin, g.obj, "alice", g.priv)
	}
	alice := catalog.Ctx{Principal: "alice", Metastore: "ms1"}

	// Untrusted engine without a filter service fails outright.
	untrusted := &Engine{Name: "gpu-ml", Catalog: e.svc, Cloud: e.svc.Cloud(), Trusted: false}
	if _, err := untrusted.Execute(alice, "SELECT id FROM sales.raw.orders"); !errors.Is(err, catalog.ErrTrustedEngineRequired) {
		t.Fatalf("untrusted direct: %v", err)
	}
	// With a data filtering service, the query is delegated and filtered.
	untrusted.FilterService = e.trusted
	res, err := untrusted.Execute(alice, "SELECT id, owner_user FROM sales.raw.orders")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delegated {
		t.Fatal("query should be marked delegated")
	}
	for _, u := range res.Batch.Strings["owner_user"] {
		if u != "alice" {
			t.Fatalf("filter service leaked row for %q", u)
		}
	}
}

func TestStatsPruningVisibleInResult(t *testing.T) {
	e := newEnv(t)
	// Three separate inserts create three files with disjoint id ranges.
	for k := 0; k < 3; k++ {
		var sb strings.Builder
		sb.WriteString("INSERT INTO sales.raw.orders VALUES ")
		for i := 0; i < 10; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			id := k*100 + i
			sb.WriteString("(" + itoa(id) + ", 1.0, 'US', 'alice')")
		}
		if _, err := e.trusted.Execute(e.admin, sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.trusted.Execute(e.admin, "SELECT id FROM sales.raw.orders WHERE id = 105")
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesSkipped != 2 || res.FilesScanned != 1 || res.RowsReturned != 1 {
		t.Fatalf("pruning stats = %+v", res)
	}
}

func TestInsertSelectReportsLineage(t *testing.T) {
	e := newEnv(t)
	e.insertRows(t, 10)
	lin := lineage.New(e.svc)
	defer lin.Close()
	e.trusted.Lineage = lin

	dst, err := e.svc.CreateTable(e.admin, "sales.raw", "orders_eu", catalog.TableSpec{Columns: []catalog.ColumnInfo{
		{Name: "id", Type: "BIGINT"}, {Name: "amount", Type: "DOUBLE"}, {Name: "region", Type: "STRING"}, {Name: "owner_user", Type: "STRING"},
	}}, "")
	if err != nil {
		t.Fatal(err)
	}
	schema := delta.Schema{Fields: []delta.SchemaField{
		{Name: "id", Type: delta.TypeInt64}, {Name: "amount", Type: delta.TypeFloat64},
		{Name: "region", Type: delta.TypeString}, {Name: "owner_user", Type: delta.TypeString},
	}}
	if _, err := delta.Create(delta.ServiceBlobs{Store: e.svc.Cloud()}, dst.StoragePath, "orders_eu", schema, nil); err != nil {
		t.Fatal(err)
	}

	const insert = "INSERT INTO sales.raw.orders_eu SELECT id, amount, region, owner_user FROM sales.raw.orders WHERE region = 'EU'"
	// A lineage report the catalog cannot commit fails the statement: the
	// engine passes the error on rather than drop the edge.
	e.svc.DB().SetFaults(faults.New(1).AddRule(faults.Rule{Op: "db.commit", Class: faults.Unavailable, P: 1}))
	if _, err := e.trusted.Execute(e.admin, insert); !faults.Is(err, faults.Unavailable) {
		t.Fatalf("insert with the store refusing commits: %v", err)
	}
	e.svc.DB().SetFaults(nil)

	res, err := e.trusted.Execute(e.admin, insert)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsReturned == 0 {
		t.Fatal("no rows copied")
	}
	up, err := lin.Upstream(e.admin, dst.ID, 0)
	if err != nil || len(up) != 1 || up[0].Via.JobName != "dbr-test" {
		t.Fatalf("upstream = %v, %v", up, err)
	}
}

func TestApplyColumnMasksKinds(t *testing.T) {
	schema := delta.Schema{Fields: []delta.SchemaField{
		{Name: "ssn", Type: delta.TypeString}, {Name: "email", Type: delta.TypeString},
		{Name: "phone", Type: delta.TypeString}, {Name: "salary", Type: delta.TypeInt64},
	}}
	b := delta.NewBatch(schema)
	b.AppendRow("123-45-6789", "a@example.com", "5551234567", int64(90000))
	out := ApplyColumnMasks(b, []privilege.ColumnMask{
		{Column: "ssn", Kind: privilege.MaskRedact},
		{Column: "email", Kind: privilege.MaskHash},
		{Column: "phone", Kind: privilege.MaskPartial, KeepLast: 4},
		{Column: "salary", Kind: privilege.MaskNull},
	})
	if out.Strings["ssn"][0] != "****" {
		t.Fatalf("ssn = %q", out.Strings["ssn"][0])
	}
	if !strings.HasPrefix(out.Strings["email"][0], "h") {
		t.Fatalf("email = %q", out.Strings["email"][0])
	}
	if out.Strings["phone"][0] != "******4567" {
		t.Fatalf("phone = %q", out.Strings["phone"][0])
	}
	if out.Ints["salary"][0] != 0 {
		t.Fatalf("salary = %d", out.Ints["salary"][0])
	}
}
