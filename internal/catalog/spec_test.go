package catalog

import (
	"encoding/json"
	"errors"
	"testing"

	"unitycatalog/internal/erm"
	"unitycatalog/internal/privilege"
)

// TestModifyCannotChangeFGAC: MODIFY on a table lets its holder change the
// table's columns (the manifest's "columns" rule), not its row filters and
// column masks. Those are what the table hides from whom, and changing them —
// stripping, adding or loosening one — takes ownership or MANAGE, however the
// spec arrives.
func TestModifyCannotChangeFGAC(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	policy := privilege.FGACPolicy{RowFilters: []privilege.RowFilter{{Predicate: "region = 'EU'", Columns: []string{"region"}}}}
	withPolicy := TableSpec{Columns: cols("id", "amount", "region"), FGAC: policy}
	if _, err := svc.UpdateAsset(admin, "sales.raw.orders", UpdateRequest{Spec: &withPolicy}); err != nil {
		t.Fatal(err)
	}
	for on, priv := range map[string]privilege.Privilege{"sales": privilege.UseCatalog, "sales.raw": privilege.UseSchema} {
		if err := svc.Grant(admin, on, "bob", priv); err != nil {
			t.Fatal(err)
		}
	}
	for _, priv := range []privilege.Privilege{privilege.Select, privilege.Modify} {
		if err := svc.Grant(admin, "sales.raw.orders", "bob", priv); err != nil {
			t.Fatal(err)
		}
	}
	bob := Ctx{Principal: "bob", Metastore: "ms1"}
	bobEngine := Ctx{Principal: "bob", Metastore: "ms1", TrustedEngine: true}
	policyOf := func() *privilege.FGACPolicy {
		t.Helper()
		resp, err := svc.Resolve(bobEngine, ResolveRequest{Names: []string{"sales.raw.orders"}})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Assets["sales.raw.orders"].FGAC
	}

	stripped := TableSpec{Columns: cols("id", "amount", "region")}
	loosened := TableSpec{Columns: cols("id", "amount", "region"), FGAC: privilege.FGACPolicy{
		RowFilters: []privilege.RowFilter{{Predicate: "region = 'EU'", Columns: []string{"region"}, ExemptPrincipals: []privilege.Principal{"bob"}}}}}
	for what, spec := range map[string]any{
		"a typed spec without the policy": &stripped,
		"a JSON spec without the policy":  json.RawMessage(`{"table_type":"MANAGED","format":"DELTA","columns":[{"name":"id","type":"STRING","nullable":true,"position":0}]}`),
		"a policy that exempts bob":       &loosened,
	} {
		if _, err := svc.UpdateAsset(bob, "sales.raw.orders", UpdateRequest{Spec: spec}); !errors.Is(err, ErrPermissionDenied) {
			t.Fatalf("MODIFY holder's update with %s: %v, want permission denied", what, err)
		}
		if got := policyOf(); got == nil || len(got.RowFilters) != 1 || len(got.RowFilters[0].ExemptPrincipals) != 0 {
			t.Fatalf("after the refused update with %s, bob's engine is handed %+v", what, got)
		}
	}

	// Columns are the holder's to change, as long as the policy stays.
	wider := TableSpec{Columns: cols("id", "amount", "region", "ts"), FGAC: policy}
	if _, err := svc.UpdateAsset(bob, "sales.raw.orders", UpdateRequest{Spec: &wider}); err != nil {
		t.Fatalf("MODIFY holder adding a column: %v", err)
	}
	// The owner may change the policy.
	if _, err := svc.UpdateAsset(admin, "sales.raw.orders", UpdateRequest{Spec: &stripped}); err != nil {
		t.Fatalf("owner removing the policy: %v", err)
	}
	if got := policyOf(); got != nil {
		t.Fatalf("after the owner removed the policy, bob's engine is handed %+v", got)
	}
}

// TestMalformedSpecIsRefused: a table's, view's or function's spec that does
// not decode into its type would fail every later Resolve of the asset, so
// UpdateAsset and CreateAsset (the generic POST /assets) refuse it as an
// invalid argument before anything is committed.
func TestMalformedSpecIsRefused(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	for _, bad := range []any{json.RawMessage(`{"columns":"oops"}`), map[string]any{"columns": 7}} {
		if _, err := svc.UpdateAsset(admin, "sales.raw.orders", UpdateRequest{Spec: bad}); !errors.Is(err, ErrInvalidArgument) {
			t.Fatalf("update with spec %s: %v, want invalid argument", bad, err)
		}
	}
	resp, err := svc.Resolve(admin, ResolveRequest{Names: []string{"sales.raw.orders"}})
	if err != nil {
		t.Fatalf("the table no longer resolves: %v", err)
	}
	if ra := resp.Assets["sales.raw.orders"]; len(ra.Table.Columns) != 3 {
		t.Fatalf("the table resolves to %+v", ra.Table)
	}

	for typ, bad := range map[erm.SecurableType]string{
		erm.TypeTable:    `{"columns":"oops"}`,
		erm.TypeView:     `{"definition":"SELECT 1","dependencies":"sales.raw.orders"}`,
		erm.TypeFunction: `{"language":"SQL","body":"1","dependencies":{}}`,
	} {
		_, err := svc.CreateAsset(admin, CreateRequest{Type: typ, Name: "bad", ParentFull: "sales.raw", Spec: json.RawMessage(bad)})
		if !errors.Is(err, ErrInvalidArgument) {
			t.Fatalf("create %s with spec %s: %v, want invalid argument", typ, bad, err)
		}
		if _, err := svc.GetAsset(admin, "sales.raw.bad"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("after the refused create of a %s: %v", typ, err)
		}
	}
	// A spec that decodes is taken as given, and the asset resolves.
	if _, err := svc.CreateAsset(admin, CreateRequest{Type: erm.TypeView, Name: "v", ParentFull: "sales.raw",
		Spec: json.RawMessage(`{"definition":"SELECT * FROM sales.raw.orders","dependencies":["sales.raw.orders"]}`)}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Resolve(admin, ResolveRequest{Names: []string{"sales.raw.v"}}); err != nil {
		t.Fatal(err)
	}
}

// TestTableSpecOfAllocs: reading a table's spec on the resolve path
// (TableSpecOf, so Entity.DecodeSpec) allocates no more on a packed spec than
// on the JSON it renders to: the render goes into a pooled buffer, and
// json.Unmarshal allocates the same for either. `make allocs` prints both.
func TestTableSpecOfAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("counts pooled allocations")
	}
	spec := TableSpec{TableType: TableManaged, Format: FormatDelta, Columns: []ColumnInfo{
		{Name: "id", Type: "BIGINT"}, {Name: "region", Type: "STRING", Nullable: true, Position: 1},
		{Name: "amount", Type: "DOUBLE", Nullable: true, Position: 2}, {Name: "ts", Type: "TIMESTAMP", Nullable: true, Position: 3}}}
	packed := &erm.Entity{Type: erm.TypeTable}
	if err := packed.EncodeSpec(&spec); err != nil || !packed.Spec.Packed() {
		t.Fatalf("the spec did not pack: %v", err)
	}
	asJSON := &erm.Entity{Type: erm.TypeTable, Spec: packed.Spec.AppendJSON(nil)}
	allocs := func(e *erm.Entity) float64 {
		read := func() {
			if got, err := TableSpecOf(e); err != nil || len(got.Columns) != 4 {
				t.Fatalf("TableSpecOf: %+v, %v", got, err)
			}
		}
		read() // warm the pool
		return testing.AllocsPerRun(200, read)
	}
	fromPacked, fromJSON := allocs(packed), allocs(asJSON)
	t.Logf("TableSpecOf of a four-column table: %.0f allocations packed, %.0f from JSON", fromPacked, fromJSON)
	if fromPacked > fromJSON {
		t.Errorf("TableSpecOf allocates %.0f times on a packed spec, %.0f on its JSON", fromPacked, fromJSON)
	}
}
