package server_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/client"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/server"
)

// TestPatchCannotStripFGACWithModify: a PATCH whose spec drops a table's row
// filter is refused with 403 for a principal that holds MODIFY but does not
// own the table, and a malformed spec with 400 for its owner. The policy stays
// and is still handed to the principal's trusted engine.
func TestPatchCannotStripFGACWithModify(t *testing.T) {
	srv, hs, admin := testStack(t)
	admin.CreateCatalog("c", "")
	admin.CreateSchema("c", "s", "")
	cols := []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}, {Name: "region", Type: "STRING", Nullable: true, Position: 1}}
	if _, err := admin.CreateTable("c.s", "t", catalog.TableSpec{Columns: cols}, ""); err != nil {
		t.Fatal(err)
	}
	patch := func(c *client.Client, spec any) error {
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.UpdateAsset("c.s.t", server.UpdateAssetRequest{Spec: raw})
		return err
	}
	withFilter := catalog.TableSpec{Columns: cols, FGAC: privilege.FGACPolicy{
		RowFilters: []privilege.RowFilter{{Columns: []string{"region"}, Predicate: "region = 'EU'"}}}}
	if err := patch(admin, withFilter); err != nil {
		t.Fatal(err)
	}
	for obj, priv := range map[string]privilege.Privilege{"c": privilege.UseCatalog, "c.s": privilege.UseSchema} {
		if err := admin.Grant(obj, "bob", priv); err != nil {
			t.Fatal(err)
		}
	}
	for _, priv := range []privilege.Privilege{privilege.Select, privilege.Modify} {
		if err := admin.Grant("c.s.t", "bob", priv); err != nil {
			t.Fatal(err)
		}
	}
	bob := client.New(hs.URL, "bob", "ms1")
	var apiErr *client.APIError
	if err := patch(bob, catalog.TableSpec{Columns: cols}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusForbidden {
		t.Fatalf("bob's PATCH without the row filter: %v, want 403", err)
	}
	if err := patch(admin, map[string]any{"columns": "oops"}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("a PATCH with a malformed spec: %v, want 400", err)
	}
	bobEngine := catalog.Ctx{Principal: "bob", Metastore: "ms1", TrustedEngine: true}
	resp, err := srv.Service.Resolve(bobEngine, catalog.ResolveRequest{Names: []string{"c.s.t"}})
	if err != nil {
		t.Fatal(err)
	}
	if ra := resp.Assets["c.s.t"]; ra == nil || ra.FGAC == nil || len(ra.FGAC.RowFilters) != 1 {
		t.Fatalf("after the refused PATCH the table resolves to %+v", ra)
	}
}

// TestCatalogSpecThatDoesNotDecodeIs400: a catalog spec that does not decode
// into its type is refused with 400 on POST /assets and on PATCH, where it
// used to be stored and to unbind its catalog from every workspace binding
// it named.
func TestCatalogSpecThatDoesNotDecodeIs400(t *testing.T) {
	_, _, admin := testStack(t)
	if _, err := admin.CreateCatalog("c", ""); err != nil {
		t.Fatal(err)
	}
	bad := json.RawMessage(`{"kind":1,"workspace_bindings":["ws-us"]}`)
	var apiErr *client.APIError
	if _, err := admin.CreateAsset(server.CreateAssetRequest{Type: "CATALOG", Name: "hr", Spec: bad}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("POST /assets of a catalog with spec %s: %v, want 400", bad, err)
	}
	if _, err := admin.GetAsset("hr"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("after the refused POST: %v, want 404", err)
	}
	if _, err := admin.UpdateAsset("c", server.UpdateAssetRequest{Spec: bad}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("PATCH of a catalog with spec %s: %v, want 400", bad, err)
	}
	if _, err := admin.CreateAsset(server.CreateAssetRequest{Type: "CATALOG", Name: "hr", Spec: json.RawMessage(`{"kind":"REGULAR"}`)}); err != nil {
		t.Fatalf("POST /assets of a catalog with a spec that decodes: %v", err)
	}
}
