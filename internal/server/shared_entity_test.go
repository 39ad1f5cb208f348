package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"unitycatalog/internal/delta"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/store"
)

// TestSharedEntitiesSurviveEveryMutatingRoute drives every route of the table
// that is not a GET — each handler that could be tempted to change an entity
// it read — and the reads they are interleaved with, then holds every decoded
// form left in the metadata cache against a fresh decode of its own record.
// Entities read through a cache view are shared between requests; a handler,
// an encoder or a second-tier service that wrote to one instead of a Clone
// fails here by the entity's ID. The route table itself says what "every"
// is: a non-GET pattern the run did not reach fails the test.
func TestSharedEntitiesSurviveEveryMutatingRoute(t *testing.T) {
	srv, hs, _ := testStack(t)
	const api = "/api/2.1/unity-catalog"
	reached := map[string]bool{}
	// call sends one request as admin and returns the decoded JSON object of
	// a successful response; any other status is a test failure.
	call := func(pattern, method, path string, body any) map[string]any {
		t.Helper()
		reached[pattern] = true
		var rd io.Reader
		switch b := body.(type) {
		case nil:
		case []byte:
			rd = bytes.NewReader(b)
		default:
			raw, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(raw)
		}
		req, err := http.NewRequest(method, hs.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer admin")
		req.Header.Set("X-UC-Metastore", "ms1")
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, raw)
		}
		var out map[string]any
		_ = json.Unmarshal(raw, &out)
		return out
	}
	type o = map[string]any
	col := []o{{"name": "id", "type": "BIGINT"}}

	call("POST "+api+"/catalogs", "POST", api+"/catalogs", o{"name": "c", "comment": "first"})
	call("POST "+api+"/schemas", "POST", api+"/schemas", o{"catalog_name": "c", "name": "s"})
	tbl := call("POST "+api+"/tables", "POST", api+"/tables", o{"schema_full": "c.s", "name": "t", "spec": o{"columns": col}})
	call("POST "+api+"/assets", "POST", api+"/assets", o{"type": "VOLUME", "name": "landing", "parent": "c.s"})
	call("POST "+api+"/assets", "POST", api+"/assets", o{"type": "TABLE", "name": "doomed", "parent": "c.s", "spec": o{"table_type": "MANAGED", "format": "DELTA", "columns": col}})
	call("PATCH "+api+"/assets/{full}", "PATCH", api+"/assets/c.s.t", o{"comment": "patched", "properties": o{"k": "v"}})
	call("PATCH "+api+"/assets/{full}", "PATCH", api+"/assets/c.s", o{"comment": "a schema too"})
	call("GET "+api+"/assets/{full}", "GET", api+"/assets/c.s.t", nil)

	call("POST "+api+"/grants", "POST", api+"/grants", o{"securable": "c.s.t", "principal": "reader", "privilege": "SELECT"})
	call("DELETE "+api+"/grants", "DELETE", api+"/grants", o{"securable": "c.s.t", "principal": "reader", "privilege": "SELECT"})
	call("POST "+api+"/tags", "POST", api+"/tags", o{"securable": "c.s.t", "key": "tier", "value": "gold"})
	rule := call("POST "+api+"/abac-rules", "POST", api+"/abac-rules", o{"scope": "c", "rule": o{"name": "r", "tag_key": "tier", "Action": "GRANT", "privilege": "SELECT", "principals": []string{"reader"}}})
	call("POST "+api+"/resolve", "POST", api+"/resolve", o{"Names": []string{"c.s.t"}, "WithCredentials": true})
	call("POST "+api+"/authorize-batch", "POST", api+"/authorize-batch", o{"asset_ids": []any{tbl["id"]}, "privilege": "SELECT"})
	call("POST "+api+"/authorize-batch", "POST", api+"/authorize-batch", o{"asset_ids": []any{tbl["id"]}})
	call("POST "+api+"/temporary-credentials", "POST", api+"/temporary-credentials", o{"asset": "c.s.t", "operation": "READ"})
	call("POST "+api+"/temporary-credentials", "POST", api+"/temporary-credentials", o{"path": tbl["storage_path"].(string) + "/part-0", "operation": "READ_WRITE"})
	call("POST "+api+"/query-assets", "POST", api+"/query-assets", o{"type": "TABLE", "catalog_name": "c", "schema_name": "s", "tag_key": "tier"})
	call("POST "+api+"/query-assets", "POST", api+"/query-assets", o{"type": "TABLE", "max_results": 10})
	call("DELETE "+api+"/abac-rules/{id}", "DELETE", api+"/abac-rules/"+rule["id"].(string), nil)
	call("DELETE "+api+"/tags", "DELETE", api+"/tags", o{"securable": "c.s.t", "key": "tier"})

	model := call("POST "+api+"/models", "POST", api+"/models", o{"schema_full": "c.s", "name": "churn"})
	call("POST "+api+"/models/{full}/versions", "POST", api+"/models/c.s.churn/versions", o{"run_id": "run-1"})
	call("PATCH "+api+"/models/{full}/versions/{version}", "PATCH", api+"/models/c.s.churn/versions/1", o{"status": "READY"})
	call("POST "+api+"/lineage", "POST", api+"/lineage", o{"edges": []o{{"upstream": tbl["id"], "downstream": model["id"], "job_name": "train"}}})

	call("PUT "+api+"/volumes/{full}/files/{name...}", "PUT", api+"/volumes/c.s.landing/files/raw/a.csv", []byte("a,b\n1,2"))
	call("DELETE "+api+"/volumes/{full}/files/{name...}", "DELETE", api+"/volumes/c.s.landing/files/raw/a.csv", nil)

	// Clone and optimize read a Delta log at the table's path.
	schema := delta.Schema{Fields: []delta.SchemaField{{Name: "id", Type: delta.TypeInt64}}}
	dt, err := delta.Create(delta.ServiceBlobs{Store: srv.Service.Cloud()}, tbl["storage_path"].(string), "t", schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := delta.NewBatch(schema)
	for i := 0; i < 5; i++ {
		batch.AppendRow(int64(i))
	}
	dt.Append(batch)
	call("POST "+api+"/tables/{full}/clone", "POST", api+"/tables/c.s.t/clone", o{"target_schema": "c.s", "target_name": "t_clone"})
	call("POST "+api+"/assets/{full}/rename", "POST", api+"/assets/c.s.t_clone/rename", o{"new_name": "t_dev"})
	call("POST "+api+"/tables/{full}/optimize", "POST", api+"/tables/c.s.t/optimize", nil)
	call("POST "+api+"/resolve", "POST", api+"/resolve", o{"Names": []string{"c.s.t_dev"}})

	doomed := call("GET "+api+"/assets/{full}", "GET", api+"/assets/c.s.doomed", nil)
	call("DELETE "+api+"/assets/{full}", "DELETE", api+"/assets/c.s.doomed", nil)
	call("POST "+api+"/undelete/{id}", "POST", api+"/undelete/"+doomed["id"].(string), nil)
	call("DELETE "+api+"/assets/{full}", "DELETE", api+"/assets/c.s.doomed?force=true", nil)
	call("POST "+api+"/gc", "POST", api+"/gc", nil)
	// Last: from here on the catalog answers only to ws-prod, which this
	// client does not come from.
	call("PUT "+api+"/catalogs/{name}/workspace-bindings", "PUT", api+"/catalogs/c/workspace-bindings", o{"workspaces": []string{"ws-prod"}})

	for _, p := range srv.RoutePatternsForTest() {
		if method, _, _ := strings.Cut(p, " "); method != "GET" && strings.Contains(p, " ") && !reached[p] {
			t.Errorf("mutating route %q was not driven", p)
		}
	}

	checked := 0
	srv.Service.Cache().EachDecoded("ms1", func(table, key string, rec []byte, decoded any) {
		if table != erm.TableEntity {
			if id, ok := decoded.(ids.ID); !ok || id != erm.IndexedID(store.KV{Key: key, Value: rec}) {
				t.Errorf("the cached ID of %s record %q is %v, its record says %q", table, key, decoded, rec)
			}
			return
		}
		checked++
		want, err := erm.DecodeEntityAt(ids.ID(key), rec)
		if err != nil {
			t.Errorf("cached record of entity %s no longer decodes: %v", key, err)
		} else if !reflect.DeepEqual(decoded, want) {
			t.Errorf("shared entity %s was written to:\n  cached  %+v\n  record  %+v", key, decoded, want)
		}
	})
	if checked == 0 {
		t.Fatal("the cache holds no decoded entity: nothing was checked")
	}
}
