package erm_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"unitycatalog/internal/cache"
	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/sharing"
	"unitycatalog/internal/store"
)

// text draws a string a spec may hold: plain, or with what JSON escapes —
// quotes, backslashes, control characters, <, >, &, U+2028 — and multi-byte
// runes.
func text(rng *rand.Rand) string {
	parts := []string{"orders", "region = 'EU'", `a "quoted" \path`, "tab\there", "a < b && c > d", "line\u2028sep", "漢字", "x"}
	var sb strings.Builder
	for i := rng.Intn(3); i >= 0; i-- {
		sb.WriteString(parts[rng.Intn(len(parts))])
	}
	return sb.String()
}

// texts is nil or a non-empty list: an empty one does not survive omitempty.
func texts(rng *rand.Rand) []string {
	if rng.Intn(3) == 0 {
		return nil
	}
	out := make([]string, 1+rng.Intn(3))
	for i := range out {
		out[i] = text(rng)
	}
	return out
}

func principals(rng *rand.Rand) []privilege.Principal {
	var out []privilege.Principal
	for _, s := range texts(rng) {
		out = append(out, privilege.Principal(s))
	}
	return out
}

func columns(rng *rand.Rand) []catalog.ColumnInfo {
	types := []string{"BIGINT", "STRING", "DOUBLE", "TIMESTAMP", "DECIMAL(10,2)", "ARRAY<INT>"}
	out := make([]catalog.ColumnInfo, 1+rng.Intn(6))
	for i := range out {
		out[i] = catalog.ColumnInfo{Name: text(rng), Type: types[rng.Intn(len(types))], Nullable: rng.Intn(2) == 0, Position: i}
		if rng.Intn(4) == 0 {
			out[i].Comment = text(rng)
		}
	}
	return out
}

// specOfEveryType draws one spec of each type the catalog writes, with the
// erm type it is written for: a table with row filters and column masks, a
// view, a function, a volume, a registered model and a model version, a
// catalog, an external location, a storage credential, a connection, a share
// and a recipient.
func specOfEveryType(rng *rand.Rand) map[erm.SecurableType]any {
	table := &catalog.TableSpec{TableType: catalog.TableManaged, Format: catalog.FormatDelta, Columns: columns(rng)}
	for i := rng.Intn(3); i > 0; i-- {
		table.FGAC.RowFilters = append(table.FGAC.RowFilters, privilege.RowFilter{Columns: texts(rng), Predicate: text(rng), ExemptPrincipals: principals(rng)})
	}
	for i := rng.Intn(3); i > 0; i-- {
		table.FGAC.ColumnMasks = append(table.FGAC.ColumnMasks, privilege.ColumnMask{Column: text(rng), Kind: privilege.MaskPartial,
			Replacement: text(rng), KeepLast: rng.Intn(1 << 20), ExemptPrincipals: principals(rng)})
	}
	if rng.Intn(2) == 0 {
		table.TableType, table.BaseTable = catalog.TableShallowClone, ids.New()
	}
	if rng.Intn(2) == 0 {
		table.ForeignConnection, table.ForeignSourceType, table.UniformEnabled = text(rng), "HIVE_METASTORE", true
	}
	view := &catalog.ViewSpec{Definition: "SELECT * FROM " + text(rng) + " WHERE a < 3", Dependencies: texts(rng)}
	if rng.Intn(2) == 0 {
		view.Columns = columns(rng)
	}
	return map[erm.SecurableType]any{
		erm.TypeTable:             table,
		erm.TypeView:              view,
		erm.TypeFunction:          &catalog.FunctionSpec{Language: "SQL", Body: text(rng), Returns: text(rng), Dependencies: texts(rng)},
		erm.TypeVolume:            &catalog.VolumeSpec{VolumeType: "EXTERNAL"},
		erm.TypeRegisteredModel:   &catalog.ModelSpec{NextVersion: rng.Intn(1000)},
		erm.TypeModelVersion:      &catalog.ModelVersionSpec{Version: rng.Intn(1000), Status: "READY", RunID: text(rng), Source: text(rng)},
		erm.TypeCatalog:           &catalog.CatalogSpec{Kind: catalog.CatalogRegular, WorkspaceBindings: texts(rng)},
		erm.TypeExternalLocation:  &catalog.ExternalLocationSpec{CredentialName: text(rng), URL: "s3://bucket/" + text(rng)},
		erm.TypeStorageCredential: &catalog.StorageCredentialSpec{Provider: "s3", Identity: text(rng)},
		erm.TypeConnection:        &catalog.ConnectionSpec{ConnectionType: "MYSQL", Options: map[string]string{"host": text(rng), "port": "3306"}},
		erm.TypeShare:             &sharing.ShareSpec{Tables: texts(rng)},
		erm.TypeRecipient:         &sharing.RecipientSpec{BearerToken: text(rng), Shares: texts(rng)},
	}
}

// TestEverySpecTypeRoundTrips: every spec type the catalog writes, packed by
// EncodeSpec and stored by EncodeEntity, reads back through each way an
// entity is decoded — on its own (DecodeEntityAt), in a page's slab
// (DecodeEntities) and as the cache's shared entity (GetEntity through a
// cache view) — in its packed form, DecodeSpec into its type gives back the
// value, and its JSON is what encoding/json writes for the value.
func TestEverySpecTypeRoundTrips(t *testing.T) {
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateMetastore("m")
	c := cache.New(db, cache.Options{})
	if err := c.Own("m"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 40; round++ {
		var (
			keys    []ids.ID
			recs    [][]byte
			written []any
		)
		for typ, spec := range specOfEveryType(rng) {
			e := &erm.Entity{ID: ids.New(), Type: typ, Name: "x", ParentID: ids.New(), FullName: "c.s.x", Owner: "admin", State: erm.StateActive}
			if err := e.EncodeSpec(spec); err != nil {
				t.Fatal(err)
			}
			rec, err := erm.EncodeEntity(e)
			if err != nil {
				t.Fatal(err)
			}
			keys, recs, written = append(keys, e.ID), append(recs, rec), append(written, spec)
		}
		if _, err := c.Update("m", func(tx *store.Tx) error {
			for i, id := range keys {
				tx.Put(erm.TableEntity, string(id), recs[i])
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		view, err := c.NewView("m")
		if err != nil {
			t.Fatal(err)
		}
		slab := erm.DecodeEntities(len(keys), func(i int) (ids.ID, []byte) { return keys[i], recs[i] })
		for i, id := range keys {
			single, err := erm.DecodeEntityAt(id, recs[i])
			if err != nil {
				t.Fatal(err)
			}
			shared, ok := erm.GetEntity(view, id)
			if !ok {
				t.Fatalf("entity %s not read through the view", id)
			}
			want, err := json.Marshal(written[i])
			if err != nil {
				t.Fatal(err)
			}
			for how, e := range map[string]*erm.Entity{"on its own": single, "in a slab": slab[i], "shared": shared} {
				what := fmt.Sprintf("round %d, %s spec %T decoded %s", round, e.Type, written[i], how)
				if !e.Spec.Packed() {
					t.Fatalf("%s: not packed: %s", what, e.Spec)
				}
				if got := e.Spec.AppendJSON(nil); string(got) != string(want) {
					t.Fatalf("%s: renders\n  %s\nencoding/json writes\n  %s", what, got, want)
				}
				back := reflect.New(reflect.TypeOf(written[i]).Elem())
				if err := e.DecodeSpec(back.Interface()); err != nil || !reflect.DeepEqual(back.Interface(), written[i]) {
					t.Fatalf("%s: DecodeSpec gives %+v (%v), want %+v", what, back.Interface(), err, written[i])
				}
			}
		}
		view.Close()
	}
}
