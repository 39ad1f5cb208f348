package uc_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/store"
	"unitycatalog/uc"
)

// parentState is internal/store/testdata/parent_state.json: what the commit
// before the WAL's frames and record format 2 read back from the log it wrote
// beside it (mkfixture.go.txt there is the program; it ran at d99211c).
type parentState struct {
	Assets   map[string]json.RawMessage   `json:"assets"`
	Paths    map[string]string            `json:"paths"`
	Listings map[string][]string          `json:"listings"`
	Grants   map[string][]string          `json:"grants"`
	Tags     map[string]map[string]string `json:"tags"`
	Deleted  []string                     `json:"deleted"`
	Version  uint64                       `json:"version"`
}

// TestParentLogStillOpens: a log written before this format step — JSON
// lines, version 1 entity records, index values that are the ID's 32 hex
// digits: a metastore, two catalogs, schemas, tables with and without row
// filters and column masks, a view, a volume, grants, tags, an update, a
// rename, a soft delete — opens, and every asset reads back as the code that
// wrote it read it: by name, by path and by listing, with its grants and tags.
// New commits are appended behind the lines as frames, the mixed file opens
// again, and a record that is rewritten comes back in the new form saying the
// same thing.
func TestParentLogStillOpens(t *testing.T) {
	log, err := os.ReadFile("../internal/store/testdata/parent.wal")
	if err != nil {
		t.Fatal(err)
	}
	stateJSON, err := os.ReadFile("../internal/store/testdata/parent_state.json")
	if err != nil {
		t.Fatal(err)
	}
	var want parentState
	if err := json.Unmarshal(stateJSON, &want); err != nil {
		t.Fatal(err)
	}
	for full, indented := range want.Assets {
		var b bytes.Buffer
		if err := json.Compact(&b, indented); err != nil {
			t.Fatal(err)
		}
		want.Assets[full] = b.Bytes()
	}
	if len(want.Assets) < 10 || log[0] != '{' {
		t.Fatalf("the fixture holds %d assets and starts with %q", len(want.Assets), log[0])
	}
	path := filepath.Join(t.TempDir(), "uc.wal")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}

	// check holds an open catalog to the fixture's state but for the assets
	// in changed, which the test has written to since.
	check := func(stage string, cat *uc.Catalog, changed map[string]bool) {
		t.Helper()
		admin := cat.Session("admin", "ms1")
		for full, wantJSON := range want.Assets {
			e, err := admin.Get(full)
			if err != nil {
				t.Errorf("%s: %s: %v", stage, full, err)
				continue
			}
			if got, _ := json.Marshal(e); !changed[full] && !bytes.Equal(got, wantJSON) {
				t.Errorf("%s: %s reads back as\n  %s\nthe code that wrote it read\n  %s", stage, full, got, wantJSON)
			}
			if e.StoragePath != "" {
				if tc, err := admin.CredentialForPath(e.StoragePath+"/part-0", uc.AccessRead); err != nil || tc.AssetName != full {
					t.Errorf("%s: %s's path %s is governed by %q (%v)", stage, full, e.StoragePath, tc.AssetName, err)
				}
			}
			gs, err := cat.Service.GrantsOn(admin.Ctx(), full)
			if err != nil {
				t.Errorf("%s: grants on %s: %v", stage, full, err)
			}
			grants := []string{}
			for _, g := range gs {
				grants = append(grants, string(g.Principal)+"|"+string(g.Privilege))
			}
			sort.Strings(grants)
			if !reflect.DeepEqual(grants, want.Grants[full]) {
				t.Errorf("%s: grants on %s are %v, want %v", stage, full, grants, want.Grants[full])
			}
			if tags, err := cat.Service.Tags(admin.Ctx(), full); err != nil || (!changed[full] && !reflect.DeepEqual(tags, want.Tags[full])) {
				t.Errorf("%s: tags of %s are %v (%v), want %v", stage, full, tags, err, want.Tags[full])
			}
		}
		for p, full := range want.Paths {
			if tc, err := admin.CredentialForPath(p+"/part-0", uc.AccessRead); err != nil || tc.AssetName != full {
				t.Errorf("%s: path %s is governed by %q (%v), want %s", stage, p, tc.AssetName, err, full)
			}
		}
		for parent, names := range want.Listings {
			kids, err := admin.List(parent, "")
			if err != nil {
				t.Errorf("%s: list %q: %v", stage, parent, err)
			}
			got, unchanged := []string{}, []string{}
			for _, e := range kids {
				if !changed[e.FullName] {
					got = append(got, e.FullName)
				}
			}
			for _, full := range names {
				if !changed[full] {
					unchanged = append(unchanged, full)
				}
			}
			if !reflect.DeepEqual(got, unchanged) {
				t.Errorf("%s: %q lists %v, want %v", stage, parent, got, unchanged)
			}
		}
		// The two listings that read other rows than the child index: one
		// page at a time (a keyset cursor over child keys) and by name prefix
		// (name rows, whose values are IDs).
		var paged []string
		for token := ""; ; {
			pg, err := cat.Service.ListAssetsPage(admin.Ctx(), "sales.raw", "", 2, token)
			if err != nil {
				t.Fatalf("%s: page of sales.raw: %v", stage, err)
			}
			for _, e := range pg.Assets {
				paged = append(paged, e.FullName)
			}
			if token = pg.NextPageToken; token == "" {
				break
			}
		}
		sort.Strings(paged)
		if all, _ := admin.List("sales.raw", ""); len(paged) != len(all) {
			t.Errorf("%s: sales.raw pages through %v, lists %d assets", stage, paged, len(all))
		}
		byName, err := cat.Service.QueryAssets(admin.Ctx(), catalog.Filter{CatalogName: "sales", SchemaName: "raw", NamePrefix: "ord"})
		if err != nil || len(byName) != 1 || byName[0].FullName != "sales.raw.orders" {
			t.Errorf("%s: names under sales.raw starting with ord: %v, %v", stage, byName, err)
		}
		for _, full := range want.Deleted {
			if _, err := admin.Get(full); !errors.Is(err, uc.ErrNotFound) {
				t.Errorf("%s: %s was deleted or renamed away, Get says %v", stage, full, err)
			}
		}
		// Queries by tag read the tag index, whose rows the log stores
		// beside the tags and the store derives from them since: the
		// entity-level tier tags and column amount's pii tag of orders.
		tier := []string{}
		for full, tags := range want.Tags {
			if _, ok := tags["tier"]; ok {
				tier = append(tier, full)
			}
		}
		if changed["sales.curated.v_orders"] {
			tier = append(tier, "sales.curated.v_orders")
		}
		sort.Strings(tier)
		for _, q := range []struct {
			f    catalog.Filter
			want []string
		}{
			{catalog.Filter{TagKey: "tier"}, tier},
			{catalog.Filter{TagKey: "tier", TagValue: "gold"}, []string{"sales.raw.orders"}},
			{catalog.Filter{TagKey: "pii"}, []string{"sales.raw.orders"}},
			{catalog.Filter{TagKey: "pii", TagValue: "false"}, []string{"sales.raw.orders"}},
			{catalog.Filter{TagKey: "pii", TagValue: "true"}, []string{}},
		} {
			es, err := cat.Service.QueryAssets(admin.Ctx(), q.f)
			got := []string{}
			for _, e := range es {
				got = append(got, e.FullName)
			}
			if err != nil || !reflect.DeepEqual(got, q.want) {
				t.Errorf("%s: assets tagged %s=%q: %v (%v), want %v", stage, q.f.TagKey, q.f.TagValue, got, err, q.want)
			}
		}
	}

	cat, err := uc.Open(uc.Config{WALPath: path})
	if err != nil {
		t.Fatalf("open the parent's log: %v", err)
	}
	if _, err := cat.Service.OpenMetastore("ms1"); err != nil {
		t.Fatal(err)
	}
	if v, _ := cat.Service.MetastoreVersion("ms1"); v != want.Version {
		t.Fatalf("replayed to version %d, the log was written to %d", v, want.Version)
	}
	check("replayed", cat, nil)

	// New commits: a new table under an old schema, an old record rewritten,
	// an old name row replaced, a tag.
	admin := cat.Session("admin", "ms1")
	if _, err := admin.CreateTable("hr.people", "joiners", uc.TableSpec{Columns: []uc.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, ""); err != nil {
		t.Fatal(err)
	}
	comment := "rewritten in the new form"
	if _, err := cat.Service.UpdateAsset(admin.Ctx(), "hr.people.staff", catalog.UpdateRequest{Comment: &comment}); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Rename("sales.raw.events", "events2"); err != nil {
		t.Fatal(err)
	}
	if err := admin.SetTag("sales.curated.v_orders", "", "tier", "bronze"); err != nil {
		t.Fatal(err)
	}
	changed := map[string]bool{"hr.people.joiners": true, "hr.people.staff": true, "sales.raw.events": true, "sales.raw.events2": true, "sales.curated.v_orders": true}
	delete(want.Assets, "sales.raw.events")
	want.Deleted = append(want.Deleted, "sales.raw.events")
	want.Paths["s3://ext/landing/events"] = "sales.raw.events2"
	check("after new commits", cat, changed)
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	// The file is the parent's lines, untouched, followed by frames.
	mixed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(mixed, log) || len(mixed) == len(log) {
		t.Fatalf("the log is %d bytes after the new commits (%d before) and no longer starts with what was there", len(mixed), len(log))
	}
	frames := 0
	for rest := mixed[len(log):]; len(rest) > 0; frames++ {
		if len(rest) < 9 || rest[0] != 0xF7 || 9+int(binary.LittleEndian.Uint32(rest[1:5])) > len(rest) {
			t.Fatalf("what follows the lines is not frames: % x...", rest[:min(len(rest), 16)])
		}
		rest = rest[9+binary.LittleEndian.Uint32(rest[1:5]):]
	}
	if frames < 4 {
		t.Fatalf("%d frames for four commits", frames)
	}

	cat, err = uc.Open(uc.Config{WALPath: path})
	if err != nil {
		t.Fatalf("open the mixed log: %v", err)
	}
	defer cat.Close()
	if _, err := cat.Service.OpenMetastore("ms1"); err != nil {
		t.Fatal(err)
	}
	check("mixed log replayed", cat, changed)
	admin = cat.Session("admin", "ms1")
	staff, err := admin.Get("hr.people.staff")
	if err != nil || staff.Comment != comment {
		t.Fatalf("the rewritten record reads %+v, %v", staff, err)
	}
	var before erm.Entity
	if err := json.Unmarshal(want.Assets["hr.people.staff"], &before); err != nil {
		t.Fatal(err)
	}
	before.Comment, before.UpdatedAt = staff.Comment, staff.UpdatedAt
	if a, _ := json.Marshal(&before); !bytes.Equal(a, mustJSON(t, staff)) {
		t.Errorf("the rewritten record says\n  %s\nwant what it said before but for the comment\n  %s", mustJSON(t, staff), a)
	}
	snap, err := cat.Service.DB().Snapshot("ms1")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	// A record rewritten now is in format 3 with its spec packed, the old JSON
	// spec included; one nothing rewrote keeps its format and its JSON.
	for full, version := range map[string]byte{"hr.people.staff": 3, "hr.people.joiners": 3, "sales.raw.orders": 1} {
		e, _ := admin.Get(full)
		if rec, ok := snap.Get(erm.TableEntity, string(e.ID)); !ok || len(rec) < 2 || rec[1] != version {
			t.Errorf("the record of %s is in format %d, want %d", full, rec[1], version)
		}
		if e.Spec.Packed() != (version == 3) {
			t.Errorf("the spec of %s (record format %d) is packed=%v", full, version, e.Spec.Packed())
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// framedState is internal/store/testdata/framed_state.json: what the last
// commit that stored child rows listed from the framed log it wrote beside it
// (mkframed.go.txt there is the program; it ran at a3f8c53).
type framedState struct {
	Listings map[string][]string `json:"listings"`
	Version  uint64              `json:"version"`
}

// framedListings makes the calls framed_state.json records, as mkframed does:
// every parent's listing unpaged and two at a time, of all types, of tables
// and of schemas, and four queries, each one whole and two at a time. A page
// that is not the last is followed by "next " and its token.
func framedListings(t *testing.T, svc *catalog.Service, ctx catalog.Ctx) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	names := func(es []*erm.Entity) []string {
		s := []string{}
		for _, e := range es {
			s = append(s, e.FullName)
		}
		return s
	}
	for _, parent := range []string{"", "sales", "hr", "sales.raw", "sales.curated", "hr.people"} {
		for _, typ := range []erm.SecurableType{"", erm.TypeTable, erm.TypeSchema} {
			all, err := svc.ListAssets(ctx, parent, typ)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("list %q %s", parent, typ)] = names(all)
			var paged []string
			for token := ""; ; {
				pg, err := svc.ListAssetsPage(ctx, parent, typ, 2, token)
				if err != nil {
					t.Fatal(err)
				}
				paged = append(paged, names(pg.Assets)...)
				if token = pg.NextPageToken; token == "" {
					break
				}
				paged = append(paged, "next "+token)
			}
			out[fmt.Sprintf("page %q %s", parent, typ)] = paged
		}
	}
	for _, f := range []catalog.Filter{
		{CatalogName: "sales", IncludeSoft: true},
		{CatalogName: "sales"},
		{CatalogName: "sales", SchemaName: "raw", IncludeSoft: true},
		{CatalogName: "hr", Type: erm.TypeTable, IncludeSoft: true},
	} {
		all, err := svc.QueryAssets(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("query %s.%s %s soft=%v", f.CatalogName, f.SchemaName, f.Type, f.IncludeSoft)
		out[key] = names(all)
		var paged []string
		f.MaxResults = 2
		for {
			pg, err := svc.QueryAssetsPage(ctx, f)
			if err != nil {
				t.Fatal(err)
			}
			paged = append(paged, names(pg.Assets)...)
			if f.PageToken = pg.NextPageToken; f.PageToken == "" {
				break
			}
			paged = append(paged, "next "+f.PageToken)
		}
		out["paged "+key] = paged
	}
	return out
}

// TestFramedParentLogStillOpens: a framed log in record format 3 written
// while child rows were stored beside the entities — creates, a rename, soft
// deletes, an undelete, a GC that purged two assets — opens, its child rows
// checked and dropped, and every listing, unpaged, paged and queried, returns
// what the code that wrote the log returned, page tokens included. New
// commits write no child row, and the log opens again listing the same.
func TestFramedParentLogStillOpens(t *testing.T) {
	log, err := os.ReadFile("../internal/store/testdata/framed.wal")
	if err != nil {
		t.Fatal(err)
	}
	stateJSON, err := os.ReadFile("../internal/store/testdata/framed_state.json")
	if err != nil {
		t.Fatal(err)
	}
	var want framedState
	if err := json.Unmarshal(stateJSON, &want); err != nil {
		t.Fatal(err)
	}
	if log[0] != 0xF7 || bytes.Count(log, []byte("\x05child")) < 15 {
		t.Fatalf("the fixture starts with %#x and writes %d child rows", log[0], bytes.Count(log, []byte("\x05child")))
	}
	path := filepath.Join(t.TempDir(), "uc.wal")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	open := func() (*store.DB, *catalog.Service) {
		t.Helper()
		db, err := store.Open(store.Options{WALPath: path})
		if err != nil {
			t.Fatalf("open the log: %v", err)
		}
		svc, err := catalog.New(catalog.Config{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.OpenMetastore("ms1"); err != nil {
			t.Fatal(err)
		}
		return db, svc
	}
	compare := func(stage string, got, want map[string][]string) {
		t.Helper()
		for call, w := range want {
			if g := got[call]; !reflect.DeepEqual(g, w) {
				t.Errorf("%s: %s returns\n  %q\nwant\n  %q", stage, call, g, w)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d calls, want %d", stage, len(got), len(want))
		}
	}

	db, svc := open()
	if v, _ := svc.MetastoreVersion("ms1"); v != want.Version {
		t.Fatalf("replayed to version %d, the log was written to %d", v, want.Version)
	}
	compare("replayed", framedListings(t, svc, ctx), want.Listings)
	vendByPath(t, "replayed", svc, ctx)
	changes, err := db.ChangesSince("ms1", 0)
	if err != nil || len(changes) == 0 {
		t.Fatalf("changes since 0: %d, %v", len(changes), err)
	}
	for _, c := range changes {
		if c.Table == erm.TableChild {
			t.Fatalf("the change log names child row %q at version %d", c.Key, c.Version)
		}
	}

	// New commits: a create, a rename, a soft delete, a GC of nothing.
	cols := []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}
	if _, err := svc.CreateTable(ctx, "sales.raw", "after", catalog.TableSpec{Columns: cols}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RenameAsset(ctx, "hr.people.late", "later"); err != nil {
		t.Fatal(err)
	}
	if err := svc.DeleteAsset(ctx, "sales.curated.v_orders", false); err != nil {
		t.Fatal(err)
	}
	after := framedListings(t, svc, ctx)
	if got := after[`list "hr.people" `]; !reflect.DeepEqual(got, []string{"hr.people.later", "hr.people.staff"}) {
		t.Errorf("hr.people lists %q after the rename", got)
	}
	if got := after[`list "sales.curated" `]; !reflect.DeepEqual(got, []string{"sales.curated.orders_eu"}) {
		t.Errorf("sales.curated lists %q after the soft delete", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	grown, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(grown, log) || len(grown) == len(log) {
		t.Fatalf("the log is %d bytes after the new commits (%d before) and no longer starts with what was there", len(grown), len(log))
	}
	if bytes.Contains(grown[len(log):], []byte("\x05child")) {
		t.Fatal("a frame written now carries a child row")
	}

	db, svc = open()
	defer db.Close()
	compare("reopened", framedListings(t, svc, ctx), after)
	vendByPath(t, "reopened", svc, ctx)
}

// vendByPath holds every live asset of the fixture's catalogs that has a
// storage path to governing that path: a credential for an object under it
// is the asset's.
func vendByPath(t *testing.T, stage string, svc *catalog.Service, ctx catalog.Ctx) {
	t.Helper()
	ctx.TrustedEngine = true
	vended := 0
	for _, cat := range []string{"sales", "hr"} {
		es, err := svc.QueryAssets(ctx, catalog.Filter{CatalogName: cat})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range es {
			if e.StoragePath == "" {
				continue
			}
			if tc, err := svc.TempCredentialForPath(ctx, e.StoragePath+"/part-0", cloudsim.AccessRead); err != nil || tc.Asset != e.ID {
				t.Errorf("%s: %s's path %s is governed by %q (%v)", stage, e.FullName, e.StoragePath, tc.AssetName, err)
			}
			vended++
		}
	}
	if vended == 0 {
		t.Errorf("%s: no asset with a storage path to vend for", stage)
	}
}

// mirrorsState is internal/store/testdata/mirrors_state.json: what the last
// commit that stored the tag index and the upstream lineage rows beside the
// tags and edges read from the framed log it wrote (mkmirrors.go.txt there is
// the program; it ran at ce4a041).
type mirrorsState struct {
	Queries map[string][]string `json:"queries"`
	Tags    map[string][]string `json:"tags"`
	Edges   map[string][]string `json:"edges"`
	Version uint64              `json:"version"`
}

// mirrorReads makes the reads mirrors_state.json records, as mkmirrors does,
// of the tags and edges of tables: six tag queries, each whole and one asset
// at a time (a page that is not the last followed by "next " and its token),
// each table's entity and column tags, and its lineage walks both ways.
func mirrorReads(t *testing.T, svc *catalog.Service, db *store.DB, ctx catalog.Ctx, tables []string) mirrorsState {
	t.Helper()
	st := mirrorsState{Queries: map[string][]string{}, Tags: map[string][]string{}, Edges: map[string][]string{}}
	for _, f := range []catalog.Filter{
		{TagKey: "tier"},
		{TagKey: "tier", TagValue: "gold"},
		{TagKey: "pii"},
		{TagKey: "pii", TagValue: "yes"},
		{TagKey: "owner_team"},
		{TagKey: "absent"},
	} {
		all, err := svc.QueryAssets(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("query %s=%s", f.TagKey, f.TagValue)
		names := []string{}
		for _, e := range all {
			names = append(names, e.FullName)
		}
		st.Queries[key] = names
		paged := []string{}
		f.MaxResults = 1
		for {
			pg, err := svc.QueryAssetsPage(ctx, f)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range pg.Assets {
				paged = append(paged, e.FullName)
			}
			if f.PageToken = pg.NextPageToken; f.PageToken == "" {
				break
			}
			paged = append(paged, "next "+f.PageToken)
		}
		st.Queries["paged "+key] = paged
	}
	snap, err := db.Snapshot("ms1")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	name := map[ids.ID]string{}
	for _, e := range catalog.LiveEntities(snap) {
		name[e.ID] = e.FullName
	}
	for _, full := range tables {
		e, err := svc.GetAsset(ctx, full)
		if err != nil {
			t.Fatal(err)
		}
		entity, columns := catalog.EntityTags(snap, e.ID)
		tags := []string{}
		for k, v := range entity {
			tags = append(tags, k+"="+v)
		}
		for c, kv := range columns {
			for k, v := range kv {
				tags = append(tags, c+"."+k+"="+v)
			}
		}
		sort.Strings(tags)
		st.Tags[full] = tags
		for _, down := range []bool{true, false} {
			way, edges := "up", []string{}
			if down {
				way = "down"
			}
			for _, ed := range erm.Edges(snap, e.ID, down) {
				other := ed.Upstream
				if down {
					other = ed.Downstream
				}
				edges = append(edges, name[other]+"|"+ed.JobName)
			}
			st.Edges[way+" "+full] = edges
		}
	}
	st.Version = snap.Version
	return st
}

// TestMirrorsLogStillOpens: a framed log written while the tag index and the
// upstream lineage rows were stored beside the tags and edges — entity and
// column tags, a tag overwritten and one unset, edges both ways, two tables
// soft deleted and purged with their tags and edges, two tags whose key holds
// a 0 byte — opens, those rows checked against what the records derive and
// dropped, and every query by tag, page tokens included, every table's tags
// and every lineage walk return what the code that wrote the log returned.
// The entity tag written as "col\x00region\x00zone", which that code read
// back as column region's tag zone but filed under the key as written, is now
// found by zone. New commits write neither row, and the log opens again
// reading the same.
func TestMirrorsLogStillOpens(t *testing.T) {
	log, err := os.ReadFile("../internal/store/testdata/mirrors.wal")
	if err != nil {
		t.Fatal(err)
	}
	stateJSON, err := os.ReadFile("../internal/store/testdata/mirrors_state.json")
	if err != nil {
		t.Fatal(err)
	}
	var want mirrorsState
	if err := json.Unmarshal(stateJSON, &want); err != nil {
		t.Fatal(err)
	}
	tagRows, edgeRows := []byte("\x06tagidx"), []byte("\x09lineageup")
	if log[0] != 0xF7 || bytes.Count(log, tagRows) < 10 || bytes.Count(log, edgeRows) < 10 {
		t.Fatalf("the fixture starts with %#x and writes %d tag-index and %d upstream rows", log[0], bytes.Count(log, tagRows), bytes.Count(log, edgeRows))
	}
	path := filepath.Join(t.TempDir(), "uc.wal")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	open := func() (*store.DB, *catalog.Service) {
		t.Helper()
		db, err := store.Open(store.Options{WALPath: path})
		if err != nil {
			t.Fatalf("open the log: %v", err)
		}
		svc, err := catalog.New(catalog.Config{DB: db, SoftDeleteRetention: -time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.OpenMetastore("ms1"); err != nil {
			t.Fatal(err)
		}
		return db, svc
	}
	tables := make([]string, 0, len(want.Tags))
	for full := range want.Tags {
		tables = append(tables, full)
	}
	sort.Strings(tables)
	compare := func(stage string, got, want mirrorsState) {
		t.Helper()
		for what, pair := range map[string][2]any{"queries": {got.Queries, want.Queries}, "tags": {got.Tags, want.Tags}, "edges": {got.Edges, want.Edges}} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Errorf("%s: the %s read\n  %q\nwant\n  %q", stage, what, pair[0], pair[1])
			}
		}
	}
	zone := func(stage string, svc *catalog.Service) {
		t.Helper()
		for key, want := range map[string]int{"zone": 1, "col\x00region\x00zone": 0, "a\x00b": 0, "a": 0} {
			es, err := svc.QueryAssets(ctx, catalog.Filter{TagKey: key})
			if err != nil || len(es) != want || want == 1 && es[0].FullName != "sales.raw.customers" {
				t.Errorf("%s: assets tagged %q: %d (%v), want %d", stage, key, len(es), err, want)
			}
		}
	}

	db, svc := open()
	got := mirrorReads(t, svc, db, ctx, tables)
	if got.Version != want.Version {
		t.Fatalf("replayed to version %d, the log was written to %d", got.Version, want.Version)
	}
	compare("replayed", got, want)
	zone("replayed", svc)
	changes, err := db.ChangesSince("ms1", 0)
	if err != nil || len(changes) == 0 {
		t.Fatalf("changes since 0: %d, %v", len(changes), err)
	}
	for _, c := range changes {
		if c.Table == erm.TableTagIdx || c.Table == erm.TableLineageUp {
			t.Fatalf("the change log names %s row %q at version %d", c.Table, c.Key, c.Version)
		}
	}

	// New commits: a column tag, an unset, an edge, and a table soft deleted
	// (its edges go) and purged (its tags go).
	events, err := svc.GetAsset(ctx, "sales.raw.events")
	if err != nil {
		t.Fatal(err)
	}
	eu, err := svc.GetAsset(ctx, "sales.curated.eu")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SetTag(ctx, "sales.raw.events", "amount", "pii", "yes"); err != nil {
		t.Fatal(err)
	}
	if err := svc.UnsetTag(ctx, "sales.raw.orders", "", "tier"); err != nil {
		t.Fatal(err)
	}
	if err := svc.SubmitLineage(ctx, []erm.Edge{{Upstream: events.ID, Downstream: eu.ID, JobName: "after"}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.DeleteAsset(ctx, "sales.curated.back", false); err != nil {
		t.Fatal(err)
	}
	if res, err := svc.RunGC("ms1"); err != nil || res.PurgedEntities != 1 {
		t.Fatalf("GC: %+v, %v", res, err)
	}
	tables = slices.DeleteFunc(tables, func(full string) bool { return full == "sales.curated.back" })
	after := mirrorReads(t, svc, db, ctx, tables)
	for what, pair := range map[string][2][]string{
		"pii=yes":        {after.Queries["query pii=yes"], {"sales.raw.customers", "sales.raw.events"}},
		"tier=gold":      {after.Queries["query tier=gold"], {"sales.curated.daily"}},
		"down events":    {after.Edges["down sales.raw.events"], {"sales.curated.daily|etl", "sales.curated.eu|after"}},
		"down eu":        {after.Edges["down sales.curated.eu"], {}},
		"up eu":          {after.Edges["up sales.curated.eu"], {"sales.raw.customers|enrich", "sales.curated.daily|publish", "sales.raw.events|after"}},
		"tags of events": {after.Tags["sales.raw.events"], {"amount.pii=yes", "tier=bronze"}},
	} {
		got, want := slices.Clone(pair[0]), slices.Clone(pair[1])
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("after the new commits, %s reads %q, want %q", what, got, want)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	grown, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(grown, log) || len(grown) == len(log) {
		t.Fatalf("the log is %d bytes after the new commits (%d before) and no longer starts with what was there", len(grown), len(log))
	}
	if bytes.Contains(grown[len(log):], tagRows) || bytes.Contains(grown[len(log):], edgeRows) {
		t.Fatal("a frame written now carries a tag-index or upstream row")
	}

	db, svc = open()
	defer db.Close()
	reopened := mirrorReads(t, svc, db, ctx, tables)
	if reopened.Version != after.Version {
		t.Errorf("reopened at version %d, closed at %d", reopened.Version, after.Version)
	}
	compare("reopened", reopened, after)
	zone("reopened", svc)
}
