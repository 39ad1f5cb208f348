package uc_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
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
	for full, version := range map[string]byte{"hr.people.staff": 2, "hr.people.joiners": 2, "sales.raw.orders": 1} {
		e, _ := admin.Get(full)
		if rec, ok := snap.Get(erm.TableEntity, string(e.ID)); !ok || len(rec) < 2 || rec[1] != version {
			t.Errorf("the record of %s is in format %d, want %d", full, rec[1], version)
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
