package catalog

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"unitycatalog/internal/audit"
	"unitycatalog/internal/clock"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/pathtrie"
	"unitycatalog/internal/store"
)

// TestOverlappingPathsAcrossServices: a path one service registers is an
// overlapping path on every service over the same store, at that commit.
func TestOverlappingPathsAcrossServices(t *testing.T) {
	_, nodes, admin := multiNode(t, 2)
	a, b := nodes[0], nodes[1]
	if _, err := a.CreateTable(admin, "c.s", "ext1", TableSpec{Columns: cols("x")}, "s3://lake/raw/ext1"); err != nil {
		t.Fatal(err)
	}
	for probe, want := range map[string][]string{
		"s3://lake/raw":             {"s3://lake/raw/ext1"}, // registered under it
		"s3://lake/raw/":            {"s3://lake/raw/ext1"},
		"s3://lake/raw/ext1":        {"s3://lake/raw/ext1"}, // registered at it
		"s3://lake/raw/ext1/part-0": {"s3://lake/raw/ext1"}, // registered above it
		"s3://lake/raw/ext10":       nil,
	} {
		got, err := b.OverlappingPaths(admin, probe)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("node B: OverlappingPaths(%q) = %v, %v; want %v", probe, got, err, want)
		}
	}
	recs := b.Audit().Filter(func(r audit.Record) bool {
		return r.Kind == audit.KindAPIRequest && r.Operation == "OverlappingPaths"
	})
	if len(recs) != 5 || !recs[0].Allowed || !recs[0].ReadOnly || recs[0].Principal != "admin" {
		t.Fatalf("node B audited %d OverlappingPaths requests: %+v", len(recs), recs)
	}
	if err := a.DeleteAsset(admin, "c.s.ext1", false); err != nil {
		t.Fatal(err)
	}
	if got, err := b.OverlappingPaths(admin, "s3://lake/raw"); err != nil || len(got) != 0 {
		t.Fatalf("node B after node A's delete: %v, %v", got, err)
	}
}

// TestUngovernedPathsCacheNothing: resolving a path leaves nothing in the
// cache but what governs it. A credential request for a path no asset governs
// used to leave an absence in the cache for each prefix of the path it walked,
// in the path table and again in the external-location table; any principal
// could fill the cache's bound with them. And a warm governed resolution reads
// nothing from the store.
func TestUngovernedPathsCacheNothing(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	var tables []*erm.Entity
	for i := 0; i < 20; i++ {
		tbl, err := svc.CreateTable(admin, "sales.raw", fmt.Sprintf("t%02d", i), TableSpec{Columns: cols("x")}, "")
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl)
	}
	for _, tbl := range tables { // warm the governing rows
		if _, err := svc.TempCredentialForPath(admin, tbl.StoragePath+"/warm", cloudsim.AccessRead); err != nil {
			t.Fatal(err)
		}
	}
	entries, reads := svc.Cache().EntryCount("ms1"), svc.DB().ReadCount()
	for i := 0; i < 200; i++ {
		tbl := tables[i%len(tables)]
		tc, err := svc.TempCredentialForPath(admin, fmt.Sprintf("%s/year=%d/part-%05d.parquet", tbl.StoragePath, i%7, i), cloudsim.AccessRead)
		if err != nil || tc.Asset != tbl.ID {
			t.Fatalf("governed path %d: %+v, %v", i, tc, err)
		}
	}
	if n := svc.DB().ReadCount() - reads; n != 0 {
		t.Fatalf("200 warm governed resolutions read the store %d times, want 0", n)
	}
	for i := 0; i < 200; i++ {
		path := fmt.Sprintf("s3://elsewhere/d%03d/part-%05d.parquet", i, i)
		if i%2 == 1 { // under the metastore root, beside the tables
			path = fmt.Sprintf("s3://metastore-root/ms1/table/none%03d/part-0", i)
		}
		if _, err := svc.TempCredentialForPath(admin, path, cloudsim.AccessRead); !errors.Is(err, ErrNotFound) {
			t.Fatalf("ungoverned path %s: %v, want ErrNotFound", path, err)
		}
	}
	if got := svc.Cache().EntryCount("ms1"); got != entries {
		t.Fatalf("cache holds %d records after 400 path resolutions, %d before", got, entries)
	}
}

// TestPathResolutionDifferential drives a seeded mix of registrations (tables
// and external locations), deletes, undeletes and GC over overlapping random
// paths, spread across two services over one store. After every step, on both
// services, every probe path's governing asset (TempCredentialForPath), its
// covering external location and its overlapping paths must equal an oracle
// built from a scan of the live path and external-location rows: a URL trie
// of each table for the first two, every registered path for the third.
func TestPathResolutionDifferential(t *testing.T) {
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	fc := clock.NewFake(time.Unix(1_000_000, 0))
	cloud := cloudsim.New()
	nodes := make([]*Service, 2)
	for i := range nodes {
		if nodes[i], err = New(Config{DB: db, Cloud: cloud, Clock: fc, SoftDeleteRetention: time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nodes[0].CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1"); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[1].OpenMetastore("ms1"); err != nil {
		t.Fatal(err)
	}
	admin := Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
	if _, err := nodes[0].CreateCatalog(admin, "c", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].CreateSchema(admin, "c", "s", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].CreateStorageCredential(admin, "cred", StorageCredentialSpec{Provider: "s3", Identity: "arn:aws:iam::1:role/lake"}, ""); err != nil {
		t.Fatal(err)
	}

	// Paths one to three segments under s3://lake over a three-letter
	// alphabet: every registration overlaps many others.
	var universe []string
	var grow func(p string, depth int)
	grow = func(p string, depth int) {
		for _, s := range []string{"a", "b", "c"} {
			universe = append(universe, p+"/"+s)
			if depth > 1 {
				grow(p+"/"+s, depth-1)
			}
		}
	}
	grow("s3://lake", 3)
	probes := []string{"s3://lake", "s3://other/a"}
	for _, p := range universe {
		probes = append(probes, p, p+"/part-0")
	}

	rng := rand.New(rand.NewSource(26))
	type asset struct {
		id   ids.ID
		full string
	}
	var live, deleted []asset
	accepted, overlaps := 0, 0
	for step := 0; step < 150; step++ {
		node := nodes[rng.Intn(len(nodes))]
		var err error
		switch op := rng.Intn(20); {
		case op < 8: // register a table
			name := fmt.Sprintf("t%03d", step)
			var e *erm.Entity
			if e, err = node.CreateTable(admin, "c.s", name, TableSpec{Columns: cols("x")}, universe[rng.Intn(len(universe))]); err == nil {
				live = append(live, asset{e.ID, "c.s." + name})
			}
		case op < 10: // register an external location
			name := fmt.Sprintf("loc%03d", step)
			var e *erm.Entity
			if e, err = node.CreateExternalLocation(admin, name, universe[rng.Intn(len(universe))], "cred", ""); err == nil {
				live = append(live, asset{e.ID, name})
			}
		case op < 14 && len(live) > 0: // delete
			i := rng.Intn(len(live))
			if err = node.DeleteAsset(admin, live[i].full, false); err == nil {
				deleted = append(deleted, live[i])
				live = slices.Delete(live, i, i+1)
			}
		case op < 18 && len(deleted) > 0: // undelete
			i := rng.Intn(len(deleted))
			if _, err = node.Undelete(admin, deleted[i].id); err == nil {
				live = append(live, deleted[i])
				deleted = slices.Delete(deleted, i, i+1)
			}
		case op >= 18: // GC past the retention: the deleted are purged
			fc.Advance(2 * time.Hour)
			if _, err = node.RunGC("ms1"); err == nil {
				deleted = nil
			}
		default: // nothing to delete or undelete
			continue
		}
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrPathOverlap):
			overlaps++
		default:
			t.Fatalf("step %d: %v", step, err)
		}
		checkPathResolution(t, step, nodes, admin, db, probes)
	}
	t.Logf("%d operations accepted, %d refused for overlap; %d assets live, %d deleted at the end", accepted, overlaps, len(live), len(deleted))
	if accepted < 50 || overlaps < 20 {
		t.Fatalf("the mix accepted %d operations and refused %d for overlap: it did not exercise both", accepted, overlaps)
	}
}

// checkPathResolution compares every node's path resolution for each probe
// with the oracle of the store's current live path and external-location rows.
func checkPathResolution(t *testing.T, step int, nodes []*Service, admin Ctx, db *store.DB, probes []string) {
	t.Helper()
	snap, err := db.Snapshot("ms1")
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(table string) (*pathtrie.Trie, []string) {
		trie := pathtrie.New()
		var keys []string
		for _, kv := range snap.Scan(table, "") {
			if err := trie.Insert(kv.Key, erm.IndexedID(kv)); err != nil {
				t.Fatalf("step %d: the %s table breaks one registration per path: %v", step, table, err)
			}
			keys = append(keys, kv.Key)
		}
		return trie, keys
	}
	paths, pathKeys := oracle(erm.TablePath)
	locs, _ := oracle(erm.TableExtLoc)
	snap.Close()
	resolve := func(trie *pathtrie.Trie, p string) ids.ID {
		if v, _, ok := trie.Resolve(p); ok {
			return v.(ids.ID)
		}
		return ids.Nil
	}

	for n, node := range nodes {
		for _, p := range probes {
			wantAsset, wantLoc := resolve(paths, p), resolve(locs, p)
			if wantAsset == ids.Nil {
				wantAsset = wantLoc
			}
			tc, err := node.TempCredentialForPath(admin, p, cloudsim.AccessRead)
			if wantAsset == ids.Nil && !errors.Is(err, ErrNotFound) || wantAsset != ids.Nil && (err != nil || tc.Asset != wantAsset) {
				t.Fatalf("step %d, node %d: TempCredentialForPath(%q) = %s, %v; want %s", step, n, p, tc.Asset, err, wantAsset)
			}

			v, err := node.view(admin)
			if err != nil {
				t.Fatal(err)
			}
			gotLoc := ids.Nil
			if loc, ok := coveringExternalLocation(v, p); ok {
				gotLoc = loc.ID
			}
			v.Close()
			if gotLoc != wantLoc {
				t.Fatalf("step %d, node %d: coveringExternalLocation(%q) = %q; want %q", step, n, p, gotLoc, wantLoc)
			}

			var want []string
			for _, k := range pathKeys {
				if k == p || strings.HasPrefix(p, k+"/") || strings.HasPrefix(k, p+"/") {
					want = append(want, k)
				}
			}
			got, err := node.OverlappingPaths(admin, p)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("step %d, node %d: OverlappingPaths(%q) = %v, %v; want %v", step, n, p, got, err, want)
			}
		}
	}
}
