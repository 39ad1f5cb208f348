package catalog

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"unitycatalog/internal/clock"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/store"
)

// pathOracle is the rule the path and external-location rows were written
// by while they were stored, applied to the entity records r reads: a row
// path → ID exists iff an entity that is not soft deleted has that storage
// path, in TableExtLoc for an external location and in TablePath for any
// other type. It fails the test when two such entities share a path.
func pathOracle(t *testing.T, what string, r erm.Reader) map[string]map[string]ids.ID {
	t.Helper()
	rows := map[string]map[string]ids.ID{erm.TablePath: {}, erm.TableExtLoc: {}}
	kvs := r.Scan(erm.TableEntity, "")
	for i, e := range erm.DecodeEntityRows(kvs) {
		if e == nil {
			t.Fatalf("%s: entity %s does not decode", what, kvs[i].Key)
		}
		if e.State == erm.StateSoftDeleted || e.StoragePath == "" {
			continue
		}
		table := erm.TablePath
		if e.Type == erm.TypeExternalLocation {
			table = erm.TableExtLoc
		}
		if other, dup := rows[table][e.StoragePath]; dup {
			t.Fatalf("%s: entities %s and %s are both live at %s", what, other, e.ID, e.StoragePath)
		}
		rows[table][e.StoragePath] = e.ID
	}
	return rows
}

// pathProbe is a path comparePaths reads the path tables at, with what the
// path alone decides, made once for the whole run: the range of its
// descendants and its segment-boundary prefixes, every p[:i] at a '/' past
// the scheme and then p itself.
type pathProbe struct {
	path       string
	under, end string // [path/, store.PrefixEnd(path/))
	prefixes   []string
}

func newPathProbes(paths []string) []pathProbe {
	out := make([]pathProbe, len(paths))
	for k, p := range paths {
		under := p + "/"
		out[k] = pathProbe{path: p, under: under, end: store.PrefixEnd(under)}
		for i := range p {
			if p[i] == '/' && i > len("s3://") {
				out[k].prefixes = append(out[k].prefixes, p[:i])
			}
		}
		out[k].prefixes = append(out[k].prefixes, p)
	}
	return out
}

// comparePaths holds every read of the path tables through r to the oracle
// of r's own entity records: whole scans, point reads of every row and of
// probes beside them, a multi-get of each probe's prefixes where r has one,
// RegisteredPrefix (the one-of read through a cache view) and the ranges
// over each probe's descendants, whole and one row at a time. What the
// oracle expects of a probe is read from the oracle's sorted rows and its
// map, not found by a walk of all of them.
func comparePaths(t *testing.T, what string, r erm.Reader, probes []pathProbe) {
	t.Helper()
	oracle := pathOracle(t, what, r)
	for _, table := range []string{erm.TablePath, erm.TableExtLoc} {
		want := oracle[table]
		keys := make([]string, 0, len(want))
		for p := range want {
			keys = append(keys, p)
		}
		sort.Strings(keys)
		var got []string
		for _, kv := range r.Scan(table, "") {
			if id := ids.ID(kv.Value); want[kv.Key] != id {
				t.Fatalf("%s: %s row %s names %q, the records %q", what, table, kv.Key, id, want[kv.Key])
			}
			got = append(got, kv.Key)
		}
		if !slices.Equal(got, keys) {
			t.Fatalf("%s: %s rows %q, the records derive %q", what, table, got, keys)
		}
		for _, p := range probes {
			if val, ok := r.Get(table, p.path); ok != (want[p.path] != "") || ok && ids.ID(val) != want[p.path] {
				t.Fatalf("%s: Get(%s, %q) = %q, %v; the records say %q", what, table, p.path, val, ok, want[p.path])
			}
			// The row that governs p: the one at p or at a prefix of it that
			// ends a segment. No two live paths of one table nest.
			wantPrefix, wantID := "", ids.ID("")
			for _, prefix := range p.prefixes {
				if id, ok := want[prefix]; ok {
					if wantID != "" {
						t.Fatalf("%s: the records have %s rows at %q and %q, which nest", what, table, wantPrefix, prefix)
					}
					wantPrefix, wantID = prefix, id
				}
			}
			if prefix, id, ok := erm.RegisteredPrefix(r, table, p.path); ok != (wantID != "") || prefix != wantPrefix || id != wantID {
				t.Fatalf("%s: RegisteredPrefix(%s, %q) = %q, %q, %v; the records say %q, %q", what, table, p.path, prefix, id, ok, wantPrefix, wantID)
			}
			if br, ok := r.(erm.BatchReader); ok {
				for i, val := range br.GetBatch(table, p.prefixes) {
					if (val != nil) != (want[p.prefixes[i]] != "") || val != nil && ids.ID(val) != want[p.prefixes[i]] {
						t.Fatalf("%s: GetBatch(%s) of %q = %q; the records say %q", what, table, p.prefixes[i], val, want[p.prefixes[i]])
					}
				}
			}
			from := sort.SearchStrings(keys, p.under)
			to := from
			for to < len(keys) && strings.HasPrefix(keys[to], p.under) {
				to++
			}
			wantUnder := keys[from:to]
			if got := rowKeys(r.ScanRange(table, p.under, p.end, 0)); !slices.Equal(got, wantUnder) {
				t.Fatalf("%s: %s rows under %q: %q, the records derive %q", what, table, p.path, got, wantUnder)
			}
			if got := rowKeys(r.Scan(table, p.under)); !slices.Equal(got, wantUnder) {
				t.Fatalf("%s: Scan(%s, %q): %q, the records derive %q", what, table, p.under, got, wantUnder)
			}
			if got := rowKeys(r.ScanRange(table, p.under, p.end, 1)); len(wantUnder) > 0 && !slices.Equal(got, wantUnder[:1]) || len(wantUnder) == 0 && len(got) > 0 {
				t.Fatalf("%s: the first %s row under %q: %q, the records derive %q", what, table, p.path, got, wantUnder)
			}
		}
	}
}

func rowKeys(kvs []store.KV) []string {
	var out []string
	for _, kv := range kvs {
		out = append(out, kv.Key)
	}
	return out
}

var errRollback = errors.New("read only")

// TestDerivedPathIndexMatchesRows runs a seeded mix of managed and external
// table creates, external-location creates and creates under a location,
// soft deletes, undeletes (onto a path taken again and onto a free one),
// purges, deletes followed by a create at the same path, and metastore drops,
// and holds the derived path and external-location tables to the rule the
// stored rows were written by — a row exists iff an active entity with that
// path derives it — at every version: through the newest snapshot and a cache
// view after each step, through snapshots pinned along the way, and through
// transactions that read while another commit is pending and after a write of
// their own. A create onto a registered path fails with ErrPathOverlap and
// changes nothing.
func TestDerivedPathIndexMatchesRows(t *testing.T) {
	db, err := store.Open(store.Options{CommitLatency: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	fc := clock.NewFake(time.Unix(1_000_000, 0))
	admin := Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
	var svc *Service
	open := func() {
		var err error
		if svc, err = New(Config{DB: db, Cloud: cloudsim.New(), Clock: fc, SoftDeleteRetention: time.Hour}); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1"); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.CreateCatalog(admin, "c", ""); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.CreateSchema(admin, "c", "s", ""); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.CreateStorageCredential(admin, "cred", StorageCredentialSpec{Provider: "s3", Identity: "arn:aws:iam::1:role/lake"}, ""); err != nil {
			t.Fatal(err)
		}
	}
	open()
	universe := []string{"s3://lake"}
	for _, a := range []string{"a", "b", "c"} {
		universe = append(universe, "s3://lake/"+a)
		for _, b := range []string{"x", "y"} {
			universe = append(universe, "s3://lake/"+a+"/"+b, "s3://lake/"+a+"/"+b+"/z")
		}
	}
	paths := append([]string{"s3://root/ms1/table", "s3://other"}, universe...)
	for _, p := range universe {
		paths = append(paths, p+"/part-0")
	}
	probes := newPathProbes(paths)

	rng := rand.New(rand.NewSource(45))
	type asset struct {
		id         ids.ID
		full, path string
	}
	var live, deleted []asset
	var pins []*store.Snapshot
	counts := map[string]int{}
	n := 0
	create := func(path string) (asset, error) {
		n++
		name := fmt.Sprintf("t%03d", n)
		e, err := svc.CreateTable(admin, "c.s", name, TableSpec{Columns: cols("x")}, path)
		if err != nil {
			return asset{}, err
		}
		return asset{e.ID, "c.s." + name, e.StoragePath}, nil
	}
	for step := 0; step < 240; step++ {
		var (
			a   asset
			err error
			op  string
		)
		switch k := rng.Intn(24); {
		case step%80 == 79: // drop the metastore and start again
			op = "drop"
			for _, p := range pins {
				p.Close()
			}
			pins, live, deleted = nil, nil, nil
			if err = db.DropMetastore("ms1"); err != nil {
				t.Fatal(err)
			}
			open()
		case k < 4:
			op = "managed create"
			if a, err = create(""); err == nil {
				live = append(live, a)
			}
		case k < 9:
			op = "external create"
			if a, err = create(universe[rng.Intn(len(universe))]); err == nil {
				live = append(live, a)
			}
		case k < 11:
			op = "external location"
			n++
			var e *erm.Entity
			name := fmt.Sprintf("loc%03d", n)
			if e, err = svc.CreateExternalLocation(admin, name, universe[rng.Intn(len(universe))], "cred", ""); err == nil {
				live = append(live, asset{e.ID, name, e.StoragePath})
			}
		case k < 13:
			op = "create under a location"
			var locs []string
			for _, l := range live {
				if !strings.HasPrefix(l.full, "c.s.") {
					locs = append(locs, l.path)
				}
			}
			if len(locs) == 0 {
				continue
			}
			if a, err = create(locs[rng.Intn(len(locs))] + fmt.Sprintf("/t%d", rng.Intn(3))); err == nil {
				live = append(live, a)
			}
		case k < 17 && len(live) > 0:
			op = "soft delete"
			i := rng.Intn(len(live))
			if err = svc.DeleteAsset(admin, live[i].full, false); err == nil {
				deleted = append(deleted, live[i])
				live = slices.Delete(live, i, i+1)
			}
		case k < 20 && len(deleted) > 0:
			op = "undelete"
			i := rng.Intn(len(deleted))
			if _, err = svc.Undelete(admin, deleted[i].id); err == nil {
				live = append(live, deleted[i])
				deleted = slices.Delete(deleted, i, i+1)
			}
		case k < 22 && len(live) > 0:
			op = "delete and create at the same path"
			i := rng.Intn(len(live))
			if !strings.HasPrefix(live[i].full, "c.s.") || strings.HasPrefix(live[i].path, "s3://root/") {
				continue
			}
			if err = svc.DeleteAsset(admin, live[i].full, false); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			deleted = append(deleted, live[i])
			path := live[i].path
			live = slices.Delete(live, i, i+1)
			if a, err = create(path); err != nil {
				t.Fatalf("step %d: a create at the path a delete freed: %v", step, err)
			}
			live = append(live, a)
		case k >= 22:
			op = "purge"
			fc.Advance(2 * time.Hour)
			if _, err = svc.RunGC("ms1"); err == nil {
				deleted = nil
			}
		default:
			continue
		}
		switch {
		case err == nil:
			counts[op]++
		case errors.Is(err, ErrPathOverlap) || errors.Is(err, ErrAlreadyExists):
			counts["refused"]++
		default:
			t.Fatalf("step %d, %s: %v", step, op, err)
		}
		what := fmt.Sprintf("step %d (%s)", step, op)

		if step%8 == 3 { // a transaction reads over a pending commit and its own write
			sequenced := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := db.Update("ms1", func(tx *store.Tx) error {
					defer close(sequenced)
					return pendingCreate(tx, rng.Intn(2) == 0)
				}); err != nil {
					t.Error(err)
				}
			}()
			<-sequenced
			if _, err := db.Update("ms1", func(tx *store.Tx) error {
				comparePaths(t, what+": a tx over a pending commit", tx, probes)
				if err := pendingCreate(tx, true); err != nil {
					return err
				}
				comparePaths(t, what+": a tx after a write of its own", tx, probes)
				return errRollback
			}); !errors.Is(err, errRollback) {
				t.Fatal(err)
			}
			wg.Wait()
			counts["tx over pending"]++
		}

		snap, err := db.Snapshot("ms1")
		if err != nil {
			t.Fatal(err)
		}
		comparePaths(t, fmt.Sprintf("%s v%d", what, snap.Version), snap, probes)
		v, err := svc.view(admin)
		if err != nil {
			t.Fatal(err)
		}
		comparePaths(t, what+": cache view", v, probes)
		v.Close()
		for _, p := range paths {
			got, err := svc.OverlappingPaths(admin, p)
			var want []string
			if prefix, _, ok := erm.RegisteredPrefix(snap, erm.TablePath, p); ok {
				want = []string{prefix}
			} else {
				want = rowKeys(snap.Scan(erm.TablePath, strings.TrimSuffix(p, "/")+"/"))
			}
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s: OverlappingPaths(%q) = %q, %v; want %q", what, p, got, err, want)
			}
		}
		if rng.Intn(4) == 0 {
			pins = append(pins, snap)
		} else {
			snap.Close()
		}
		if step%5 == 0 {
			for _, p := range pins {
				comparePaths(t, fmt.Sprintf("%s: snapshot pinned at v%d", what, p.Version), p, probes)
			}
		}
	}
	for _, p := range pins {
		p.Close()
	}
	t.Logf("%v", counts)
	for _, op := range []string{"managed create", "external create", "external location", "create under a location", "soft delete",
		"undelete", "purge", "delete and create at the same path", "drop", "refused", "tx over pending"} {
		if counts[op] == 0 {
			t.Errorf("the mix never did %q: %v", op, counts)
		}
	}
}

// pendingCreate puts a managed table's entity, or an external one's at a
// path of its own, under schema c.s of tx's metastore.
func pendingCreate(tx *store.Tx, managed bool) error {
	schema, ok := erm.LookupID(tx, erm.TableName, erm.NameKey(erm.NameGroupOf(erm.TypeSchema), mustCatalog(tx), "s"))
	if !ok {
		return errors.New("no schema c.s")
	}
	id := ids.New()
	path := "s3://pending/" + string(id)
	if managed {
		path = "s3://root/ms1/table/" + string(id)
	}
	return erm.PutEntity(tx, &erm.Entity{ID: id, Type: erm.TypeTable, Name: "p" + string(id), ParentID: schema,
		StoragePath: path, Managed: managed, State: erm.StateActive, CreatedAt: time.Unix(1, 0), UpdatedAt: time.Unix(1, 0)})
}

func mustCatalog(tx *store.Tx) ids.ID {
	for _, kv := range tx.Scan(erm.TableName, erm.NameGroupOf(erm.TypeCatalog)+"\x00") {
		if strings.HasSuffix(kv.Key, "\x00c") {
			return ids.ID(kv.Value)
		}
	}
	return ""
}

// TestPurgeKeepsAPathTakenAgain: a table deleted, its path taken by another
// and the first then purged leaves the second governing its path. While path
// rows were stored, the purge deleted the row at the purged entity's path,
// which by then was the second table's.
func TestPurgeKeepsAPathTakenAgain(t *testing.T) {
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	fc := clock.NewFake(time.Unix(1_000_000, 0))
	svc, err := New(Config{DB: db, Clock: fc, SoftDeleteRetention: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1"); err != nil {
		t.Fatal(err)
	}
	admin := Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
	seedNamespace(t, svc, admin)
	if _, err := svc.CreateTable(admin, "sales.raw", "a", TableSpec{Columns: cols("x")}, "s3://lake/t"); err != nil {
		t.Fatal(err)
	}
	if err := svc.DeleteAsset(admin, "sales.raw.a", false); err != nil {
		t.Fatal(err)
	}
	b, err := svc.CreateTable(admin, "sales.raw", "b", TableSpec{Columns: cols("x")}, "s3://lake/t")
	if err != nil {
		t.Fatal(err)
	}
	fc.Advance(2 * time.Hour)
	if res, err := svc.RunGC("ms1"); err != nil || res.PurgedEntities != 1 {
		t.Fatalf("GC: %+v, %v", res, err)
	}
	if tc, err := svc.TempCredentialForPath(admin, "s3://lake/t/part-0", cloudsim.AccessRead); err != nil || tc.Asset != b.ID {
		t.Fatalf("after the purge the path resolves to %+v, %v; want table b", tc, err)
	}
	if _, err := svc.CreateTable(admin, "sales.raw", "c", TableSpec{Columns: cols("x")}, "s3://lake/t/sub"); !errors.Is(err, ErrPathOverlap) {
		t.Fatalf("a table under b's path: %v, want ErrPathOverlap", err)
	}
}

// TestStoragePathWithZeroByte: a storage path holding a 0 byte, which no
// derived row's key may hold, is refused at create, at external-location
// create, at undelete (a record written before the check) and as a
// metastore's root path, which every managed path starts with, and nothing is
// written.
func TestStoragePathWithZeroByte(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	if _, err := svc.CreateStorageCredential(admin, "cred", StorageCredentialSpec{Provider: "s3", Identity: "arn:aws:iam::1:role/lake"}, ""); err != nil {
		t.Fatal(err)
	}
	before, _ := svc.DB().Version("ms1")
	if _, err := svc.CreateTable(admin, "sales.raw", "z", TableSpec{Columns: cols("x")}, "s3://lake/a\x00b"); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("create: %v, want ErrInvalidArgument", err)
	}
	if _, err := svc.CreateExternalLocation(admin, "loc", "s3://lake/\x00", "cred", ""); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("external location: %v, want ErrInvalidArgument", err)
	}
	if v, _ := svc.DB().Version("ms1"); v != before {
		t.Fatalf("the refused creates committed: version %d, was %d", v, before)
	}
	if _, err := svc.CreateMetastore("ms2", "m2", "r", "admin", "s3://root/\x00ms2"); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("metastore root: %v, want ErrInvalidArgument", err)
	}
	if _, err := svc.DB().Version("ms2"); err == nil {
		t.Fatal("the refused metastore was created")
	}
	// A soft-deleted record with such a path, as a log from before the
	// check may hold one, does not come back.
	schema, err := svc.GetAsset(admin, "sales.raw")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	old := &erm.Entity{ID: ids.New(), Type: erm.TypeTable, Name: "old", ParentID: schema.ID, FullName: "sales.raw.old",
		Owner: "admin", StoragePath: "s3://lake/old\x00", State: erm.StateSoftDeleted, CreatedAt: now, UpdatedAt: now, DeletedAt: &now}
	if _, err := svc.DB().Update("ms1", func(tx *store.Tx) error { return erm.PutEntity(tx, old) }); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Undelete(admin, old.ID); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("undelete: %v, want ErrInvalidArgument", err)
	}
}

// TestOverlapCheckReadsOneRow: the check that no registered path lies under
// a candidate reads one row, not every row under it: inside a transaction
// its allocations are the same with 10 and with 1,000 registered paths
// under the candidate, and its error names the first of them in key order.
func TestOverlapCheckReadsOneRow(t *testing.T) {
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateMetastore("m"); err != nil {
		t.Fatal(err)
	}
	register := func(from, to int) {
		if _, err := db.Update("m", func(tx *store.Tx) error {
			for i := from; i < to; i++ {
				for _, typ := range []erm.SecurableType{erm.TypeTable, erm.TypeExternalLocation} {
					id := ids.New()
					path := fmt.Sprintf("s3://bucket/%s/%04d", strings.ToLower(string(typ)), 9999-i)
					if err := erm.PutEntity(tx, &erm.Entity{ID: id, Type: typ, Name: fmt.Sprintf("e%04d", i), ParentID: "p",
						StoragePath: path, State: erm.StateActive}); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(registered int) (table, extLoc float64) {
		if _, err := db.Update("m", func(tx *store.Tx) error {
			for _, c := range []struct {
				check func(*store.Tx, string) error
				under string
				out   *float64
				first string
			}{
				{checkPathFree, "s3://bucket/table", &table, "table/" + fmt.Sprintf("%04d", 10000-registered)},
				{checkExtLocFree, "s3://bucket/external_location", &extLoc, "external_location/" + fmt.Sprintf("%04d", 10000-registered)},
			} {
				err := c.check(tx, c.under)
				if !errors.Is(err, ErrPathOverlap) || !strings.Contains(err.Error(), "s3://bucket/"+c.first) {
					t.Fatalf("with %d registered: %v, want the overlap with s3://bucket/%s", registered, err, c.first)
				}
				*c.out = testing.AllocsPerRun(50, func() { c.check(tx, c.under) })
			}
			return errRollback
		}); !errors.Is(err, errRollback) {
			t.Fatal(err)
		}
		return table, extLoc
	}
	register(0, 10)
	t10, e10 := measure(10)
	register(10, 1000)
	t1000, e1000 := measure(1000)
	t.Logf("allocations of the check: path table %.0f at 10 and %.0f at 1,000 registered, external locations %.0f and %.0f", t10, t1000, e10, e1000)
	if raceEnabled {
		return // the reads derive rows in pooled buffers
	}
	if t1000 != t10 || e1000 != e10 {
		t.Fatalf("the check allocates %.0f/%.0f with 10 paths under the candidate and %.0f/%.0f with 1,000", t10, e10, t1000, e1000)
	}
}

// TestConcurrentOverlappingClaims: two services over one WAL-backed store
// race to claim overlapping paths — tables, then external locations, at one
// path twice, at its parent and at its child, and an undelete onto a path
// that creates are claiming. Of each overlapping set exactly one claim
// commits; every other fails with ErrPathOverlap or ErrAlreadyExists. After
// the store is reopened from its log, every path resolves to the claim that
// was acknowledged.
func TestConcurrentOverlappingClaims(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "uc.wal")
	db, err := store.Open(store.Options{WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	cloud := cloudsim.New()
	nodes := make([]*Service, 2)
	for i := range nodes {
		if nodes[i], err = New(Config{DB: db, Cloud: cloud}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			_, err = nodes[i].CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1")
		} else {
			_, err = nodes[i].OpenMetastore("ms1")
		}
		if err != nil {
			t.Fatal(err)
		}
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
	type won struct {
		table, path string
		id          ids.ID
	}
	var wins []won
	for round := 0; round < 30; round++ {
		base := fmt.Sprintf("s3://race/r%02d", round)
		paths := []string{base, base, base + "/a", base + "/a/b", fmt.Sprintf("s3://race/r%02d", round)}
		extLoc := round%3 == 1
		var undelete ids.ID
		if round%3 == 2 { // a deleted table at base comes back while creates claim it
			e, err := nodes[0].CreateTable(admin, "c.s", fmt.Sprintf("u%02d", round), TableSpec{Columns: cols("x")}, base)
			if err != nil {
				t.Fatal(err)
			}
			if err := nodes[1].DeleteAsset(admin, e.FullName, false); err != nil {
				t.Fatal(err)
			}
			undelete = e.ID
		}
		type result struct {
			e   *erm.Entity
			err error
		}
		results := make([]result, len(paths)+1)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				node := nodes[i%2]
				<-start
				var r result
				switch {
				case i == len(paths):
					if undelete == "" {
						return
					}
					r.e, r.err = node.Undelete(admin, undelete)
				case extLoc:
					r.e, r.err = node.CreateExternalLocation(admin, fmt.Sprintf("loc%02d_%d", round, i), paths[i], "cred", "")
				default:
					r.e, r.err = node.CreateTable(admin, "c.s", fmt.Sprintf("t%02d_%d", round, i), TableSpec{Columns: cols("x")}, paths[i])
				}
				results[i] = r
			}(i)
		}
		close(start)
		wg.Wait()
		var winners []*erm.Entity
		for i, r := range results {
			switch {
			case r.err == nil && r.e != nil:
				winners = append(winners, r.e)
			case r.err == nil:
			case !errors.Is(r.err, ErrPathOverlap) && !errors.Is(r.err, ErrAlreadyExists):
				t.Fatalf("round %d, claim %d: %v", round, i, r.err)
			}
		}
		if len(winners) != 1 {
			t.Fatalf("round %d: %d claims of one overlapping set committed: %+v", round, len(winners), results)
		}
		table := erm.TablePath
		if extLoc {
			table = erm.TableExtLoc
		}
		wins = append(wins, won{table, winners[0].StoragePath, winners[0].ID})
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = store.Open(store.Options{WALPath: wal}); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot("ms1")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for round, w := range wins {
		probe := fmt.Sprintf("s3://race/r%02d/a/b/part-0", round)
		if prefix, id, ok := erm.RegisteredPrefix(snap, w.table, probe); !ok || prefix != w.path || id != w.id {
			t.Fatalf("round %d after the reopen: %s resolves %s to %q, %q, %v; the acknowledged claim was %s at %s", round, w.table, probe, prefix, id, ok, w.id, w.path)
		}
	}
}
