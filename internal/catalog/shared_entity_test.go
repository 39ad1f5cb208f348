package catalog

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// assertSharedPristine is the poison check on the entities a cache view hands
// out: every decoded form still in svc's cache must deep-equal a fresh decode
// of the record it hangs off. A caller that wrote to a shared entity — a
// field, a property, a byte of the spec — fails it, by the record's key.
func assertSharedPristine(t *testing.T, svc *Service, msID, stage string) {
	t.Helper()
	n := 0
	svc.Cache().EachDecoded(msID, func(table, key string, rec []byte, decoded any) {
		n++
		if table != erm.TableEntity {
			if id, ok := decoded.(ids.ID); !ok || id != erm.IndexedID(store.KV{Key: key, Value: rec}) {
				t.Errorf("%s: the cached ID of %s record %q is %v, its record says %q", stage, table, key, decoded, rec)
			}
			return
		}
		want, err := erm.DecodeEntityAt(ids.ID(key), rec)
		if err != nil {
			t.Errorf("%s: cached record of entity %s no longer decodes: %v", stage, key, err)
			return
		}
		if !reflect.DeepEqual(decoded, want) {
			t.Errorf("%s: shared entity %s was written to:\n  cached  %+v\n  record  %+v", stage, key, decoded, want)
		}
	})
	if n == 0 {
		t.Errorf("%s: the cache holds no decoded form: nothing was checked", stage)
	}
}

var sharedEntityRuns atomic.Int64

// TestSharedEntityDifferential: an entity read through a cache view is the
// cache's own, shared by every request at that record version — so for every
// read, by any reader, at any version, GetEntity through the view must equal a
// private decode of the bytes the store holds at the view's version, field for
// field. Writers (comment, properties, owner, rename, soft-delete, undelete,
// grant; a different sequence each repetition) run against readers that hold
// their views across those writes, which is where a form filed under the
// wrong version, or a writer that changed a shared entity instead of a clone,
// shows. `make race` repeats it twenty times under the race detector.
//
// It runs twice: over a store it fills itself, every record and index row in
// today's form, and over a store replayed from the log the commit before
// record format 2 wrote (internal/store/testdata: version 1 records, index
// values that are the ID's 32 hex digits), where the writers' rewrites turn
// records over to the new form one by one while the readers watch.
func TestSharedEntityDifferential(t *testing.T) {
	seed := sharedEntityRuns.Add(1)
	t.Run("fresh", func(t *testing.T) {
		// Every version of every record stays readable, so the oracle can read
		// at any view's version however far the writers have moved on.
		db, err := store.Open(store.Options{MaxVersionsPerRecord: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		svc, err := New(Config{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1"); err != nil {
			t.Fatal(err)
		}
		admin := Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
		if _, err := svc.CreateCatalog(admin, "c", ""); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.CreateSchema(admin, "c", "s", ""); err != nil {
			t.Fatal(err)
		}
		sharedEntityDifferential(t, seed, db, svc, "c", "s", nil)
	})
	t.Run("parent log", func(t *testing.T) {
		log, err := os.ReadFile("../store/testdata/parent.wal")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := store.Open(store.Options{WALPath: path, Sync: store.SyncNever, MaxVersionsPerRecord: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		svc, err := New(Config{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.OpenMetastore("ms1"); err != nil {
			t.Fatal(err)
		}
		sharedEntityDifferential(t, seed, db, svc, "sales", "raw", []string{"orders", "events", "renamed"})
	})
}

// sharedEntityDifferential is the test over metastore ms1 of svc: schema
// cat.sch exists and holds the tables named in have; the rest of the six are
// created here.
func sharedEntityDifferential(t *testing.T, seed int64, db *store.DB, svc *Service, cat, sch string, have []string) {
	admin := Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
	catE, err := svc.GetAsset(admin, cat)
	if err != nil {
		t.Fatal(err)
	}
	schE, err := svc.GetAsset(admin, cat+"."+sch)
	if err != nil {
		t.Fatal(err)
	}
	schema := cat + "." + sch
	const tables = 6
	entities := []ids.ID{catE.ID, schE.ID}
	nameKeys := []string{erm.NameKey(string(erm.TypeCatalog), catE.ParentID, cat), erm.NameKey(string(erm.TypeSchema), catE.ID, sch)}
	base := make([]string, tables)  // table i's name when it is not renamed
	names := make([]string, tables) // the writer's: table i's current name
	for i := range names {
		var e *erm.Entity
		if i < len(have) {
			base[i] = have[i]
			e, err = svc.GetAsset(admin, schema+"."+base[i])
		} else {
			base[i] = fmt.Sprintf("t%d", i)
			e, err = svc.CreateTable(admin, schema, base[i], TableSpec{Columns: cols("x")}, "")
		}
		if err != nil {
			t.Fatal(err)
		}
		names[i] = base[i]
		entities = append(entities, e.ID)
		// Both names a table goes by: a reader looks each up at its version.
		nameKeys = append(nameKeys, erm.NameKey(relationGroup, schE.ID, names[i]), erm.NameKey(relationGroup, schE.ID, names[i]+"r"))
	}

	// check compares one view with the store at the view's version.
	check := func(v erm.Reader, snap *store.Snapshot, rng *rand.Rand, who string) {
		id := entities[rng.Intn(len(entities))]
		got, ok := erm.GetEntity(v, id)
		rec, found := snap.Get(erm.TableEntity, string(id))
		if ok != found {
			t.Errorf("seed %d, %s: entity %s at version %d: view found=%v, store found=%v", seed, who, id.Short(), snap.Version, ok, found)
			return
		}
		if ok {
			want, err := erm.DecodeEntityAt(id, rec)
			if err != nil {
				t.Errorf("seed %d, %s: %v", seed, who, err)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d, %s: entity %s at version %d:\n  through the view %+v\n  the store's bytes %+v", seed, who, id.Short(), snap.Version, got, want)
			}
		}
		key := nameKeys[rng.Intn(len(nameKeys))]
		gotID, ok := erm.LookupID(v, erm.TableName, key)
		rec, found = snap.Get(erm.TableName, key)
		if ok != found || (ok && gotID != erm.IndexedID(store.KV{Key: key, Value: rec})) {
			t.Errorf("seed %d, %s: name %q at version %d: view says %q (%v), store says %q (%v)", seed, who, key, snap.Version, gotID, ok, rec, found)
		}
	}

	// A view pinned at V reads after V+1 was written through: it is served
	// V's entity, not the one the write installed beside it.
	func() {
		v, err := svc.view(admin)
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		before, ok := erm.GetEntity(v, entities[2]) // pins
		if !ok {
			t.Fatal("table 0 not found")
		}
		comment := "written through at V+1"
		if _, err := svc.UpdateAsset(admin, schema+"."+names[0], UpdateRequest{Comment: &comment}); err != nil {
			t.Fatal(err)
		}
		after, _ := erm.GetEntity(v, entities[2])
		if after != before || after.Comment == comment {
			t.Fatalf("a view pinned at %d read %+v after the next version was written through", v.Version(), after)
		}
		fresh, err := svc.GetAsset(admin, schema+"."+names[0])
		if err != nil || fresh.Comment != comment || fresh == before {
			t.Fatalf("a fresh view read %+v, %v after the write", fresh, err)
		}
	}()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + int64(r)))
			who := fmt.Sprintf("reader %d", r)
			for {
				select {
				case <-done:
					return
				default:
				}
				v, err := svc.view(admin)
				if err != nil {
					t.Error(err)
					return
				}
				erm.GetEntity(v, entities[rng.Intn(len(entities))]) // pins the view
				snap, err := db.SnapshotAt("ms1", v.Version())
				if err != nil {
					t.Error(err)
					v.Close()
					return
				}
				// Held across whatever the writer commits meanwhile.
				for k := 0; k < 1+rng.Intn(24); k++ {
					check(v, snap, rng, who)
				}
				snap.Close()
				v.Close()
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(seed))
	renamed := make([]bool, tables)
	deleted := map[int]ids.ID{}
	owners := []privilege.Principal{"admin", "reader", "steward"}
	for step := 0; step < 150; step++ {
		i := rng.Intn(tables)
		full := schema + "." + names[i]
		switch rng.Intn(8) {
		case 0:
			comment := fmt.Sprintf("c%d", step)
			_, _ = svc.UpdateAsset(admin, full, UpdateRequest{Comment: &comment})
		case 1:
			_, _ = svc.UpdateAsset(admin, full, UpdateRequest{Properties: map[string]string{"k": fmt.Sprint(step % 3), "gone": ""}})
		case 2:
			owner := owners[rng.Intn(len(owners))]
			_, _ = svc.UpdateAsset(admin, full, UpdateRequest{Owner: &owner})
		case 3:
			to := base[i]
			if !renamed[i] {
				to += "r"
			}
			if _, err := svc.RenameAsset(admin, full, to); err == nil {
				names[i], renamed[i] = to, !renamed[i]
			}
		case 4:
			if _, gone := deleted[i]; !gone && svc.DeleteAsset(admin, full, false) == nil {
				deleted[i] = entities[2+i]
			}
		case 5:
			if id, gone := deleted[i]; gone {
				if _, err := svc.Undelete(admin, id); err == nil {
					delete(deleted, i)
				}
			}
		case 6:
			_ = svc.Grant(admin, full, "reader", privilege.Select)
		case 7:
			comment := fmt.Sprintf("schema %d", step)
			_, _ = svc.UpdateAsset(admin, schema, UpdateRequest{Comment: &comment})
		}
	}
	close(done)
	wg.Wait()

	assertSharedPristine(t, svc, "ms1", fmt.Sprintf("seed %d, after the run", seed))
	if m := svc.CacheMetrics(); m.DecodedHits == 0 || m.Decodes == 0 {
		t.Fatalf("seed %d: the readers were served %d decoded forms over %d decodes: the path under test did not run", seed, m.DecodedHits, m.Decodes)
	}
}

// getAssetAllocs and resolveAllocs are what a GetAsset by name and a
// one-table Resolve allocated through the service on a warm cache, and
// pathCredAllocs and nameCredAllocs a credential request by object path and
// by name from an untrusted engine for a table without row filters or masks,
// when the point-read path last changed on purpose: the request's view, its
// authorizer and its name's resolution in one object (three before), and a
// read's audit operation named by its type's manifest (built per read before).
// Earlier, a name was resolved in one buffer, its keys built there (one key
// string per level, the split name and the chain's slice before), one
// authorizer bound per request (two before), and the table's fgac member read
// in place, not its spec decoded (about 14 objects before); and a request's
// authorizer was bound to its view in
// one object (three before), the catalog's workspace bindings were read in
// place, where a decode of its whole spec cost each 6 more (19, 44 and 33),
// and a derived path row's value became its entity's ID as the store keeps it
// (25 while rows held its 16 bytes). resolveChainAllocs is a three-level name
// resolved on a warm view whose request has resolved a name already: its one
// buffer. TestPointReadAllocs fails at 10 %
// over; `make allocs` prints the figures.
const (
	getAssetAllocs     = 1  // 4 before, 9, 13
	resolveAllocs      = 26 // 29, 34, 38
	pathCredAllocs     = 4  // 5, 24, 27
	nameCredAllocs     = 1  // 3, 26
	resolveChainAllocs = 1  // 5
)

// TestPointReadAllocs gates the point-read path end to end — view, name or
// path resolution, binding check, authorization, audit — on a warm cache, where it
// must decode no entity at all: the second read of anything moves the cache's
// decode counter by nothing.
func TestPointReadAllocs(t *testing.T) {
	svc, admin := testService(t)
	tbl := seedNamespace(t, svc, admin)
	reader := Ctx{Principal: "reader", Metastore: "ms1"}
	for on, priv := range map[string]privilege.Privilege{"sales": privilege.UseCatalog, "sales.raw": privilege.UseSchema, "sales.raw.orders": privilege.Select} {
		if err := svc.Grant(admin, on, "reader", priv); err != nil {
			t.Fatal(err)
		}
	}
	get := func() {
		if _, err := svc.GetAsset(reader, "sales.raw.orders"); err != nil {
			t.Fatal(err)
		}
	}
	resolve := func() {
		resp, err := svc.Resolve(reader, ResolveRequest{Names: []string{"sales.raw.orders"}})
		if err != nil || len(resp.Assets) != 1 {
			t.Fatalf("resolve: %+v, %v", resp, err)
		}
	}
	byPath := func() {
		if _, err := svc.TempCredentialForPath(reader, tbl.StoragePath+"/part-0.parquet", cloudsim.AccessRead); err != nil {
			t.Fatal(err)
		}
	}
	byName := func() {
		if _, err := svc.TempCredentialForAsset(reader, "sales.raw.orders", cloudsim.AccessRead); err != nil {
			t.Fatal(err)
		}
	}
	get() // fills the cache, decodes each record once, compiles the snapshot
	resolve()
	byPath()
	byName()
	warm := svc.CacheMetrics()
	gotGet := testing.AllocsPerRun(100, get)
	gotResolve := testing.AllocsPerRun(100, resolve)
	gotPath := testing.AllocsPerRun(100, byPath)
	gotName := testing.AllocsPerRun(100, byName)
	ms, err := svc.meta("ms1")
	if err != nil {
		t.Fatal(err)
	}
	v, err := svc.view(reader)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	gotChain := testing.AllocsPerRun(100, func() {
		if chain, err := svc.resolveChain(v, ms, "sales.raw.orders"); err != nil || len(chain) != 4 {
			t.Fatalf("resolveChain: %d entities, %v", len(chain), err)
		}
	})
	after := svc.CacheMetrics()
	if after.Decodes != warm.Decodes || after.Misses != warm.Misses {
		t.Fatalf("reads on a warm cache decoded %d records over %d misses, want none", after.Decodes-warm.Decodes, after.Misses-warm.Misses)
	}
	if after.DecodedHits == warm.DecodedHits {
		t.Fatal("no read was served a decoded form: the path under test did not run")
	}
	t.Logf("GetAsset by name: %.0f allocations (recorded %d); one-table Resolve: %.0f (recorded %d); credential by path: %.0f (recorded %d), by name: %.0f (recorded %d); a three-level resolveChain: %.0f (at most %d)",
		gotGet, getAssetAllocs, gotResolve, resolveAllocs, gotPath, pathCredAllocs, gotName, nameCredAllocs, gotChain, resolveChainAllocs)
	if gotGet > 1.10*getAssetAllocs {
		t.Errorf("GetAsset by name: %.0f allocations, more than 10 %% over the recorded %d", gotGet, getAssetAllocs)
	}
	if gotResolve > 1.10*resolveAllocs {
		t.Errorf("one-table Resolve: %.0f allocations, more than 10 %% over the recorded %d", gotResolve, resolveAllocs)
	}
	if gotPath > 1.10*pathCredAllocs {
		t.Errorf("credential by path: %.0f allocations, more than 10 %% over the recorded %d", gotPath, pathCredAllocs)
	}
	if gotName > 1.10*nameCredAllocs {
		t.Errorf("credential by name: %.0f allocations, more than 10 %% over the recorded %d", gotName, nameCredAllocs)
	}
	if gotChain > resolveChainAllocs {
		t.Errorf("a three-level resolveChain on a warm view: %.0f allocations, want at most %d", gotChain, resolveChainAllocs)
	}
}
