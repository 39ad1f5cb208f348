package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"unitycatalog/internal/store"
)

// TestForeignBurstReconcilesOnce: a warm node that another writer ran far
// ahead of recovers with one reconcile at its next view open — selective while
// the store's change log still covers the node's known version, a full evict
// exactly once when the burst trimmed that log too — and no stale read
// survives either way.
func TestForeignBurstReconcilesOnce(t *testing.T) {
	for _, tc := range []struct {
		name          string
		changeLogSize int // 0 is the store's default, far larger than the burst
		trimmed       bool
	}{
		{"change log covers the gap", 0, false},
		{"change log trimmed too", 16, true},
	} {
		t.Run(tc.name, func(t *testing.T) { testForeignBurst(t, tc.changeLogSize, tc.trimmed) })
	}
}

func testForeignBurst(t *testing.T, changeLogSize int, trimmed bool) {
	// What the one reconcile at view open must be, and what it must leave.
	const burstKeys = 32 // rewritten by the burst; as many other keys are not
	wantSelective, wantFull, wantEntries := int64(1), int64(0), burstKeys
	if trimmed {
		wantSelective, wantFull, wantEntries = 0, 1, 0
	}
	db, err := store.Open(store.Options{ChangeLogSize: changeLogSize})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateMetastore("ms1"); err != nil {
		t.Fatal(err)
	}
	put := func(key, val string) uint64 {
		t.Helper()
		v, err := db.Update("ms1", func(tx *store.Tx) error {
			tx.Put("tbl", key, []byte(val))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for i := 0; i < 2*burstKeys; i++ {
		put(fmt.Sprintf("k%d", i), "v0")
	}
	c := New(db, Options{})
	if err := c.Own("ms1"); err != nil {
		t.Fatal(err)
	}
	// Warm the cache so stale entries exist to survive (or not).
	view, err := c.NewView("ms1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*burstKeys; i++ {
		view.Get("tbl", fmt.Sprintf("k%d", i))
	}
	view.Close()
	if n := c.EntryCount("ms1"); n != 2*burstKeys {
		t.Fatalf("warmed entries = %d, want %d", n, 2*burstKeys)
	}
	base := c.Metrics()
	reconciles := func() (selective, full int64) {
		m := c.Metrics()
		return m.SelectiveReconciles - base.SelectiveReconciles, m.FullReconciles - base.FullReconciles
	}

	// The burst goes straight to the store: the node is told nothing.
	var lastV uint64
	for i := 0; i < 200; i++ {
		lastV = put(fmt.Sprintf("k%d", i%burstKeys), fmt.Sprintf("burst%d", i))
	}
	if sel, full := reconciles(); sel != 0 || full != 0 {
		t.Fatalf("the node reconciled (%d selective, %d full) before anyone asked it anything", sel, full)
	}

	// The next view open is the whole recovery.
	view, err = c.NewView("ms1")
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	if view.Version() != lastV {
		t.Fatalf("view opened at v%d after the burst, want v%d", view.Version(), lastV)
	}
	if sel, full := reconciles(); sel != wantSelective || full != wantFull {
		t.Fatalf("reconciles at view open = %d selective, %d full; want %d, %d", sel, full, wantSelective, wantFull)
	}
	if n := c.EntryCount("ms1"); n != wantEntries {
		t.Fatalf("entries after the reconcile = %d, want %d", n, wantEntries)
	}

	// No stale reads: every key must read back its final database value.
	snap, err := db.Snapshot("ms1")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for i := 0; i < 2*burstKeys; i++ {
		key := fmt.Sprintf("k%d", i)
		want, _ := snap.Get("tbl", key)
		got, ok := view.Get("tbl", key)
		if !ok || string(got) != string(want) {
			t.Fatalf("stale read survived the burst: %s = %q, want %q", key, got, want)
		}
	}

	// One more foreign commit costs one more selective reconcile and nothing
	// else: the episode left no state behind.
	v := put("k0", "after")
	view2, err := c.NewView("ms1")
	if err != nil {
		t.Fatal(err)
	}
	defer view2.Close()
	if got, _ := view2.Get("tbl", "k0"); view2.Version() != v || string(got) != "after" {
		t.Fatalf("after one more commit: view at v%d (want v%d), k0 = %q", view2.Version(), v, got)
	}
	if sel, full := reconciles(); sel != wantSelective+1 || full != wantFull {
		t.Fatalf("reconciles after one more commit = %d selective, %d full; want %d, %d", sel, full, wantSelective+1, wantFull)
	}
}

func sameKVs(a, b []store.KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || string(a[i].Value) != string(b[i].Value) {
			return false
		}
	}
	return true
}

// TestSelectiveVsFullDifferential checks the cache against its oracle, the
// database's own snapshot at the view's pinned version: under a randomized
// seeded write workload with concurrent local and foreign writers, while the
// cache reconciles selectively (every conflict and first-miss validation) and
// in full (a reader forces ReconcileFull, the evict-all a trimmed change log
// causes), every read must equal db.SnapshotAt(view.Version()), mid-flight
// and at quiescence. Run under -race and -count=20 by `make race`.
func TestSelectiveVsFullDifferential(t *testing.T) {
	db, err := store.Open(store.Options{
		// Retain deep history so a view pinned a few versions back can
		// always be re-read from the store for the ground-truth comparison.
		MaxVersionsPerRecord: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateMetastore("ms1"); err != nil {
		t.Fatal(err)
	}
	c := New(db, Options{})
	if err := c.Own("ms1"); err != nil {
		t.Fatal(err)
	}

	tables := []string{"entity", "name", "grant"}
	key := func(r *rand.Rand) (string, string) {
		return tables[r.Intn(len(tables))], fmt.Sprintf("k%02d", r.Intn(48))
	}

	const writers, writesEach = 4, 150
	var wwg, rwg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			r := rand.New(rand.NewSource(int64(1000 + w)))
			// Writers alternate between the cache's write-through path and
			// the raw store, so the cache both loses CAS races to and must
			// reconcile past foreign writes.
			for i := 0; i < writesEach; i++ {
				tbl, k := key(r)
				val := []byte(fmt.Sprintf("w%d-i%d", w, i))
				write := func(tx *store.Tx) error {
					if r.Intn(8) == 0 {
						tx.Delete(tbl, k)
					} else {
						tx.Put(tbl, k, val)
					}
					return nil
				}
				var err error
				if i%3 == 2 {
					_, err = db.Update("ms1", write)
				} else {
					_, err = c.Update("ms1", write)
				}
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	// Readers: compare the cache's view against the database snapshot at
	// the view's pinned version — the cache contract is "reads are a
	// consistent snapshot at Version()".
	for g := 0; g < 3; g++ {
		rwg.Add(1)
		go func(g int) {
			defer rwg.Done()
			r := rand.New(rand.NewSource(int64(2000 + g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if g == 0 && i%64 == 63 {
					if err := c.ReconcileFull("ms1"); err != nil {
						t.Errorf("reconcile full: %v", err)
						return
					}
				}
				view, err := c.NewView("ms1")
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				tbl, k := key(r)
				got, ok := view.Get(tbl, k)
				ver := view.Version()
				snap, err := db.SnapshotAt("ms1", ver)
				if err != nil {
					view.Close()
					t.Errorf("snapshot at %d: %v", ver, err)
					return
				}
				want, wantOK := snap.Get(tbl, k)
				if ok != wantOK || string(got) != string(want) {
					t.Errorf("divergence at v%d %s/%s: cache=(%q,%v) db=(%q,%v)",
						ver, tbl, k, got, ok, want, wantOK)
				}
				// Prefix scans must agree too (scan cache invalidation).
				if gotKVs, wantKVs := view.Scan(tbl, "k0"), snap.Scan(tbl, "k0"); !sameKVs(gotKVs, wantKVs) {
					t.Errorf("scan divergence at v%d %s: cache=%v db=%v", ver, tbl, gotKVs, wantKVs)
				}
				snap.Close()
				view.Close()
			}
		}(g)
	}
	wwg.Wait()
	close(stop)
	rwg.Wait()

	// Quiescent sweep: the cache reconciles to head and must agree with the
	// database on every key of every table.
	if err := c.Refresh("ms1"); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot("ms1")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	view, _ := c.NewView("ms1")
	defer view.Close()
	for _, tbl := range tables {
		for i := 0; i < 48; i++ {
			k := fmt.Sprintf("k%02d", i)
			want, wantOK := snap.Get(tbl, k)
			got, ok := view.Get(tbl, k)
			if ok != wantOK || string(got) != string(want) {
				t.Errorf("final %s/%s = (%q,%v), db (%q,%v)", tbl, k, got, ok, want, wantOK)
			}
		}
	}
	if c.Metrics().SelectiveReconciles == 0 {
		t.Error("the cache never reconciled selectively")
	}
}
