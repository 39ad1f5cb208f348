package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"unitycatalog/internal/events"
	"unitycatalog/internal/store"
)

// hookBus wires a store's commit stream onto an event bus the way the
// catalog service does: one event per applied commit, carrying the ordered
// change set, published from the commit hook (durable, version-ordered).
func hookBus(db *store.DB, bus *events.Bus) {
	db.AddCommitHook(func(msID string, v uint64, changes []store.Change, notes []any) {
		evs := make([]events.Change, len(changes))
		for i, c := range changes {
			evs[i] = events.Change{Table: c.Table, Key: c.Key, Deleted: c.Deleted}
		}
		bus.Publish(events.Event{Metastore: msID, Version: v, Op: events.OpChange, Changes: evs})
	})
}

func waitKnown(t *testing.T, c *Cache, msID string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, err := c.KnownVersion(msID); err == nil && v >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	v, _ := c.KnownVersion(msID)
	t.Fatalf("known version stuck at %d, want %d", v, want)
}

// TestCohererDropStormFullReconcileOnce: a subscriber that lost events must
// trigger ReconcileFull exactly once per drop episode, and no stale read
// survives the storm.
func TestCohererDropStormFullReconcileOnce(t *testing.T) {
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateMetastore("ms1"); err != nil {
		t.Fatal(err)
	}
	bus := events.NewBus(4, 16) // tiny buffer: the storm overflows it
	hookBus(db, bus)

	c := New(db, Options{})
	if err := c.Own("ms1"); err != nil {
		t.Fatal(err)
	}
	// Warm the cache so stale entries exist to survive (or not).
	const keys = 32
	for i := 0; i < keys; i++ {
		if _, err := db.Update("ms1", func(tx *store.Tx) error {
			tx.Put("tbl", fmt.Sprintf("k%d", i), []byte("v0"))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Refresh("ms1"); err != nil {
		t.Fatal(err)
	}
	view, err := c.NewView("ms1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		view.Get("tbl", fmt.Sprintf("k%d", i))
	}
	view.Close()
	if n := c.EntryCount("ms1"); n < keys {
		t.Fatalf("warmed entries = %d, want >= %d", n, keys)
	}
	base := c.Metrics().FullReconciles

	// Subscribe, then storm: 200 commits through a 4-slot buffer with no
	// consumer running guarantees drops before the coherer starts.
	sub := bus.Subscribe()
	var lastV uint64
	for i := 0; i < 200; i++ {
		v, err := db.Update("ms1", func(tx *store.Tx) error {
			tx.Put("tbl", fmt.Sprintf("k%d", i%keys), []byte(fmt.Sprintf("storm%d", i)))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		lastV = v
	}
	if sub.Dropped() == 0 {
		t.Fatal("storm did not overflow the subscription")
	}

	co := StartCoherer(c, sub, CohererOptions{})
	defer co.Close()
	waitKnown(t, c, "ms1", lastV)

	if got := c.Metrics().FullReconciles - base; got != 1 {
		t.Fatalf("full reconciles during drop storm = %d, want exactly 1", got)
	}
	if co.Metrics().DropReconciles != 1 {
		t.Fatalf("drop reconciles = %d, want 1", co.Metrics().DropReconciles)
	}

	// No stale reads: every key must read back its final database value.
	snap, err := db.Snapshot("ms1")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	view, err = c.NewView("ms1")
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		want, _ := snap.Get("tbl", key)
		got, ok := view.Get("tbl", key)
		if !ok || string(got) != string(want) {
			t.Fatalf("stale read survived storm: %s = %q, want %q", key, got, want)
		}
	}

	// After the storm, selective application resumes: one more commit is
	// applied from its event with no further full reconcile.
	v, err := db.Update("ms1", func(tx *store.Tx) error {
		tx.Put("tbl", "k0", []byte("after"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitKnown(t, c, "ms1", v)
	if got := c.Metrics().FullReconciles - base; got != 1 {
		t.Fatalf("full reconciles after recovery = %d, want still 1", got)
	}
	if co.Metrics().EventsApplied == 0 {
		t.Fatal("selective application did not resume after the drop episode")
	}
}

// TestCohererAppliesWithoutDBReads: applied events advance the cache with
// zero database round trips, and subsequent hits stay in memory.
func TestCohererAppliesWithoutDBReads(t *testing.T) {
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateMetastore("ms1"); err != nil {
		t.Fatal(err)
	}
	bus := events.NewBus(0, 0)
	hookBus(db, bus)
	c := New(db, Options{})
	if err := c.Own("ms1"); err != nil {
		t.Fatal(err)
	}
	co := StartCoherer(c, bus.Subscribe(), CohererOptions{})
	defer co.Close()

	var lastV uint64
	for i := 0; i < 50; i++ {
		v, err := db.Update("ms1", func(tx *store.Tx) error {
			tx.Put("tbl", fmt.Sprintf("k%d", i), []byte("v"))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		lastV = v
	}
	waitKnown(t, c, "ms1", lastV)
	reads0 := db.ReadCount()
	// The known version is current, so a fresh view pins without touching
	// the database until a miss needs data.
	if v, _ := c.KnownVersion("ms1"); v != lastV {
		t.Fatalf("known = %d, want %d", v, lastV)
	}
	if co.Metrics().EventsApplied < 50 {
		t.Fatalf("events applied = %d, want >= 50", co.Metrics().EventsApplied)
	}
	if db.ReadCount() != reads0 {
		t.Fatalf("coherence issued %d database reads, want 0", db.ReadCount()-reads0)
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
// in full (a reader forces ReconcileFull, as a follower does after dropped
// events), every read must equal db.SnapshotAt(view.Version()), mid-flight
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
