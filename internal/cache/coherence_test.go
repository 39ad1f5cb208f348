package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"unitycatalog/internal/events"
	"unitycatalog/internal/store"
)

// hookBus wires a store's commit stream onto an event bus the way the
// catalog service does: one event per applied commit, carrying the ordered
// change set, published from the commit hook (durable, version-ordered).
func hookBus(db *store.DB, bus *events.Bus) {
	db.AddCommitHook(func(msID string, v uint64, changes []store.Change, notes []any) {
		bus.Publish(events.Event{Metastore: msID, Version: v, Op: events.OpChange, Changes: changes})
	})
}

// TestCohererDropStormFullReconcileOnce: a coherer whose cursor fell off the
// event ring recovers with one Refresh per episode — selective while the
// store's change log still covers the node's known version, a full evict
// exactly once when the storm trimmed that log too — and no stale read
// survives either way.
func TestCohererDropStormFullReconcileOnce(t *testing.T) {
	for _, tc := range []struct {
		name          string
		changeLogSize int
		wantFull      int64
	}{
		{"change log covers the gap", 0, 0},
		{"change log trimmed too", 16, 1},
	} {
		t.Run(tc.name, func(t *testing.T) { testCohererStorm(t, tc.changeLogSize, tc.wantFull) })
	}
}

func testCohererStorm(t *testing.T, changeLogSize int, wantFull int64) {
	db, err := store.Open(store.Options{ChangeLogSize: changeLogSize})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateMetastore("ms1"); err != nil {
		t.Fatal(err)
	}
	bus := events.NewBus(4, 16) // tiny ring: the storm overruns it
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
	// A coherer wired the way StartCoherer wires it, except that the test can
	// hold it inside handle. Its first resync catches the node up.
	var holding atomic.Bool
	entered, gate := make(chan struct{}), make(chan struct{})
	co := &Coherer{c: c}
	c.feeds.Add(1)
	co.follower = bus.Follow("cache", func(e events.Event) {
		if holding.Load() {
			entered <- struct{}{}
			<-gate
		}
		co.handle(e)
	}, co.resync)
	defer co.Close()
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

	// Hold the coherer on the storm's first event: the other 199 commits go
	// through a 16-slot ring and overrun its cursor.
	holding.Store(true)
	var lastV uint64
	for i := 0; i < 200; i++ {
		v, err := db.Update("ms1", func(tx *store.Tx) error {
			tx.Put("tbl", fmt.Sprintf("k%d", i%keys), []byte(fmt.Sprintf("storm%d", i)))
			return nil
		})
		if err != nil {
			close(gate) // let the deferred Close return
			t.Fatal(err)
		}
		if lastV = v; i == 0 {
			<-entered
			holding.Store(false)
		}
	}
	if lag := co.follower.Lag(); lag != 200 {
		t.Fatalf("held coherer is %d events behind, want all 200", lag)
	}
	close(gate)
	co.Sync()

	if v, _ := c.KnownVersion("ms1"); v != lastV {
		t.Fatalf("known version %d after the storm, want %d", v, lastV)
	}
	if got := co.follower.Resyncs(); got != 1 {
		t.Fatalf("resyncs during the storm = %d, want exactly 1", got)
	}
	if got := c.Metrics().FullReconciles - base; got != wantFull {
		t.Fatalf("full reconciles during the storm = %d, want %d", got, wantFull)
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
	// applied from its event with no further recovery of any kind.
	applied := co.Metrics().EventsApplied
	v, err := db.Update("ms1", func(tx *store.Tx) error {
		tx.Put("tbl", "k0", []byte("after"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	co.Sync()
	if known, _ := c.KnownVersion("ms1"); known != v {
		t.Fatalf("known version %d after one more commit, want %d", known, v)
	}
	if got := c.Metrics().FullReconciles - base; got != wantFull {
		t.Fatalf("full reconciles after recovery = %d, want still %d", got, wantFull)
	}
	if m := co.Metrics(); m.EventsApplied != applied+1 || m.GapReconciles != 1 {
		t.Fatalf("after the episode: %d events applied (want %d), %d gap reconciles (want 1)", m.EventsApplied, applied+1, m.GapReconciles)
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
	co := StartCoherer(c, bus, CohererOptions{})
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
	co.Sync()
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
