package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"unitycatalog/internal/store"
)

func newDB(t *testing.T) *store.DB {
	t.Helper()
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.CreateMetastore("m")
	return db
}

func TestReadThroughAndHit(t *testing.T) {
	db := newDB(t)
	db.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("v")); return nil })
	c := New(db, Options{})
	c.Own("m")

	v1, _ := c.NewView("m")
	if got, ok := v1.Get("t", "k"); !ok || string(got) != "v" {
		t.Fatalf("get = %q %v", got, ok)
	}
	v1.Close()
	m := c.Metrics()
	if m.Misses != 1 || m.Hits != 0 {
		t.Fatalf("metrics = %+v", m)
	}

	v2, _ := c.NewView("m")
	if got, _ := v2.Get("t", "k"); string(got) != "v" {
		t.Fatalf("second get = %q", got)
	}
	v2.Close()
	m = c.Metrics()
	if m.Hits != 1 {
		t.Fatalf("after second read: %+v", m)
	}
}

func TestNegativeCaching(t *testing.T) {
	db := newDB(t)
	c := New(db, Options{})
	c.Own("m")
	v, _ := c.NewView("m")
	if _, ok := v.Get("t", "missing"); ok {
		t.Fatal("missing key found")
	}
	v.Close()
	v2, _ := c.NewView("m")
	if _, ok := v2.Get("t", "missing"); ok {
		t.Fatal("missing key found on second read")
	}
	v2.Close()
	if m := c.Metrics(); m.Hits != 1 {
		t.Fatalf("negative entry not cached: %+v", m)
	}
}

func TestWriteThrough(t *testing.T) {
	db := newDB(t)
	c := New(db, Options{})
	c.Own("m")
	if _, err := c.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("v1")); return nil }); err != nil {
		t.Fatal(err)
	}
	// The write must be served from cache without a DB read.
	v, _ := c.NewView("m")
	if got, _ := v.Get("t", "k"); string(got) != "v1" {
		t.Fatalf("get = %q", got)
	}
	v.Close()
	if m := c.Metrics(); m.Misses != 0 || m.Hits != 1 {
		t.Fatalf("write-through miss: %+v", m)
	}
}

func TestSnapshotReadsAcrossWrite(t *testing.T) {
	db := newDB(t)
	c := New(db, Options{})
	c.Own("m")
	c.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("old")); return nil })

	v1, _ := c.NewView("m") // pinned before the write
	c.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("new")); return nil })
	v2, _ := c.NewView("m")

	if got, _ := v1.Get("t", "k"); string(got) != "old" {
		t.Fatalf("pinned view = %q, want old", got)
	}
	if got, _ := v2.Get("t", "k"); string(got) != "new" {
		t.Fatalf("fresh view = %q, want new", got)
	}
	v1.Close()
	v2.Close()
}

// expectAtViewVersion checks a view's read of (table, key) against the
// database's own snapshot at the view's pinned version — the ground truth
// for every cache read.
func expectAtViewVersion(t *testing.T, db *store.DB, v *View, table, key string) {
	t.Helper()
	got, ok := v.Get(table, key)
	snap, err := db.SnapshotAt("m", v.Version())
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	want, wantOK := snap.Get(table, key)
	if ok != wantOK || string(got) != string(want) {
		t.Fatalf("%s/%s at v%d: cache=(%q,%v) db=(%q,%v)", table, key, v.Version(), got, ok, want, wantOK)
	}
}

func TestTwoNodesConflictAndReconcile(t *testing.T) {
	db := newDB(t)
	a := New(db, Options{})
	b := New(db, Options{})
	a.Own("m")
	b.Own("m")

	a.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("a1")); return nil })
	// b's known version (0) is stale; its write must still succeed after
	// reconciliation and must not lose a's write.
	if _, err := b.Update("m", func(tx *store.Tx) error {
		got, _ := tx.Get("t", "k")
		tx.Put("t", "k2", append([]byte("saw:"), got...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if m := b.Metrics(); m.WriteConflicts == 0 {
		t.Fatalf("expected a conflict, got %+v", m)
	}
	v, _ := b.NewView("m")
	if got, _ := v.Get("t", "k2"); string(got) != "saw:a1" {
		t.Fatalf("k2 = %q", got)
	}
	expectAtViewVersion(t, db, v, "t", "k")
	expectAtViewVersion(t, db, v, "t", "k2")
	v.Close()

	// Node a is now stale; reads after refresh see b's write.
	a.Refresh("m")
	va, _ := a.NewView("m")
	if va.Version() != 2 {
		t.Fatalf("node a refreshed to v%d, want 2", va.Version())
	}
	expectAtViewVersion(t, db, va, "t", "k")
	expectAtViewVersion(t, db, va, "t", "k2")
	va.Close()
}

// TestUpdateAwaitsSequencedForeignCommit is the regression test for the
// sequenced-vs-applied gap: the store checks a CAS against the sequenced
// version, the cache reconciles against the applied one. A foreign commit
// held between the two (here by CommitLatency, in production by the WAL
// fsync) used to make every reconcile a no-op, so the sixteen retries burned
// in microseconds and Update failed. It must instead wait for that commit to
// become visible, reconcile once and win.
func TestUpdateAwaitsSequencedForeignCommit(t *testing.T) {
	db, err := store.Open(store.Options{CommitLatency: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateMetastore("m")
	c := New(db, Options{})
	c.Own("m")

	sequenced := make(chan struct{})
	foreign := make(chan error, 1)
	go func() {
		_, err := db.Update("m", func(tx *store.Tx) error {
			tx.Put("t", "foreign", []byte("f"))
			// Still under the sequencing lock: the cache's CAS below cannot
			// be checked before this commit holds version 1.
			close(sequenced)
			return nil
		})
		foreign <- err
	}()
	<-sequenced

	v, err := c.Update("m", func(tx *store.Tx) error {
		got, _ := tx.Get("t", "foreign")
		tx.Put("t", "local", append([]byte("saw:"), got...))
		return nil
	})
	if err != nil {
		t.Fatalf("update behind an in-flight foreign commit: %v", err)
	}
	if v != 2 {
		t.Fatalf("update committed at v%d, want 2", v)
	}
	if m := c.Metrics(); m.WriteConflicts != 1 {
		t.Fatalf("lost the CAS %d times to one foreign commit, want 1", m.WriteConflicts)
	}
	if err := <-foreign; err != nil {
		t.Fatal(err)
	}
	view, _ := c.NewView("m")
	defer view.Close()
	if got, _ := view.Get("t", "local"); string(got) != "saw:f" {
		t.Fatalf("local = %q, want saw:f", got)
	}
	expectAtViewVersion(t, db, view, "t", "foreign")
	expectAtViewVersion(t, db, view, "t", "local")
}

func TestSelectiveReconcileKeepsUnchangedEntries(t *testing.T) {
	db := newDB(t)
	a := New(db, Options{})
	a.Own("m")
	a.Update("m", func(tx *store.Tx) error {
		tx.Put("t", "hot", []byte("h"))
		tx.Put("t", "cold", []byte("c"))
		return nil
	})
	// Warm the cache.
	v, _ := a.NewView("m")
	v.Get("t", "hot")
	v.Get("t", "cold")
	v.Close()

	// An outside writer touches only "hot".
	db.Update("m", func(tx *store.Tx) error { tx.Put("t", "hot", []byte("h2")); return nil })
	if err := a.Refresh("m"); err != nil {
		t.Fatal(err)
	}
	base := a.Metrics()
	v2, _ := a.NewView("m")
	if got, _ := v2.Get("t", "cold"); string(got) != "c" {
		t.Fatalf("cold = %q", got)
	}
	if got, _ := v2.Get("t", "hot"); string(got) != "h2" {
		t.Fatalf("hot = %q", got)
	}
	v2.Close()
	m := a.Metrics()
	if hits := m.Hits - base.Hits; hits != 1 {
		t.Fatalf("cold should hit, hot should miss: delta hits=%d misses=%d", hits, m.Misses-base.Misses)
	}
	if m.SelectiveReconciles == 0 || m.FullReconciles != 0 {
		t.Fatalf("reconcile metrics: %+v", m)
	}
}

func TestFullReconcileFallbackOnTrimmedLog(t *testing.T) {
	db, _ := store.Open(store.Options{ChangeLogSize: 2})
	defer db.Close()
	db.CreateMetastore("m")
	a := New(db, Options{})
	a.Own("m")
	a.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("v")); return nil })
	for i := 0; i < 10; i++ {
		db.Update("m", func(tx *store.Tx) error { tx.Put("t", fmt.Sprintf("x%d", i), nil); return nil })
	}
	if err := a.Refresh("m"); err != nil {
		t.Fatal(err)
	}
	if m := a.Metrics(); m.FullReconciles != 1 {
		t.Fatalf("expected full fallback: %+v", m)
	}
}

func TestScanCaching(t *testing.T) {
	db := newDB(t)
	c := New(db, Options{})
	c.Own("m")
	c.Update("m", func(tx *store.Tx) error {
		tx.Put("t", "a/1", []byte("1"))
		tx.Put("t", "a/2", []byte("2"))
		tx.Put("t", "b/1", []byte("3"))
		return nil
	})
	v, _ := c.NewView("m")
	if kvs := v.Scan("t", "a/"); len(kvs) != 2 {
		t.Fatalf("scan = %v", kvs)
	}
	v.Close()
	v2, _ := c.NewView("m")
	if kvs := v2.Scan("t", "a/"); len(kvs) != 2 {
		t.Fatalf("scan2 = %v", kvs)
	}
	v2.Close()
	if m := c.Metrics(); m.ScanHits != 1 || m.ScanMisses != 1 {
		t.Fatalf("scan metrics: %+v", m)
	}
	// A write into the scanned prefix invalidates the cached scan.
	c.Update("m", func(tx *store.Tx) error { tx.Put("t", "a/3", []byte("4")); return nil })
	v3, _ := c.NewView("m")
	if kvs := v3.Scan("t", "a/"); len(kvs) != 3 {
		t.Fatalf("scan3 = %v", kvs)
	}
	v3.Close()
	// A write outside the prefix leaves it cached.
	c.Update("m", func(tx *store.Tx) error { tx.Put("t", "b/2", []byte("5")); return nil })
	before := c.Metrics().ScanHits
	v4, _ := c.NewView("m")
	if kvs := v4.Scan("t", "a/"); len(kvs) != 3 {
		t.Fatalf("scan4 = %v", kvs)
	}
	v4.Close()
	if c.Metrics().ScanHits != before+1 {
		t.Fatal("unrelated write should not invalidate cached scan")
	}

	// Invalidation probes the prefix lengths scans were cached under: one
	// write must drop every cached prefix of its key, whatever its length,
	// and nothing else — also after an evict-all has reset the lengths.
	counts := func() (whole, a, b, other int) {
		v, _ := c.NewView("m")
		defer v.Close()
		return len(v.Scan("t", "")), len(v.Scan("t", "a/")), len(v.Scan("t", "b/")), len(v.Scan("u", ""))
	}
	for round, key := range []string{"a/4", "a/5"} {
		counts() // cache all four
		c.Update("m", func(tx *store.Tx) error { tx.Put("t", key, []byte("x")); return nil })
		hits, misses := c.Metrics().ScanHits, c.Metrics().ScanMisses
		if whole, a, b, other := counts(); whole != 6+round || a != 4+round || b != 2 || other != 0 {
			t.Fatalf("after writing %s: scans = %d %d %d %d", key, whole, a, b, other)
		}
		if m := c.Metrics(); m.ScanMisses != misses+2 || m.ScanHits != hits+2 {
			t.Fatalf("writing %s should drop exactly the two covering scans: %+v", key, m)
		}
		if err := c.ReconcileFull("m"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEvictionLRU(t *testing.T) {
	db := newDB(t)
	db.Update("m", func(tx *store.Tx) error {
		for i := 0; i < 10; i++ {
			tx.Put("t", fmt.Sprintf("k%d", i), []byte{byte(i)})
		}
		return nil
	})
	c := New(db, Options{MaxEntriesPerMetastore: 4})
	c.Own("m")
	for i := 0; i < 10; i++ {
		v, _ := c.NewView("m")
		v.Get("t", fmt.Sprintf("k%d", i))
		v.Close()
	}
	if n := c.EntryCount("m"); n > 4 {
		t.Fatalf("%d entries cached, cap 4", n)
	}
	if m := c.Metrics(); m.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestDisabledCacheAlwaysReadsDB(t *testing.T) {
	db := newDB(t)
	db.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("v")); return nil })
	c := New(db, Options{Disabled: true})
	for i := 0; i < 3; i++ {
		v, err := c.NewView("m")
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := v.Get("t", "k"); string(got) != "v" {
			t.Fatalf("get = %q", got)
		}
		v.Close()
	}
	if m := c.Metrics(); m.Hits != 0 && m.Misses != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", m)
	}
	if _, err := c.Update("m", func(tx *store.Tx) error { tx.Put("t", "k2", nil); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestVersionRetentionPruning(t *testing.T) {
	db := newDB(t)
	c := New(db, Options{VersionRetention: time.Millisecond})
	c.Own("m")
	for i := 0; i < 5; i++ {
		c.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte{byte(i)}); return nil })
		time.Sleep(2 * time.Millisecond)
	}
	m, _ := c.owner("m")
	rk := cacheKey{"t", "k"}
	sh := m.shardFor(rk)
	sh.mu.RLock()
	rec := sh.records[rk]
	n := len(rec.versions)
	sh.mu.RUnlock()
	if n > 2 {
		t.Fatalf("retained %d cached versions after retention window", n)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db := newDB(t)
	c := New(db, Options{})
	c.Own("m")
	c.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("0")); return nil })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := c.NewView("m")
				if err != nil {
					t.Error(err)
					return
				}
				if _, ok := v.Get("t", "k"); !ok {
					t.Error("key vanished")
					v.Close()
					return
				}
				v.Close()
			}
		}()
	}
	for i := 0; i < 100; i++ {
		if _, err := c.Update("m", func(tx *store.Tx) error {
			tx.Put("t", "k", []byte(fmt.Sprint(i)))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestFreshViewSeesOtherNodesWrites(t *testing.T) {
	db := newDB(t)
	a := New(db, Options{})
	b := New(db, Options{})
	a.Own("m")
	b.Own("m")

	// Node a writes; node b has never seen the key. A fresh view on b whose
	// first access misses must validate against the DB and find it.
	if _, err := a.Update("m", func(tx *store.Tx) error {
		tx.Put("t", "k", []byte("from-a"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	vb, _ := b.NewView("m")
	if got, ok := vb.Get("t", "k"); !ok || string(got) != "from-a" {
		t.Fatalf("node b read = %q, %v (stale view)", got, ok)
	}
	vb.Close()

	// But a view that has already pinned (served a hit) keeps its snapshot.
	vb2, _ := b.NewView("m")
	if _, ok := vb2.Get("t", "k"); !ok { // hit: pins vb2
		t.Fatal("expected hit")
	}
	a.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("newer")); return nil })
	if got, _ := vb2.Get("t", "k"); string(got) != "from-a" {
		t.Fatalf("pinned view should not move: %q", got)
	}
	vb2.Close()

	// Node b is warm and is not writing: nothing but the version check at
	// view open can tell it that a committed again. A view
	// whose first access would have hit must not be served the old value, and
	// the catch-up is selective.
	vb3, _ := b.NewView("m")
	if got, _ := vb3.Get("t", "k"); string(got) != "newer" {
		t.Fatalf("warm node served %q after a foreign commit, want newer", got)
	}
	vb3.Close()
	if m := b.Metrics(); m.FullReconciles != 0 {
		t.Fatalf("catch-up evicted in full: %+v", m)
	}
}

// TestViewOpenedDuringLocalWriteDoesNotReconcile: between a local commit's
// apply and its write-through the database is ahead of the known version, and
// a foreign commit in that time would fail the next write's CAS anyway. A
// view opened then (here from a commit hook, which runs exactly in that
// window) must not reconcile: it would invalidate the records the write is
// about to install and make the write-through skip them.
func TestViewOpenedDuringLocalWriteDoesNotReconcile(t *testing.T) {
	db := newDB(t)
	c := New(db, Options{})
	c.Own("m")
	db.AddCommitHook(func(string, uint64, []store.Change, []any) {
		v, _ := c.NewView("m")
		defer v.Close()
		if dbV, _ := db.Version("m"); dbV != 1 {
			t.Errorf("hook ran with the database at v%d, want 1 (applied)", dbV)
		}
		if m := c.Metrics(); v.Version() != 0 || m.SelectiveReconciles != 0 {
			t.Errorf("view opened mid-write at v%d after %d reconciles, want v0 and none", v.Version(), m.SelectiveReconciles)
		}
	})
	if _, err := c.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("v")); return nil }); err != nil {
		t.Fatal(err)
	}
	v, _ := c.NewView("m")
	defer v.Close()
	if got, _ := v.Get("t", "k"); v.Version() != 1 || string(got) != "v" {
		t.Fatalf("after the write: v%d, k = %q", v.Version(), got)
	}
	if m := c.Metrics(); m.Hits != 1 || m.Misses != 0 {
		t.Fatalf("the write-through was lost: %+v", m)
	}
}

func TestUnownedMetastoreRejected(t *testing.T) {
	db := newDB(t)
	c := New(db, Options{})
	if _, err := c.NewView("m"); err == nil {
		t.Fatal("view on unowned metastore should fail")
	}
	if _, err := c.Update("m", func(tx *store.Tx) error { return nil }); err == nil {
		t.Fatal("update on unowned metastore should fail")
	}
	if err := c.Own("nope"); err == nil {
		t.Fatal("owning a nonexistent metastore should fail")
	}
}
