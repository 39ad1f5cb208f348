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

func TestTwoNodesConflictAndReconcile(t *testing.T) {
	for _, strat := range []ReconcileStrategy{ReconcileFull, ReconcileSelective} {
		db, _ := store.Open(store.Options{})
		db.CreateMetastore("m")
		a := New(db, Options{Strategy: strat})
		b := New(db, Options{Strategy: strat})
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
			t.Fatalf("strategy %v: %v", strat, err)
		}
		if m := b.Metrics(); m.WriteConflicts == 0 {
			t.Fatalf("strategy %v: expected a conflict, got %+v", strat, m)
		}
		v, _ := b.NewView("m")
		if got, _ := v.Get("t", "k2"); string(got) != "saw:a1" {
			t.Fatalf("strategy %v: k2 = %q", strat, got)
		}
		v.Close()

		// Node a is now stale; reads after refresh see b's write.
		a.Refresh("m")
		va, _ := a.NewView("m")
		if got, ok := va.Get("t", "k2"); !ok || string(got) != "saw:a1" {
			t.Fatalf("strategy %v: node a read = %q %v", strat, got, ok)
		}
		va.Close()
		db.Close()
	}
}

func TestSelectiveReconcileKeepsUnchangedEntries(t *testing.T) {
	db := newDB(t)
	a := New(db, Options{Strategy: ReconcileSelective})
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
	a := New(db, Options{Strategy: ReconcileSelective})
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
}

func TestEvictionLRUAndLFU(t *testing.T) {
	for _, pol := range []EvictionPolicy{EvictLRU, EvictLFU} {
		db, _ := store.Open(store.Options{})
		db.CreateMetastore("m")
		db.Update("m", func(tx *store.Tx) error {
			for i := 0; i < 10; i++ {
				tx.Put("t", fmt.Sprintf("k%d", i), []byte{byte(i)})
			}
			return nil
		})
		c := New(db, Options{MaxEntriesPerMetastore: 4, Policy: pol})
		c.Own("m")
		for i := 0; i < 10; i++ {
			v, _ := c.NewView("m")
			v.Get("t", fmt.Sprintf("k%d", i))
			v.Close()
		}
		if n := c.EntryCount("m"); n > 4 {
			t.Fatalf("policy %v: %d entries cached, cap 4", pol, n)
		}
		if m := c.Metrics(); m.Evictions == 0 {
			t.Fatalf("policy %v: no evictions recorded", pol)
		}
		db.Close()
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
