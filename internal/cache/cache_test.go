package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unitycatalog/internal/clock"
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
	// b's known version (0) is stale; its write must still succeed and must
	// not lose a's write.
	if _, err := b.Update("m", func(tx *store.Tx) error {
		got, _ := tx.Get("t", "k")
		tx.Put("t", "k2", append([]byte("saw:"), got...))
		return nil
	}); err != nil {
		t.Fatal(err)
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

// TestUpdateAwaitsSequencedForeignCommit: a write sequenced behind a foreign
// commit that is not yet applied (held here by CommitLatency, in production
// by the WAL fsync) reads it in its transaction, commits after it, and
// returns only once both are applied. The node then reconciles the foreign
// commit and installs its own write.
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
	if err := <-foreign; err != nil {
		t.Fatal(err)
	}
	view, _ := c.NewView("m")
	defer view.Close()
	before := c.Metrics()
	if got, _ := view.Get("t", "local"); view.Version() != 2 || string(got) != "saw:f" {
		t.Fatalf("local at v%d = %q, want saw:f at v2", view.Version(), got)
	}
	if m := c.Metrics(); m.Hits != before.Hits+1 || m.Misses != before.Misses {
		t.Fatalf("the write-through was not installed: %+v", m)
	}
	expectAtViewVersion(t, db, view, "t", "foreign")
	expectAtViewVersion(t, db, view, "t", "local")
}

// gateClock runs the armed function at its first reading after arm.
type gateClock struct {
	clock.Clock
	gate atomic.Pointer[func()]
}

func (c *gateClock) Now() time.Time {
	if f := c.gate.Swap(nil); f != nil {
		(*f)()
	}
	return c.Clock.Now()
}

func (c *gateClock) arm(f func()) { c.gate.Store(&f) }

// TestLocalWritesInstallOutOfOrder: two local writes commit at v2 and v3,
// and v3's write-through runs first. It must not leave v2's keys cached as
// they were at v1: every view reads what the store has at its version, before
// v2's write-through runs and after, which installs nothing.
func TestLocalWritesInstallOutOfOrder(t *testing.T) {
	db := newDB(t)
	clk := &gateClock{Clock: clock.Real{}}
	c := New(db, Options{Clock: clk})
	c.Own("m")
	put := func(k, val string) func(tx *store.Tx) error {
		return func(tx *store.Tx) error { tx.Put("t", k, []byte(val)); return nil }
	}
	if _, err := c.Update("m", func(tx *store.Tx) error {
		tx.Put("t", "k1", []byte("a0"))
		tx.Put("t", "k2", []byte("b0"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	old, _ := c.NewView("m")
	defer old.Close()
	expectAtViewVersion(t, db, old, "t", "k1")
	expectAtViewVersion(t, db, old, "t", "k2")
	check := func(wantV uint64) {
		t.Helper()
		v, _ := c.NewView("m")
		defer v.Close()
		for _, view := range []*View{old, v} {
			expectAtViewVersion(t, db, view, "t", "k1")
			expectAtViewVersion(t, db, view, "t", "k2")
		}
		if v.Version() != wantV {
			t.Fatalf("view at v%d, want v%d", v.Version(), wantV)
		}
	}

	// The first write reads the cache's clock first when its commit has
	// returned: hold it there, committed at v2 and not installed.
	held, release := make(chan struct{}), make(chan struct{})
	clk.arm(func() { close(held); <-release })
	first := make(chan error, 1)
	go func() {
		v, err := c.Update("m", put("k1", "a1"))
		if err == nil && v != 2 {
			err = fmt.Errorf("first write committed at v%d, want v2", v)
		}
		first <- err
	}()
	<-held
	if v, err := c.Update("m", put("k2", "b2")); err != nil || v != 3 {
		t.Fatalf("second write: v%d, %v; want v3", v, err)
	}
	check(3)
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	check(3)
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

// TestScanCaching: a view's Scan at V is the store's Scan at V. Writes
// through the cache and past it (another node's), puts and deletes, and a
// full evict interleave with fresh views, each compared at its own version,
// and with one view pinned before the first write, which keeps reading its.
func TestScanCaching(t *testing.T) {
	db, err := store.Open(store.Options{MaxVersionsPerRecord: 64}) // the pinned view's history stays readable
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateMetastore("m")
	c := New(db, Options{})
	c.Own("m")
	check := func(step int, v *View) {
		t.Helper()
		snap, err := db.SnapshotAt("m", v.Version())
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		for _, p := range []string{"", "a/", "a/1", "b/", "c/", "\xff"} {
			if got, want := v.Scan("t", p), snap.Scan("t", p); !sameKVs(got, want) {
				t.Fatalf("step %d, prefix %q at v%d: view scanned %v, store %v", step, p, v.Version(), got, want)
			}
		}
		if got := v.Scan("u", ""); got != nil {
			t.Fatalf("step %d: a table never written scanned %v", step, got)
		}
	}
	pinned, _ := c.NewView("m")
	defer pinned.Close()
	pinned.Get("t", "a/1") // pins before any write
	keys := []string{"a/1", "a/10", "a/2", "b/1", "b/2", "c", "\xff\xff"}
	r := rand.New(rand.NewSource(1))
	for step := 0; step < 60; step++ {
		key := keys[r.Intn(len(keys))]
		write := func(tx *store.Tx) error {
			if r.Intn(4) == 0 {
				tx.Delete("t", key)
			} else {
				tx.Put("t", key, []byte(fmt.Sprint(step)))
			}
			return nil
		}
		switch step % 3 {
		case 0:
			_, err = c.Update("m", write)
		case 1:
			_, err = db.Update("m", write)
		default:
			if step%15 == 2 {
				err = c.ReconcileFull("m")
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		v, _ := c.NewView("m")
		check(step, v)
		v.Close()
		check(step, pinned)
	}
	if pinned.Version() != 0 {
		t.Fatalf("the pinned view moved to v%d", pinned.Version())
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

// TestVictimFollowsTheClock: recency is Options.Clock's. Two records of one
// shard are read with the fake clock set back between the reads, so the one
// read last on the wall clock was read first on the fake one, and eviction
// picks it.
func TestVictimFollowsTheClock(t *testing.T) {
	db := newDB(t)
	fc := clock.NewFake(time.Unix(1000, 0))
	c := New(db, Options{Clock: fc})
	c.Own("m")
	m, _ := c.owner("m")
	keys := []string{"k0"}
	sh := m.shardFor(cacheKey{"t", keys[0]})
	for i := 1; len(keys) < 2; i++ {
		if k := fmt.Sprintf("k%d", i); m.shardFor(cacheKey{"t", k}) == sh {
			keys = append(keys, k)
		}
	}
	db.Update("m", func(tx *store.Tx) error {
		for _, k := range keys {
			tx.Put("t", k, []byte("v"))
		}
		return nil
	})
	v, _ := c.NewView("m")
	defer v.Close()
	v.Get("t", keys[0])
	fc.Set(time.Unix(500, 0))
	time.Sleep(time.Millisecond) // the wall clock's order is unambiguous
	v.Get("t", keys[1])
	sh.mu.Lock()
	victim, ok := victimLocked(sh)
	sh.mu.Unlock()
	if !ok || victim.key != keys[1] {
		t.Fatalf("victim %q, want %q: the record the fake clock read first", victim.key, keys[1])
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

// TestVersionRetentionFollowsTheClock: retention is measured on
// Options.Clock. A superseded version survives inserts until the clock passes
// VersionRetention from when it was cached, and the next insert after that
// prunes it.
func TestVersionRetentionFollowsTheClock(t *testing.T) {
	db := newDB(t)
	fc := clock.NewFake(time.Unix(1000, 0))
	c := New(db, Options{Clock: fc, VersionRetention: time.Minute})
	c.Own("m")
	write := func(val byte) uint64 {
		v, err := c.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte{val}); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	versions := func() (out []uint64) {
		m, _ := c.owner("m")
		rk := cacheKey{"t", "k"}
		sh := m.shardFor(rk)
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		for _, cv := range sh.records[rk].versions {
			out = append(out, cv.version)
		}
		return out
	}
	v1, v2 := write(1), write(2)
	fc.Advance(time.Minute - time.Second)
	v3 := write(3)
	if got := versions(); !slices.Equal(got, []uint64{v1, v2, v3}) {
		t.Fatalf("inside retention the cache holds versions %v, want %v", got, []uint64{v1, v2, v3})
	}
	fc.Advance(2 * time.Second)
	if got := versions(); !slices.Equal(got, []uint64{v1, v2, v3}) {
		t.Fatalf("pruning ran before an insert: versions %v", got)
	}
	v4 := write(4)
	if got := versions(); !slices.Equal(got, []uint64{v3, v4}) {
		t.Fatalf("after retention passed, the next insert left versions %v, want %v", got, []uint64{v3, v4})
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
// apply and its write-through the database is ahead of the known version. A
// view opened then (here from a commit hook, which runs exactly in that
// window) must not reconcile: it would invalidate the records the write is
// about to install and make the write-through skip them.
func TestViewOpenedDuringLocalWriteDoesNotReconcile(t *testing.T) {
	db := newDB(t)
	c := New(db, Options{})
	c.Own("m")
	db.AddCommitHook(func(string, uint64, []any) {
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
