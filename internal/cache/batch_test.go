package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"unitycatalog/internal/clock"
	"unitycatalog/internal/faults"
	"unitycatalog/internal/store"
)

// putN writes keys k000..k(n-1) with values v<i> through the database,
// behind the cache's back, and returns the keys.
func putN(t *testing.T, db *store.DB, n int) []string {
	t.Helper()
	keys := make([]string, n)
	if _, err := db.Update("m", func(tx *store.Tx) error {
		for i := range keys {
			keys[i] = fmt.Sprintf("k%03d", i)
			tx.Put("t", keys[i], []byte(fmt.Sprintf("v%d", i)))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return keys
}

func checkBatch(t *testing.T, got [][]byte, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("batch returned %d values, want %d", len(got), n)
	}
	for i, b := range got {
		if want := fmt.Sprintf("v%d", i); string(b) != want {
			t.Fatalf("value %d = %q, want %q", i, b, want)
		}
	}
}

// TestGetBatchFillsMissesInOneRoundTrip is the I/O gate of the batched miss
// fill: a cold batch costs one database read, however many keys it names,
// and the records it fetched are hits afterwards.
func TestGetBatchFillsMissesInOneRoundTrip(t *testing.T) {
	db := newDB(t)
	keys := putN(t, db, 100)
	c := New(db, Options{})
	c.Own("m")

	v, _ := c.NewView("m")
	defer v.Close()
	reads := db.ReadCount()
	checkBatch(t, v.GetBatch("t", keys), 100)
	if got := db.ReadCount() - reads; got != 1 {
		t.Fatalf("cold batch of 100 keys cost %d database reads, want 1", got)
	}
	if m := c.Metrics(); m.Misses != 100 || m.Hits != 0 {
		t.Fatalf("after the cold batch: %+v, want 100 misses and no hits", m)
	}

	// Mixed batch: 100 cached keys, one absent, in the caller's order.
	reads = db.ReadCount()
	got := v.GetBatch("t", append([]string{"absent"}, keys...))
	if got[0] != nil {
		t.Fatalf("absent key returned %q", got[0])
	}
	checkBatch(t, got[1:], 100)
	if n := db.ReadCount() - reads; n != 1 {
		t.Fatalf("batch with one miss cost %d database reads, want 1", n)
	}
	if m := c.Metrics(); m.Misses != 101 || m.Hits != 100 {
		t.Fatalf("after the warm batch: %+v, want 101 misses and 100 hits", m)
	}
}

// TestGetBatchNeverEvicts: a batch fill takes only free room. With the cache
// filled to its cap by point reads, cold batches naming three times the cap
// are served right, evict nothing and leave every point-read record a hit;
// a point miss still evicts as before.
func TestGetBatchNeverEvicts(t *testing.T) {
	const capacity = 64
	db := newDB(t)
	keys := putN(t, db, 4*capacity+1)
	c := New(db, Options{MaxEntriesPerMetastore: capacity})
	c.Own("m")
	for _, key := range keys[:capacity] {
		v, _ := c.NewView("m")
		v.Get("t", key)
		v.Close()
	}
	if n := c.EntryCount("m"); n != capacity {
		t.Fatalf("point reads cached %d records, want the cap %d", n, capacity)
	}
	before := c.Metrics()

	for lo := capacity; lo < 4*capacity; lo += 16 {
		v, _ := c.NewView("m")
		got := v.GetBatch("t", keys[lo:lo+16])
		v.Close()
		for j, b := range got {
			if want := fmt.Sprintf("v%d", lo+j); string(b) != want {
				t.Fatalf("batch value of %s = %q, want %q", keys[lo+j], b, want)
			}
		}
	}
	after := c.Metrics()
	if after.Evictions != before.Evictions {
		t.Fatalf("cold batches on a full cache evicted %d records", after.Evictions-before.Evictions)
	}
	if n := c.EntryCount("m"); n != capacity {
		t.Fatalf("the cache holds %d records after the batches, want %d", n, capacity)
	}
	v, _ := c.NewView("m")
	for _, key := range keys[:capacity] {
		v.Get("t", key)
	}
	v.Close()
	if m := c.Metrics(); m.Hits-after.Hits != capacity || m.Misses != after.Misses {
		t.Fatalf("re-reading the point-read records: %d hits, %d misses; want %d hits", m.Hits-after.Hits, m.Misses-after.Misses, capacity)
	}

	v, _ = c.NewView("m")
	v.Get("t", keys[4*capacity])
	v.Close()
	if m := c.Metrics(); m.Evictions != after.Evictions+1 {
		t.Fatalf("a point miss on a full cache evicted %d records, want 1", m.Evictions-after.Evictions)
	}
}

// TestGetBatchDoesNotCacheBehindKnownVersion: a view pinned before another
// commit must read its own snapshot and leave the cache alone — an insert at
// the old version could be served to a reader at the newer known version.
func TestGetBatchDoesNotCacheBehindKnownVersion(t *testing.T) {
	db := newDB(t)
	keys := putN(t, db, 10)
	c := New(db, Options{})
	c.Own("m")

	old, _ := c.NewView("m")
	defer old.Close()
	old.Get("t", "pin") // pins the view at the current version
	if _, err := c.Update("m", func(tx *store.Tx) error {
		tx.Put("t", keys[0], []byte("newer"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	before := c.EntryCount("m")
	checkBatch(t, old.GetBatch("t", keys), 10) // old snapshot: still v0
	if after := c.EntryCount("m"); after != before {
		t.Fatalf("a view behind the known version cached %d records", after-before)
	}

	fresh, _ := c.NewView("m")
	defer fresh.Close()
	if got := fresh.GetBatch("t", keys[:1]); string(got[0]) != "newer" {
		t.Fatalf("fresh view read %q, want the write-through value", got[0])
	}
}

// TestGetBatchDegradedPerKey: during an outage every missed key of a batch
// takes the degraded path on its own — cached ones are served stale, the
// rest come back nil with the backend error recorded on the view.
func TestGetBatchDegradedPerKey(t *testing.T) {
	db := newDB(t)
	c := New(db, Options{Clock: clock.NewFake(time.Unix(1000, 0)), MaxStaleness: time.Minute})
	c.Own("m")

	a, _ := c.NewView("m")
	defer a.Close()
	a.Get("t", "pin") // pin at the initial version
	keys := putN(t, db, 4)
	b, _ := c.NewView("m")
	checkBatch(t, b.GetBatch("t", keys[:2]), 2) // cached at the newer version only
	b.Close()

	outage(db)
	got := a.GetBatch("t", keys)
	if string(got[0]) != "v0" || string(got[1]) != "v1" {
		t.Fatalf("cached keys during the outage = %q %q, want stale serves", got[0], got[1])
	}
	if got[2] != nil || got[3] != nil {
		t.Fatalf("uncached keys served during the outage: %q %q", got[2], got[3])
	}
	if m := c.Metrics(); m.DegradedReads != 2 || m.DegradedMisses != 2 || m.Outages != 1 {
		t.Fatalf("metrics after the degraded batch: %+v", m)
	}
	if err := a.Err(); !faults.Is(err, faults.Unavailable) {
		t.Fatalf("view error = %v, want the unavailable fault", err)
	}
}

// TestGetOneOfCachesOnlyTheLiveKey is GetOneOf's I/O gate: a cold list costs
// one database read and caches the live key alone, a warm one costs none, and
// a list with no live key costs one read and caches nothing.
func TestGetOneOfCachesOnlyTheLiveKey(t *testing.T) {
	db := newDB(t)
	if _, err := db.Update("m", func(tx *store.Tx) error {
		tx.Put("t", "a/b", []byte("ab"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c := New(db, Options{})
	c.Own("m")
	prefixes := []string{"a", "a/b", "a/b/c", "a/b/c/d"}
	for round, wantReads := range []int64{1, 0} {
		v, _ := c.NewView("m")
		reads := db.ReadCount()
		if i, val := v.GetOneOf("t", prefixes); i != 1 || string(val) != "ab" {
			t.Fatalf("round %d: GetOneOf = %d, %q; want 1, \"ab\"", round, i, val)
		}
		v.Close()
		if n := db.ReadCount() - reads; n != wantReads {
			t.Fatalf("round %d cost %d database reads, want %d", round, n, wantReads)
		}
		if n := c.EntryCount("m"); n != 1 {
			t.Fatalf("round %d: the cache holds %d records, want the live key alone", round, n)
		}
	}
	v, _ := c.NewView("m")
	defer v.Close()
	reads := db.ReadCount()
	if i, val := v.GetOneOf("t", []string{"x", "x/y", "x/y/z"}); i != -1 || val != nil {
		t.Fatalf("GetOneOf of absent keys = %d, %q", i, val)
	}
	if n := db.ReadCount() - reads; n != 1 {
		t.Fatalf("a list of absent keys cost %d database reads, want 1", n)
	}
	if n := c.EntryCount("m"); n != 1 {
		t.Fatalf("absent keys left %d records in the cache", n-1)
	}
}

// TestGetOneOfAtTheViewsVersion: the live key is the one at the view's
// version. A commit that moves it leaves a view pinned before it answering
// with the old key (from the cache, or, during an outage, from what is
// cached), and a fresh view with the new one.
func TestGetOneOfAtTheViewsVersion(t *testing.T) {
	db := newDB(t)
	c := New(db, Options{Clock: clock.NewFake(time.Unix(1000, 0)), MaxStaleness: time.Minute})
	c.Own("m")
	prefixes := []string{"a", "a/b", "a/b/c"}
	if _, err := c.Update("m", func(tx *store.Tx) error {
		tx.Put("t", "a/b", []byte("ab"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	old, _ := c.NewView("m")
	defer old.Close()
	old.Get("t", "pin") // pins the view at this version
	if _, err := c.Update("m", func(tx *store.Tx) error {
		tx.Delete("t", "a/b")
		tx.Put("t", "a/b/c", []byte("abc"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	fresh, _ := c.NewView("m")
	if i, val := fresh.GetOneOf("t", prefixes); i != 2 || string(val) != "abc" {
		t.Fatalf("fresh view: GetOneOf = %d, %q; want 2, \"abc\"", i, val)
	}
	fresh.Close()
	if i, val := old.GetOneOf("t", prefixes); i != 1 || string(val) != "ab" {
		t.Fatalf("view pinned before the move: GetOneOf = %d, %q; want 1, \"ab\"", i, val)
	}

	// During an outage a key not cached at the view's version is served from
	// its newest cached version, and a list with none cached fails closed.
	behind, _ := c.NewView("m")
	defer behind.Close()
	behind.Get("t", "pin")
	if _, err := c.Update("m", func(tx *store.Tx) error {
		tx.Put("t", "x/y", []byte("xy"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	outage(db)
	if i, val := behind.GetOneOf("t", []string{"x", "x/y"}); i != 1 || string(val) != "xy" {
		t.Fatalf("during the outage: GetOneOf = %d, %q; want the cached key", i, val)
	}
	if i, _ := behind.GetOneOf("t", []string{"q", "q/r"}); i != -1 {
		t.Fatalf("during the outage: GetOneOf of uncached keys = %d", i)
	}
	if err := behind.Err(); !faults.Is(err, faults.Unavailable) {
		t.Fatalf("view error = %v, want the unavailable fault", err)
	}
}

// TestGetOneOfConcurrentWithWriters: a writer moves the one live key of a
// list to another key at every commit, with the cache evicting constantly,
// while readers ask for it. Every answer must be the one key live at some
// version, with that version's value: generation g is key g mod 4, "g<g>".
func TestGetOneOfConcurrentWithWriters(t *testing.T) {
	const gens = 60
	db, err := store.Open(store.Options{MaxVersionsPerRecord: gens + 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateMetastore("m")
	c := New(db, Options{MaxEntriesPerMetastore: 2})
	c.Own("m")
	keys := []string{"p", "p/a", "p/a/b", "p/a/b/c"}
	write := func(gen int) {
		if _, err := c.Update("m", func(tx *store.Tx) error {
			if gen > 0 {
				tx.Delete("t", keys[(gen-1)%len(keys)])
			}
			tx.Put("t", keys[gen%len(keys)], []byte(fmt.Sprintf("g%d", gen)))
			return nil
		}); err != nil {
			t.Error(err)
		}
	}
	write(0)

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
				i, val := v.GetOneOf("t", keys)
				v.Close()
				var gen int
				if _, err := fmt.Sscanf(string(val), "g%d", &gen); err != nil || i != gen%len(keys) {
					t.Errorf("GetOneOf = %d, %q: not the live key of any version", i, val)
					return
				}
			}
		}()
	}
	for gen := 1; gen <= gens; gen++ {
		write(gen)
	}
	close(stop)
	wg.Wait()
}

// TestGetBatchConcurrentWithWriters runs batches against a writer under the
// race detector: every batch must observe one snapshot (all values from the
// same generation), whatever the cache holds. The store keeps more versions
// than the writer makes, so no view can outlive its history.
func TestGetBatchConcurrentWithWriters(t *testing.T) {
	const gens = 50
	db, err := store.Open(store.Options{MaxVersionsPerRecord: gens + 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateMetastore("m")
	c := New(db, Options{MaxEntriesPerMetastore: 8}) // evict constantly
	c.Own("m")
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	write := func(gen int) {
		if _, err := c.Update("m", func(tx *store.Tx) error {
			for _, k := range keys {
				tx.Put("t", k, []byte(fmt.Sprintf("g%d", gen)))
			}
			return nil
		}); err != nil {
			t.Error(err)
		}
	}
	write(0)

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
				got := v.GetBatch("t", keys)
				v.Close()
				for i := range got {
					if string(got[i]) != string(got[0]) || got[i] == nil {
						t.Errorf("torn batch: key %d = %q, key 0 = %q", i, got[i], got[0])
						return
					}
				}
			}
		}()
	}
	for gen := 1; gen <= gens; gen++ {
		write(gen)
	}
	close(stop)
	wg.Wait()
}
