package cache

import (
	"fmt"
	"testing"
	"unsafe"

	"unitycatalog/internal/store"
)

// pointMissAllocs is what a point miss costs on a full cache: the snapshot it
// reads at the view's version, the coalescing flight and its channel, and the
// record it inserts, one object with its version inline. The eviction that
// makes room allocates nothing. TestMissPathAllocs fails at 10 % over.
const pointMissAllocs = 4

// fullCache returns a cache capped at capacity, filled to it by point reads
// of the first capacity of n keys written behind its back.
func fullCache(t *testing.T, capacity, n int) (*Cache, []string) {
	t.Helper()
	db := newDB(t)
	keys := make([]string, n)
	if _, err := db.Update("m", func(tx *store.Tx) error {
		for i := range keys {
			keys[i] = fmt.Sprintf("k%05d", i)
			tx.Put("t", keys[i], []byte("v"))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c := New(db, Options{MaxEntriesPerMetastore: capacity})
	c.Own("m")
	v, _ := c.NewView("m")
	for _, key := range keys[:capacity] {
		v.Get("t", key)
	}
	v.Close()
	if got := c.EntryCount("m"); got != capacity {
		t.Fatalf("filled the cache to %d records, want %d", got, capacity)
	}
	return c, keys
}

// TestMissPathAllocs gates what the cache's miss path allocates once the
// cache is full: a point miss inserts one object and evicts, and a cold batch
// inserts nothing, so it costs the same at 10 keys as at 100.
func TestMissPathAllocs(t *testing.T) {
	if n := unsafe.Sizeof(cachedRecord{}); n != 128 {
		t.Errorf("a cached record is %d bytes, want 128 (its own fields and one inline version, exactly a malloc size class)", n)
	}
	const capacity = 512
	c, keys := fullCache(t, capacity, 8*capacity)

	// insertShardLocked's own share: a new record in a shard that holds as
	// many as before.
	m, _ := c.owner("m")
	i := 0
	insert := testing.AllocsPerRun(200, func() {
		rk := cacheKey{"t", keys[capacity+i]}
		i++
		sh := m.shardFor(rk)
		sh.mu.Lock()
		c.insertShardLocked(m, sh, rk, cachedVersion{version: 1}, false)
		delete(sh.records, rk)
		m.entries.Add(-1)
		sh.mu.Unlock()
	})

	v, _ := c.NewView("m")
	defer v.Close()
	next := capacity
	evictions := c.Metrics().Evictions
	point := testing.AllocsPerRun(200, func() {
		if _, ok := v.Get("t", keys[next]); !ok {
			t.Fatal("point miss found nothing")
		}
		next++
	})
	if got := c.Metrics().Evictions - evictions; got != int64(next-capacity) {
		t.Fatalf("%d point misses on a full cache evicted %d records", next-capacity, got)
	}

	batch := func(n int) float64 {
		lo := next
		return testing.AllocsPerRun(100, func() {
			if lo+n > len(keys) {
				lo = next
			}
			for _, b := range v.GetBatch("t", keys[lo:lo+n]) {
				if b == nil {
					t.Fatal("batch value missing")
				}
			}
			lo += n
		})
	}
	batch10, batch100 := batch(10), batch(100)

	t.Logf("insert of a new record: %.1f allocations; point miss on a full cache: %.1f (recorded %d); cold batch on a full cache: %.1f at 10 keys, %.1f at 100",
		insert, point, pointMissAllocs, batch10, batch100)
	if insert > 1 {
		t.Errorf("inserting a new record costs %.1f allocations, want 1", insert)
	}
	if point > 1.10*pointMissAllocs {
		t.Errorf("point miss on a full cache: %.1f allocations, more than 10 %% over the recorded %d", point, pointMissAllocs)
	}
	if batch10 != batch100 {
		t.Errorf("a cold batch on a full cache costs %.1f allocations at 10 keys and %.1f at 100: something is allocated per key", batch10, batch100)
	}
}

// TestViewScanAllocs: a view's prefix scan is one read of the store's ordered
// index at the view's version that keeps nothing: an empty prefix, or a table
// never written, allocates nothing, and a k-row prefix only its result, sized
// once to its rows.
func TestViewScanAllocs(t *testing.T) {
	const k = 20
	db := newDB(t)
	if _, err := db.Update("m", func(tx *store.Tx) error {
		for i := 0; i < k; i++ {
			tx.Put("t", fmt.Sprintf("a/%02d", i), []byte("v"))
		}
		tx.Put("t", "b", []byte("v"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c := New(db, Options{})
	c.Own("m")
	v, _ := c.NewView("m")
	defer v.Close()

	var rows []store.KV
	empty := testing.AllocsPerRun(100, func() { rows = v.Scan("t", "c/") })
	if rows != nil {
		t.Fatalf("an empty prefix scanned %v", rows)
	}
	absent := testing.AllocsPerRun(100, func() { rows = v.Scan("u", "") })
	prefix := testing.AllocsPerRun(100, func() { rows = v.Scan("t", "a/") })
	if len(rows) != k {
		t.Fatalf("a %d-row prefix scanned %d rows", k, len(rows))
	}
	t.Logf("view scan: empty prefix %.0f allocations, unwritten table %.0f, %d-row prefix %.0f", empty, absent, k, prefix)
	if empty != 0 || absent != 0 {
		t.Errorf("an empty scan costs %.0f allocations, of an unwritten table %.0f; want none", empty, absent)
	}
	if prefix != 1 {
		t.Errorf("a %d-row prefix costs %.0f allocations, want 1: its result", k, prefix)
	}
}

// TestWriteThroughAllocs: on a full cache, a write through it costs what the
// store's commit costs plus one object per installed write, the cache's
// record; the eviction that makes room allocates nothing. The write set the
// cache installs is the transaction's own, not a copy.
func TestWriteThroughAllocs(t *testing.T) {
	const runs, writes = 200, 3
	c, _ := fullCache(t, 512, 512)
	keys := make([]string, 2*(runs+1)*writes)
	for i := range keys {
		keys[i] = fmt.Sprintf("w%05d", i)
	}
	value := []byte("v")
	next := 0
	commit := func(tx *store.Tx) error {
		for i := 0; i < writes; i++ {
			tx.Put("t", keys[next], value)
			next++
		}
		return nil
	}
	// Fresh keys on both sides: the store inserts a record for each.
	storeOnly := testing.AllocsPerRun(runs, func() {
		if _, err := c.db.Update("m", commit); err != nil {
			t.Fatal(err)
		}
	})
	through := testing.AllocsPerRun(runs, func() {
		if _, err := c.Update("m", commit); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a %d-write commit: %.1f allocations in the store, %.1f through a full cache", writes, storeOnly, through)
	if through > storeOnly+writes {
		t.Errorf("a %d-write commit through a full cache costs %.1f allocations, want at most the store's %.1f + %d", writes, through, storeOnly, writes)
	}
}
