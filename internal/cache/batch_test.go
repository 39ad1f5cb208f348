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
