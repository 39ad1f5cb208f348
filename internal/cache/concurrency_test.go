package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"unitycatalog/internal/store"
)

// TestMissCoalescing verifies the singleflight in the miss path: a
// thundering herd of concurrent Gets on one cold key against a
// latency-injected database issues ~1 DB read instead of one per caller.
func TestMissCoalescing(t *testing.T) {
	db, err := store.Open(store.Options{ReadLatency: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateMetastore("m")
	db.Update("m", func(tx *store.Tx) error { tx.Put("t", "cold", []byte("v")); return nil })
	c := New(db, Options{})
	c.Own("m")

	base := db.ReadCount()
	const herd = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.NewView("m")
			if err != nil {
				t.Error(err)
				return
			}
			defer v.Close()
			<-start
			if got, ok := v.Get("t", "cold"); !ok || string(got) != "v" {
				t.Errorf("get = %q %v", got, ok)
			}
		}()
	}
	close(start)
	wg.Wait()

	delta := db.ReadCount() - base
	if delta > 3 {
		t.Fatalf("herd of %d caused %d DB reads, want ~1", herd, delta)
	}
	m := c.Metrics()
	if m.CoalescedMisses+m.Hits < herd-int64(delta) {
		t.Fatalf("herd not coalesced: reads=%d metrics=%+v", delta, m)
	}
}

// TestSingleflightRespectsSnapshotVersions pins two views on opposite sides
// of a foreign write and reads the same cold key through both concurrently:
// the flights are keyed by version, so each view must observe its own
// snapshot's value, and the stale leader must not pollute the cache.
func TestSingleflightRespectsSnapshotVersions(t *testing.T) {
	for round := 0; round < 20; round++ {
		db, err := store.Open(store.Options{ReadLatency: 200 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		db.CreateMetastore("m")
		db.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("old")); return nil })
		c := New(db, Options{})
		c.Own("m")

		// v1 pins at the pre-write version via a first-access miss.
		v1, _ := c.NewView("m")
		v1.Get("t", "warm-miss")
		oldVer := v1.Version()

		// A foreign writer advances the metastore.
		db.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("new")); return nil })

		// v2 is fresh: its first access reconciles and pins at the new version.
		v2, _ := c.NewView("m")

		var wg sync.WaitGroup
		var got1, got2 []byte
		wg.Add(2)
		go func() { defer wg.Done(); got1, _ = v1.Get("t", "k") }()
		go func() { defer wg.Done(); got2, _ = v2.Get("t", "k") }()
		wg.Wait()

		if string(got1) != "old" {
			t.Fatalf("round %d: view pinned at %d read %q, want old", round, oldVer, got1)
		}
		if string(got2) != "new" {
			t.Fatalf("round %d: fresh view read %q, want new", round, got2)
		}
		// The stale-version flight must not have polluted the cache: a
		// third, fresh view must see the new value.
		v3, _ := c.NewView("m")
		if got, _ := v3.Get("t", "k"); string(got) != "new" {
			t.Fatalf("round %d: cache polluted with stale value %q", round, got)
		}
		v1.Close()
		v2.Close()
		v3.Close()
		db.Close()
	}
}

// TestSharedViewSnapshotConsistency hammers ONE View from many goroutines
// while writers race the pin: every read through the view must observe the
// same value for the contended key, because the view's version is pinned
// exactly once. This is the stress test for the -race gate; it also fails
// on the pre-sharding implementation's lastUsed race.
func TestSharedViewSnapshotConsistency(t *testing.T) {
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateMetastore("m")
	c := New(db, Options{})
	c.Own("m")
	c.Update("m", func(tx *store.Tx) error {
		tx.Put("t", "counter", []byte("0"))
		for i := 0; i < 64; i++ {
			tx.Put("t", fmt.Sprintf("k%02d", i), []byte{byte(i)})
		}
		return nil
	})

	for round := 0; round < 10; round++ {
		v, err := c.NewView("m")
		if err != nil {
			t.Fatal(err)
		}
		const readers = 8
		results := make([][]byte, readers)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					// Interleave hits, misses, and scans on the shared view.
					v.Get("t", fmt.Sprintf("k%02d", (r*7+i)%64))
					v.Scan("t", "k0")
					got, ok := v.Get("t", "counter")
					if !ok {
						t.Error("counter vanished")
						return
					}
					results[r] = got
				}
			}(r)
		}
		// A concurrent writer races the view's pin.
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				c.Update("m", func(tx *store.Tx) error {
					tx.Put("t", "counter", []byte(fmt.Sprint(round*1000+i)))
					return nil
				})
			}
		}()
		close(start)
		wg.Wait()
		for r := 1; r < readers; r++ {
			if string(results[r]) != string(results[0]) {
				t.Fatalf("round %d: shared view served two snapshots: %q vs %q", round, results[0], results[r])
			}
		}
		v.Close()
	}
}

// TestConcurrentStress exercises every cache operation at once — per-
// goroutine views, shared views, write-through updates, foreign writes,
// refreshes, evictions, and metric reads — as a data-race net for the
// sharded implementation.
func TestConcurrentStress(t *testing.T) {
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateMetastore("m")
	c := New(db, Options{MaxEntriesPerMetastore: 64})
	c.Own("m")
	c.Update("m", func(tx *store.Tx) error {
		for i := 0; i < 128; i++ {
			tx.Put("t", fmt.Sprintf("k%03d", i), []byte{byte(i)})
		}
		return nil
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := r
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
				for j := 0; j < 8; j++ {
					v.Get("t", fmt.Sprintf("k%03d", (i*13+j)%128))
				}
				v.Scan("t", "k00")
				v.Close()
				i++
			}
		}(r)
	}
	wg.Add(1)
	go func() { // foreign writer: invalidations via reconcile
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.Update("m", func(tx *store.Tx) error {
				tx.Put("t", fmt.Sprintf("k%03d", i%128), []byte("f"))
				return nil
			})
			c.Refresh("m")
		}
	}()
	wg.Add(1)
	go func() { // metric and accounting readers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Metrics()
			c.EntryCount("m")
			c.KnownVersion("m")
		}
	}()
	for i := 0; i < 150; i++ {
		if _, err := c.Update("m", func(tx *store.Tx) error {
			tx.Put("t", fmt.Sprintf("k%03d", i%128), []byte(fmt.Sprint(i)))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Post-stress sanity: a fresh view observes the database's final state.
	c.Refresh("m")
	v, _ := c.NewView("m")
	defer v.Close()
	if _, ok := v.Get("t", "k000"); !ok {
		t.Fatal("key lost after stress")
	}
	if n := c.EntryCount("m"); n > 64+numShards {
		t.Fatalf("entry count %d far above cap", n)
	}
}
