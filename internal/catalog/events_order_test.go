package catalog

import (
	"fmt"
	"sync"
	"testing"

	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/events"
	"unitycatalog/internal/store"
)

// TestEventOrderUnderConcurrentWriters is the publish-ordering regression:
// with two service nodes committing concurrently to one metastore, a single
// subscription must observe versioned events (Version > 0) in
// non-decreasing version order with no version skipped or reordered, and
// every event must be published only after its commit is durable — the
// database version at receipt is always >= the event's version. Versions
// repeat only for multi-event commits (e.g. cascading deletes), never
// interleaved with another commit's events.
func TestEventOrderUnderConcurrentWriters(t *testing.T) {
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cloud := cloudsim.New()
	node1, _ := New(Config{DB: db, Cloud: cloud})
	if _, err := node1.CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1"); err != nil {
		t.Fatal(err)
	}
	node2, _ := New(Config{DB: db, Cloud: cloud})
	if _, err := node2.OpenMetastore("ms1"); err != nil {
		t.Fatal(err)
	}
	admin := Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
	if _, err := node1.CreateCatalog(admin, "c", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := node1.CreateSchema(admin, "c", "s", ""); err != nil {
		t.Fatal(err)
	}

	// Subscribe on node1 only: its hook publishes every commit on the
	// shared DB, including node2's. A large buffer keeps this test about
	// ordering, not drops.
	bus := events.NewBus(4096, 8192)
	sub := bus.Subscribe()
	type rcv struct {
		version uint64
		dbAtRcv uint64
	}
	var received []rcv
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for e := range sub.C {
			if e.Version == 0 {
				continue // out-of-band announcements carry no version
			}
			dbV, err := db.Version("ms1")
			if err != nil {
				t.Errorf("version: %v", err)
				return
			}
			received = append(received, rcv{version: e.Version, dbAtRcv: dbV})
		}
	}()
	db.AddCommitHook(func(msID string, v uint64, _ []store.Change, notes []any) {
		bus.Publish(events.Event{Metastore: msID, Version: v, Op: events.OpChange})
	})

	startV, err := db.Version("ms1")
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 6, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := node1
			if w%2 == 1 {
				node = node2
			}
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("t-w%d-%d", w, i)
				if _, err := node.CreateTable(admin, "c.s", name, TableSpec{Columns: cols("x")}, ""); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	endV, err := db.Version("ms1")
	if err != nil {
		t.Fatal(err)
	}
	sub.Cancel()
	rwg.Wait()
	if sub.Dropped() != 0 {
		t.Fatalf("subscription dropped %d events; buffer too small for the test", sub.Dropped())
	}

	want := endV - startV
	if uint64(len(received)) != want {
		t.Fatalf("received %d versioned events, want %d", len(received), want)
	}
	for i, r := range received {
		if wantV := startV + uint64(i) + 1; r.version != wantV {
			t.Fatalf("event %d: version %d, want %d (strictly ordered, no gaps)", i, r.version, wantV)
		}
		if r.dbAtRcv < r.version {
			t.Fatalf("event v%d received while db version was %d: published before durable", r.version, r.dbAtRcv)
		}
	}
}
