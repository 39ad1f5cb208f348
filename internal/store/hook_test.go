package store

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// TestCommitHookOrderAndContent proves the commit-hook contract under
// concurrent writers: every applied commit fires exactly one hook call, in
// strictly increasing version order per metastore, after the commit is
// visible, with the transaction's ordered change set and notes attached.
func TestCommitHookOrderAndContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateMetastore("ms1"); err != nil {
		t.Fatal(err)
	}

	type seen struct {
		version uint64
		key     string
		visible bool
		notes   []any
	}
	var mu sync.Mutex
	var calls []seen
	db.AddCommitHook(func(msID string, v uint64, changes []Change, notes []any) {
		if msID != "ms1" {
			t.Errorf("hook for unexpected metastore %q", msID)
		}
		if len(changes) != 1 {
			t.Errorf("v%d: want 1 change, got %d", v, len(changes))
		}
		if changes[0].Version != v || changes[0].Table != "tbl" || changes[0].Deleted {
			t.Errorf("v%d: change %+v is not the commit's write stamped with its version", v, changes[0])
		}
		// The commit must already be visible: a snapshot at v sees the write.
		visible := false
		if snap, err := db.SnapshotAt(msID, v); err == nil {
			_, visible = snap.Get("tbl", changes[0].Key)
			snap.Close()
		}
		mu.Lock()
		calls = append(calls, seen{version: v, key: changes[0].Key, visible: visible, notes: notes})
		mu.Unlock()
	})

	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	written := make(map[string]string) // key -> note it was annotated with
	var wmu sync.Mutex
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				note := "note:" + key
				_, err := db.Update("ms1", func(tx *Tx) error {
					tx.Put("tbl", key, []byte(key))
					tx.Annotate(note)
					return nil
				})
				if err != nil {
					t.Errorf("update %s: %v", key, err)
					return
				}
				wmu.Lock()
				written[key] = note
				wmu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if len(calls) != writers*perWriter {
		t.Fatalf("hook calls = %d, want %d", len(calls), writers*perWriter)
	}
	keys := make(map[string]bool)
	for i, c := range calls {
		if c.version != uint64(i+1) {
			t.Fatalf("call %d: version %d, want %d (strict per-metastore order)", i, c.version, i+1)
		}
		if !c.visible {
			t.Errorf("v%d: hook ran before the commit was visible", c.version)
		}
		if keys[c.key] {
			t.Errorf("key %s seen twice", c.key)
		}
		keys[c.key] = true
		if len(c.notes) != 1 || c.notes[0] != written[c.key] {
			t.Errorf("v%d: notes = %v, want [%s]", c.version, c.notes, written[c.key])
		}
	}
}

// TestCommitHookSkipsFailuresAndReplay: failed closures, read-only
// transactions, and WAL replay on reopen fire no hooks.
func TestCommitHookSkipsFailuresAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateMetastore("ms1"); err != nil {
		t.Fatal(err)
	}
	var fired int
	db.AddCommitHook(func(string, uint64, []Change, []any) { fired++ })

	if _, err := db.Update("ms1", func(tx *Tx) error {
		tx.Put("tbl", "k", []byte("v"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Failed closure: no hook.
	if _, err := db.Update("ms1", func(tx *Tx) error {
		tx.Put("tbl", "k2", []byte("v"))
		return fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("want closure error")
	}
	// Read-only transaction: no hook.
	if _, err := db.Update("ms1", func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("hooks fired = %d, want 1", fired)
	}
	db.Close()

	// Reopen replays the WAL; replayed commits are history, not new changes.
	db2, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	var replayFired int
	db2.AddCommitHook(func(string, uint64, []Change, []any) { replayFired++ })
	if v, err := db2.Version("ms1"); err != nil || v != 1 {
		t.Fatalf("replayed version = %d, %v", v, err)
	}
	if replayFired != 0 {
		t.Fatalf("hooks fired during replay = %d, want 0", replayFired)
	}
}
