package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"unitycatalog/internal/store"
)

// TestChaosWALGroupCommitCrashRecovery runs concurrent writers through the
// group-commit WAL, snapshots the log, then simulates crashes by truncating
// the snapshot at seeded random points (plus both endpoints) and replaying.
// Invariants per truncation point:
//
//   - replay succeeds (a torn batch tail is an expected crash artifact);
//   - the recovered database holds a clean per-metastore prefix of the
//     commit history: version V recovered means every key written by
//     commits 1..V is present with its final value, and no key written
//     only by commits >V exists — nothing lost, duplicated, or reordered.
func TestChaosWALGroupCommitCrashRecovery(t *testing.T) {
	before := runtime.NumGoroutine()

	dir := t.TempDir()
	walPath := filepath.Join(dir, "crash.wal")
	db, err := store.Open(store.Options{
		WALPath:       walPath,
		CommitLatency: 100 * time.Microsecond, // widens batches so truncation hits multi-commit batches
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		metastores = 2
		writers    = 12
		iters      = 10
	)
	msIDs := make([]string, metastores)
	for i := range msIDs {
		msIDs[i] = fmt.Sprintf("crash-ms%d", i)
		if err := db.CreateMetastore(msIDs[i]); err != nil {
			t.Fatal(err)
		}
	}

	// history[ms][v] records the key each acked commit wrote; commit v to
	// metastore ms writes key "v<v>" so prefix membership is checkable.
	var mu sync.Mutex
	history := make(map[string]map[uint64]string)
	for _, ms := range msIDs {
		history[ms] = make(map[uint64]string)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ms := msIDs[w%metastores]
			for i := 0; i < iters; i++ {
				var key string
				v, err := db.Update(ms, func(tx *store.Tx) error {
					// The assigned version is not known inside fn; write a
					// unique placeholder and record the mapping after the ack.
					key = fmt.Sprintf("w%d-i%d", w, i)
					tx.Put("t", key, []byte(key))
					return nil
				})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				mu.Lock()
				history[ms][v] = key
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := db.WALStats()
	if st.MaxBatch <= 1 {
		t.Logf("note: MaxBatch = %d (no multi-commit batch formed this run)", st.MaxBatch)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Seeded truncation points plus the endpoints and a few just-off-newline
	// offsets (the most interesting crash positions).
	rng := rand.New(rand.NewSource(20250805))
	points := map[int]bool{0: true, len(data): true}
	for i := 0; i < 40; i++ {
		points[rng.Intn(len(data)+1)] = true
	}
	for i, b := range data {
		if b == '\n' && rng.Intn(4) == 0 {
			points[i] = true   // newline not yet written
			points[i+1] = true // line fully durable
		}
	}
	var sorted []int
	for p := range points {
		sorted = append(sorted, p)
	}
	sort.Ints(sorted)

	truncPath := filepath.Join(dir, "trunc.wal")
	for _, p := range sorted {
		if err := os.WriteFile(truncPath, data[:p], 0o644); err != nil {
			t.Fatal(err)
		}
		rdb, err := store.Open(store.Options{WALPath: truncPath})
		if err != nil {
			t.Fatalf("truncate at %d/%d: replay failed: %v", p, len(data), err)
		}
		for _, ms := range msIDs {
			v, err := rdb.Version(ms)
			if err != nil {
				// The create_metastore entry itself may be beyond the
				// truncation point.
				continue
			}
			snap, err := rdb.Snapshot(ms)
			if err != nil {
				t.Fatalf("truncate at %d: snapshot %s: %v", p, ms, err)
			}
			recovered := make(map[string]bool)
			for _, kv := range snap.Scan("t", "") {
				if string(kv.Value) != kv.Key {
					t.Fatalf("truncate at %d: ms %s key %q holds %q (torn write)", p, ms, kv.Key, kv.Value)
				}
				recovered[kv.Key] = true
			}
			snap.Close()
			// Clean prefix: exactly the keys of commits 1..v, nothing else.
			for cv, key := range history[ms] {
				if cv <= v && !recovered[key] {
					t.Fatalf("truncate at %d: ms %s lost commit %d (key %q) despite version %d", p, ms, cv, key, v)
				}
				if cv > v && recovered[key] {
					t.Fatalf("truncate at %d: ms %s has commit %d's key %q but version is only %d", p, ms, cv, key, v)
				}
				delete(recovered, key)
			}
			if len(recovered) != 0 {
				t.Fatalf("truncate at %d: ms %s has %d keys no acked commit wrote: %v", p, ms, len(recovered), recovered)
			}
		}
		rdb.Close()
	}

	checkNoGoroutineLeak(t, before)
}
