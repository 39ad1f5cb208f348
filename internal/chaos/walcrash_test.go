package chaos

import (
	"encoding/binary"
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
//     only by commits >V exists — nothing lost, duplicated, or reordered;
//   - the restart goes on: two more commits, close, reopen, and the state is
//     that prefix and the two (Open cuts the torn tail off the log before the
//     writer appends; it used to append behind it, and the next Open failed).
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

	// Seeded truncation points plus the endpoints and a few offsets just
	// around a frame's end (the most interesting crash positions).
	rng := rand.New(rand.NewSource(20250805))
	points := map[int]bool{0: true, len(data): true}
	for i := 0; i < 40; i++ {
		points[rng.Intn(len(data)+1)] = true
	}
	for end := 0; end < len(data); {
		// An entry is a frame: a magic byte, its payload's length, a checksum.
		end += 9 + int(binary.LittleEndian.Uint32(data[end+1:end+5]))
		if rng.Intn(4) == 0 {
			points[end-1] = true // the frame's last byte not yet written
			points[end] = true   // frame fully durable
		}
	}
	var sorted []int
	for p := range points {
		sorted = append(sorted, p)
	}
	sort.Ints(sorted)

	// checkPrefix holds db to a clean prefix of the history, plus the keys
	// of extra, and returns each surviving metastore's version.
	checkPrefix := func(rdb *store.DB, where string, extra map[string][]string) map[string]uint64 {
		versions := map[string]uint64{}
		for _, ms := range msIDs {
			v, err := rdb.Version(ms)
			if err != nil {
				// The create_metastore entry itself may be beyond the
				// truncation point.
				continue
			}
			versions[ms] = v
			v -= uint64(len(extra[ms]))
			snap, err := rdb.Snapshot(ms)
			if err != nil {
				t.Fatalf("%s: snapshot %s: %v", where, ms, err)
			}
			recovered := make(map[string]bool)
			for _, kv := range snap.Scan("t", "") {
				if string(kv.Value) != kv.Key {
					t.Fatalf("%s: ms %s key %q holds %q (torn write)", where, ms, kv.Key, kv.Value)
				}
				recovered[kv.Key] = true
			}
			snap.Close()
			// Clean prefix: exactly the keys of commits 1..v, nothing else.
			for cv, key := range history[ms] {
				if cv <= v && !recovered[key] {
					t.Fatalf("%s: ms %s lost commit %d (key %q) despite version %d", where, ms, cv, key, v)
				}
				if cv > v && recovered[key] {
					t.Fatalf("%s: ms %s has commit %d's key %q but version is only %d", where, ms, cv, key, v)
				}
				delete(recovered, key)
			}
			for _, key := range extra[ms] {
				if !recovered[key] {
					t.Fatalf("%s: ms %s lost %q, committed after the restart", where, ms, key)
				}
				delete(recovered, key)
			}
			if len(recovered) != 0 {
				t.Fatalf("%s: ms %s has %d keys no acked commit wrote: %v", where, ms, len(recovered), recovered)
			}
		}
		return versions
	}

	truncPath := filepath.Join(dir, "trunc.wal")
	for _, p := range sorted {
		if err := os.WriteFile(truncPath, data[:p], 0o644); err != nil {
			t.Fatal(err)
		}
		rdb, err := store.Open(store.Options{WALPath: truncPath})
		if err != nil {
			t.Fatalf("truncate at %d/%d: replay failed: %v", p, len(data), err)
		}
		recovered := checkPrefix(rdb, fmt.Sprintf("truncate at %d", p), nil)
		// The restart goes on: two commits to every metastore that survived.
		extra := map[string][]string{}
		for _, ms := range msIDs {
			if _, ok := recovered[ms]; !ok {
				continue
			}
			for i := 0; i < 2; i++ {
				key := fmt.Sprintf("after-%d-%d", p, i)
				if _, err := rdb.Update(ms, func(tx *store.Tx) error { tx.Put("t", key, []byte(key)); return nil }); err != nil {
					t.Fatalf("truncate at %d: commit after restart: %v", p, err)
				}
				extra[ms] = append(extra[ms], key)
			}
		}
		if err := rdb.Close(); err != nil {
			t.Fatal(err)
		}
		rdb, err = store.Open(store.Options{WALPath: truncPath})
		if err != nil {
			t.Fatalf("truncate at %d/%d: reopen after two more commits: %v", p, len(data), err)
		}
		for ms, v := range checkPrefix(rdb, fmt.Sprintf("truncate at %d, restarted", p), extra) {
			if want := recovered[ms] + uint64(len(extra[ms])); v != want {
				t.Fatalf("truncate at %d: ms %s is at version %d after the restart's commits, want %d", p, ms, v, want)
			}
		}
		rdb.Close()
	}

	checkNoGoroutineLeak(t, before)
}
