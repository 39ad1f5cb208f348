package store

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestConcurrentWritersStress is the -race gate for the commit pipeline: 64
// writers spread across 4 metastores. It asserts the pipeline's core
// invariants:
//
//   - per-metastore versions are handed out contiguously — the sorted set of
//     versions returned to successful committers is exactly 1..K, so no
//     commit was lost and none was double-assigned;
//   - read-modify-write increments are serializable (a shared counter equals
//     the number of successful increments, i.e. pipelined commits observe
//     their predecessors' writes).
func TestConcurrentWritersStress(t *testing.T) {
	db, err := Open(Options{WALPath: filepath.Join(t.TempDir(), "wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const (
		metastores = 4
		writers    = 64 // 16 per metastore
		iters      = 25
	)
	msIDs := make([]string, metastores)
	for i := range msIDs {
		msIDs[i] = fmt.Sprintf("ms%d", i)
		if err := db.CreateMetastore(msIDs[i]); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	versions := make(map[string][]uint64) // metastore -> versions acked to committers
	increments := make(map[string]int)    // metastore -> successful counter bumps

	incr := func(tx *Tx) error {
		var n uint64
		if raw, ok := tx.Get("counters", "shared"); ok {
			fmt.Sscanf(string(raw), "%d", &n)
		}
		tx.Put("counters", "shared", []byte(fmt.Sprintf("%d", n+1)))
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ms := msIDs[w%metastores]
			for i := 0; i < iters; i++ {
				v, err := db.Update(ms, incr)
				if err != nil {
					t.Errorf("writer %d ms %s: %v", w, ms, err)
					return
				}
				mu.Lock()
				versions[ms] = append(versions[ms], v)
				increments[ms]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for _, ms := range msIDs {
		vs := versions[ms]
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		for i, v := range vs {
			if v != uint64(i+1) {
				t.Fatalf("ms %s: version sequence broken at index %d: got %d (versions must be exactly 1..%d)", ms, i, v, len(vs))
			}
		}
		final, err := db.Version(ms)
		if err != nil {
			t.Fatal(err)
		}
		if final != uint64(len(vs)) {
			t.Fatalf("ms %s: final version %d != %d acked commits", ms, final, len(vs))
		}
		snap, err := db.Snapshot(ms)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := snap.Get("counters", "shared")
		snap.Close()
		var n int
		fmt.Sscanf(string(raw), "%d", &n)
		if n != increments[ms] {
			t.Fatalf("ms %s: counter = %d, want %d (lost update)", ms, n, increments[ms])
		}
	}
}

// TestCrossMetastoreIndependence: without a WAL, commits must skip the
// group-commit queue entirely, so commit-latency sleeps in one metastore
// never delay another — and concurrent committers to the SAME metastore
// overlap their round trips too. 16 writers (8 per metastore) each pay one
// 25ms round trip; serialized that is 400ms, overlapped it is ~25ms.
func TestCrossMetastoreIndependence(t *testing.T) {
	const lat = 25 * time.Millisecond
	db, err := Open(Options{CommitLatency: lat})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, ms := range []string{"a", "b"} {
		if err := db.CreateMetastore(ms); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms := "a"
			if i%2 == 1 {
				ms = "b"
			}
			if _, err := db.Update(ms, func(tx *Tx) error {
				tx.Put("t", fmt.Sprintf("k%d", i), []byte("v"))
				return nil
			}); err != nil {
				t.Errorf("writer %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Generous bound: 6 round trips of slack for scheduler noise, still far
	// below the 400ms a serialized write path would need.
	if elapsed > 150*time.Millisecond {
		t.Fatalf("16 overlapping commits took %s; latency sleeps are being serialized", elapsed)
	}
	if st := db.WALStats(); st != (WALStats{}) {
		t.Fatalf("no-WAL database reported WAL activity: %+v", st)
	}
	for _, ms := range []string{"a", "b"} {
		if v, _ := db.Version(ms); v != 8 {
			t.Fatalf("ms %s version = %d, want 8", ms, v)
		}
	}
}
