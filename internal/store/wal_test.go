package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"unitycatalog/internal/obs"
)

// TestWALErrorFailsCommit: a WAL write error must fail the committing
// transaction (the seed silently dropped it and let the commit become
// visible without being durable), must leave the state and version
// untouched, and must poison the write path so no later commit can build on
// sequenced-but-never-durable writes.
func TestWALErrorFailsCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateMetastore("m")
	if _, err := db.Update("m", func(tx *Tx) error { tx.Put("t", "good", []byte("v")); return nil }); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk gone")
	db.wal.testInjectErr.Store(&walFailure{err: boom})
	if _, err := db.Update("m", func(tx *Tx) error { tx.Put("t", "bad", []byte("v")); return nil }); !errors.Is(err, boom) {
		t.Fatalf("commit after WAL error = %v, want %v", err, boom)
	}

	// The failed write is invisible and the version did not advance.
	if v, _ := db.Version("m"); v != 1 {
		t.Fatalf("version after failed commit = %d, want 1", v)
	}
	snap, _ := db.Snapshot("m")
	if _, ok := snap.Get("t", "bad"); ok {
		t.Fatal("failed commit must not be visible")
	}
	if got, _ := snap.Get("t", "good"); string(got) != "v" {
		t.Fatalf("durable commit lost: %q", got)
	}
	snap.Close()

	// The dropped commit was sequenced as version 2, which will never apply:
	// a CAS loser waiting for it is released with the failure, not parked.
	if _, err := db.AwaitApplied("m", 2); !errors.Is(err, boom) {
		t.Fatalf("AwaitApplied(dropped version) = %v, want %v", err, boom)
	}
	if waited, err := db.AwaitApplied("m", 1); waited || err != nil {
		t.Fatalf("AwaitApplied(applied version) = %v, %v", waited, err)
	}

	// The failure is sticky: the write path is poisoned...
	if _, err := db.Update("m", func(tx *Tx) error { tx.Put("t", "later", []byte("v")); return nil }); !errors.Is(err, boom) {
		t.Fatalf("commit after sticky failure = %v, want %v", err, boom)
	}
	// ...but reads still work.
	snap2, _ := db.Snapshot("m")
	if _, ok := snap2.Get("t", "good"); !ok {
		t.Fatal("reads must survive a poisoned write path")
	}
	snap2.Close()

	// Close surfaces the failure, and replay recovers the durable prefix.
	if err := db.Close(); !errors.Is(err, boom) {
		t.Fatalf("close = %v, want %v", err, boom)
	}
	db2, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, _ := db2.Version("m"); v != 1 {
		t.Fatalf("replayed version = %d, want 1", v)
	}
}

// TestWALGroupCommitBatches drives concurrent committers through the WAL
// and requires that they actually shared batches (MaxBatch > 1), that every
// commit landed in the log, and that replay reproduces the final state.
func TestWALGroupCommitBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	// A small commit latency widens the batch window: while one batch pays
	// its round trip, the other writers queue up behind it.
	db, err := Open(Options{WALPath: path, CommitLatency: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateMetastore("m")

	const writers, each = 16, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if _, err := db.Update("m", func(tx *Tx) error {
					tx.Put("t", key, []byte("v"))
					return nil
				}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := db.WALStats()
	if st.MaxBatch <= 1 {
		t.Errorf("MaxBatch = %d, want > 1 (no group commit happened)", st.MaxBatch)
	}
	if want := int64(writers*each + 1); st.Entries != want { // +1 create_metastore
		t.Errorf("Entries = %d, want %d", st.Entries, want)
	}
	if st.Batches >= st.Entries {
		t.Errorf("Batches = %d >= Entries = %d: nothing was batched", st.Batches, st.Entries)
	}
	if st.Syncs == 0 {
		t.Error("Syncs = 0: default SyncBatch policy never fsynced")
	}
	wantV := uint64(writers * each)
	if v, _ := db.Version("m"); v != wantV {
		t.Fatalf("version = %d, want %d", v, wantV)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, _ := db2.Version("m"); v != wantV {
		t.Fatalf("replayed version = %d, want %d", v, wantV)
	}
	snap, _ := db2.Snapshot("m")
	defer snap.Close()
	if n := snap.Count("t", ""); n != writers*each {
		t.Fatalf("replayed keys = %d, want %d", n, writers*each)
	}
}

// TestSyncPolicies checks the fsync accounting of each policy and the
// string round trip.
func TestSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy SyncPolicy
		name   string
	}{{SyncBatch, "batch"}, {SyncNever, "never"}, {SyncAlways, "always"}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.policy.String() != tc.name {
				t.Fatalf("String() = %q, want %q", tc.policy.String(), tc.name)
			}
			if p, err := ParseSyncPolicy(tc.name); err != nil || p != tc.policy {
				t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.name, p, err)
			}
			db, err := Open(Options{WALPath: filepath.Join(t.TempDir(), "wal"), Sync: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			db.CreateMetastore("m")
			const commits = 5
			for i := 0; i < commits; i++ {
				if _, err := db.Update("m", func(tx *Tx) error {
					tx.Put("t", fmt.Sprintf("k%d", i), []byte("v"))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			st := db.WALStats()
			switch tc.policy {
			case SyncNever:
				if st.Syncs != 0 {
					t.Errorf("SyncNever synced %d times", st.Syncs)
				}
			case SyncBatch:
				if st.Syncs == 0 || st.Syncs > st.Batches {
					t.Errorf("SyncBatch: syncs = %d, batches = %d (want one sync per batch)", st.Syncs, st.Batches)
				}
			case SyncAlways:
				if st.Syncs != st.Entries {
					t.Errorf("SyncAlways: syncs = %d, entries = %d (want one sync per entry)", st.Syncs, st.Entries)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Error("ParseSyncPolicy should reject unknown policies")
	}
	if p, err := ParseSyncPolicy(""); err != nil || p != SyncBatch {
		t.Errorf("empty policy should default to batch, got %v, %v", p, err)
	}
}

// TestWALTornBatchReplayEveryByte is the crash-consistency sweep: it builds
// a WAL of several multi-write commits, then for EVERY byte length L
// truncates the log to its first L bytes, replays, and asserts the
// recovered database is exactly the longest clean prefix of commits — no
// torn commit applied, no commit skipped, no reordering.
func TestWALTornBatchReplayEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.jsonl")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateMetastore("m")

	// A varied commit history: multi-key writes, overwrites, a delete.
	muts := []func(tx *Tx) error{
		func(tx *Tx) error { tx.Put("t", "a", []byte("a1")); tx.Put("t", "b", []byte("b1")); return nil },
		func(tx *Tx) error { tx.Put("t", "c", []byte("c1")); return nil },
		func(tx *Tx) error { tx.Put("t", "a", []byte("a2")); tx.Delete("t", "b"); return nil },
		func(tx *Tx) error { tx.Put("u", "x", []byte("x1")); tx.Put("t", "d", []byte("d1")); return nil },
		func(tx *Tx) error { tx.Delete("t", "c"); tx.Put("t", "e", []byte("e1")); return nil },
	}
	// expect[v] is the full (table, key) → value state after commit v.
	expect := make([]map[string]string, len(muts)+1)
	expect[0] = map[string]string{}
	dump := func() map[string]string {
		out := map[string]string{}
		snap, err := db.Snapshot("m")
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		for _, table := range []string{"t", "u"} {
			for _, kv := range snap.Scan(table, "") {
				out[table+"/"+kv.Key] = string(kv.Value)
			}
		}
		return out
	}
	for i, fn := range muts {
		if v, err := db.Update("m", fn); err != nil || v != uint64(i+1) {
			t.Fatalf("commit %d: v=%d err=%v", i, v, err)
		}
		expect[i+1] = dump()
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// lineEnd[i] = byte offset just past line i's JSON (before its '\n');
	// line 0 is create_metastore, lines 1..5 are the commits.
	var lineEnds []int
	for off, rest := 0, string(data); ; {
		nl := strings.IndexByte(rest, '\n')
		if nl < 0 {
			break
		}
		lineEnds = append(lineEnds, off+nl)
		off += nl + 1
		rest = rest[nl+1:]
	}
	if len(lineEnds) != len(muts)+1 {
		t.Fatalf("wal has %d lines, want %d", len(lineEnds), len(muts)+1)
	}

	for l := 0; l <= len(data); l++ {
		trunc := filepath.Join(dir, fmt.Sprintf("trunc-%d.jsonl", l%2)) // reuse two names
		if err := os.WriteFile(trunc, data[:l], 0o644); err != nil {
			t.Fatal(err)
		}
		// How many lines are fully contained in the prefix? A line is
		// recoverable once all of its JSON is present (the trailing
		// newline itself is not required).
		lines := 0
		for _, e := range lineEnds {
			if l >= e {
				lines++
			}
		}
		rdb, err := Open(Options{WALPath: trunc})
		if err != nil {
			t.Fatalf("truncate at %d: replay failed: %v", l, err)
		}
		if lines == 0 {
			// Not even create_metastore survived.
			if got := rdb.Metastores(); len(got) != 0 {
				t.Fatalf("truncate at %d: metastores = %v, want none", l, got)
			}
			rdb.Close()
			continue
		}
		commits := lines - 1
		v, err := rdb.Version("m")
		if err != nil {
			t.Fatalf("truncate at %d: %v", l, err)
		}
		if v != uint64(commits) {
			t.Fatalf("truncate at %d: version = %d, want %d", l, v, commits)
		}
		snap, _ := rdb.Snapshot("m")
		got := map[string]string{}
		for _, table := range []string{"t", "u"} {
			for _, kv := range snap.Scan(table, "") {
				got[table+"/"+kv.Key] = string(kv.Value)
			}
		}
		snap.Close()
		want := expect[commits]
		if len(got) != len(want) {
			t.Fatalf("truncate at %d (prefix of %d commits): state = %v, want %v", l, commits, got, want)
		}
		for k, wv := range want {
			if got[k] != wv {
				t.Fatalf("truncate at %d: %s = %q, want %q", l, k, got[k], wv)
			}
		}
		rdb.Close()
	}
}

// TestWALReplayRejectsReorderedCommits: replay must refuse a log whose
// per-metastore versions are not contiguous — group commit guarantees
// enqueue order equals version order, so a reordered log means damage.
func TestWALReplayRejectsReorderedCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, _ := Open(Options{WALPath: path})
	db.CreateMetastore("m")
	db.Update("m", func(tx *Tx) error { tx.Put("t", "k1", []byte("v")); return nil })
	db.Update("m", func(tx *Tx) error { tx.Put("t", "k2", []byte("v")); return nil })
	db.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 3 {
		t.Fatalf("unexpected wal shape: %q", data)
	}
	// Swap the two commit lines.
	reordered := lines[0] + lines[2] + lines[1]
	if err := os.WriteFile(path, []byte(reordered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{WALPath: path}); err == nil {
		t.Fatal("reordered commit versions should fail replay")
	}
}

// TestWALEntryOfAnySizeReplays: the writer accepts an entry of any size, so
// replay must read one of any size. A commit of a 20-MiB value (27 MiB on
// the log) is acknowledged, and the store must open again and return it. The
// writer hands such an entry to the file as it is, without a copy of its own.
func TestWALEntryOfAnySizeReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateMetastore("m")
	big := make([]byte, 20<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	put := func(key string, v []byte) {
		t.Helper()
		if _, err := db.Update("m", func(tx *Tx) error { tx.Put("t", key, v); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("before", []byte("a"))
	put("big", big)
	// The writer published its buffer before it acknowledged the commit.
	if c := cap(db.wal.buf); c > walBufMax {
		t.Fatalf("the writer holds a %d-byte buffer after one large commit: it copied the entry", c)
	}
	put("after", []byte("z"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatalf("re-open after an acknowledged 20-MiB commit: %v", err)
	}
	defer db2.Close()
	snap, _ := db2.Snapshot("m")
	defer snap.Close()
	if got, ok := snap.Get("t", "big"); !ok || !bytes.Equal(got, big) {
		t.Fatalf("the 20-MiB value came back as %d bytes (found: %v)", len(got), ok)
	}
	for k, want := range map[string]string{"before": "a", "after": "z"} {
		if got, _ := snap.Get("t", k); string(got) != want {
			t.Fatalf("%s = %q, want %q", k, got, want)
		}
	}
}

// TestWALBatchOutgrowsBuffer: the writer's buffer starts empty and grows to
// the largest batch it has written. Every batch larger than the buffer it
// finds — single commits of growing size, then concurrent commits that share
// batches — is written whole and replays, under each sync policy.
func TestWALBatchOutgrowsBuffer(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncBatch, SyncAlways, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.jsonl")
			db, err := Open(Options{WALPath: path, Sync: policy, CommitLatency: 200 * time.Microsecond})
			if err != nil {
				t.Fatal(err)
			}
			db.CreateMetastore("m")
			want := map[string][]byte{}
			var mu sync.Mutex
			put := func(key string, size int) {
				v := bytes.Repeat([]byte{byte(size)}, size)
				if _, err := db.Update("m", func(tx *Tx) error { tx.Put("t", key, v); return nil }); err != nil {
					t.Error(err)
				}
				mu.Lock()
				want[key] = v
				mu.Unlock()
			}
			for i, size := range []int{1, 100, 10, 5_000, 50, 70_000, 3} {
				before := cap(db.wal.buf)
				put(fmt.Sprint("single-", i), size)
				if after := cap(db.wal.buf); after < size || after < before {
					t.Fatalf("buffer of %d bytes after a %d-byte commit (was %d)", after, size, before)
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 6; i++ {
						put(fmt.Sprintf("w%d-%d", w, i), 20_000+1_000*w+i)
					}
				}(w)
			}
			wg.Wait()
			st := db.WALStats()
			if st.MaxBatch <= 1 {
				t.Logf("no two commits shared a batch (MaxBatch %d)", st.MaxBatch)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if c := int64(cap(db.wal.buf)); c > fi.Size() || c > 2*walBufMax {
				t.Fatalf("a %d-byte buffer for a %d-byte log", c, fi.Size())
			}

			db2, err := Open(Options{WALPath: path})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			snap, _ := db2.Snapshot("m")
			defer snap.Close()
			if n := snap.Count("t", ""); n != len(want) {
				t.Fatalf("replayed %d keys, want %d", n, len(want))
			}
			for k, v := range want {
				if got, _ := snap.Get("t", k); !bytes.Equal(got, v) {
					t.Fatalf("%s replayed as %d bytes, want %d", k, len(got), len(v))
				}
			}
		})
	}
}

// TestWALBatchPastBufMax: a batch of more bytes than walBufMax takes several
// Writes, and an entry longer than walBufMax goes to the file uncopied; the
// log is the batch's lines in order all the same.
func TestWALBatchPastBufMax(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncNever, SyncAlways} {
		f, err := os.Create(filepath.Join(t.TempDir(), "wal.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w := &walWriter{f: f, policy: policy, fsyncNs: obs.NewLatencyHistogram()}
		var batch []*walReq
		var want []byte
		for i, size := range []int{10, walBufMax * 2 / 3, walBufMax * 2 / 3, 20, 2 * walBufMax, 30, walBufMax, walBufMax + 1, 40} {
			r := newWALReq()
			r.enc = append(bytes.Repeat([]byte{'a' + byte(i)}, size-1), '\n')
			close(r.ready)
			batch = append(batch, r)
			want = append(want, r.enc...)
		}
		if err := w.writeBatch(batch); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the log is %d bytes, want the batch's %d in order", policy, len(got), len(want))
		}
		if c := cap(w.buf); c > 2*walBufMax {
			t.Fatalf("%s: a %d-byte buffer, want at most twice walBufMax", policy, c)
		}
	}
}
