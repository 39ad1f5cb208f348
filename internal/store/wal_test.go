package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// walFrames splits a log of frames into its frames.
func walFrames(t testing.TB, data []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(data) > 0 {
		if len(data) < walHeaderLen || data[0] != walMagic {
			t.Fatalf("not a frame at %d bytes from the end of the log: % x", len(data), data[:min(len(data), 12)])
		}
		n := walHeaderLen + int(binary.LittleEndian.Uint32(data[1:5]))
		frames = append(frames, data[:n])
		data = data[n:]
	}
	return frames
}

// walLine is the log's JSON line form, as it was written before frames: the
// tests' own encoder, so that replay is exercised on what an older log holds.
func walLine(t testing.TB, frame []byte) []byte {
	t.Helper()
	d := newWALDecoder()
	if err := d.decode(frame[walHeaderLen:]); err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(&d.entry)
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// walForms renders a log of frames in the three shapes a log file can have:
// frames, lines (written before frames), and a log upgraded in place — lines
// followed by frames. Each shape comes as its entries.
func walForms(t testing.TB, data []byte) map[string][][]byte {
	frames := walFrames(t, data)
	lines := make([][]byte, len(frames))
	mixed := make([][]byte, len(frames))
	for i, f := range frames {
		lines[i] = walLine(t, f)
		if mixed[i] = f; i < len(frames)/2 {
			mixed[i] = lines[i]
		}
	}
	return map[string][][]byte{"frames": frames, "lines": lines, "lines then frames": mixed}
}

// dumpTables returns the live (table/key → value) state of metastore ms.
func dumpTables(t testing.TB, db *DB, ms string, tables ...string) map[string]string {
	t.Helper()
	out := map[string]string{}
	snap, err := db.Snapshot(ms)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for _, table := range tables {
		for _, kv := range snap.Scan(table, "") {
			out[table+"/"+kv.Key] = string(kv.Value)
		}
	}
	return out
}

// TestWALTornBatchReplayEveryByte is the crash-consistency sweep: it builds
// a WAL of several multi-write commits, then — for the log as frames, as the
// lines written before frames, and as lines followed by frames — for EVERY byte
// length L truncates the log to its first L bytes, replays, and asserts the
// recovered database is exactly the longest clean prefix of commits — no
// torn commit applied, no commit skipped, no reordering — and that the file
// now ends at the last good entry. Then the restart goes on: two more commits,
// close, reopen, and the state is that prefix and the two. (Open used to
// leave the torn bytes in place and append behind them: the next Open failed
// with "corrupt wal entry mid-log".)
func TestWALTornBatchReplayEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateMetastore("m")

	// A varied commit history: multi-key writes, overwrites, a delete, and a
	// live value that is empty.
	muts := []func(tx *Tx) error{
		func(tx *Tx) error { tx.Put("t", "a", []byte("a1")); tx.Put("t", "b", []byte("b1")); return nil },
		func(tx *Tx) error { tx.Put("t", "c", []byte("c1")); return nil },
		func(tx *Tx) error { tx.Put("t", "a", []byte("a2")); tx.Delete("t", "b"); return nil },
		func(tx *Tx) error { tx.Put("u", "x", nil); tx.Put("t", "d", []byte("d1")); return nil },
		func(tx *Tx) error { tx.Delete("t", "c"); tx.Put("t", "e", []byte("e1")); return nil },
	}
	after := []func(tx *Tx) error{
		func(tx *Tx) error { tx.Put("t", "after1", []byte("1")); tx.Delete("t", "a"); return nil },
		func(tx *Tx) error { tx.Put("u", "after2", []byte("2")); return nil },
	}
	// expect[v] is the full (table, key) → value state after commit v.
	expect := make([]map[string]string, len(muts)+1)
	expect[0] = map[string]string{}
	for i, fn := range muts {
		if v, err := db.Update("m", fn); err != nil || v != uint64(i+1) {
			t.Fatalf("commit %d: v=%d err=%v", i, v, err)
		}
		expect[i+1] = dumpTables(t, db, "m", "t", "u")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for form, entries := range walForms(t, data) {
		// Entry 0 is create_metastore, entries 1..5 are the commits; an entry
		// is recovered once all of it is there, a line's newline included.
		if len(entries) != len(muts)+1 {
			t.Fatalf("%s: wal has %d entries, want %d", form, len(entries), len(muts)+1)
		}
		log := bytes.Join(entries, nil)
		var ends []int
		for _, e := range entries {
			ends = append(ends, len(e))
			if n := len(ends); n > 1 {
				ends[n-1] += ends[n-2]
			}
		}
		for l := 0; l <= len(log); l++ {
			trunc := filepath.Join(dir, "trunc")
			if err := os.WriteFile(trunc, log[:l], 0o644); err != nil {
				t.Fatal(err)
			}
			whole, goodEnd := 0, 0
			for _, e := range ends {
				if l >= e {
					whole, goodEnd = whole+1, e
				}
			}
			rdb, err := Open(Options{WALPath: trunc})
			if err != nil {
				t.Fatalf("%s: truncate at %d: replay failed: %v", form, l, err)
			}
			if fi, err := os.Stat(trunc); err != nil || fi.Size() != int64(goodEnd) || rdb.tailDropped.Load() != int64(l-goodEnd) {
				t.Fatalf("%s: truncate at %d: the log is %d bytes after Open (%d dropped), want it to end at the last good entry, %d", form, l, fi.Size(), rdb.tailDropped.Load(), goodEnd)
			}
			if rdb.replayed.Load() != int64(whole) {
				t.Fatalf("%s: truncate at %d: %d entries replayed, want %d", form, l, rdb.replayed.Load(), whole)
			}
			if whole == 0 {
				// Not even create_metastore survived.
				if got := rdb.Metastores(); len(got) != 0 {
					t.Fatalf("%s: truncate at %d: metastores = %v, want none", form, l, got)
				}
				rdb.Close()
				continue
			}
			commits := whole - 1
			if v, err := rdb.Version("m"); err != nil || v != uint64(commits) {
				t.Fatalf("%s: truncate at %d: version = %d, %v, want %d", form, l, v, err, commits)
			}
			if got := dumpTables(t, rdb, "m", "t", "u"); !reflect.DeepEqual(got, expect[commits]) {
				t.Fatalf("%s: truncate at %d (prefix of %d commits): state = %v, want %v", form, l, commits, got, expect[commits])
			}
			if commits >= 4 {
				// The empty value is live: nil would say absent to a batch read.
				snap, _ := rdb.Snapshot("m")
				if vals := snap.GetBatch("u", []string{"x"}); vals[0] == nil || len(vals[0]) != 0 {
					t.Fatalf("%s: truncate at %d: the empty value of u/x replayed as %v", form, l, vals[0])
				}
				snap.Close()
			}

			// The restart goes on.
			for _, fn := range after {
				if _, err := rdb.Update("m", fn); err != nil {
					t.Fatalf("%s: truncate at %d: commit after restart: %v", form, l, err)
				}
			}
			want := dumpTables(t, rdb, "m", "t", "u")
			if err := rdb.Close(); err != nil {
				t.Fatal(err)
			}
			rdb, err = Open(Options{WALPath: trunc})
			if err != nil {
				t.Fatalf("%s: truncate at %d: reopen after two more commits: %v", form, l, err)
			}
			if v, _ := rdb.Version("m"); v != uint64(commits+len(after)) {
				t.Fatalf("%s: truncate at %d: version after restart = %d, want %d", form, l, v, commits+len(after))
			}
			if got := dumpTables(t, rdb, "m", "t", "u"); !reflect.DeepEqual(got, want) || got["t/after1"] != "1" || got["u/after2"] != "2" {
				t.Fatalf("%s: truncate at %d: state after restart = %v, want %v", form, l, got, want)
			}
			rdb.Close()
		}
	}
}

// TestWALReplayRejectsReorderedCommits: replay must refuse a log whose
// per-metastore versions are not contiguous — group commit guarantees
// enqueue order equals version order, so a reordered log means damage, however
// well each entry verifies.
func TestWALReplayRejectsReorderedCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	db, _ := Open(Options{WALPath: path})
	db.CreateMetastore("m")
	db.Update("m", func(tx *Tx) error { tx.Put("t", "k1", []byte("v")); return nil })
	db.Update("m", func(tx *Tx) error { tx.Put("t", "k2", []byte("v")); return nil })
	db.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for form, entries := range walForms(t, data) {
		if len(entries) != 3 {
			t.Fatalf("%s: unexpected wal shape: %q", form, data)
		}
		// Swap the two commits.
		reordered := bytes.Join([][]byte{entries[0], entries[2], entries[1]}, nil)
		if err := os.WriteFile(path, reordered, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{WALPath: path}); err == nil {
			t.Fatalf("%s: reordered commit versions should fail replay", form)
		}
	}
}

// TestParentLogCutAndContinued: the bytes the commit before frames wrote
// (testdata/parent.wal: JSON lines) cut short around every line's end and in
// its middle. Open recovers the whole lines, leaves the file ending at the last
// of them, and the frames the next commits append behind them replay.
func TestParentLogCutAndContinued(t *testing.T) {
	log, err := os.ReadFile("testdata/parent.wal")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(log, []byte("\n"))
	lines = lines[:len(lines)-1] // the log ends in a newline
	path := filepath.Join(t.TempDir(), "wal")
	end := 0
	for i, line := range lines {
		for _, cut := range []int{end + len(line)/2, end + len(line) - 1, end + len(line), min(end+len(line)+1, len(log))} {
			if err := os.WriteFile(path, log[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			whole, goodEnd := i, end
			if cut >= end+len(line) {
				whole, goodEnd = i+1, end+len(line)
			}
			db, err := Open(Options{WALPath: path})
			if err != nil {
				t.Fatalf("cut at %d (line %d): %v", cut, i, err)
			}
			if fi, _ := os.Stat(path); db.replayed.Load() != int64(whole) || fi.Size() != int64(goodEnd) {
				t.Fatalf("cut at %d (line %d): %d entries replayed, log %d bytes; want %d and %d", cut, i, db.replayed.Load(), fi.Size(), whole, goodEnd)
			}
			if whole == 0 {
				db.Close()
				continue
			}
			v, _ := db.Version("ms1")
			if v != uint64(whole-1) {
				t.Fatalf("cut at %d: version %d after %d lines", cut, v, whole)
			}
			if _, err := db.Update("ms1", func(tx *Tx) error { tx.Put("t", "k", []byte("v")); return nil }); err != nil {
				t.Fatal(err)
			}
			db.Close()
			if db, err = Open(Options{WALPath: path}); err != nil {
				t.Fatalf("cut at %d (line %d): reopen after a commit: %v", cut, i, err)
			}
			if v2, _ := db.Version("ms1"); v2 != v+1 || db.replayed.Load() != int64(whole+1) {
				t.Fatalf("cut at %d: version %d, %d entries after the commit; want %d and %d", cut, v2, db.replayed.Load(), v+1, whole+1)
			}
			db.Close()
		}
		end += len(line)
	}
}

// flipLog is a log of fifty single-key commits to metastore "m": commit i
// writes key k<i>. It returns the log and want[v], the state after commit v.
func flipLog(t *testing.T) (data []byte, want []map[string]string) {
	path := filepath.Join(t.TempDir(), "wal")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateMetastore("m")
	want = []map[string]string{{}}
	for i := 1; i <= 50; i++ {
		key, val := fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("value-%02d-%s", i, strings.Repeat("x", i%7)))
		if _, err := db.Update("m", func(tx *Tx) error {
			tx.Put("t", key, val)
			if i%5 == 0 {
				tx.Delete("t", fmt.Sprintf("k%02d", i-3))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want = append(want, dumpTables(t, db, "m", "t"))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return data, want
}

// TestWALFlippedByteIsRefused: corruption is refused, never applied. Every
// byte of a fifty-commit log of frames is damaged in turn (one bit, then all
// eight). Open either fails or — only when the damage is inside the final
// frame, which no reader can tell from a write that a crash cut short — drops
// that frame. It never returns a state that differs from a committed one, and
// it never drops a commit that a good one follows: a damaged length in the
// middle of the log, which makes the frame run past the end of the file, is
// damage and not a torn tail, because good frames follow it.
func TestWALFlippedByteIsRefused(t *testing.T) {
	data, want := flipLog(t)
	frames := walFrames(t, data)
	last := len(data) - len(frames[len(frames)-1])
	path := filepath.Join(t.TempDir(), "wal")
	refused, dropped := 0, 0
	defer func() {
		t.Logf("a log of %d frames, %d bytes: %d damaged copies refused, %d opened without their final frame", len(frames), len(data), refused, dropped)
	}()
	for _, mask := range []byte{0x01, 0xff} {
		for off := range data {
			damaged := append([]byte(nil), data...)
			damaged[off] ^= mask
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := Open(Options{WALPath: path})
			if err != nil {
				refused++
				continue
			}
			dropped++
			if off < last {
				t.Fatalf("byte %d of %d (^%#x), before the final frame: Open accepted the log", off, len(data), mask)
			}
			v, _ := db.Version("m")
			if got := dumpTables(t, db, "m", "t"); v != uint64(len(want)-2) || !reflect.DeepEqual(got, want[v]) {
				t.Fatalf("byte %d of %d (^%#x), in the final frame: recovered version %d, state %v; want the log less its final frame", off, len(data), mask, v, got)
			}
			if dropped := db.tailDropped.Load(); dropped != int64(len(data)-last) {
				t.Fatalf("byte %d (^%#x): %d bytes dropped, want the final frame's %d", off, mask, dropped, len(data)-last)
			}
			db.Close()
		}
	}
}

// TestWALFlippedByteInLines is the same sweep over the log in the line form
// written before frames, and holds it to what that form can promise. A line
// has no checksum, so damage is caught only when it breaks the JSON or the
// version sequence. What passes unnoticed, and why frames replaced lines:
//
//   - a flipped character inside a base64 value, a key or a table name that
//     still parses: replay applies a value nobody committed (the sweep logs how
//     many flips end that way: about one in four on this log);
//   - a flipped character of the metastore's name in a commit: the commit is
//     to a metastore that does not exist and is skipped — silently, if it is
//     the last one; in create_metastore: every commit is skipped;
//   - a flipped newline joins two lines into one that does not parse: at the
//     end of the log both are dropped as a torn tail, though the first was
//     acknowledged.
//
// What the sweep does hold lines to: Open fails, or recovers a version no more
// than two short of the log's and a state that differs from the committed one
// at that version in no more keys than one damaged commit can touch.
func TestWALFlippedByteInLines(t *testing.T) {
	data, want := flipLog(t)
	lines := walForms(t, data)["lines"]
	log := bytes.Join(lines, nil)
	path := filepath.Join(t.TempDir(), "wal")
	differing := 0
	for off := range log {
		damaged := append([]byte(nil), log...)
		damaged[off] ^= 0x01
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(Options{WALPath: path})
		if err != nil {
			continue
		}
		v, err := db.Version("m")
		if err != nil {
			if off >= len(lines[0]) {
				t.Fatalf("byte %d, past create_metastore: metastore m is gone: %v", off, err)
			}
			db.Close()
			continue
		}
		if int(v) < len(want)-3 {
			t.Fatalf("byte %d of %d: recovered version %d of %d", off, len(log), v, len(want)-1)
		}
		got, wrong := dumpTables(t, db, "m", "t"), 0
		for i := 1; i < len(want); i++ {
			if key := fmt.Sprintf("t/k%02d", i); got[key] != want[v][key] {
				wrong++
			}
		}
		if wrong > 0 || len(got) != len(want[v]) {
			differing++
		}
		if wrong > 2 || len(got) > len(want[v])+2 {
			t.Fatalf("byte %d: the state at version %d differs from the committed one in more than one commit's keys: %v, committed %v", off, v, got, want[v])
		}
		db.Close()
	}
	if differing == 0 {
		t.Error("no flip was replayed as a state nobody committed: the comment above is out of date")
	}
	t.Logf("%d of %d single-bit flips were replayed as a state nobody committed", differing, len(log))
}

// FuzzWALFrame: arbitrary bytes as a log, and as a frame's payload, replay or
// are refused; they never panic, and nothing is allocated that the bytes
// themselves do not back (a length or a count is checked against what is
// there before anything is sized by it). The seed corpus — a real log in each
// of its shapes, whole, cut and damaged — is what plain `go test` runs.
func FuzzWALFrame(f *testing.F) {
	path := filepath.Join(f.TempDir(), "wal")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		f.Fatal(err)
	}
	db.CreateMetastore("m")
	for i := 0; i < 6; i++ {
		db.Update("m", func(tx *Tx) error {
			tx.Put("t", fmt.Sprint("k", i), bytes.Repeat([]byte{byte(i)}, i*i))
			tx.Delete("t", fmt.Sprint("k", i-2))
			return nil
		})
	}
	db.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, entries := range walForms(f, data) {
		log := bytes.Join(entries, nil)
		f.Add(log)
		f.Add(log[:len(log)*2/3])
		damaged := append([]byte(nil), log...)
		damaged[len(damaged)/2] ^= 0x10
		f.Add(damaged)
		f.Add(entries[len(entries)-1][walHeaderLen:])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		end, err := db.replayWAL(bytes.NewReader(b), int64(len(b)))
		if end < 0 || end > int64(len(b)) {
			t.Fatalf("replay of %d bytes ended at %d (%v)", len(b), end, err)
		}
		d := newWALDecoder()
		if d.decode(b) == nil {
			n := 0
			for _, w := range d.entry.Writes {
				n += len(w.Table) + len(w.Key) + len(w.Value)
			}
			if n > len(b) {
				t.Fatalf("a %d-byte payload decoded to %d bytes of writes", len(b), n)
			}
		}
	})
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
