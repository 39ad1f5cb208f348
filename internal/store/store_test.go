package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func mustOpen(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestRecordSize holds a version to the 48-byte malloc class: one field more
// would move every key into the 64-byte one. The value's length is a uint32,
// so a commit refuses a longer value rather than truncate it; and a value
// reads back as it was put, nil as nil and empty as empty.
func TestRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size > 48 {
		t.Fatalf("a record is %d bytes, over 48", size)
	}
	if n := uint64(math.MaxUint32); strconv.IntSize == 64 && (!valueFits(int(n)) || valueFits(int(n+1))) {
		t.Fatalf("valueFits: %d bytes fit %v, %d bytes fit %v", n, valueFits(int(n)), n+1, valueFits(int(n+1)))
	}
	var r record
	for _, v := range [][]byte{nil, {}, []byte("value")} {
		r.setValue(v)
		if got := r.value(); (got == nil) != (v == nil) || !bytes.Equal(got, v) || len(v) > 0 && &got[0] != &v[0] {
			t.Fatalf("setValue(%q) reads back %q", v, got)
		}
	}
}

func TestCreateDropMetastore(t *testing.T) {
	db := mustOpen(t, Options{})
	if err := db.CreateMetastore("m1"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateMetastore("m1"); !errors.Is(err, ErrMetastoreExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if got := db.Metastores(); len(got) != 1 || got[0] != "m1" {
		t.Fatalf("metastores = %v", got)
	}
	if err := db.DropMetastore("m1"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropMetastore("m1"); !errors.Is(err, ErrNoMetastore) {
		t.Fatalf("double drop: %v", err)
	}
	if _, err := db.Snapshot("m1"); !errors.Is(err, ErrNoMetastore) {
		t.Fatalf("snapshot dropped: %v", err)
	}
}

func TestBasicPutGet(t *testing.T) {
	db := mustOpen(t, Options{})
	db.CreateMetastore("m")
	v, err := db.Update("m", func(tx *Tx) error {
		tx.Put("t", "k1", []byte("v1"))
		tx.Put("t", "k2", []byte("v2"))
		return nil
	})
	if err != nil || v != 1 {
		t.Fatalf("update: v=%d err=%v", v, err)
	}
	snap, _ := db.Snapshot("m")
	defer snap.Close()
	if got, ok := snap.Get("t", "k1"); !ok || string(got) != "v1" {
		t.Fatalf("get k1 = %q, %v", got, ok)
	}
	if kvs := snap.Scan("t", ""); len(kvs) != 2 || kvs[0].Key != "k1" || kvs[1].Key != "k2" {
		t.Fatalf("scan = %v", kvs)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db := mustOpen(t, Options{})
	db.CreateMetastore("m")
	db.Update("m", func(tx *Tx) error { tx.Put("t", "k", []byte("old")); return nil })

	snap, _ := db.Snapshot("m")
	defer snap.Close()

	db.Update("m", func(tx *Tx) error { tx.Put("t", "k", []byte("new")); return nil })
	db.Update("m", func(tx *Tx) error { tx.Put("t", "k2", []byte("x")); return nil })

	// The old snapshot still observes the old state.
	if got, _ := snap.Get("t", "k"); string(got) != "old" {
		t.Fatalf("snapshot read = %q, want old", got)
	}
	if _, ok := snap.Get("t", "k2"); ok {
		t.Fatal("snapshot should not see later insert")
	}
	// A fresh snapshot sees the new state.
	snap2, _ := db.Snapshot("m")
	defer snap2.Close()
	if got, _ := snap2.Get("t", "k"); string(got) != "new" {
		t.Fatalf("fresh snapshot read = %q, want new", got)
	}
}

func TestDeleteVisibility(t *testing.T) {
	db := mustOpen(t, Options{})
	db.CreateMetastore("m")
	db.Update("m", func(tx *Tx) error { tx.Put("t", "k", []byte("v")); return nil })
	snap, _ := db.Snapshot("m")
	defer snap.Close()
	db.Update("m", func(tx *Tx) error { tx.Delete("t", "k"); return nil })
	if _, ok := snap.Get("t", "k"); !ok {
		t.Fatal("pinned snapshot should still see the record")
	}
	snap2, _ := db.Snapshot("m")
	defer snap2.Close()
	if _, ok := snap2.Get("t", "k"); ok {
		t.Fatal("new snapshot should not see deleted record")
	}
	if n := snap2.Count("t", ""); n != 0 {
		t.Fatalf("count after delete = %d", n)
	}
}

func TestUpdateRollbackOnError(t *testing.T) {
	db := mustOpen(t, Options{})
	db.CreateMetastore("m")
	boom := errors.New("boom")
	v, err := db.Update("m", func(tx *Tx) error {
		tx.Put("t", "k", []byte("v"))
		return boom
	})
	if !errors.Is(err, boom) || v != 0 {
		t.Fatalf("update: v=%d err=%v", v, err)
	}
	snap, _ := db.Snapshot("m")
	defer snap.Close()
	if _, ok := snap.Get("t", "k"); ok {
		t.Fatal("aborted write must not be visible")
	}
	if ver, _ := db.Version("m"); ver != 0 {
		t.Fatalf("version after abort = %d", ver)
	}
}

func TestReadOnlyTransactionDoesNotBumpVersion(t *testing.T) {
	db := mustOpen(t, Options{})
	db.CreateMetastore("m")
	v, err := db.Update("m", func(tx *Tx) error { tx.Get("t", "k"); return nil })
	if err != nil || v != 0 {
		t.Fatalf("read-only update: v=%d err=%v", v, err)
	}
}

func TestTxReadsOwnWrites(t *testing.T) {
	db := mustOpen(t, Options{})
	db.CreateMetastore("m")
	db.Update("m", func(tx *Tx) error { tx.Put("t", "a", []byte("1")); return nil })
	_, err := db.Update("m", func(tx *Tx) error {
		tx.Put("t", "b", []byte("2"))
		if got, ok := tx.Get("t", "b"); !ok || string(got) != "2" {
			return fmt.Errorf("tx should read own write, got %q %v", got, ok)
		}
		tx.Delete("t", "a")
		if _, ok := tx.Get("t", "a"); ok {
			return errors.New("tx should observe own delete")
		}
		kvs := tx.Scan("t", "")
		if len(kvs) != 1 || kvs[0].Key != "b" {
			return fmt.Errorf("tx scan = %v", kvs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChangesSince(t *testing.T) {
	db := mustOpen(t, Options{})
	db.CreateMetastore("m")
	for i := 0; i < 5; i++ {
		db.Update("m", func(tx *Tx) error {
			tx.Put("t", fmt.Sprintf("k%d", i), []byte("v"))
			return nil
		})
	}
	cs, err := db.ChangesSince("m", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 || cs[0].Version != 3 || cs[2].Version != 5 {
		t.Fatalf("changes = %+v", cs)
	}
	if cs, err := db.ChangesSince("m", 5); err != nil || cs != nil {
		t.Fatalf("up-to-date changes = %v, %v", cs, err)
	}
}

func TestChangesSinceTrimmed(t *testing.T) {
	db := mustOpen(t, Options{ChangeLogSize: 3})
	db.CreateMetastore("m")
	for i := 0; i < 10; i++ {
		db.Update("m", func(tx *Tx) error { tx.Put("t", fmt.Sprintf("k%d", i), nil); return nil })
	}
	if _, err := db.ChangesSince("m", 1); !errors.Is(err, ErrChangeLogTrimmed) {
		t.Fatalf("trimmed: %v", err)
	}
	// Recent range still works.
	if cs, err := db.ChangesSince("m", 8); err != nil || len(cs) != 2 {
		t.Fatalf("recent changes = %v, %v", cs, err)
	}
}

// TestChangesSincePartlyEvictedCommit: the ring evicts change by change, so
// its oldest commit can have lost its first changes. A reader one version
// behind that commit must be told the log is trimmed, not handed the rest.
func TestChangesSincePartlyEvictedCommit(t *testing.T) {
	db := mustOpen(t, Options{ChangeLogSize: 4})
	db.CreateMetastore("m")
	for i := 0; i < 3; i++ { // versions 1..3, three changes each
		db.Update("m", func(tx *Tx) error {
			for j := 0; j < 3; j++ {
				tx.Put("t", fmt.Sprintf("k%d-%d", i, j), nil)
			}
			return nil
		})
	}
	// The ring holds the last change of version 2 and all of version 3.
	if cs, err := db.ChangesSince("m", 1); !errors.Is(err, ErrChangeLogTrimmed) {
		t.Fatalf("ChangesSince(1) = %+v, %v; version 2 is partly evicted", cs, err)
	}
	if cs, err := db.ChangesSince("m", 2); err != nil || len(cs) != 3 {
		t.Fatalf("ChangesSince(2) = %+v, %v; want version 3's three changes", cs, err)
	}
}

func TestSerializableWritesConcurrent(t *testing.T) {
	db := mustOpen(t, Options{})
	db.CreateMetastore("m")
	db.Update("m", func(tx *Tx) error { tx.Put("t", "counter", []byte{0}); return nil })

	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				db.Update("m", func(tx *Tx) error {
					b, _ := tx.Get("t", "counter")
					tx.Put("t", "counter", []byte{b[0] + 1})
					return nil
				})
			}
		}()
	}
	wg.Wait()
	snap, _ := db.Snapshot("m")
	defer snap.Close()
	b, _ := snap.Get("t", "counter")
	if int(b[0]) != (writers*each)%256 {
		t.Fatalf("counter = %d, want %d (lost updates)", b[0], (writers*each)%256)
	}
	if v, _ := db.Version("m"); v != writers*each+1 {
		t.Fatalf("version = %d, want %d", v, writers*each+1)
	}
}

func TestWALPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateMetastore("m")
	db.Update("m", func(tx *Tx) error { tx.Put("t", "k", []byte("v1")); return nil })
	db.Update("m", func(tx *Tx) error { tx.Put("t", "k", []byte("v2")); tx.Put("t", "k2", []byte("x")); return nil })
	db.Update("m", func(tx *Tx) error { tx.Delete("t", "k2"); return nil })
	db.CreateMetastore("gone")
	db.DropMetastore("gone")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Metastores(); len(got) != 1 || got[0] != "m" {
		t.Fatalf("replayed metastores = %v", got)
	}
	if v, _ := db2.Version("m"); v != 3 {
		t.Fatalf("replayed version = %d", v)
	}
	snap, _ := db2.Snapshot("m")
	defer snap.Close()
	if got, _ := snap.Get("t", "k"); string(got) != "v2" {
		t.Fatalf("replayed k = %q", got)
	}
	if _, ok := snap.Get("t", "k2"); ok {
		t.Fatal("replayed k2 should be deleted")
	}
	// Writes continue from the replayed version.
	if v, _ := db2.Update("m", func(tx *Tx) error { tx.Put("t", "k3", nil); return nil }); v != 4 {
		t.Fatalf("post-replay version = %d", v)
	}
}

func TestVersionPruning(t *testing.T) {
	db := mustOpen(t, Options{MaxVersionsPerRecord: 2})
	db.CreateMetastore("m")
	for i := 0; i < 10; i++ {
		db.Update("m", func(tx *Tx) error { tx.Put("t", "k", []byte{byte(i)}); return nil })
	}
	ms, _ := db.metastore("m")
	ms.stateMu.RLock()
	n := 0
	for r := ms.tables["t"].get("k"); r != nil; r = r.prev {
		n++
	}
	ms.stateMu.RUnlock()
	if n > 2 {
		t.Fatalf("retained %d versions, want <= 2", n)
	}
	snap, _ := db.Snapshot("m")
	defer snap.Close()
	if b, _ := snap.Get("t", "k"); b[0] != 9 {
		t.Fatalf("latest = %d", b[0])
	}
}

// TestDeletedRecordsReclaimed: a key created and deleted gives its record,
// key-table slot and tree slot back once the delete has left the change log,
// so churn leaves the table the size it started at; a snapshot opened before
// a delete keeps reading what it pinned, and holds the record until it
// closes. After every round the tree holds exactly the key table's records.
func TestDeletedRecordsReclaimed(t *testing.T) {
	const ring = 8
	db := mustOpen(t, Options{ChangeLogSize: ring})
	db.CreateMetastore("m")
	put := func(k, v string) {
		t.Helper()
		if _, err := db.Update("m", func(tx *Tx) error { tx.Put("t", k, []byte(v)); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	del := func(k string) {
		t.Helper()
		if _, err := db.Update("m", func(tx *Tx) error { tx.Delete("t", k); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	// flush pushes every earlier change out of the log without adding a key.
	flush := func() {
		for i := 0; i < ring; i++ {
			put("seed00", fmt.Sprintf("flush%d", i))
		}
	}
	for i := 0; i < 50; i++ {
		put(fmt.Sprintf("seed%02d", i), "seed")
	}
	ms, _ := db.metastore("m")
	checkIndexTracksKeyTable(t, ms)
	sizes := func() (records, slots int) {
		ms.stateMu.RLock()
		defer ms.stateMu.RUnlock()
		return ms.tables["t"].n, ms.indexes["t"].size
	}
	wantRecords, wantSlots := sizes()

	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("churn%04d", i)
		put(k, "v")
		if i%3 == 0 {
			put(k, "v2") // history behind the tombstone goes with it
		}
		del(k)
		if i%7 == 0 {
			del(k) // a tombstone over a tombstone
		}
		checkIndexTracksKeyTable(t, ms)
	}
	del("never-existed")
	flush()
	if records, slots := sizes(); records != wantRecords || slots != wantSlots {
		t.Fatalf("after 1,000 create/delete rounds: %d records, %d tree slots; started with %d, %d", records, slots, wantRecords, wantSlots)
	}
	checkIndexTracksKeyTable(t, ms)

	// A key written again after its delete is not the tombstone any more.
	put("back", "v1")
	del("back")
	put("back", "v2")
	// A snapshot older than a delete blocks it.
	put("pinned", "old")
	snap, err := db.Snapshot("m")
	if err != nil {
		t.Fatal(err)
	}
	del("pinned")
	flush()
	if b, ok := snap.Get("t", "pinned"); !ok || string(b) != "old" {
		t.Fatalf("snapshot opened before the delete reads %q, %v", b, ok)
	}
	if records, _ := sizes(); records != wantRecords+2 {
		t.Fatalf("%d records with a snapshot holding one deleted key and one key rewritten, want %d", records, wantRecords+2)
	}
	checkIndexTracksKeyTable(t, ms)
	snap.Close()
	put("seed00", "retry") // the next commit retries what the snapshot held
	now, err := db.Snapshot("m")
	if err != nil {
		t.Fatal(err)
	}
	defer now.Close()
	if b, ok := now.Get("t", "back"); !ok || string(b) != "v2" {
		t.Fatalf("key rewritten after its delete reads %q, %v", b, ok)
	}
	if _, ok := now.Get("t", "pinned"); ok {
		t.Fatal("deleted key is live")
	}
	if records, slots := sizes(); records != wantRecords+1 || slots != wantSlots+1 {
		t.Fatalf("after the snapshot closed: %d records, %d slots, want %d, %d", records, slots, wantRecords+1, wantSlots+1)
	}
	checkIndexTracksKeyTable(t, ms)
}

// sliceChain is the version chain as the store kept it before a record became
// its own newest version: an ascending slice, pruned by index arithmetic. It
// is the reference TestPrunedChainMatchesSliceChain holds the linked chain to.
type sliceChain []sliceVersion

type sliceVersion struct {
	commit  uint64
	value   []byte
	deleted bool
}

func (c sliceChain) at(v uint64) ([]byte, bool) {
	for i := len(c) - 1; i >= 0; i-- {
		if c[i].commit <= v {
			return c[i].value, !c[i].deleted
		}
	}
	return nil, false
}

func (c sliceChain) pruned(max int, pin uint64) sliceChain {
	if len(c) <= max {
		return c
	}
	snapCut := 0
	for i, v := range c {
		if v.commit <= pin {
			snapCut = i
		}
	}
	cut := len(c) - max
	if cut > snapCut {
		cut = snapCut
	}
	return c[cut:]
}

// TestPrunedChainMatchesSliceChain: one key written and deleted hundreds of
// times while snapshots open and close at random. After every commit the
// linked chain must retain exactly the versions the slice-based chain
// retained — the same answer at every version from 0 to current, pruned or
// not — and every open snapshot must still read what was committed at its
// version, whatever was pruned around it.
func TestPrunedChainMatchesSliceChain(t *testing.T) {
	for _, max := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("max%d", max), func(t *testing.T) {
			db := mustOpen(t, Options{MaxVersionsPerRecord: max})
			db.CreateMetastore("m")
			ms, _ := db.metastore("m")
			rng := rand.New(rand.NewSource(int64(max)))
			var ref sliceChain
			history := []sliceVersion{{}} // history[v] = what a reader at v must see
			history[0].deleted = true
			var open []*Snapshot
			for i := 0; i < 400; i++ {
				switch rng.Intn(6) {
				case 0:
					snap, err := db.Snapshot("m")
					if err != nil {
						t.Fatal(err)
					}
					open = append(open, snap)
				case 1:
					if len(open) > 0 {
						j := rng.Intn(len(open))
						open[j].Close()
						open = append(open[:j], open[j+1:]...)
					}
				}
				w := sliceVersion{deleted: rng.Intn(5) == 0}
				if !w.deleted {
					w.value = []byte(fmt.Sprintf("v%d", i))
				}
				v, err := db.Update("m", func(tx *Tx) error {
					if w.deleted {
						tx.Delete("t", "k")
					} else {
						tx.Put("t", "k", w.value)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				w.commit = v
				history = append(history, w)

				ms.stateMu.RLock()
				pin := ^uint64(0)
				if len(ms.snaps) > 0 {
					pin = ms.minSnapV
				}
				ref = append(ref, w).pruned(max, pin)
				r, n := ms.tables["t"].get("k"), 0
				for p := r; p != nil; p = p.prev {
					n++
				}
				if n != len(ref) {
					t.Fatalf("after commit %d: %d versions retained, the slice chain kept %d", v, n, len(ref))
				}
				for at := uint64(0); at <= v; at++ {
					got, gotLive := r.at(at)
					want, wantLive := ref.at(at)
					if gotLive != wantLive || !bytes.Equal(got, want) {
						t.Fatalf("after commit %d: at(%d) = %q, %v; the slice chain says %q, %v", v, at, got, gotLive, want, wantLive)
					}
				}
				ms.stateMu.RUnlock()
				for _, snap := range open {
					got, live := snap.Get("t", "k")
					want := history[snap.Version]
					if live == want.deleted || !bytes.Equal(got, want.value) {
						t.Fatalf("after commit %d: snapshot at %d reads %q, %v; committed there: %q, deleted %v", v, snap.Version, got, live, want.value, want.deleted)
					}
				}
			}
			for _, snap := range open {
				snap.Close()
			}
		})
	}
}

func TestSnapshotPinsVersions(t *testing.T) {
	db := mustOpen(t, Options{MaxVersionsPerRecord: 1})
	db.CreateMetastore("m")
	db.Update("m", func(tx *Tx) error { tx.Put("t", "k", []byte("v1")); return nil })
	snap, _ := db.Snapshot("m") // pins version 1
	for i := 0; i < 5; i++ {
		db.Update("m", func(tx *Tx) error { tx.Put("t", "k", []byte(fmt.Sprintf("v%d", i+2))); return nil })
	}
	if got, _ := snap.Get("t", "k"); string(got) != "v1" {
		t.Fatalf("pinned read = %q, want v1", got)
	}
	snap.Close()
}

func TestWritesAccessor(t *testing.T) {
	db := mustOpen(t, Options{})
	db.CreateMetastore("m")
	var ws []Write
	db.Update("m", func(tx *Tx) error {
		tx.Put("t", "a", []byte("1"))
		tx.Put("t", "a", []byte("2")) // overwrite within tx
		tx.Delete("t", "b")
		ws = tx.Writes()
		return nil
	})
	if len(ws) != 2 {
		t.Fatalf("writes = %+v", ws)
	}
	if ws[0].Key != "a" || string(ws[0].Value) != "2" || ws[0].Deleted {
		t.Fatalf("write a = %+v", ws[0])
	}
	if ws[1].Key != "b" || !ws[1].Deleted {
		t.Fatalf("write b = %+v", ws[1])
	}
}

// TestQuickSnapshotStability property-tests that a snapshot's view never
// changes regardless of subsequent writes.
func TestQuickSnapshotStability(t *testing.T) {
	f := func(keys []uint8, extra []uint8) bool {
		if len(keys) == 0 {
			keys = []uint8{1}
		}
		db, _ := Open(Options{})
		defer db.Close()
		db.CreateMetastore("m")
		db.Update("m", func(tx *Tx) error {
			for _, k := range keys {
				tx.Put("t", fmt.Sprintf("k%d", k), []byte{k})
			}
			return nil
		})
		snap, _ := db.Snapshot("m")
		defer snap.Close()
		before := snap.Scan("t", "")
		for _, k := range extra {
			db.Update("m", func(tx *Tx) error {
				tx.Put("t", fmt.Sprintf("k%d", k), []byte{k + 1})
				tx.Delete("t", fmt.Sprintf("k%d", k/2))
				return nil
			})
		}
		after := snap.Scan("t", "")
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i].Key != after[i].Key || string(before[i].Value) != string(after[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWALTornFinalLineTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateMetastore("m")
	db.Update("m", func(tx *Tx) error { tx.Put("t", "k", []byte("durable")); return nil })
	db.Close()

	// Simulate a crash mid-append: a torn, unparsable final line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"commit","ms":"m","ver":2,"w":[{"t":"t","k":"lost","v":`)
	f.Close()

	db2, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatalf("torn final line should be tolerated: %v", err)
	}
	defer db2.Close()
	snap, _ := db2.Snapshot("m")
	defer snap.Close()
	if got, _ := snap.Get("t", "k"); string(got) != "durable" {
		t.Fatalf("durable data lost: %q", got)
	}
	if _, ok := snap.Get("t", "lost"); ok {
		t.Fatal("torn commit must not be applied")
	}
	if v, _ := db2.Version("m"); v != 1 {
		t.Fatalf("version = %d", v)
	}
}

func TestWALMidLogCorruptionFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, _ := Open(Options{WALPath: path})
	db.CreateMetastore("m")
	db.Update("m", func(tx *Tx) error { tx.Put("t", "k", []byte("v")); return nil })
	db.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the FIRST line, keeping valid entries after it.
	corrupted := append([]byte("{broken json\n"), data...)
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{WALPath: path}); err == nil {
		t.Fatal("mid-log corruption should be fatal")
	}
}

// TestReplayPrunesVersions: a reopened store holds the versions of each record
// that the store it replays held, not one per write in the log, and the
// derived rows of the versions pruned go with them.
func TestReplayPrunesVersions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	db, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateMetastore("m")
	for i := 0; i < 100; i++ {
		db.Update("m", func(tx *Tx) error {
			tx.Put("t", "k", []byte{byte(i)})
			// The entity moves between parents, so that its derived child
			// row changes group and pruned versions leave shadows behind.
			tx.Put(entTable, "e1", []byte(fmt.Sprintf("p%d/TABLE/name/active", i%3)))
			return nil
		})
	}
	// versions counts the versions each record holds.
	versions := func(db *DB) (n [2]int) {
		ms, _ := db.metastore("m")
		ms.stateMu.RLock()
		defer ms.stateMu.RUnlock()
		for i, r := range []*record{ms.tables["t"].get("k"), ms.tables[entTable].get("e1")} {
			for ; r != nil; r = r.prev {
				n[i]++
			}
		}
		return n
	}
	live := versions(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := versions(db2); got != live {
		t.Fatalf("versions per record after a reopen: %v, want the live store's %v", got, live)
	}
	ms, _ := db2.metastore("m")
	checkGroupsTrackKeyTable(t, ms)
	snap, _ := db2.Snapshot("m")
	defer snap.Close()
	if rows := snap.GroupRows(kidTable, "p0\x00", "p0\x01", 0); len(rows) != 1 {
		t.Fatalf("p0's child rows after a reopen: %d, want 1", len(rows))
	}
}
