package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// The derived table these tests run: "kid" is derived from "ent", whose
// values are "parent/TYPE/name/state", as erm derives the child table from
// the entity table; "kidref" is the same rows written by hand, beside every
// "ent" write that would have written them, which is how the child table was
// kept before it was derived.
const (
	entTable, kidTable, kidRef = "ent", "kid", "kidref"
)

func init() { DeriveIndex(kidTable, entTable, Derivation{Group: testGroup}) }

// testGroup derives parent\0TYPE\0 from "parent/TYPE/...", and nothing from a
// value without two slashes.
func testGroup(dst []byte, _ string, value []byte) ([]byte, bool) {
	parent, rest, ok := bytes.Cut(value, []byte("/"))
	typ, _, ok2 := bytes.Cut(rest, []byte("/"))
	if !ok || !ok2 {
		return dst, false
	}
	return append(append(append(append(dst, parent...), 0), typ...), 0), true
}

func kidKey(parent, typ, id string) string { return parent + "\x00" + typ + "\x00" + id }

// rowKeys joins group rows into the keys of the derived table.
func rowKeys(rows []GroupRow) []string {
	out := []string{}
	for _, r := range rows {
		out = append(out, r.Group+r.Key)
	}
	return out
}

func kvKeys(kvs []KV) []string {
	out := []string{}
	for _, kv := range kvs {
		if len(kv.Value) != 0 {
			out = append(out, "value:"+kv.Key)
			continue
		}
		out = append(out, kv.Key)
	}
	return out
}

// reader is what a snapshot and a transaction both serve.
type reader interface {
	Get(table, key string) ([]byte, bool)
	Scan(table, prefix string) []KV
	ScanRange(table, start, end string, limit int) []KV
	GroupRows(table, start, end string, limit int) []GroupRow
}

// compareDerived holds every read of the derived table through r to the
// same read of the hand-kept rows: whole scans and prefix scans over every
// parent and type, point reads, and every range cut into pages of 1 and of 3
// rows, read both as rows and as group rows, whose records must be the
// source's at r's version.
func compareDerived(t *testing.T, what string, r reader, parents, types []string) {
	t.Helper()
	prefixes := []string{""}
	for _, p := range parents {
		prefixes = append(prefixes, p+"\x00")
		for _, ty := range types {
			prefixes = append(prefixes, p+"\x00"+ty+"\x00")
		}
	}
	for _, prefix := range prefixes {
		want := kvKeys(r.Scan(kidRef, prefix))
		if got := kvKeys(r.Scan(kidTable, prefix)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Scan(%q) = %q, the rows %q", what, prefix, got, want)
		}
		end := PrefixEnd(prefix)
		if got := rowKeys(r.GroupRows(kidTable, prefix, end, 0)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: GroupRows(%q) = %q, the rows %q", what, prefix, got, want)
		}
		for _, page := range []int{1, 3} {
			got, gotRows := []string{}, []string{}
			for start := prefix; ; {
				kvs := r.ScanRange(kidTable, start, end, page)
				rows := r.GroupRows(kidTable, start, end, page)
				got, gotRows = append(got, kvKeys(kvs)...), append(gotRows, rowKeys(rows)...)
				for _, row := range rows {
					if v, ok := r.Get(entTable, row.Key); !ok || !bytes.Equal(v, row.Value) {
						t.Fatalf("%s: group row %q carries %q, the record reads %q (%v)", what, row.Group+row.Key, row.Value, v, ok)
					}
				}
				if len(kvs) < page {
					break
				}
				start = kvs[len(kvs)-1].Key + "\x00"
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotRows, want) {
				t.Fatalf("%s: pages of %d under %q are %q and %q, the rows %q", what, page, prefix, got, gotRows, want)
			}
		}
	}
	for _, kv := range r.Scan(kidRef, "") {
		for _, k := range []string{kv.Key, kv.Key + "x", kv.Key[:len(kv.Key)-1]} {
			_, want := r.Get(kidRef, k)
			if v, got := r.Get(kidTable, k); got != want || len(v) != 0 {
				t.Fatalf("%s: Get(%q) = %q, %v; the rows say %v", what, k, v, got, want)
			}
		}
	}
}

// TestDerivedChildIndexMatchesRows runs a seeded mix of create, rename, soft
// delete, undelete, GC and metastore drop over a small change log (so deleted
// records are reclaimed) and holds the derived table to the rows the old rule
// wrote beside each record — a row exists iff the record does — at every
// version: through the newest snapshot after each commit, through snapshots
// pinned along the way and read every seventh commit, through ScanRangeAt and GroupRowsAt,
// and through transactions that read while another commit is sequenced but
// not yet applied and after writes of their own. checkIndexTracksKeyTable
// holds the groups to the key table after every commit.
func TestDerivedChildIndexMatchesRows(t *testing.T) {
	parents, types := []string{"p0", "p1", "p2", "q"}, []string{"TABLE", "VIEW", "VOLUME"}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, err := Open(Options{ChangeLogSize: 24, MaxVersionsPerRecord: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.CreateMetastore("ms"); err != nil {
			t.Fatal(err)
		}
		type ent struct{ parent, typ, name, state string }
		ents := map[string]*ent{} // live records, soft-deleted ones included
		next := 0
		value := func(e *ent) []byte { return []byte(e.parent + "/" + e.typ + "/" + e.name + "/" + e.state) }
		pick := func(state string) string {
			var ids []string
			for id, e := range ents {
				if state == "" || e.state == state {
					ids = append(ids, id)
				}
			}
			if len(ids) == 0 {
				return ""
			}
			sortStrings(ids)
			return ids[rng.Intn(len(ids))]
		}
		// op buffers one random operation into tx as the catalog writes it,
		// the hand-kept row beside the record as the old rule did.
		op := func(tx *Tx) {
			switch k := rng.Intn(10); {
			case k < 4 || len(ents) == 0: // create
				id := fmt.Sprintf("e%04d", next)
				next++
				e := &ent{parents[rng.Intn(len(parents))], types[rng.Intn(len(types))], id, "A"}
				ents[id] = e
				tx.Put(entTable, id, value(e))
				tx.Put(kidRef, kidKey(e.parent, e.typ, id), nil)
			case k < 6: // rename: the record and its row written again
				if id := pick("A"); id != "" {
					e := ents[id]
					e.name += "r"
					tx.Put(entTable, id, value(e))
					tx.Put(kidRef, kidKey(e.parent, e.typ, id), nil)
				}
			case k < 7: // soft delete: the record only
				if id := pick("A"); id != "" {
					ents[id].state = "S"
					tx.Put(entTable, id, value(ents[id]))
				}
			case k < 8: // undelete: the record and its row
				if id := pick("S"); id != "" {
					e := ents[id]
					e.state = "A"
					tx.Put(entTable, id, value(e))
					tx.Put(kidRef, kidKey(e.parent, e.typ, id), nil)
				}
			default: // GC: the record and its row deleted
				if id := pick(""); id != "" {
					e := ents[id]
					delete(ents, id)
					tx.Delete(entTable, id)
					tx.Delete(kidRef, kidKey(e.parent, e.typ, id))
				}
			}
		}
		type pin struct {
			snap *Snapshot
			v    uint64
		}
		var pins []pin
		sawPending := 0
		ms := db.stores["ms"]
		for step := 0; step < 140; step++ {
			switch {
			case step%50 == 49: // drop the metastore and start again
				for _, p := range pins {
					p.snap.Close()
				}
				pins = nil
				if err := db.DropMetastore("ms"); err != nil {
					t.Fatal(err)
				}
				if err := db.CreateMetastore("ms"); err != nil {
					t.Fatal(err)
				}
				ents = map[string]*ent{}
				ms = db.stores["ms"]
				snap, _ := db.Snapshot("ms")
				if got := snap.Scan(kidTable, ""); len(got) != 0 {
					t.Fatalf("seed %d: a new metastore lists %q", seed, kvKeys(got))
				}
				snap.Close()
			case step%10 == 5: // a commit read while another is pending
				db.opts.CommitLatency = 5 * time.Millisecond
				var wg sync.WaitGroup
				sequenced := make(chan struct{})
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := db.Update("ms", func(tx *Tx) error {
						op(tx)
						op(tx)
						close(sequenced)
						return nil
					}); err != nil {
						t.Error(err)
					}
				}()
				<-sequenced
				if _, err := db.Update("ms", func(tx *Tx) error {
					ms.stateMu.RLock()
					if len(ms.pending) > 0 {
						sawPending++
					}
					ms.stateMu.RUnlock()
					compareDerived(t, fmt.Sprintf("seed %d step %d: a tx over a pending commit", seed, step), tx, parents, types)
					op(tx)
					op(tx)
					compareDerived(t, fmt.Sprintf("seed %d step %d: a tx after its own writes", seed, step), tx, parents, types)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				wg.Wait()
				db.opts.CommitLatency = 0
			default:
				if _, err := db.Update("ms", func(tx *Tx) error {
					op(tx)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			checkIndexTracksKeyTable(t, ms)
			snap, err := db.Snapshot("ms")
			if err != nil {
				t.Fatal(err)
			}
			compareDerived(t, fmt.Sprintf("seed %d step %d v%d", seed, step, snap.Version), snap, parents, types)
			kvs, err := db.ScanRangeAt("ms", snap.Version, kidTable, "", "", "", 0)
			rows, err2 := db.GroupRowsAt("ms", snap.Version, kidTable, "", "", 0)
			if want := kvKeys(snap.Scan(kidRef, "")); err != nil || err2 != nil || !reflect.DeepEqual(kvKeys(kvs), want) || !reflect.DeepEqual(rowKeys(rows), want) {
				t.Fatalf("seed %d step %d: ScanRangeAt %q and GroupRowsAt %q (%v, %v), the rows %q", seed, step, kvKeys(kvs), rowKeys(rows), err, err2, want)
			}
			if n, want := snap.Count(kidTable, ""), snap.Count(kidRef, ""); n != want {
				t.Fatalf("seed %d step %d: Count %d, the rows %d", seed, step, n, want)
			}
			if rng.Intn(4) == 0 {
				pins = append(pins, pin{snap, snap.Version})
			} else {
				snap.Close()
			}
			if len(pins) > 0 && rng.Intn(5) == 0 {
				i := rng.Intn(len(pins))
				pins[i].snap.Close()
				pins = append(pins[:i], pins[i+1:]...)
			}
			for _, p := range pins {
				if step%7 != 0 {
					break
				}
				compareDerived(t, fmt.Sprintf("seed %d step %d: snapshot pinned at v%d", seed, step, p.v), p.snap, parents, types)
			}
		}
		for _, p := range pins {
			p.snap.Close()
		}
		if sawPending == 0 {
			t.Errorf("seed %d: no transaction read over a pending commit", seed)
		}
		if n := db.IndexSize(kidTable); n != ms.derived[0].n || n == 0 {
			t.Errorf("seed %d: IndexSize(%s) = %d, the groups hold %d", seed, kidTable, n, ms.derived[0].n)
		}
		db.Close()
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestDerivedTableRefusesWrites: a derived table takes no writes, and a
// source record's group never changes — not by a value of another group, not
// by one of none, not across a delete, whose tombstone keeps the group. A
// record that never held a value takes its group from its first.
func TestDerivedTableRefusesWrites(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	db.CreateMetastore("ms")
	put := func(fn func(tx *Tx)) error {
		_, err := db.Update("ms", func(tx *Tx) error { fn(tx); return nil })
		return err
	}
	if err := put(func(tx *Tx) { tx.Put(entTable, "a", []byte("p/TABLE/a/A")) }); err != nil {
		t.Fatal(err)
	}
	for what, fn := range map[string]func(tx *Tx){
		"a row of the derived table":    func(tx *Tx) { tx.Put(kidTable, kidKey("p", "TABLE", "a"), nil) },
		"a delete of a derived row":     func(tx *Tx) { tx.Delete(kidTable, kidKey("p", "TABLE", "a")) },
		"a value of another parent":     func(tx *Tx) { tx.Put(entTable, "a", []byte("q/TABLE/a/A")) },
		"a value of another type":       func(tx *Tx) { tx.Put(entTable, "a", []byte("p/VIEW/a/A")) },
		"a value that derives no group": func(tx *Tx) { tx.Put(entTable, "a", []byte("garbage")) },
		"a delete, then another group":  func(tx *Tx) { tx.Delete(entTable, "a"); tx.Put(entTable, "a", []byte("q/TABLE/a/A")) },
		"another group over a pending": func(tx *Tx) {
			tx.Put(entTable, "a", []byte("p/TABLE/a/B"))
			tx.Put(entTable, "a", []byte("p/VIEW/a/B"))
		},
		"an empty value over a group one": func(tx *Tx) { tx.Put(entTable, "a", []byte{}) },
	} {
		if err := put(fn); err == nil {
			t.Errorf("%s: committed", what)
		}
	}
	// Deleted, the record keeps its group: a value of another is refused.
	if err := put(func(tx *Tx) { tx.Delete(entTable, "a") }); err != nil {
		t.Fatal(err)
	}
	if err := put(func(tx *Tx) { tx.Put(entTable, "a", []byte("q/TABLE/a/A")) }); err == nil {
		t.Error("a deleted record took a value of another group")
	}
	if err := put(func(tx *Tx) { tx.Put(entTable, "a", []byte("p/TABLE/a/again")) }); err != nil {
		t.Errorf("a deleted record refused a value of its group: %v", err)
	}
	// A record whose first write is a delete holds no value and no group.
	if err := put(func(tx *Tx) { tx.Delete(entTable, "b") }); err != nil {
		t.Fatal(err)
	}
	if err := put(func(tx *Tx) { tx.Put(entTable, "b", []byte("q/VIEW/b/A")) }); err != nil {
		t.Fatalf("a record that never held a value refused its first: %v", err)
	}
	snap, _ := db.Snapshot("ms")
	defer snap.Close()
	if got := kvKeys(snap.Scan(kidTable, "")); !reflect.DeepEqual(got, []string{kidKey("p", "TABLE", "a"), kidKey("q", "VIEW", "b")}) {
		t.Fatalf("rows %q", got)
	}
	checkIndexTracksKeyTable(t, db.stores["ms"])
}

// TestReplayChecksDerivedRows: a log written while the derived rows were
// stored holds them beside their records. Replay drops each after checking
// it against what the records derive — neither the key table, the index nor
// the change log keeps one — and stops at a row that disagrees. A purge
// then deleted the rows of its record's value made active, which another
// record may hold by then: replay drops that delete, and no other.
func TestReplayChecksDerivedRows(t *testing.T) {
	create := walEntry{Op: opCreateMetastore, Metastore: "ms"}
	commit := func(v uint64, ws ...Write) walEntry {
		return walEntry{Op: opCommit, Metastore: "ms", Version: v, Writes: ws}
	}
	put := func(table, key, value string) Write { return Write{Table: table, Key: key, Value: []byte(value)} }
	del := func(table, key string) Write { return Write{Table: table, Key: key, Deleted: true} }
	good := []walEntry{
		create,
		commit(1, put(entTable, "a", "p/TABLE/a/A"), put(kidTable, kidKey("p", "TABLE", "a"), ""), put(nmTable, nmKey("TABLE", "p", "a"), "a"),
			put(locTable, "l", "A|s3://b/l"), put(pthTable, "s3://b/l", "l")),
		commit(2, put(entTable, "b", "p/VIEW/b/A"), put(kidTable, kidKey("p", "VIEW", "b"), "b"), put(nmTable, nmKey("VIEW", "p", "b"), "b")), // the seed's value: the ID
		commit(3, put(entTable, "a", "p/TABLE/a/S"), del(nmTable, nmKey("TABLE", "p", "a"))),
		commit(4, del(entTable, "b"), del(kidTable, kidKey("p", "VIEW", "b")), del(nmTable, nmKey("VIEW", "p", "b"))),
		// l is soft deleted, m takes its path, n is soft deleted elsewhere,
		// and the purge of l deletes the path row m now holds, as a purge
		// did while path rows were stored: replay drops that delete.
		commit(5, put(locTable, "l", "S|s3://b/l"), del(pthTable, "s3://b/l")),
		commit(6, put(locTable, "m", "A|s3://b/l"), put(pthTable, "s3://b/l", "m")),
		commit(7, put(locTable, "n", "S|s3://b/n")),
		commit(8, del(locTable, "l"), del(pthTable, "s3://b/l")),
		// The same for a name: d, soft deleted, is purged after e took
		// its name.
		commit(9, put(entTable, "d", "q/TABLE/x/S")),
		commit(10, put(entTable, "e", "q/TABLE/x/A"), put(nmTable, nmKey("TABLE", "q", "x"), "e")),
		commit(11, del(entTable, "d"), del(kidTable, kidKey("q", "TABLE", "d")), del(nmTable, nmKey("TABLE", "q", "x"))),
	}
	next := uint64(len(good)) // the version after good's last commit
	write := func(entries []walEntry) string {
		t.Helper()
		var log []byte
		for i := range entries {
			f, err := entries[i].frame()
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, f...)
		}
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	db, err := Open(Options{WALPath: write(good)})
	if err != nil {
		t.Fatalf("a log whose rows agree: %v", err)
	}
	ms := db.stores["ms"]
	checkIndexTracksKeyTable(t, ms)
	snap, _ := db.Snapshot("ms")
	if got := kvKeys(snap.Scan(kidTable, "")); !reflect.DeepEqual(got, []string{kidKey("p", "TABLE", "a"), kidKey("q", "TABLE", "e")}) {
		t.Errorf("replayed rows %q", got)
	}
	snap.Close()
	if got := kvKeys(snap.Scan(nmTable, "")); !reflect.DeepEqual(got, []string{"value:" + nmKey("TABLE", "q", "x")}) {
		t.Errorf("replayed name rows %q", got)
	}
	if got := kvKeys(snap.Scan(pthTable, "")); !reflect.DeepEqual(got, []string{"value:s3://b/l"}) {
		t.Errorf("replayed path rows %q", got)
	}
	if id, _ := snap.Get(pthTable, "s3://b/l"); string(id) != "m" {
		t.Errorf("the path row after l's purge names %q, want m", id)
	}
	// The change log names the name rows the records made live and dead,
	// and no child row.
	changes, _ := db.ChangesSince("ms", 0)
	named := 0
	for _, c := range changes {
		switch c.Table {
		case kidTable:
			t.Errorf("the change log names derived row %q", c.Key)
		case nmTable:
			named++
		}
	}
	if named != 5 {
		t.Errorf("the change log names %d name rows, want 5: %v", named, changes)
	}
	db.Close()

	for what, bad := range map[string]Write{
		"a row of no record":               put(kidTable, kidKey("p", "TABLE", "zz"), ""),
		"a row of another group":           put(kidTable, kidKey("q", "TABLE", "a"), ""),
		"a row of another type":            put(kidTable, kidKey("p", "VIEW", "a"), ""),
		"a deleted row of a live record":   del(kidTable, kidKey("p", "TABLE", "a")),
		"a row whose value is not its key": put(kidTable, kidKey("p", "TABLE", "a"), "zz"),
		"a name row of another record":     put(nmTable, nmKey("TABLE", "r", "c"), "zz"),
		"a name row where none is derived": put(nmTable, nmKey("TABLE", "p", "a"), "a"),
		"a name row of no record":          put(nmTable, nmKey("TABLE", "r", "d"), "d"),
		"a deleted name row of a live one": del(nmTable, nmKey("TABLE", "r", "c")),
		"a path row naming another record": put(pthTable, "s3://b/l", "c"),
		"a path row where none is derived": put(pthTable, "s3://b/none", "l"),
		"a deleted path row of a live one": del(pthTable, "s3://b/l"),
	} {
		entries := append(append([]walEntry(nil), good...), commit(next, put(entTable, "c", "r/TABLE/c/A"), bad))
		if db, err := Open(Options{WALPath: write(entries)}); err == nil || !strings.Contains(err.Error(), "derive") {
			if db != nil {
				db.Close()
			}
			t.Errorf("%s: replay says %v", what, err)
		}
	}
	// A purge deletes the rows its record had, not another's.
	entries := append(append([]walEntry(nil), good...), commit(next, del(locTable, "n"), del(pthTable, "s3://b/l")))
	if db, err := Open(Options{WALPath: write(entries)}); err == nil || !strings.Contains(err.Error(), "derive") {
		if db != nil {
			db.Close()
		}
		t.Errorf("a purge deleting another record's path row: replay says %v", err)
	}
	// A record whose group changes in the log stops replay too.
	entries = append(append([]walEntry(nil), good...), commit(next, put(entTable, "a", "q/TABLE/a/A")))
	if _, err := Open(Options{WALPath: write(entries)}); err == nil || errors.Is(err, ErrClosed) {
		t.Errorf("a group change replays: %v", err)
	}
}

// The table "inv" is derived from "src" by key alone, as erm derives the tag
// index from the tags: a record x\0y has the row y\0x, in group y\0. A log of
// the stored rows held the record's value in the row; a row with another
// number of 0 bytes is one no record derives.
const srcTable, invTable = "src", "inv"

func init() {
	DeriveIndex(invTable, srcTable, Derivation{
		Group: func(dst []byte, key string, _ []byte) ([]byte, bool) {
			_, y, ok := strings.Cut(key, "\x00")
			if !ok || strings.IndexByte(y, 0) >= 0 {
				return dst, false
			}
			return append(append(dst, y...), 0), true
		},
		Sort: func(dst []byte, key string, _ []byte) []byte {
			x, _, _ := strings.Cut(key, "\x00")
			return append(dst, x...)
		},
		Names: func(row []byte, _ string, value []byte) bool { return bytes.Equal(row, value) },
		Stray: func(row string) bool { return strings.Count(row, "\x00") != 1 },
	})
}

// TestReplayChecksRowsOfAKeyDerivation: replay of a log that stored a table
// now derived from its records' keys checks each row's value against its
// record's (Derivation.Names), drops a row no record derives by rule
// (Derivation.Stray) and stops at any other row no record derives. The rows
// read back with their records; a rewrite of a record keeps its row, and no
// change names one.
func TestReplayChecksRowsOfAKeyDerivation(t *testing.T) {
	put := func(table, key, value string) Write { return Write{Table: table, Key: key, Value: []byte(value)} }
	del := func(table, key string) Write { return Write{Table: table, Key: key, Deleted: true} }
	log := func(ws ...[]Write) string {
		entries := []walEntry{{Op: opCreateMetastore, Metastore: "ms"}}
		for i, w := range ws {
			entries = append(entries, walEntry{Op: opCommit, Metastore: "ms", Version: uint64(i + 1), Writes: w})
		}
		var b []byte
		for i := range entries {
			f, err := entries[i].frame()
			if err != nil {
				t.Fatal(err)
			}
			b = append(b, f...)
		}
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := [][]Write{
		{put(srcTable, "a\x00t", "1"), put(invTable, "t\x00a", "1"), put(srcTable, "b\x00t", "2"), put(invTable, "t\x00b", "2")},
		{put(srcTable, "a\x00t", "3"), put(invTable, "t\x00a", "3")},
		{put(srcTable, "c\x00t\x00u", "4"), put(invTable, "t\x00u\x00c", "4")}, // a key with a 0 byte too many
		{del(srcTable, "b\x00t"), del(invTable, "t\x00b")},
	}
	db, err := Open(Options{WALPath: log(good...)})
	if err != nil {
		t.Fatalf("a log whose rows agree: %v", err)
	}
	snap, _ := db.Snapshot("ms")
	rows := snap.GroupRows(invTable, "", "", 0)
	if len(rows) != 1 || rows[0].Group+rows[0].Sort != "t\x00a" || rows[0].Key != "a\x00t" || string(rows[0].Value) != "3" {
		t.Errorf("replayed rows %+v", rows)
	}
	snap.Close()
	if _, err := db.Update("ms", func(tx *Tx) error { tx.Put(srcTable, "a\x00t", []byte("5")); return nil }); err != nil {
		t.Fatal(err)
	}
	snap, _ = db.Snapshot("ms")
	if got := kvKeys(snap.Scan(invTable, "t\x00")); !reflect.DeepEqual(got, []string{"t\x00a"}) {
		t.Errorf("after a rewrite, rows %q", got)
	}
	snap.Close()
	changes, _ := db.ChangesSince("ms", 0)
	for _, c := range changes {
		if c.Table == invTable {
			t.Errorf("the change log names derived row %q", c.Key)
		}
	}
	db.Close()
	for what, bad := range map[string]Write{
		"a row whose value is not its record's": put(invTable, "t\x00a", "1"),
		"a row of no record":                    put(invTable, "t\x00z", "3"),
		"a deleted row of a live record":        del(invTable, "t\x00a"),
	} {
		if db, err := Open(Options{WALPath: log(append(good, []Write{bad})...)}); err == nil || !strings.Contains(err.Error(), "derive") {
			if db != nil {
				db.Close()
			}
			t.Errorf("%s: replay says %v", what, err)
		}
	}
}
