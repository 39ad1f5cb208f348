package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// The unique derived table these tests run: "nm" is derived from "ent", as
// erm derives the name table from the entity table — an active record's row is
// group\0parent\0lowered-name, TABLE and VIEW sharing the group REL, and a
// soft-deleted one ("S") derives none; "nmref" is the same rows written by
// hand, with the record's key as the value, beside every "ent" write that
// changes them, which is how the name table was kept before it was derived.
const (
	nmTable, nmRef = "nm", "nmref"
)

func init() {
	DeriveIndex(nmTable, entTable, Derivation{Group: nmGroup, Sort: nmSort, Unique: true, Revived: nmRevived})
}

// nmParts reads "parent/TYPE/name/state".
func nmParts(value []byte) (parent, typ, name, state []byte, ok bool) {
	parts := bytes.Split(value, []byte("/"))
	if len(parts) < 3 {
		return nil, nil, nil, nil, false
	}
	if len(parts) > 3 {
		state = parts[3]
	}
	return parts[0], parts[1], parts[2], state, true
}

func nmGroupOf(typ string) string {
	if typ == "TABLE" || typ == "VIEW" {
		return "REL"
	}
	return typ
}

func nmGroup(dst []byte, _ string, value []byte) ([]byte, bool) {
	parent, typ, _, state, ok := nmParts(value)
	if !ok || string(state) == "S" {
		return dst, false
	}
	return append(append(append(append(dst, nmGroupOf(string(typ))...), 0), parent...), 0), true
}

// nmRevived is value made active.
func nmRevived(_ string, value []byte) []byte {
	parent, typ, name, _, _ := nmParts(value)
	return bytes.Join([][]byte{parent, typ, name, []byte("A")}, []byte("/"))
}

func nmSort(dst []byte, _ string, value []byte) []byte {
	_, _, name, _, _ := nmParts(value)
	return append(dst, strings.ToLower(string(name))...)
}

func nmKey(typ, parent, name string) string {
	return nmGroupOf(typ) + "\x00" + parent + "\x00" + strings.ToLower(name)
}

// compareNames holds every read of the name table through r to the same read
// of the hand-kept rows: whole and prefix scans over every group, parent and
// name's first letter, point reads of every row and its neighbours, and every
// range cut into pages of 1 and of 3 rows, read both as rows and as group
// rows, whose records must be the source's at r's version.
func compareNames(t *testing.T, what string, r reader, parents []string) {
	t.Helper()
	prefixes := []string{""}
	for _, g := range []string{"REL", "VOLUME"} {
		for _, p := range parents {
			prefixes = append(prefixes, g+"\x00"+p+"\x00")
			for _, c := range "abgd" {
				prefixes = append(prefixes, g+"\x00"+p+"\x00"+string(c))
			}
		}
	}
	pairs := func(kvs []KV) []string {
		out := []string{}
		for _, kv := range kvs {
			out = append(out, kv.Key+"="+string(kv.Value))
		}
		return out
	}
	rowPairs := func(rows []GroupRow) []string {
		out := []string{}
		for _, row := range rows {
			if v, ok := r.Get(entTable, row.Key); !ok || !bytes.Equal(v, row.Value) {
				t.Fatalf("%s: group row %q carries %q, the record reads %q (%v)", what, row.Group+row.Sort, row.Value, v, ok)
			}
			out = append(out, row.Group+row.Sort+"="+row.Key)
		}
		return out
	}
	for _, prefix := range prefixes {
		want := pairs(r.Scan(nmRef, prefix))
		if got := pairs(r.Scan(nmTable, prefix)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Scan(%q) = %q, the rows %q", what, prefix, got, want)
		}
		end := PrefixEnd(prefix)
		if got := rowPairs(r.GroupRows(nmTable, prefix, end, 0)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: GroupRows(%q) = %q, the rows %q", what, prefix, got, want)
		}
		for _, page := range []int{1, 3} {
			got, gotRows := []string{}, []string{}
			for start, rowStart := prefix, prefix; ; {
				kvs := r.ScanRange(nmTable, start, end, page)
				rows := r.GroupRows(nmTable, rowStart, end, page)
				got, gotRows = append(got, pairs(kvs)...), append(gotRows, rowPairs(rows)...)
				if len(kvs) < page || len(rows) < page {
					break
				}
				start = kvs[len(kvs)-1].Key + "\x00"
				last := rows[len(rows)-1]
				rowStart = last.Group + last.Sort + "\x00"
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotRows, want) {
				t.Fatalf("%s: pages of %d under %q are %q and %q, the rows %q", what, page, prefix, got, gotRows, want)
			}
		}
	}
	for _, kv := range r.Scan(nmRef, "") {
		for _, k := range []string{kv.Key, kv.Key + "x", kv.Key[:len(kv.Key)-1], strings.ToUpper(kv.Key)} {
			want, wantOK := r.Get(nmRef, k)
			if got, ok := r.Get(nmTable, k); ok != wantOK || !bytes.Equal(got, want) {
				t.Fatalf("%s: Get(%q) = %q, %v; the rows say %q, %v", what, k, got, ok, want, wantOK)
			}
		}
	}
}

// TestDerivedNameIndexMatchesRows runs a seeded mix of create, rename (A to B
// to A, and case only), soft delete, undelete, purge, delete and create again
// under the same name, and metastore drop over a small change log and two
// versions a record, and holds the unique derived table to the rows the old
// rule wrote — a row exists iff an active record derives it — at every
// version: through the newest snapshot after each commit, through snapshots
// pinned along the way, through ScanRangeAt and GroupRowsAt, and through
// transactions that read while another commit is pending and after writes of
// their own. A create, rename or undelete onto a live record's row is refused
// (ErrRowTaken) and changes nothing. Each commit's changes name exactly the
// rows it changed, and checkIndexTracksKeyTable holds the entries to the key
// table and its versions after every commit.
func TestDerivedNameIndexMatchesRows(t *testing.T) {
	parents, types := []string{"p0", "p1"}, []string{"TABLE", "VIEW", "VOLUME"}
	pool := []string{"alpha", "Beta", "gamma", "DELTA"}
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
		ents := map[string]*ent{}
		next := 0
		value := func(e *ent) []byte { return []byte(e.parent + "/" + e.typ + "/" + e.name + "/" + e.state) }
		row := func(e *ent) string { return nmKey(e.typ, e.parent, e.name) }
		taken := func(r, except string) bool {
			for id, e := range ents {
				if id != except && e.state == "A" && row(e) == r {
					return true
				}
			}
			return false
		}
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
		cased := func(name string) string {
			if rng.Intn(2) == 0 {
				return strings.ToUpper(name[:1]) + name[1:]
			}
			return strings.ToLower(name)
		}
		renames, caseOnly, refused, recreated := 0, 0, 0, 0
		// op buffers one random operation into tx, the hand-kept rows beside
		// the record as the old rule wrote them. An operation onto a live
		// record's row is buffered only if conflict is set, without the rows
		// and without changing the model, and op reports it.
		op := func(tx *Tx, conflict bool) (refuse bool) {
			create := func(e *ent) bool {
				id := fmt.Sprintf("e%04d", next)
				next++
				if taken(row(e), "") {
					if conflict {
						tx.Put(entTable, id, value(e))
					}
					return conflict
				}
				ents[id] = e
				tx.Put(entTable, id, value(e))
				tx.Put(nmRef, row(e), []byte(id))
				return false
			}
			switch k := rng.Intn(12); {
			case k < 4 || len(ents) == 0: // create
				return create(&ent{parents[rng.Intn(len(parents))], types[rng.Intn(len(types))], cased(pool[rng.Intn(len(pool))]), "A"})
			case k < 6: // rename, a third of them in case only
				id := pick("A")
				if id == "" {
					return false
				}
				e := ents[id]
				moved := *e
				if rng.Intn(3) == 0 {
					moved.name = strings.ToUpper(e.name)
					if moved.name == e.name {
						moved.name = strings.ToLower(e.name)
					}
				} else {
					moved.name = cased(pool[rng.Intn(len(pool))])
				}
				if row(&moved) != row(e) && taken(row(&moved), id) {
					if conflict {
						tx.Put(entTable, id, value(&moved))
					}
					return conflict
				}
				renames++
				if row(&moved) == row(e) {
					caseOnly++
				} else {
					tx.Delete(nmRef, row(e))
					tx.Put(nmRef, row(&moved), []byte(id))
				}
				*e = moved
				tx.Put(entTable, id, value(e))
			case k < 7: // soft delete
				if id := pick("A"); id != "" {
					tx.Delete(nmRef, row(ents[id]))
					ents[id].state = "S"
					tx.Put(entTable, id, value(ents[id]))
				}
			case k < 8: // undelete
				id := pick("S")
				if id == "" {
					return false
				}
				back := *ents[id]
				back.state = "A"
				if taken(row(&back), id) {
					if conflict {
						tx.Put(entTable, id, value(&back))
					}
					return conflict
				}
				*ents[id] = back
				tx.Put(entTable, id, value(&back))
				tx.Put(nmRef, row(&back), []byte(id))
			case k < 10: // purge
				if id := pick(""); id != "" {
					e := ents[id]
					delete(ents, id)
					tx.Delete(entTable, id)
					if e.state == "A" {
						tx.Delete(nmRef, row(e))
					}
				}
			default: // delete, then create another under the same name
				if id := pick("A"); id != "" {
					e := ents[id]
					delete(ents, id)
					tx.Delete(entTable, id)
					tx.Delete(nmRef, row(e))
					recreated++
					return create(&ent{e.parent, e.typ, cased(e.name), "A"})
				}
			}
			return false
		}
		type pin struct {
			snap *Snapshot
			v    uint64
		}
		var pins []pin
		sawPending := 0
		ms := db.stores["ms"]
		for step := 0; step < 160; step++ {
			switch {
			case step%60 == 59: // drop the metastore and start again
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
				if got := snap.Scan(nmTable, ""); len(got) != 0 {
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
						op(tx, false)
						op(tx, false)
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
					compareNames(t, fmt.Sprintf("seed %d step %d: a tx over a pending commit", seed, step), tx, parents)
					op(tx, false)
					op(tx, false)
					compareNames(t, fmt.Sprintf("seed %d step %d: a tx after its own writes", seed, step), tx, parents)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				wg.Wait()
				db.opts.CommitLatency = 0
			default:
				before, _ := db.Version("ms")
				refuse := false
				v, err := db.Update("ms", func(tx *Tx) error {
					refuse = op(tx, true)
					return nil
				})
				if refuse {
					if !errors.Is(err, ErrRowTaken) || v != before {
						t.Fatalf("seed %d step %d: a commit onto a live row: version %d, %v", seed, step, v, err)
					}
					refused++
				} else if err != nil {
					t.Fatal(err)
				} else if v > before {
					// The commit's changes name exactly the rows it changed.
					changes, err := db.ChangesSince("ms", v-1)
					if err == nil {
						got, want := map[string]bool{}, map[string]bool{}
						for _, c := range changes {
							switch c.Table {
							case nmTable:
								got[c.Key] = true
							case nmRef:
								want[c.Key] = true
							}
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d step %d: version %d names rows %v, changed %v", seed, step, v, got, want)
						}
					}
				}
			}
			checkIndexTracksKeyTable(t, ms)
			snap, err := db.Snapshot("ms")
			if err != nil {
				t.Fatal(err)
			}
			compareNames(t, fmt.Sprintf("seed %d step %d v%d", seed, step, snap.Version), snap, parents)
			kvs, err := db.ScanRangeAt("ms", snap.Version, nmTable, "", "", "", 0)
			rows, err2 := db.GroupRowsAt("ms", snap.Version, nmTable, "", "", 0)
			ref := keysOf(snap.Scan(nmRef, ""))
			gotRows := []string{}
			for _, r := range rows {
				gotRows = append(gotRows, r.Group+r.Sort)
			}
			if err != nil || err2 != nil || !reflect.DeepEqual(keysOf(kvs), ref) || !reflect.DeepEqual(gotRows, ref) {
				t.Fatalf("seed %d step %d: ScanRangeAt %q and GroupRowsAt %q (%v, %v), the rows %q", seed, step, keysOf(kvs), gotRows, err, err2, ref)
			}
			if n, want := snap.Count(nmTable, ""), snap.Count(nmRef, ""); n != want {
				t.Fatalf("seed %d step %d: Count %d, the rows %d", seed, step, n, want)
			}
			if rng.Intn(3) == 0 {
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
				if step%3 != 0 {
					break
				}
				compareNames(t, fmt.Sprintf("seed %d step %d: snapshot pinned at v%d", seed, step, p.v), p.snap, parents)
			}
		}
		for _, p := range pins {
			p.snap.Close()
		}
		if sawPending == 0 || renames == 0 || caseOnly == 0 || refused == 0 || recreated == 0 {
			t.Errorf("seed %d: %d reads over a pending commit, %d renames (%d in case only), %d refusals, %d names taken again", seed, sawPending, renames, caseOnly, refused, recreated)
		}
		if n := db.IndexSize(nmTable); n != ms.derivedTable(nmTable).n {
			t.Errorf("seed %d: IndexSize(%s) = %d, the groups hold %d", seed, nmTable, n, ms.derivedTable(nmTable).n)
		}
		db.Close()
	}
}

func keysOf(kvs []KV) []string {
	out := []string{}
	for _, kv := range kvs {
		out = append(out, kv.Key)
	}
	return out
}

// TestRowTakenWithinAndAcrossCommits: a commit is refused when two of its
// own writes make one row live, or when a pending commit already makes it
// live; two records that swap names in one commit are no conflict; and a
// commit that makes 20,000 rows live checks them in one pass each, not
// against each other write in turn.
func TestRowTakenWithinAndAcrossCommits(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	if err := db.CreateMetastore("ms"); err != nil {
		t.Fatal(err)
	}
	put := func(kvs ...string) error {
		_, err := db.Update("ms", func(tx *Tx) error {
			for i := 0; i < len(kvs); i += 2 {
				tx.Put(entTable, kvs[i], []byte(kvs[i+1]))
			}
			return nil
		})
		return err
	}
	if err := put("a", "p/TABLE/x/A", "b", "p/VIEW/X/A"); !errors.Is(err, ErrRowTaken) {
		t.Fatalf("two writes onto one row: %v", err)
	}
	if err := put("a", "p/TABLE/x/A", "b", "p/TABLE/y/A"); err != nil {
		t.Fatal(err)
	}
	if err := put("a", "p/TABLE/y/A", "b", "p/TABLE/x/A"); err != nil {
		t.Fatalf("a swap in one commit: %v", err)
	}
	s, _ := db.Snapshot("ms")
	if id, _ := s.Get(nmTable, nmKey("TABLE", "p", "y")); string(id) != "a" {
		t.Fatalf("after the swap y is %q", id)
	}
	s.Close()

	db.opts.CommitLatency = 20 * time.Millisecond
	sequenced, done := make(chan struct{}), make(chan error)
	go func() {
		_, err := db.Update("ms", func(tx *Tx) error {
			tx.Put(entTable, "c", []byte("p/TABLE/z/A"))
			close(sequenced)
			return nil
		})
		done <- err
	}()
	<-sequenced
	err := put("d", "p/VIEW/Z/A")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	db.opts.CommitLatency = 0
	if !errors.Is(err, ErrRowTaken) {
		t.Fatalf("a write onto a pending commit's row: %v", err)
	}

	const n = 20000
	kvs := make([]string, 0, 2*n)
	for i := 0; i < n; i++ {
		kvs = append(kvs, fmt.Sprintf("bulk%05d", i), fmt.Sprintf("q/TABLE/t%05d/A", i))
	}
	start := time.Now()
	if err := put(kvs...); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("a %d-row commit took %v", n, took)
	}
	if err := put(append(kvs, "dup", "q/TABLE/T19999/A")...); !errors.Is(err, ErrRowTaken) {
		t.Fatalf("a bulk commit with one row taken: %v", err)
	}
}
