package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The path-like derived table these tests run: "pth" is derived from "loc",
// whose values are "state|path", as erm derives the path table from the
// entity table — one group, "", every active record's path its sort key, so
// that the row is the path itself — and a soft-deleted record ("S") or one
// without a path derives none. "pthref" is the same rows written by hand.
const (
	locTable, pthTable, pthRef = "loc", "pth", "pthref"
)

func init() {
	DeriveIndex(pthTable, locTable, Derivation{Group: pthGroup, Sort: pthSort, Unique: true, Revived: pthRevived})
}

func pthParts(value []byte) (state, path []byte) {
	state, path, _ = bytes.Cut(value, []byte("|"))
	return state, path
}

func pthGroup(dst []byte, _ string, value []byte) ([]byte, bool) {
	state, path := pthParts(value)
	return dst, string(state) == "A" && len(path) > 0
}

// pthRevived is value made active.
func pthRevived(_ string, value []byte) []byte {
	_, path := pthParts(value)
	return append([]byte("A|"), path...)
}

func pthSort(dst []byte, _ string, value []byte) []byte {
	_, path := pthParts(value)
	return append(dst, path...)
}

// TestOneGroupOfPaths drives a table whose rows are all in one group through
// thousands of records, in random order: creates, moves to another path, soft
// deletes, undeletes and purges, in commits of one to forty writes, with
// snapshots pinned along the way. After every commit the group holds every
// entry once, in order (checkIndexTracksKeyTable), and every read — point
// reads, whole and prefix scans, pages of 7 — of the newest and of every
// pinned snapshot is what the hand-kept rows read.
func TestOneGroupOfPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db, err := Open(Options{MaxVersionsPerRecord: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateMetastore("ms"); err != nil {
		t.Fatal(err)
	}
	ms := db.stores["ms"]
	type loc struct{ state, path string }
	locs := map[string]*loc{}
	taken := map[string]bool{}
	next := 0
	newPath := func() string {
		for {
			p := fmt.Sprintf("s3://b/%02d/%05d", rng.Intn(40), rng.Intn(100000))
			if !taken[p] {
				return p
			}
		}
	}
	pick := func() string {
		ids := make([]string, 0, len(locs))
		for id := range locs {
			ids = append(ids, id)
		}
		sortStrings(ids)
		return ids[rng.Intn(len(ids))]
	}
	put := func(tx *Tx, id string, l *loc) { tx.Put(locTable, id, []byte(l.state+"|"+l.path)) }
	compare := func(what string, r reader) {
		t.Helper()
		pairs := func(kvs []KV) []string {
			out := []string{}
			for _, kv := range kvs {
				out = append(out, kv.Key+"="+string(kv.Value))
			}
			return out
		}
		for _, prefix := range []string{"", "s3://b/0", "s3://b/17/", "s3://b/3"} {
			want := pairs(r.Scan(pthRef, prefix))
			if got := pairs(r.Scan(pthTable, prefix)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Scan(%q) has %d rows, the rows %d: %s", what, prefix, len(got), len(want), firstDiff(got, want))
			}
		}
		want := pairs(r.Scan(pthRef, ""))
		var got []string
		for start := ""; ; {
			kvs := r.ScanRange(pthTable, start, "", 7)
			got = append(got, pairs(kvs)...)
			if len(kvs) < 7 {
				break
			}
			start = kvs[len(kvs)-1].Key + "\x00"
		}
		if !reflect.DeepEqual(got, want) && len(want) > 0 {
			t.Fatalf("%s: pages of 7: %s", what, firstDiff(got, want))
		}
		for i, kv := range r.Scan(pthRef, "") {
			if i%11 != 0 {
				continue
			}
			for _, k := range []string{kv.Key, kv.Key + "/x", kv.Key[:len(kv.Key)-1]} {
				want, wantOK := r.Get(pthRef, k)
				if got, ok := r.Get(pthTable, k); ok != wantOK || !bytes.Equal(got, want) {
					t.Fatalf("%s: Get(%q) = %q, %v; the rows say %q, %v", what, k, got, ok, want, wantOK)
				}
			}
		}
	}
	var pins []*Snapshot
	for step := 0; step < 120; step++ {
		if _, err := db.Update("ms", func(tx *Tx) error {
			for range 1 + rng.Intn(40) {
				switch k := rng.Intn(10); {
				case k < 6 || len(locs) == 0: // create
					id := fmt.Sprintf("l%05d", next)
					next++
					l := &loc{"A", newPath()}
					locs[id], taken[l.path] = l, true
					put(tx, id, l)
					tx.Put(pthRef, l.path, []byte(id))
				case k < 7: // move to another path
					id := pick()
					l := locs[id]
					if l.state != "A" {
						continue
					}
					tx.Delete(pthRef, l.path)
					delete(taken, l.path)
					l.path = newPath()
					taken[l.path] = true
					put(tx, id, l)
					tx.Put(pthRef, l.path, []byte(id))
				case k < 8: // soft delete or undelete
					id := pick()
					l := locs[id]
					if l.state == "A" {
						l.state = "S"
						delete(taken, l.path)
						tx.Delete(pthRef, l.path)
					} else if !taken[l.path] {
						l.state = "A"
						taken[l.path] = true
						tx.Put(pthRef, l.path, []byte(id))
					}
					put(tx, id, l)
				default: // purge
					id := pick()
					if l := locs[id]; l.state == "A" {
						delete(taken, l.path)
						tx.Delete(pthRef, l.path)
					}
					delete(locs, id)
					tx.Delete(locTable, id)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkIndexTracksKeyTable(t, ms)
		snap, err := db.Snapshot("ms")
		if err != nil {
			t.Fatal(err)
		}
		compare(fmt.Sprintf("step %d", step), snap)
		if step%15 == 0 {
			pins = append(pins, snap)
		} else {
			snap.Close()
		}
		if step%20 == 19 {
			for i, p := range pins {
				compare(fmt.Sprintf("step %d: pin %d at v%d", step, i, p.Version), p)
			}
		}
	}
	for _, p := range pins {
		p.Close()
	}
	ms.stateMu.RLock()
	groups := len(ms.derivedTable(pthTable).groups)
	ms.stateMu.RUnlock()
	if groups != 1 {
		t.Fatalf("the table has %d groups; want one", groups)
	}
}
