package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

func ringVersions(r *changeRing) []uint64 {
	out := make([]uint64, 0, r.len())
	for i := 0; i < r.len(); i++ {
		out = append(out, r.at(i).version)
	}
	return out
}

func TestChangeRingGrowThenWrap(t *testing.T) {
	r := newChangeRing(4)
	if r.len() != 0 {
		t.Fatalf("empty ring len = %d", r.len())
	}
	// Grow phase: appends until capacity.
	for v := uint64(1); v <= 4; v++ {
		r.push(changeSlot{version: v})
		if got := r.len(); got != int(v) {
			t.Fatalf("after push %d: len = %d", v, got)
		}
	}
	if got := ringVersions(&r); got[0] != 1 || got[3] != 4 {
		t.Fatalf("grow phase order = %v", got)
	}
	// Wrap phase: each push evicts the oldest, order stays ascending.
	for v := uint64(5); v <= 11; v++ {
		r.push(changeSlot{version: v})
		if r.len() != 4 {
			t.Fatalf("after wrap push %d: len = %d, want 4", v, r.len())
		}
		got := ringVersions(&r)
		for i, g := range got {
			if want := v - 3 + uint64(i); g != want {
				t.Fatalf("after push %d: ring = %v, want oldest %d ascending", v, got, v-3)
			}
		}
	}
}

// TestChangeRingMatchesReference pushes a seeded mix of changes of records
// over several tables, with deletes, through rings of several capacities and
// holds at(i) and every evicted change to a plain []changeSlot, the table
// names to what was added, and the backing array to the capacity, after every
// push.
func TestChangeRingMatchesReference(t *testing.T) {
	tables := []string{"entity", "name", "child", "path", "grant", "tag"}
	recs := make([]*record, 50)
	for i := range recs {
		recs[i] = &record{key: fmt.Sprintf("k%d", i)}
	}
	for _, capacity := range []int{1, 3, 64, 100, 1000} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		r := newChangeRing(capacity)
		for i, name := range tables {
			if n := r.add(name, nil); n != uint32(i) || r.tables[n].name != name || r.tableNo[name] != n {
				t.Fatalf("cap %d: table %q is number %d, named %q", capacity, name, n, r.tables[n].name)
			}
		}
		var ref []changeSlot // everything pushed; the ring holds its last capacity entries
		for v := uint64(1); v <= uint64(3*capacity+200); v++ {
			for range 1 + rng.Intn(3) { // a commit's changes share its version
				c := changeSlot{version: v, table: uint32(rng.Intn(len(tables))),
					rec: recs[rng.Intn(len(recs))], deleted: rng.Intn(4) == 0}
				old, evicted := r.push(c)
				ref = append(ref, c)
				if wantEvicted := len(ref) > capacity; evicted != wantEvicted {
					t.Fatalf("cap %d, push %d: evicted = %v", capacity, len(ref), evicted)
				} else if evicted && old != ref[len(ref)-1-capacity] {
					t.Fatalf("cap %d, push %d: evicted %+v, want %+v", capacity, len(ref), old, ref[len(ref)-1-capacity])
				}
				if cap(r.buf) > capacity {
					t.Fatalf("cap %d, push %d: backing array holds %d slots", capacity, len(ref), cap(r.buf))
				}
				held := ref[max(0, len(ref)-capacity):]
				if r.len() != len(held) || r.full() != (len(held) == capacity) {
					t.Fatalf("cap %d, push %d: len %d, full %v", capacity, len(ref), r.len(), r.full())
				}
				for i, want := range held {
					if got := r.at(i); got != want {
						t.Fatalf("cap %d, push %d: at(%d) = %+v, want %+v", capacity, len(ref), i, got, want)
					}
				}
			}
		}
	}
	if n := unsafe.Sizeof(changeSlot{}); n != 24 {
		t.Fatalf("a change slot is %d bytes, want 24", n)
	}
}

func TestChangeRingMinCapacity(t *testing.T) {
	r := newChangeRing(0) // clamps to 1
	r.push(changeSlot{version: 1})
	r.push(changeSlot{version: 2})
	if r.len() != 1 || r.at(0).version != 2 {
		t.Fatalf("capacity-1 ring: len = %d, newest = %+v", r.len(), r.at(0))
	}
}

// TestRingHoldsNoKeyOfItsOwn: the change log keeps no copy of a key. Records
// are created, then updated and deleted through key strings the caller builds
// anew, then renamed: every change of a stored table that ChangesSince
// returns has the key string its record holds, not a writer's, and the name
// rows it names are those the creates, deletes and renames made live or dead.
func TestRingHoldsNoKeyOfItsOwn(t *testing.T) {
	db := mustOpen(t, Options{})
	db.CreateMetastore("ms")
	const n = 12
	key := func(i int) string { return fmt.Sprintf("e%02d", i) } // a new string each call
	update := func(fn func(tx *Tx, i int)) {
		t.Helper()
		for i := range n {
			if _, err := db.Update("ms", func(tx *Tx) error { fn(tx, i); return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	update(func(tx *Tx, i int) { tx.Put(entTable, key(i), fmt.Appendf(nil, "p0/TABLE/a%02d/A", i)) })
	update(func(tx *Tx, i int) {
		switch i % 3 {
		case 0:
			tx.Put(entTable, key(i), fmt.Appendf(nil, "p0/TABLE/a%02d/A/updated", i))
		case 1:
			tx.Delete(entTable, key(i))
		}
	})
	update(func(tx *Tx, i int) {
		if i%3 != 1 {
			tx.Put(entTable, key(i), fmt.Appendf(nil, "p0/TABLE/b%02d/A", i))
		}
	})
	changes, err := db.ChangesSince("ms", 0)
	if err != nil {
		t.Fatal(err)
	}
	ms := db.stores["ms"]
	var rows, want []string
	for i := range n {
		a, b := nmKey("TABLE", "p0", fmt.Sprintf("a%02d", i)), nmKey("TABLE", "p0", fmt.Sprintf("b%02d", i))
		want = append(want, a+" live")
		if i%3 == 1 {
			want = append(want, a+" dead")
		} else {
			want = append(want, a+" dead", b+" live")
		}
	}
	for _, c := range changes {
		switch c.Table {
		case entTable:
			r := ms.tables[entTable].get(c.Key)
			if r == nil || unsafe.StringData(c.Key) != unsafe.StringData(r.key) {
				t.Errorf("v%d: change of %q holds a key string its record does not", c.Version, c.Key)
			}
		case nmTable:
			rows = append(rows, fmt.Sprintf("%s %s", c.Key, map[bool]string{false: "live", true: "dead"}[c.Deleted]))
		default:
			t.Errorf("v%d: change of table %s", c.Version, c.Table)
		}
	}
	slices.Sort(rows)
	slices.Sort(want)
	if !slices.Equal(rows, want) {
		t.Errorf("name rows changed %q, want %q", rows, want)
	}
}
