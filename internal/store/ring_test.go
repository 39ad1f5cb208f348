package store

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

func ringVersions(r *changeRing) []uint64 {
	out := make([]uint64, 0, r.len())
	for i := 0; i < r.len(); i++ {
		out = append(out, r.at(i).Version)
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
		r.push(Change{Version: v})
		if got := r.len(); got != int(v) {
			t.Fatalf("after push %d: len = %d", v, got)
		}
	}
	if got := ringVersions(&r); got[0] != 1 || got[3] != 4 {
		t.Fatalf("grow phase order = %v", got)
	}
	// Wrap phase: each push evicts the oldest, order stays ascending.
	for v := uint64(5); v <= 11; v++ {
		r.push(Change{Version: v})
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

// TestChangeRingMatchesReference pushes a seeded mix of changes over several
// tables, with deletes, through rings of several capacities and holds at(i)
// and every evicted change to a plain []Change, and the backing array to the
// capacity, after every push.
func TestChangeRingMatchesReference(t *testing.T) {
	tables := []string{"entity", "name", "child", "path", "grant", "tag"}
	for _, capacity := range []int{1, 3, 64, 100, 1000} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		r := newChangeRing(capacity)
		var ref []Change // everything pushed; the ring holds its last capacity entries
		for v := uint64(1); v <= uint64(3*capacity+200); v++ {
			for range 1 + rng.Intn(3) { // a commit's changes share its version
				c := Change{Version: v, Table: tables[rng.Intn(len(tables))],
					Key: fmt.Sprintf("k%d", rng.Intn(50)), Deleted: rng.Intn(4) == 0}
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
	if n := unsafe.Sizeof(changeSlot{}); n != 32 {
		t.Fatalf("a change slot is %d bytes, want 32", n)
	}
}

func TestChangeRingMinCapacity(t *testing.T) {
	r := newChangeRing(0) // clamps to 1
	r.push(Change{Version: 1})
	r.push(Change{Version: 2})
	if r.len() != 1 || r.at(0).Version != 2 {
		t.Fatalf("capacity-1 ring: len = %d, newest = %+v", r.len(), r.at(0))
	}
}
