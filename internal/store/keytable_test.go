package store

import (
	"fmt"
	"math/rand"
	"testing"
)

// keyTableRecords returns every record t holds, each once.
func keyTableRecords(t *keyTable) []*record {
	var out []*record
	for _, g := range keyTableGroups(t) {
		for _, r := range g.slots {
			if r != nil {
				out = append(out, r)
			}
		}
	}
	return out
}

// keyTableGroups returns t's groups, each once: a group's directory entries
// are consecutive.
func keyTableGroups(t *keyTable) []*keyGroup {
	if t == nil {
		return nil
	}
	var out []*keyGroup
	for i, g := range t.dir {
		if i == 0 || t.dir[i-1] != g {
			out = append(out, g)
		}
	}
	return out
}

// checkKeyTable holds t to its layout: a directory of 1<<depth entries in
// which each group fills the run its leading bits name, groups of a power of
// two slots within bounds and at most one record over three quarters full,
// counts that add up, and every record found by get where it lies.
func checkKeyTable(t *testing.T, kt *keyTable) {
	t.Helper()
	if len(kt.dir) != 1<<kt.depth {
		t.Fatalf("directory of %d entries at depth %d", len(kt.dir), kt.depth)
	}
	n, slots := 0, 0
	for i := 0; i < len(kt.dir); {
		g := kt.dir[i]
		run := 1 << (kt.depth - g.depth)
		if g.depth > kt.depth || i%run != 0 {
			t.Fatalf("group of depth %d at directory entry %d of depth %d", g.depth, i, kt.depth)
		}
		for j := i; j < i+run; j++ {
			if kt.dir[j] != g {
				t.Fatalf("directory entry %d is not its run's group", j)
			}
		}
		size := len(g.slots)
		if size < minGroupSlots || size > maxGroupSlots || size&(size-1) != 0 {
			t.Fatalf("group of %d slots", size)
		}
		held := 0
		for _, r := range g.slots {
			if r == nil {
				continue
			}
			held++
			if kt.group(keyHash(r.key)) != g {
				t.Fatalf("%q lies in a group its hash does not name", r.key)
			}
			if kt.get(r.key) != r {
				t.Fatalf("get(%q) does not find the record its group holds", r.key)
			}
		}
		if held != g.n || 4*(held-1) > 3*size {
			t.Fatalf("group of %d slots holds %d records and counts %d", size, held, g.n)
		}
		n, slots, i = n+held, slots+size, i+run
	}
	if n != kt.n || slots != kt.slots {
		t.Fatalf("table counts %d records in %d slots, its groups %d in %d", kt.n, kt.slots, n, slots)
	}
}

// keysWithHome returns count keys whose hash's low ten bits are low: they
// share a home slot in a group of any size, and with low = maxGroupSlots-1
// that slot is the last, so their probe runs wrap around.
func keysWithHome(low uint64, count int, prefix string) []string {
	var out []string
	for i := 0; len(out) < count; i++ {
		k := fmt.Sprintf("%s%08d", prefix, i)
		if keyHash(k)&(maxGroupSlots-1) == low {
			out = append(out, k)
		}
	}
	return out
}

// TestKeyTableMatchesMap runs a seeded mix of puts, gets and removes against
// a map[string]*record, over keys that collide at every group size — at the
// first slot and at the last, so runs wrap around the end of the slots — and
// enough others that groups grow, split and split unevenly, and a
// remove-heavy phase that shifts runs back. No put may move more than one
// group's worth of records.
func TestKeyTableMatchesMap(t *testing.T) {
	pool := append(keysWithHome(maxGroupSlots-1, 24, "last/"), keysWithHome(0, 24, "first/")...)
	for i := 0; i < 6000; i++ {
		pool = append(pool, fmt.Sprintf("catalog/0001/table/%06d", i))
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kt, ref := newKeyTable(), map[string]*record{}
		splits, maxMoved, peak := 0, 0, 0
		for step := 0; step < 24000; step++ {
			var key string
			if rng.Intn(4) == 0 {
				key = pool[rng.Intn(48)] // a colliding key
			} else {
				key = pool[rng.Intn(len(pool))]
			}
			grow := step < 16000 // then mostly removes
			switch op := rng.Intn(10); {
			case op < 6 && grow || op < 1:
				if kt.get(key) != nil {
					break
				}
				before := map[**record]bool{}
				for _, g := range kt.dir {
					before[&g.slots[0]] = true
				}
				depth, groups := kt.depth, len(keyTableGroups(kt))
				r := &record{key: key}
				kt.insert(r)
				ref[key] = r
				moved := 0
				for _, g := range keyTableGroups(kt) {
					if !before[&g.slots[0]] {
						moved += g.n
						if kt.group(keyHash(key)) == g {
							moved--
						}
					}
				}
				if moved > maxGroupSlots {
					t.Fatalf("seed %d step %d: a put moved %d records", seed, step, moved)
				}
				maxMoved, peak = max(maxMoved, moved), max(peak, kt.n)
				if len(keyTableGroups(kt)) > groups {
					splits++
				}
				if kt.depth < depth {
					t.Fatalf("directory depth fell from %d to %d", depth, kt.depth)
				}
			case op < 7:
				if got := kt.get(key); got != ref[key] {
					t.Fatalf("seed %d step %d: get(%q) = %p, the map holds %p", seed, step, key, got, ref[key])
				}
			default:
				kt.remove(key)
				delete(ref, key)
				if kt.get(key) != nil {
					t.Fatalf("seed %d step %d: %q found after its remove", seed, step, key)
				}
			}
			if kt.n != len(ref) {
				t.Fatalf("seed %d step %d: table holds %d records, the map %d", seed, step, kt.n, len(ref))
			}
			if step%1000 == 999 {
				checkKeyTable(t, kt)
				for k, r := range ref {
					if kt.get(k) != r {
						t.Fatalf("seed %d step %d: get(%q) is not the map's record", seed, step, k)
					}
				}
			}
		}
		checkKeyTable(t, kt)
		// A peak over four full groups' worth of keys needs at least four
		// splits.
		if peak < 4*maxGroupSlots*3/4 || splits < 4 || maxMoved < maxGroupSlots/2 {
			t.Fatalf("seed %d: %d splits at a peak of %d keys, at most %d records moved by a put: the mix did not split groups", seed, splits, peak, maxMoved)
		}
	}
	// A nil table, as for a table never written, holds nothing.
	var none *keyTable
	if none.get("k") != nil {
		t.Fatal("a nil table found a record")
	}
}
