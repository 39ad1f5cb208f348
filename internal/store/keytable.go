package store

import "hash/maphash"

// keyTable finds a table's record by key: an open-addressing hash index of
// record pointers, 8 bytes a slot where a Go map entry holds a 16-byte key
// header beside the pointer. A probe compares r.key, the same string the
// B+tree leaf holds.
//
// As in Go's own map, the slots are split into groups of at most
// maxGroupSlots, and a directory indexed by the hash's top bits finds a key's
// group, so growth stays bounded: a group under its maximum doubles, a full
// one splits in two by the next hash bit, and no insert moves more than one
// group's records under the state lock. Within a group a key probes linearly
// from the hash's low bits, and a delete shifts the run behind the hole back
// instead of leaving a tombstone. Groups never shrink: a key is removed only
// when its record is reclaimed, which is rare.
//
// No internal locking: like the B+tree, a keyTable is written under the
// metastore's stateMu write lock (or by WAL replay before the DB is shared)
// and read under its read lock.
type keyTable struct {
	// dir has 1<<depth entries; a group of depth d fills the 1<<(depth-d)
	// consecutive entries that share its d leading bits.
	dir   []*keyGroup
	depth uint8
	n     int // records held
	slots int // slots allocated across groups; n/slots is uc_store_key_fill
}

type keyGroup struct {
	slots []*record // a power of two in [minGroupSlots, maxGroupSlots]
	n     int
	depth uint8 // how many leading hash bits its keys share
}

const (
	minGroupSlots = 8
	maxGroupSlots = 1024
)

// keySeed seeds every key table's hash, so keys cannot be chosen to collide.
var keySeed = maphash.MakeSeed()

func keyHash(key string) uint64 { return maphash.String(keySeed, key) }

func newKeyTable() *keyTable {
	return &keyTable{dir: []*keyGroup{{slots: make([]*record, minGroupSlots)}}, slots: minGroupSlots}
}

// group returns the group that holds hash h's key. A shift by 64 is 0.
func (t *keyTable) group(h uint64) *keyGroup { return t.dir[h>>(64-uint(t.depth))] }

// get returns the record for key, or nil. A nil table holds nothing.
func (t *keyTable) get(key string) *record {
	if t == nil {
		return nil
	}
	h := keyHash(key)
	g := t.group(h)
	mask := uint64(len(g.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if r := g.slots[i]; r == nil || r.key == key {
			return r
		}
	}
}

// insert adds r, whose key the table must not hold. A group is kept at most
// three quarters full, so every probe ends at an empty slot.
func (t *keyTable) insert(r *record) {
	h := keyHash(r.key)
	g := t.group(h)
	if 4*(g.n+1) > 3*len(g.slots) {
		if len(g.slots) < maxGroupSlots {
			t.slots += len(g.slots)
			g.rehash(make([]*record, 2*len(g.slots)))
		} else {
			t.split(g, h)
		}
		g = t.group(h)
	}
	g.place(r, h)
	g.n++
	t.n++
}

// place puts r in the first empty slot from its hash's home slot.
func (g *keyGroup) place(r *record, h uint64) {
	mask := uint64(len(g.slots) - 1)
	i := h & mask
	for g.slots[i] != nil {
		i = (i + 1) & mask
	}
	g.slots[i] = r
}

// rehash moves g's records into slots.
func (g *keyGroup) rehash(slots []*record) {
	old := g.slots
	g.slots = slots
	for _, r := range old {
		if r != nil {
			g.place(r, keyHash(r.key))
		}
	}
}

// split divides the full group g, which holds hash h's key, by the next
// leading hash bit: g keeps the keys where that bit is 0, a new group of the
// same size takes the others, and the directory doubles first if g already
// uses all of its bits.
func (t *keyTable) split(g *keyGroup, h uint64) {
	if g.depth == t.depth {
		dir := make([]*keyGroup, 2*len(t.dir))
		for i, x := range t.dir {
			dir[2*i], dir[2*i+1] = x, x
		}
		t.dir, t.depth = dir, t.depth+1
	}
	old := g.slots
	g.depth++
	g.slots, g.n = make([]*record, len(old)), 0
	hi := &keyGroup{slots: make([]*record, len(old)), depth: g.depth}
	t.slots += len(old)
	bit := uint64(1) << (64 - uint(g.depth))
	for _, r := range old {
		if r == nil {
			continue
		}
		rh := keyHash(r.key)
		to := g
		if rh&bit != 0 {
			to = hi
		}
		to.place(r, rh)
		to.n++
	}
	// g's directory entries are a run of 1<<(t.depth-g.depth+1); hi takes
	// its upper half.
	span := 1 << (t.depth - g.depth)
	first := int(h>>(64-uint(t.depth))) &^ (2*span - 1)
	for i := first + span; i < first+2*span; i++ {
		t.dir[i] = hi
	}
}

// remove drops key's record, if held, and shifts back each record behind it
// in the probe run that may move closer to its home slot.
func (t *keyTable) remove(key string) {
	h := keyHash(key)
	g := t.group(h)
	mask := uint64(len(g.slots) - 1)
	i := h & mask
	for ; g.slots[i] != nil && g.slots[i].key != key; i = (i + 1) & mask {
	}
	if g.slots[i] == nil {
		return
	}
	for j := (i + 1) & mask; g.slots[j] != nil; j = (j + 1) & mask {
		// The record at j may fill the hole at i unless its home lies
		// after i on the way to j.
		if home := keyHash(g.slots[j].key) & mask; (j-home)&mask >= (j-i)&mask {
			g.slots[i] = g.slots[j]
			i = j
		}
	}
	g.slots[i] = nil
	g.n--
	t.n--
}
