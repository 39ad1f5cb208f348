package store

import "strings"

// changeRing is the per-metastore change log: a fixed-capacity ring buffer
// of changes in ascending version order. push is O(1): the ring grows its
// backing array toward capacity, never past it, then overwrites the oldest
// entry in place.
//
// A change is kept as a 24-byte changeSlot that names the record it is about
// and holds no key: a stored table's key is its record's own, and a unique
// derived table's row is derived from its source record's version when the
// log is read (ChangesSince). The table is a number in the ring's table
// names (a metastore has few tables).
//
// changeRing is not internally synchronized; all access happens under the
// owning metastore's stateMu.
type changeRing struct {
	buf      []changeSlot
	start    int // index of the oldest entry once the buffer has wrapped
	capacity int
	tables   []ringTable // by changeSlot.table
	tableNo  map[string]uint32
}

// ringTable is a table the ring has logged changes of: its name and, for a
// derived table, its groups, whose slots name the source record of the row.
type ringTable struct {
	name string
	gi   *groupIndex
}

// changeSlot is one change: at version, the record of a stored table was
// written (deleted: deleted), or the row of a derived table that the source
// record rec derives at version became live, or, deleted, the row it derived
// just before version became dead. rec is the record's head, which stays its
// key's record for as long as any slot names it: a tombstone is reclaimed
// only once its own delete has left the ring, and a commit logs it last.
type changeSlot struct {
	version uint64
	rec     *record
	table   uint32
	deleted bool
}

func newChangeRing(capacity int) changeRing {
	if capacity < 1 {
		capacity = 1
	}
	return changeRing{capacity: capacity, tableNo: map[string]uint32{}}
}

// add gives table name, with gi, its groups if it is derived, the next
// number in the ring and returns it; the ring must not have it yet.
func (r *changeRing) add(name string, gi *groupIndex) uint32 {
	n := uint32(len(r.tables))
	name = strings.Clone(name)
	r.tables = append(r.tables, ringTable{name: name, gi: gi})
	r.tableNo[name] = n
	return n
}

// push appends s, evicting the oldest entry if the ring is full, and returns
// the entry it evicted.
func (r *changeRing) push(s changeSlot) (old changeSlot, evicted bool) {
	if len(r.buf) < r.capacity {
		if len(r.buf) == cap(r.buf) {
			grown := make([]changeSlot, len(r.buf), min(max(2*cap(r.buf), 64), r.capacity))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, s)
		return changeSlot{}, false
	}
	old = r.buf[r.start]
	r.buf[r.start] = s
	r.start = (r.start + 1) % r.capacity
	return old, true
}

// len returns the number of retained changes.
func (r *changeRing) len() int { return len(r.buf) }

// full reports whether the next push evicts, or an earlier one already did.
func (r *changeRing) full() bool { return len(r.buf) == r.capacity }

// at returns the i-th oldest retained change; i must be in [0, len).
func (r *changeRing) at(i int) changeSlot {
	return r.buf[(r.start+i)%len(r.buf)]
}
