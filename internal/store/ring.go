package store

import "strings"

// changeRing is the per-metastore change log: a fixed-capacity ring buffer
// of Changes in ascending version order. push is O(1): the ring grows its
// backing array toward capacity, never past it, then overwrites the oldest
// entry in place.
//
// A change is kept as a 32-byte changeSlot: the key as it came, the table as
// a number in the ring's table names (a metastore has few tables).
//
// changeRing is not internally synchronized; all access happens under the
// owning metastore's stateMu.
type changeRing struct {
	buf      []changeSlot
	start    int // index of the oldest entry once the buffer has wrapped
	capacity int
	tables   []string // table names, by changeSlot.table
	tableNo  map[string]uint32
}

type changeSlot struct {
	version uint64
	key     string
	table   uint32
	deleted bool
}

func newChangeRing(capacity int) changeRing {
	if capacity < 1 {
		capacity = 1
	}
	return changeRing{capacity: capacity, tableNo: map[string]uint32{}}
}

// push appends c, evicting the oldest entry if the ring is full, and returns
// the entry it evicted.
func (r *changeRing) push(c Change) (old Change, evicted bool) {
	n, ok := r.tableNo[c.Table]
	if !ok {
		n = uint32(len(r.tables))
		name := strings.Clone(c.Table)
		r.tables = append(r.tables, name)
		r.tableNo[name] = n
	}
	s := changeSlot{version: c.Version, key: c.Key, table: n, deleted: c.Deleted}
	if len(r.buf) < r.capacity {
		if len(r.buf) == cap(r.buf) {
			grown := make([]changeSlot, len(r.buf), min(max(2*cap(r.buf), 64), r.capacity))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, s)
		return Change{}, false
	}
	old = r.unpack(r.buf[r.start])
	r.buf[r.start] = s
	r.start = (r.start + 1) % r.capacity
	return old, true
}

func (r *changeRing) unpack(s changeSlot) Change {
	return Change{Version: s.version, Table: r.tables[s.table], Key: s.key, Deleted: s.deleted}
}

// len returns the number of retained changes.
func (r *changeRing) len() int { return len(r.buf) }

// full reports whether the next push evicts, or an earlier one already did.
func (r *changeRing) full() bool { return len(r.buf) == r.capacity }

// at returns the i-th oldest retained change; i must be in [0, len).
func (r *changeRing) at(i int) Change {
	return r.unpack(r.buf[(r.start+i)%len(r.buf)])
}
