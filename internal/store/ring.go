package store

// changeRing is the per-metastore change log: a fixed-capacity ring buffer
// of Changes in ascending version order. The seed kept a plain slice and
// trimmed it by reallocating on every commit once full — an O(ChangeLogSize)
// copy (~164 KB at the default size) on the write hot path. The ring makes
// append O(1): it grows the backing slice only until capacity, then
// overwrites the oldest entry in place.
//
// changeRing is not internally synchronized; all access happens under the
// owning metastore's stateMu.
type changeRing struct {
	buf      []Change
	start    int // index of the oldest entry once the buffer has wrapped
	capacity int
}

func newChangeRing(capacity int) changeRing {
	if capacity < 1 {
		capacity = 1
	}
	return changeRing{capacity: capacity}
}

// push appends c, evicting the oldest entry if the ring is full, and returns
// the entry it evicted.
func (r *changeRing) push(c Change) (old Change, evicted bool) {
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, c)
		return Change{}, false
	}
	old = r.buf[r.start]
	r.buf[r.start] = c
	r.start = (r.start + 1) % r.capacity
	return old, true
}

// len returns the number of retained changes.
func (r *changeRing) len() int { return len(r.buf) }

// full reports whether the next push evicts, or an earlier one already did.
func (r *changeRing) full() bool { return len(r.buf) == r.capacity }

// at returns the i-th oldest retained change; i must be in [0, len).
func (r *changeRing) at(i int) Change {
	return r.buf[(r.start+i)%len(r.buf)]
}
