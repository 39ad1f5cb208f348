package store

// Derived tables.
//
// A derived table stores nothing: its rows are a function of another table's
// records. DeriveIndex declares one. A record of the source table whose value
// derives a group — a key prefix — is the row group+key of the derived table,
// live at exactly the versions at which the record is. erm declares the child
// table so: an entity's group is parent\0TYPE\0, so its row is the
// parent\0TYPE\0id that ChildKey builds, and a parent's children are a walk of
// the entity records of its groups.
//
// A metastore keeps, per derived table, its groups in ascending order of
// their key, each a B+tree of the source's records ordered by their own key.
// Membership follows the source's key table, as the source's own tree does: a
// record joins its group when it first holds a value (putLocked) and leaves it
// when it is removed (removeRecordLocked). Readers filter every record through
// record.at(v), so snapshots, cache views, page cursors and transactions see
// the rows that a record and its row written and deleted in the same commits
// would show. What keeps that true:
//
//   - a record's group never changes: a commit that would give a record a
//     value of another group, or of none after one of a group, is refused,
//     and a replay that meets one fails (checkDerivedLocked);
//   - a source record's tombstone keeps the value it deletes, so a record
//     reclaimed long after its delete still names its group. It costs
//     nothing: the version behind the tombstone holds the same bytes;
//   - a derived table takes no writes. A log written while the rows were
//     stored holds them: replay checks each against what the records derive,
//     then drops it.
//
// No group key may be a prefix of another: rows then sort by group, then by
// the record's key, which is the order of the row keys themselves.

import (
	"fmt"
	"slices"
	"strings"
	"unsafe"
)

// GroupFunc appends to dst the group a source record's value derives and
// reports whether it derives one. It keeps neither slice.
type GroupFunc func(dst, value []byte) ([]byte, bool)

type derivation struct {
	table, source string
	group         GroupFunc
}

// derivations is written only by DeriveIndex, before any DB opens.
var derivations []*derivation

// DeriveIndex declares table a derived table of source (see the file
// comment): every database in the process serves it, and every log is
// replayed with it. Call it from an init function. It panics when either
// table already takes part in a derivation.
func DeriveIndex(table, source string, group GroupFunc) {
	for _, d := range derivations {
		if d.table == table || d.source == table || d.table == source || d.source == source {
			panic(fmt.Sprintf("store: DeriveIndex(%q, %q): %q is derived from %q already", table, source, d.table, d.source))
		}
	}
	derivations = append(derivations, &derivation{table: table, source: source, group: group})
}

// Derived reports whether table is a derived table.
func Derived(table string) bool {
	for _, d := range derivations {
		if d.table == table {
			return true
		}
	}
	return false
}

// GroupRow is a row of a derived table in its source's terms: Group is the
// key prefix the row shares with its group (the group's own string), Key and
// Value the source record's key and value at the reader's version. The row's
// key in the derived table is Group+Key; its value there is empty.
type GroupRow struct {
	Group string
	KV
}

// groupIndex is one derived table of a metastore.
type groupIndex struct {
	d      *derivation
	groups []*group // ascending by key
	n      int      // records across the groups
}

type group struct {
	key  string
	recs btree
}

func newGroupIndexes() []*groupIndex {
	out := make([]*groupIndex, len(derivations))
	for i, d := range derivations {
		out[i] = &groupIndex{d: d}
	}
	return out
}

// derivedTable returns the groups of derived table table, nil for any other.
func (m *metastore) derivedTable(table string) *groupIndex {
	for _, gi := range m.derived {
		if gi.d.table == table {
			return gi
		}
	}
	return nil
}

// derivedFrom returns the derived table whose source is table, or nil.
func (m *metastore) derivedFrom(table string) *groupIndex {
	for _, gi := range m.derived {
		if gi.d.source == table {
			return gi
		}
	}
	return nil
}

// groupOf derives the group of value into the metastore's scratch buffer: the
// result is valid until the next call. Caller holds stateMu for writing.
func (m *metastore) groupOf(gi *groupIndex, value []byte) (string, bool) {
	b, ok := gi.d.group(m.scratch[:0], value)
	m.scratch = b[:0]
	if !ok {
		return "", false
	}
	return unsafe.String(unsafe.SliceData(b), len(b)), true
}

// find returns the position of the first group whose key is >= k, and
// whether that group's key is k.
func (gi *groupIndex) find(k string) (int, bool) {
	return slices.BinarySearchFunc(gi.groups, k, func(g *group, k string) int { return strings.Compare(g.key, k) })
}

// holding returns the group whose key starts row key k, or nil.
func (gi *groupIndex) holding(k string) *group {
	i, found := gi.find(k)
	if found {
		return gi.groups[i]
	}
	if i > 0 && strings.HasPrefix(k, gi.groups[i-1].key) {
		return gi.groups[i-1]
	}
	return nil
}

// add puts r in group key, making the group if it is new; key may be scratch.
func (gi *groupIndex) add(key string, r *record) {
	i, found := gi.find(key)
	if !found {
		gi.groups = slices.Insert(gi.groups, i, &group{key: strings.Clone(key), recs: btree{root: &bnode{leaf: true}}})
	}
	g := gi.groups[i]
	size := g.recs.size
	g.recs.insert(r)
	gi.n += g.recs.size - size
}

// remove takes r out of group key, and drops the group once it is empty.
func (gi *groupIndex) remove(key string, r *record) {
	i, found := gi.find(key)
	if !found {
		return
	}
	g := gi.groups[i]
	size := g.recs.size
	g.recs.delete(r.key)
	gi.n -= size - g.recs.size
	if g.recs.size == 0 {
		gi.groups = slices.Delete(gi.groups, i, i+1)
	}
}

// lookup returns the record of row key k, or nil.
func (gi *groupIndex) lookup(k string) *record {
	g := gi.holding(k)
	if g == nil {
		return nil
	}
	var r *record
	id := k[len(g.key):]
	g.recs.ascend(id, func(x *record) bool {
		if x.key == id {
			r = x
		}
		return false
	})
	return r
}

// walkLocked calls fn for each record whose row has prefix and lies in
// [start, end) (end "" unbounded) and that is live at v, in row order, until
// fn returns false. Caller holds ms.stateMu.
func (gi *groupIndex) walkLocked(prefix, start, end string, v uint64, fn func(g *group, r *record, val []byte) bool) {
	lo := max(start, prefix)
	i, found := gi.find(lo)
	if !found && i > 0 && strings.HasPrefix(lo, gi.groups[i-1].key) {
		i--
	}
	for ; i < len(gi.groups); i++ {
		g := gi.groups[i]
		from, more := "", true
		if strings.HasPrefix(lo, g.key) {
			from = lo[len(g.key):]
		}
		g.recs.ascend(from, func(r *record) bool {
			if !joinedHasPrefix(g.key, r.key, prefix) || end != "" && compareJoined(g.key, r.key, end) >= 0 {
				more = false
				return false
			}
			if val, live := r.at(v); live && !fn(g, r, val) {
				more = false
				return false
			}
			return true
		})
		if !more {
			return
		}
	}
}

// rowsLocked returns up to limit (<= 0: all) rows whose keys have prefix and
// lie in [start, end), live at v, as the derived table's rows: each key is
// group+key, their values empty. The keys share one string, built once.
// Caller holds ms.stateMu.
func (gi *groupIndex) rowsLocked(prefix, start, end string, v uint64, limit int) []KV {
	var (
		out    []KV
		groups []string // the group of each row
		size   int
	)
	gi.walkLocked(prefix, start, end, v, func(g *group, r *record, _ []byte) bool {
		if out == nil && limit > 0 {
			n := min(limit, gi.n)
			out, groups = make([]KV, 0, n), make([]string, 0, n)
		}
		out, groups = append(out, KV{Key: r.key, Value: []byte{}}), append(groups, g.key)
		size += len(g.key) + len(r.key)
		return limit <= 0 || len(out) < limit
	})
	var b strings.Builder
	b.Grow(size)
	for i := range out {
		b.WriteString(groups[i])
		b.WriteString(out[i].Key)
	}
	keys := b.String()
	for i := range out {
		n := len(groups[i]) + len(out[i].Key)
		out[i].Key, keys = keys[:n], keys[n:]
	}
	return out
}

// compareJoined compares a+b with s without joining them.
func compareJoined(a, b, s string) int {
	if len(s) <= len(a) {
		if c := strings.Compare(a[:len(s)], s); c != 0 || len(a)+len(b) == len(s) {
			return c
		}
		return 1
	}
	if c := strings.Compare(a, s[:len(a)]); c != 0 {
		return c
	}
	return strings.Compare(b, s[len(a):])
}

// joinedHasPrefix reports whether a+b starts with p.
func joinedHasPrefix(a, b, p string) bool {
	if len(p) <= len(a) {
		return strings.HasPrefix(a, p)
	}
	return strings.HasPrefix(p, a) && strings.HasPrefix(b, p[len(a):])
}

// carriedLocked returns the value record key of table would carry after the
// pending commits: the newest value written to it, a delete keeping the one
// before it. ok is false when it never held one. Caller holds stateMu.
func (m *metastore) carriedLocked(table, key string) (val []byte, ok bool) {
	for i := len(m.pending) - 1; i >= 0; i-- {
		p := m.pending[i]
		if j := p.find(table, key); j >= 0 && !p.writes[j].Deleted {
			return p.writes[j].Value, true
		}
	}
	if r := m.tables[table].get(key); r != nil && r.data != nil {
		return r.value(), true
	}
	return nil, false
}

// checkDerivedLocked refuses writes a derived table cannot take: a write to a
// derived table itself, unless replay is set (replay checks those rows
// itself), and a value that would move its record to another group, or out
// of its group or into one after it held a value of none. Caller holds
// stateMu for writing.
func (m *metastore) checkDerivedLocked(writes []Write, replay bool) error {
	for i := range writes {
		w := &writes[i]
		if gi := m.derivedTable(w.Table); gi != nil {
			if replay {
				continue
			}
			return fmt.Errorf("store: table %s is derived from table %s and takes no writes", w.Table, gi.d.source)
		}
		gi := m.derivedFrom(w.Table)
		if gi == nil || w.Deleted {
			continue
		}
		old, held := m.carriedLocked(w.Table, w.Key)
		if !held {
			continue
		}
		// Both groups go to the scratch buffer, one behind the other.
		b, wasOK := gi.d.group(m.scratch[:0], old)
		if !wasOK {
			b = b[:0]
		}
		n := len(b)
		b, nowOK := gi.d.group(b, w.Value)
		if !nowOK {
			b = b[:n]
		}
		m.scratch = b[:0]
		if wasOK != nowOK || string(b[:n]) != string(b[n:]) {
			return fmt.Errorf("store: %s/%s: the value would move the record from group %q to %q of table %s", w.Table, w.Key, b[:n], b[n:], gi.d.table)
		}
	}
	return nil
}

// checkReplayedRowsLocked checks the derived rows a replayed commit at
// version v wrote against what its records derive once the commit's other
// writes are in: a row put must be live, a row deleted must not be, and a
// row's value is empty or, as the seed wrote it, its record's key. Caller has
// the metastore to itself.
func (m *metastore) checkReplayedRowsLocked(writes []Write, v uint64) error {
	for i := range writes {
		w := &writes[i]
		gi := m.derivedTable(w.Table)
		if gi == nil {
			continue
		}
		r := gi.lookup(w.Key)
		if _, live := r.at(v); live == w.Deleted || len(w.Value) != 0 && (r == nil || string(w.Value) != r.key) {
			return fmt.Errorf("version %d writes %s row %q (deleted %v, value %q), and the %s records derive it live: %v",
				v, w.Table, w.Key, w.Deleted, w.Value, gi.d.source, live)
		}
	}
	return nil
}
