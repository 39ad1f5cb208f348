package store

// Derived tables.
//
// A derived table stores nothing: its rows are a function of another table's
// records. DeriveIndex declares one. A record of the source table whose key
// and value derive a group — a key prefix — and a sort key within it is the
// row group+sort of the derived table, live at exactly the versions at which
// the record is and its value there derives that row. erm declares six:
//
//   - the child table, keyed by its records: an entity's group is
//     parent\0TYPE\0 and its sort key is its own ID, so its row is the
//     parent\0TYPE\0id that ChildKey builds, and a parent's children are a
//     walk of the entity records of its groups;
//   - the name table, unique: an active entity's group is group\0parent\0,
//     its type's name group (erm.NameGroupOf) and its parent, and its sort key
//     its lowered name, the NameKey it is found by; a soft-deleted one derives
//     none;
//   - the path and external-location tables, unique: each is one group, "",
//     and an active entity's sort key is its storage path, so its row is the
//     path itself — one table for external locations, the other for every
//     other type. No other grouping would do: a group that is a prefix of one
//     path is a prefix of every path under it;
//   - the inverted tag index, from the tag records: a tag's group is its tag
//     key and a 0 byte, its sort key securable\0column, both read from the
//     record's key, so its row is tagkey\0securable\0column;
//   - the upstream lineage table, from the edge records: an edge's group is
//     its downstream ID and a 0 byte, its sort key upstream\0job, so its row
//     is downstream\0upstream\0job.
//
// A metastore keeps, per derived table, its groups in ascending order of
// their key, each a slice of entries ordered by the row each derives, then by
// the record's key: an entry is the record itself, under the row its newest
// value (a tombstone's: the one it deleted) derives, or a shadow, under a row
// only older versions still derive. Membership follows the source's key table
// and its versions: a record joins its group when it first holds a value
// (putLocked), a version that moves it to another row leaves a shadow behind
// (putLocked), the shadow goes when pruneLocked drops the last version that
// derives its row, and every entry goes when the record is removed
// (removeRecordLocked). Readers filter every entry through record.at(v), and
// an entry of a unique table also through the row the value at v derives, so
// snapshots, cache views, page cursors and transactions see the rows that
// rows written and deleted beside their records in the same commits would
// show. What keeps that true:
//
//   - a record's row in a table that is not unique never changes: a commit
//     that would give a record a value of another row, or of none after one
//     of a row, is refused, and a replay that meets one fails
//     (checkDerivedLocked). So such a record has one entry, never a shadow,
//     and its row is live whenever it is;
//   - in a unique table, a commit that would leave two live records deriving
//     one row is refused (ErrRowTaken);
//   - a source record's tombstone keeps the value it deletes, so a record
//     reclaimed long after its delete still names its rows. It costs nothing:
//     the version behind the tombstone holds the same bytes;
//   - a derived table takes no writes. A log written while the rows were
//     stored holds them: replay checks each against what the records derive,
//     or a purged record derived (Derivation.Revived), then drops it;
//   - a unique table's row is keyed apart from its record and may move with
//     its value, so no change of its record's names it: a commit finds each
//     such row it makes live or dead (Tx.Rows) and logs it as the table and
//     the source record, with no key; ChangesSince derives the row from the
//     record's version at the change (changedRow), or fails with
//     ErrChangeLogTrimmed once that version is pruned, and caches keep those
//     rows as they keep stored ones. A row of any other table changes only
//     with its record, under the record's own key, and no cache keeps it.
//
// No group key may be a prefix of another. Rows then sort by group, then by
// sort key, which is the order of the row keys themselves whatever bytes a
// sort key holds: two rows of different groups first differ inside the
// shorter group's key. A group that ends in the only 0 byte it holds, as the
// tag index's and the lineage table's do, is prefix-free of every other such
// group; a sort key may hold 0 bytes.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"unsafe"
)

// GroupFunc appends to dst the group that source record key's value derives
// and reports whether it derives one. It keeps neither slice.
type GroupFunc func(dst []byte, key string, value []byte) ([]byte, bool)

// SortFunc appends to dst the sort key that source record key's value derives
// within the group GroupFunc derives from it. It keeps neither slice.
type SortFunc func(dst []byte, key string, value []byte) []byte

// Derivation is what a derived table's rows are made of (see the file
// comment).
type Derivation struct {
	Group GroupFunc
	// Sort derives a row's sort key. Nil keys every row by its record: the
	// sort key is the record's own key.
	Sort SortFunc
	// Unique lets a record's row move with its value and refuses a commit
	// that would leave two live records deriving one row. A table that is not
	// unique refuses a value that moves its record to another row.
	Unique bool
	// Names reports whether row, the value a row of the table held in a log
	// written while the rows were stored, names the record whose key is key
	// and whose value is value. Nil accepts an empty row and the key itself.
	Names func(row []byte, key string, value []byte) bool
	// Stray, if set, reports whether a row such a log put is one that no
	// record derives by rule (a tag whose key held a 0 byte): replay drops it
	// unchecked.
	Stray func(row string) bool
	// Revived, if set, returns the value of a source record stored under key
	// as it would be were the record live: a log written while the rows were
	// stored deletes the rows that form had beside the record it purges,
	// although another record may have come to derive one since, and replay
	// drops such a delete (checkReplayedRowsLocked).
	Revived func(key string, value []byte) []byte
}

// ErrRowTaken is what a commit that would leave two live records deriving one
// row of a unique table fails with, wrapped in a RowTakenError.
var ErrRowTaken = errors.New("store: row already derived by a live record")

// RowTakenError says which row a refused commit would have put a second live
// record under: Table's row Row, which record Holder of the source table is
// live under and Record would be. It wraps ErrRowTaken.
type RowTakenError struct {
	Table, Row, Source, Holder, Record string
}

func (e *RowTakenError) Error() string {
	return fmt.Sprintf("%v: %s row %q: record %s/%s is live under it, %s/%s would be", ErrRowTaken, e.Table, e.Row, e.Source, e.Holder, e.Source, e.Record)
}

func (e *RowTakenError) Unwrap() error { return ErrRowTaken }

type derivation struct {
	table, source string
	Derivation
}

// keyed reports whether every row's sort key is its record's key.
func (d *derivation) keyed() bool { return d.Sort == nil }

// derivations is written only by DeriveIndex, before any DB opens.
var derivations []*derivation

// DeriveIndex declares table a derived table of source (see the file
// comment): every database in the process serves it, and every log is
// replayed with it. Call it from an init function. A source may have several
// derived tables; it panics when table is already a table or a source of
// one, or source is a derived table.
func DeriveIndex(table, source string, d Derivation) {
	for _, o := range derivations {
		if o.table == table || o.source == table || o.table == source {
			panic(fmt.Sprintf("store: DeriveIndex(%q, %q): %q is derived from %q already", table, source, o.table, o.source))
		}
	}
	derivations = append(derivations, &derivation{table: table, source: source, Derivation: d})
}

// ChangesNamed reports whether the change log names every key of table that
// a commit changes: true for a stored table and for a unique derived one,
// false for any other derived one, whose rows change with their records under
// the records' own keys.
func ChangesNamed(table string) bool {
	d := derivationOf(table)
	return d == nil || d.Unique
}

// Derived reports whether table is a derived table: its rows have no key
// stored anywhere, and a reader of one builds the key it asks for.
func Derived(table string) bool { return derivationOf(table) != nil }

func derivationOf(table string) *derivation {
	for _, d := range derivations {
		if d.table == table {
			return d
		}
	}
	return nil
}

// GroupRow is a row of a derived table in its source's terms: Group is the
// key prefix the row shares with its group (the group's own string), Sort the
// row's sort key (Key itself in a table keyed by its records), Key and Value
// the source record's key and value at the reader's version. The row's key in
// the derived table is Group+Sort; its value there is rowValue's.
type GroupRow struct {
	Group string
	Sort  string
	KV
}

// groupIndex is one derived table of a metastore.
type groupIndex struct {
	d      *derivation
	groups []*group // ascending by key
	n      int      // entries across the groups
	gen    uint64   // bumped by every change to groups or their entries
	// found is where the last check of a row that is to be made live
	// (holderLocked) found its first entry, at generation gen: add, putting
	// that row's record in, starts there instead of searching the group again
	// unless the index has changed since.
	found struct {
		row string
		g   *group
		j   int
		gen uint64
	}
}

type group struct {
	key  string
	rows []*record // entries, by row, then key; grown through rowCaps
}

// rowCaps are the sizes a group's array takes up to 511 entries, smallest
// first: each fills its malloc size class (past 512 bytes with the 8-byte
// header Go gives an object of pointers) and is at most about a third over
// the one before, so a group holds few empty slots — append, which doubles a
// small slice, left a 76-entry group 143 slots. Past the last, append grows
// a group by about a quarter.
var rowCaps = [...]int{1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64,
	79, 95, 111, 127, 159, 191, 223, 255, 335, 399, 511}

// withRoom returns rows with room for one more entry: in an array of the
// next of rowCaps' sizes when it is full and smaller than the last.
func withRoom(rows []*record) []*record {
	if len(rows) < cap(rows) {
		return rows
	}
	for _, c := range rowCaps {
		if c > len(rows) {
			return append(make([]*record, 0, c), rows...)
		}
	}
	return rows
}

// shadowCommit marks a shadow: an entry for a row that only older versions of
// its record, prev, derive; its value is one of theirs.
const shadowCommit = ^uint64(0)

// owner returns the record an entry stands for.
func (e *record) owner() *record {
	if e.commit == shadowCommit {
		return e.prev
	}
	return e
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

// sources reports whether table is the source of any derived table.
func (m *metastore) sources(table string) bool {
	for _, gi := range m.derived {
		if gi.d.source == table {
			return true
		}
	}
	return false
}

// rowBufs hold the rows readers derive, one buffer a read.
var rowBufs = sync.Pool{New: func() any { return new([]byte) }}

// readBuf returns a buffer for a read of gi to derive rows in, to be handed
// back with putReadBuf; nil for a keyed table, whose readers derive nothing
// (sortOf, holds).
func (gi *groupIndex) readBuf() *[]byte {
	if gi.d.keyed() {
		return nil
	}
	return rowBufs.Get().(*[]byte)
}

func putReadBuf(buf *[]byte) {
	if buf != nil {
		rowBufs.Put(buf)
	}
}

// rowOf appends to dst the row that record key's value derives, group then
// sort key, and returns it with the group's length; ok is false when it
// derives none.
func (gi *groupIndex) rowOf(dst []byte, key string, value []byte) (row []byte, group int, ok bool) {
	n := len(dst)
	b, ok := gi.d.Group(dst, key, value)
	if !ok {
		return b[:n], 0, false
	}
	group = len(b) - n
	if gi.d.keyed() {
		return append(b, key...), group, true
	}
	return gi.d.Sort(b, key, value), group, true
}

// sortOf returns the sort key of entry e: its record's key in a keyed table,
// else derived into *buf.
func (gi *groupIndex) sortOf(buf *[]byte, e *record) []byte {
	if gi.d.keyed() {
		return keyBytes(e.key)
	}
	*buf = gi.d.Sort((*buf)[:0], e.key, e.value())
	return *buf
}

// rowValue is the value of record key's row: the record's key in a unique
// table, else empty.
func (gi *groupIndex) rowValue(key string) []byte {
	if !gi.d.Unique {
		return []byte{}
	}
	return keyBytes(key)
}

// keepSort returns sort, the sort key of record r's row during a walk, as a
// string that outlives the walk.
func (gi *groupIndex) keepSort(r *record, sort []byte) string {
	if gi.d.keyed() {
		return r.key
	}
	return string(sort)
}

func str(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// keyBytes is a record's key as a row value: the store's own string, which no
// one writes to.
func keyBytes(key string) []byte { return unsafe.Slice(unsafe.StringData(key), len(key)) }

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

// search returns the position in g.rows of the first entry at or after
// (sort, key). A row past the group's last entry or before its first — a
// managed path, which ends in a time-ordered ID, and its prefixes — costs one
// or two derivations, not a search's.
func (gi *groupIndex) search(g *group, buf *[]byte, sort, key string) int {
	before := func(e *record) bool {
		c := strings.Compare(str(gi.sortOf(buf, e)), sort)
		return c < 0 || c == 0 && e.key < key
	}
	n := len(g.rows)
	if n == 0 || before(g.rows[n-1]) {
		return n
	}
	if !before(g.rows[0]) {
		return 0
	}
	lo, hi := 1, n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if before(g.rows[mid]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// add puts entry e in group key (making the group if it is new) under sort:
// an entry of the same record already there gives way to it. key and sort
// may be scratch, but not buf, where the search derives.
func (gi *groupIndex) add(key, sort string, e *record, buf *[]byte) {
	g, j := gi.foundAt(key, sort, buf, e.key)
	if g == nil {
		i, found := gi.find(key)
		if !found {
			gi.groups = slices.Insert(gi.groups, i, &group{key: strings.Clone(key)})
		}
		g = gi.groups[i]
		j = gi.search(g, buf, sort, e.key)
	}
	gi.gen++
	if j < len(g.rows) && g.rows[j].key == e.key && str(gi.sortOf(buf, g.rows[j])) == sort {
		g.rows[j] = e
		return
	}
	g.rows = slices.Insert(withRoom(g.rows), j, e)
	gi.n++
}

// foundAt returns the group of row key+sort and the position of the first
// entry at or after (sort, rec) in it, as search would, from where the last
// check found the row (holderLocked) if the index has not changed since;
// else nil. The walk from there passes the row's entries of records before
// rec: shadows and dead records, seldom more than one.
func (gi *groupIndex) foundAt(key, sort string, buf *[]byte, rec string) (*group, int) {
	f := &gi.found
	if f.g == nil || f.gen != gi.gen || f.g.key != key || len(f.row) != len(key)+len(sort) || f.row[len(key):] != sort {
		return nil, 0
	}
	j := f.j
	for j < len(f.g.rows) && f.g.rows[j].key < rec && str(gi.sortOf(buf, f.g.rows[j])) == sort {
		j++
	}
	return f.g, j
}

// remove takes record r's entry under (key, sort) out of its group, and
// drops the group once it is empty. With shadowOnly, an entry that is r
// itself stays. As for add, key and sort are not in buf.
func (gi *groupIndex) remove(key, sort string, r *record, buf *[]byte, shadowOnly bool) {
	i, found := gi.find(key)
	if !found {
		return
	}
	g := gi.groups[i]
	j := gi.search(g, buf, sort, r.key)
	if j == len(g.rows) || g.rows[j].owner() != r || shadowOnly && g.rows[j] == r || str(gi.sortOf(buf, g.rows[j])) != sort {
		return
	}
	gi.gen++
	g.rows = slices.Delete(g.rows, j, j+1)
	gi.n--
	if len(g.rows) == 0 {
		gi.groups = slices.Delete(gi.groups, i, i+1)
	}
}

// holds reports whether entry e, under row group+sort, stands for its record
// r's value val at a reader's version: a record's row in a table that is not
// unique never changes, and any other's value holds the row if it is the
// entry's own or derives it. buf's contents up to its length are kept.
func (gi *groupIndex) holds(buf *[]byte, e, r *record, val []byte, group string, sort []byte) bool {
	if !gi.d.Unique || unsafe.SliceData(val) == e.data {
		return true
	}
	n := len(*buf)
	b, g, ok := gi.rowOf(*buf, r.key, val)
	match := ok && str(b[n:n+g]) == group && str(b[n+g:]) == str(sort)
	*buf = b[:n]
	return match
}

// lookupLocked returns the record whose row is k at version v and its value
// there, or nil. Caller holds ms.stateMu.
func (gi *groupIndex) lookupLocked(k string, v uint64) (*record, []byte) {
	g := gi.holding(k)
	if g == nil {
		return nil, nil
	}
	sort := k[len(g.key):]
	buf := gi.readBuf()
	defer putReadBuf(buf)
	for i := gi.search(g, buf, sort, ""); i < len(g.rows); i++ {
		e := g.rows[i]
		s := gi.sortOf(buf, e)
		if str(s) != sort {
			break
		}
		r := e.owner()
		if val, live := r.at(v); live && gi.holds(buf, e, r, val, g.key, s) {
			return r, val
		}
	}
	return nil, nil
}

// walkLocked calls fn for each record whose row has prefix and lies in
// [start, end) (end "" unbounded) and that is live at v, in row order, until
// fn returns false: with the row's group, the record, the row's sort key
// (valid during the call; keepSort keeps it) and the record's value at v.
// Caller holds ms.stateMu.
func (gi *groupIndex) walkLocked(prefix, start, end string, v uint64, fn func(g *group, r *record, sort, val []byte) bool) {
	lo := max(start, prefix)
	i, found := gi.find(lo)
	if !found && i > 0 && strings.HasPrefix(lo, gi.groups[i-1].key) {
		i--
	}
	buf := gi.readBuf()
	defer putReadBuf(buf)
	for ; i < len(gi.groups); i++ {
		g := gi.groups[i]
		from := ""
		if strings.HasPrefix(lo, g.key) {
			from = lo[len(g.key):]
		}
		for j := gi.search(g, buf, from, ""); j < len(g.rows); j++ {
			e := g.rows[j]
			s := gi.sortOf(buf, e)
			if !joinedHasPrefix(g.key, str(s), prefix) || end != "" && compareJoined(g.key, str(s), end) >= 0 {
				return
			}
			r := e.owner()
			if val, live := r.at(v); live && gi.holds(buf, e, r, val, g.key, s) && !fn(g, r, s, val) {
				return
			}
		}
	}
}

// rowsLocked returns up to limit (<= 0: all) rows whose keys have prefix and
// lie in [start, end), live at v, as the derived table's rows: each key is
// group+sort, its value rowValue's. The keys share one string, built once.
// Caller holds ms.stateMu.
func (gi *groupIndex) rowsLocked(prefix, start, end string, v uint64, limit int) []KV {
	var (
		out    []KV
		groups []string // the group of each row
		sorts  sortKeys
		size   int
	)
	gi.walkLocked(prefix, start, end, v, func(g *group, r *record, sort, _ []byte) bool {
		if out == nil && limit > 0 {
			n := min(limit, gi.n)
			out, groups = make([]KV, 0, n), make([]string, 0, n)
		}
		sorts.add(sort)
		out = append(out, KV{Value: gi.rowValue(r.key)})
		groups = append(groups, g.key)
		size += len(g.key) + len(sort)
		return limit <= 0 || len(out) < limit
	})
	var b strings.Builder
	b.Grow(size)
	for i := range out {
		b.WriteString(groups[i])
		b.Write(sorts.at(i))
	}
	keys := b.String()
	for i := range out {
		n := len(groups[i]) + len(sorts.at(i))
		out[i].Key, keys = keys[:n], keys[n:]
	}
	return out
}

// groupRowsLocked is rowsLocked in the source's terms (GroupRow): the sort
// keys a table not keyed by its records derives share one string.
func (gi *groupIndex) groupRowsLocked(start, end string, v uint64, limit int) []GroupRow {
	var (
		out   []GroupRow
		sorts sortKeys
	)
	keyed := gi.d.keyed()
	gi.walkLocked("", start, end, v, func(g *group, r *record, sort, val []byte) bool {
		if out == nil && limit > 0 {
			n := min(limit, gi.n)
			out = make([]GroupRow, 0, n)
			if !keyed { // sized for n sort keys of the first one's length
				sorts.b, sorts.ends = make([]byte, 0, n*len(sort)), make([]int, 0, n)
			}
		}
		out = append(out, GroupRow{Group: g.key, Sort: r.key, KV: KV{Key: r.key, Value: val}})
		if !keyed {
			sorts.add(sort)
		}
		return limit <= 0 || len(out) < limit
	})
	if !keyed {
		all := str(sorts.b) // no one writes to sorts.b again
		for i := range out {
			n := len(sorts.at(i))
			out[i].Sort, all = all[:n], all[n:]
		}
	}
	return out
}

// sortKeys collects the sort keys of a walk's rows, one after another.
type sortKeys struct {
	b    []byte
	ends []int
}

func (s *sortKeys) add(sort []byte) {
	s.b = append(s.b, sort...)
	s.ends = append(s.ends, len(s.b))
}

// at returns the i-th sort key added.
func (s *sortKeys) at(i int) []byte {
	from := 0
	if i > 0 {
		from = s.ends[i-1]
	}
	return s.b[from:s.ends[i]]
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

// entered is what putLocked does to a derived table of a record it changes.
type entered struct {
	gi    *groupIndex
	enter bool // put the record's new value under the row it derives
}

// leaveLocked is putLocked's first half for the derived tables of table: the
// newest version of record r, which holds a value, is about to give way to
// value (a delete: keeps its own). A unique table whose row the new version
// changes gets a shadow of the old one in the record's place, and is returned
// to enterLocked, which puts the record under its new row once it holds it.
// Caller holds stateMu for writing.
func (m *metastore) leaveLocked(table string, r *record, value []byte, deleted bool, out []entered) []entered {
	for _, gi := range m.derived {
		if gi.d.source != table || !gi.d.Unique || deleted {
			continue
		}
		b, g, wasOK := gi.rowOf(m.scratch[:0], r.key, r.value())
		n := len(b)
		b, _, nowOK := gi.rowOf(b, r.key, value)
		m.scratch = b[:0]
		if wasOK == nowOK && string(b[:n]) == string(b[n:]) {
			continue
		}
		if wasOK {
			sh := &record{key: r.key, commit: shadowCommit, data: r.data, n: r.n, prev: r}
			gi.add(str(b[:g]), str(b[g:n]), sh, &m.search)
		}
		out = append(out, entered{gi: gi, enter: nowOK})
	}
	return out
}

// enterLocked is putLocked's second half: record r, now holding its new
// version, joins the rows it derives — every derived table's when held is
// false (it held no value before), else those leaveLocked returned. Caller
// holds stateMu for writing.
func (m *metastore) enterLocked(table string, r *record, held bool, moved []entered) {
	if !held {
		if r.deleted {
			return
		}
		for _, gi := range m.derived {
			if gi.d.source == table {
				moved = append(moved, entered{gi: gi, enter: true})
			}
		}
	}
	for _, mv := range moved {
		if !mv.enter {
			continue
		}
		b, g, ok := mv.gi.rowOf(m.scratch[:0], r.key, r.value())
		m.scratch = b[:0]
		if ok {
			mv.gi.add(str(b[:g]), str(b[g:]), r, &m.search)
		}
	}
}

// unshadowLocked drops the shadows of record r that only the versions in
// gone — cut off r's history by pruneLocked — still derived: a row that a
// version r keeps derives stays. Caller holds stateMu for writing.
func (m *metastore) unshadowLocked(table string, r, gone *record) {
	for _, gi := range m.derived {
		if gi.d.source != table || !gi.d.Unique {
			continue
		}
		for d := gone; d != nil; d = d.prev {
			if d.data == nil {
				continue
			}
			b, g, ok := gi.rowOf(m.scratch[:0], r.key, d.value())
			m.scratch = b[:0]
			if ok && !m.keptRowLocked(gi, r, b) {
				gi.remove(str(b[:g]), str(b[g:]), r, &m.search, true)
			}
		}
	}
}

// keptRowLocked reports whether a version in r's history derives row, which
// is at the start of m.scratch's array and stays there.
func (m *metastore) keptRowLocked(gi *groupIndex, r *record, row []byte) bool {
	for x := r; x != nil; x = x.prev {
		if x.data == nil {
			continue
		}
		b, _, ok := gi.rowOf(row, r.key, x.value())
		same := ok && string(b[len(row):]) == string(row)
		row = b[:len(row)]
		if same {
			m.scratch = row[:0]
			return true
		}
	}
	m.scratch = row[:0]
	return false
}

// leaveAllLocked takes record r out of every row of table's derived tables
// that any version of it derives. Caller holds stateMu for writing.
func (m *metastore) leaveAllLocked(table string, r *record) {
	for _, gi := range m.derived {
		if gi.d.source != table {
			continue
		}
		for x := r; x != nil; x = x.prev {
			if x.data == nil {
				continue
			}
			b, g, ok := gi.rowOf(m.scratch[:0], r.key, x.value())
			m.scratch = b[:0]
			if ok {
				gi.remove(str(b[:g]), str(b[g:]), r, &m.search, false)
			}
			if !gi.d.Unique {
				break // the record's row never changes
			}
		}
	}
}

// carriedLocked returns the value record key of table would carry after the
// pending commits: the newest value written to it, a delete keeping the one
// before it. ok is false when it never held one; live says whether the newest
// version is not a delete. Caller holds stateMu.
func (m *metastore) carriedLocked(table, key string) (val []byte, ok, live bool) {
	live = true
	for i := len(m.pending) - 1; i >= 0; i-- {
		p := m.pending[i]
		if j := p.find(table, key); j >= 0 {
			if !p.writes[j].Deleted {
				return p.writes[j].Value, true, live
			}
			live = false
		}
	}
	if r := m.tables[table].get(key); r != nil && r.data != nil {
		return r.value(), true, live && !r.deleted
	}
	return nil, false, false
}

// checkDerivedLocked refuses writes a derived table cannot take: a value
// that would move its record to another row of a table that is not unique,
// or out of its row or into one after it held a value of none; and, unless
// the writes are a replay's (tx nil: replay checks the derived rows a log
// holds itself), a write to a derived table, and rows a unique table would
// have two live records under once transaction tx, whose writes they are, is
// in (checkTakenLocked). It appends to rows the rows of unique tables that
// the writes make live or dead, and returns them. Caller holds stateMu for
// writing.
func (m *metastore) checkDerivedLocked(writes []Write, tx *Tx, rows []Write) ([]Write, error) {
	from := len(rows)
	for i := range writes {
		w := &writes[i]
		if gi := m.derivedTable(w.Table); gi != nil {
			if tx == nil {
				continue
			}
			return rows, fmt.Errorf("store: table %s is derived from table %s and takes no writes", w.Table, gi.d.source)
		}
		if !m.sources(w.Table) {
			continue
		}
		old, held, wasLive := m.carriedLocked(w.Table, w.Key)
		for _, gi := range m.derived {
			if gi.d.source != w.Table {
				continue
			}
			if gi.d.Unique {
				rows = m.rowChangeLocked(gi, w, old, held && wasLive, rows)
			} else if err := m.checkFixedLocked(gi, w, old, held); err != nil {
				return rows, err
			}
		}
	}
	if tx == nil {
		return rows, nil
	}
	return rows, m.checkTakenLocked(tx, rows[from:])
}

// checkFixedLocked refuses a write that would move a record of a table that
// is not unique to another row, out of its row, or into one after it held a
// value of none; old is the value it carries, if held.
func (m *metastore) checkFixedLocked(gi *groupIndex, w *Write, old []byte, held bool) error {
	if w.Deleted || !held {
		return nil
	}
	// Both rows go to the scratch buffer, one behind the other.
	b, _, wasOK := gi.rowOf(m.scratch[:0], w.Key, old)
	n := len(b)
	b, _, nowOK := gi.rowOf(b, w.Key, w.Value)
	m.scratch = b[:0]
	if wasOK != nowOK || string(b[:n]) != string(b[n:]) {
		return fmt.Errorf("store: %s/%s: the value would move the record from row %q to %q of table %s", w.Table, w.Key, b[:n], b[n:], gi.d.table)
	}
	return nil
}

// rowChangeLocked appends to rows the row of gi, a unique table, that write w
// makes dead and the one it makes live, if it changes the row its record is
// live under (old, if wasLive), each with the record's key as its value.
func (m *metastore) rowChangeLocked(gi *groupIndex, w *Write, old []byte, wasLive bool, rows []Write) []Write {
	b := m.scratch[:0]
	n, wasOK := 0, false
	if wasLive {
		b, _, wasOK = gi.rowOf(m.scratch[:0], w.Key, old)
		n = len(b)
	}
	nowOK := false
	if !w.Deleted {
		b, _, nowOK = gi.rowOf(b[:n], w.Key, w.Value)
	}
	m.scratch = b[:0]
	if wasOK == nowOK && (!wasOK || string(b[:n]) == string(b[n:])) {
		return rows
	}
	if wasOK {
		rows = append(rows, Write{Table: gi.d.table, Key: string(b[:n]), Value: keyBytes(w.Key), Deleted: true})
	}
	if nowOK {
		rows = append(rows, Write{Table: gi.d.table, Key: string(b[n:]), Value: keyBytes(w.Key)})
	}
	return rows
}

// changedRow appends to dst the row of gi, a unique table, that change s
// names (logCommitLocked): the row its source record's version at s.version
// derives or, when the change is the row's death, the row the version before
// it derived, which a tombstone keeps itself. ok is false when that version
// is no longer in the record's history (pruneLocked). Caller holds
// ms.stateMu.
func (gi *groupIndex) changedRow(dst []byte, s changeSlot) (row []byte, ok bool) {
	x := s.rec
	for x != nil && x.commit > s.version {
		x = x.prev
	}
	if x == nil || x.commit != s.version {
		return dst, false
	}
	if s.deleted && !x.deleted {
		x = x.prev // the version the write replaced, which was live
	}
	if x == nil || x.deleted != (s.deleted && x.commit == s.version) || x.data == nil {
		return dst, false
	}
	row, _, ok = gi.rowOf(dst, s.rec.key, x.value())
	return row, ok
}

// checkTakenLocked fails with a RowTakenError when a row that rows, the rows tx
// changes, make live has another record live under it once tx is in: one the
// store holds or a pending commit writes (holderLocked), or another of tx's
// writes. Caller holds stateMu for writing.
func (m *metastore) checkTakenLocked(tx *Tx, rows []Write) error {
	live := 0
	for i := range rows {
		if !rows[i].Deleted {
			live++
		}
	}
	var made map[[2]string]string // with several live rows: each one's record
	if live > 1 {
		made = make(map[[2]string]string, live)
	}
	for i := range rows {
		rw := &rows[i]
		if rw.Deleted {
			continue
		}
		gi, key := m.derivedTable(rw.Table), str(rw.Value)
		holder, taken := m.holderLocked(gi, tx, rw.Key, key)
		if made != nil && !taken {
			k := [2]string{rw.Table, rw.Key}
			holder, taken = made[k]
			made[k] = key
		}
		if taken {
			return &RowTakenError{Table: rw.Table, Row: rw.Key, Source: gi.d.source, Holder: holder, Record: key}
		}
	}
	return nil
}

// holderLocked returns a record other than key that the store holds or a
// pending commit writes and that is live under row once tx is in. Caller
// holds stateMu for writing.
func (m *metastore) holderLocked(gi *groupIndex, tx *Tx, row, key string) (string, bool) {
	// liveUnder reports whether record k, carrying val (live), derives row
	// once tx is in.
	liveUnder := func(k string, val []byte, live bool) bool {
		if i := tx.find(gi.d.source, k); i >= 0 {
			val, live = tx.writes[i].Value, !tx.writes[i].Deleted
		}
		if !live {
			return false
		}
		b, _, ok := gi.rowOf(m.scratch[:0], k, val)
		m.scratch = b[:0]
		return ok && string(b) == row
	}
	// The applied records under row, at their newest versions; where the
	// row's entries start is kept for the commit's add.
	if g := gi.holding(row); g != nil {
		sort := row[len(g.key):]
		i := gi.search(g, &m.scratch, sort, "")
		gi.found.row, gi.found.g, gi.found.j, gi.found.gen = row, g, i, gi.gen
		for ; i < len(g.rows); i++ {
			e := g.rows[i]
			if str(gi.sortOf(&m.scratch, e)) != sort {
				break
			}
			r := e.owner()
			if r.key == key {
				continue
			}
			val, _, live := m.carriedLocked(gi.d.source, r.key)
			if liveUnder(r.key, val, live) {
				return r.key, true
			}
		}
	}
	// The records the pending commits give a value.
	for _, p := range m.pending {
		for i := range p.writes {
			w := &p.writes[i]
			if w.Table != gi.d.source || w.Key == key || w.Deleted {
				continue
			}
			if val, _, live := m.carriedLocked(gi.d.source, w.Key); liveUnder(w.Key, val, live) {
				return w.Key, true
			}
		}
	}
	return "", false
}

// checkReplayedRowsLocked checks the derived rows a replayed commit at
// version v wrote against what its records derive once the commit's other
// writes are in: a row put must be live and name its record (Names, by
// default an empty value or, as the seed wrote it, its record's key) unless
// the table's Stray drops it, and a row deleted must not be live unless the
// commit deletes a record whose revived value derives it (purgedLocked).
// Caller has the metastore to itself.
func (m *metastore) checkReplayedRowsLocked(writes []Write, v uint64) error {
	for i := range writes {
		w := &writes[i]
		gi := m.derivedTable(w.Table)
		if gi == nil {
			continue
		}
		r, val := gi.lookupLocked(w.Key, v)
		live := r != nil
		if live && w.Deleted && m.purgedLocked(gi, writes, w.Key) || !live && !w.Deleted && gi.d.Stray != nil && gi.d.Stray(w.Key) {
			continue
		}
		named := false
		switch {
		case r == nil:
		case gi.d.Names != nil:
			named = gi.d.Names(w.Value, r.key, val)
		default:
			named = len(w.Value) == 0 || string(w.Value) == r.key
		}
		if live == w.Deleted || !w.Deleted && !named {
			return fmt.Errorf("version %d writes %s row %q (deleted %v, value %q), and the %s records derive it live: %v",
				v, w.Table, w.Key, w.Deleted, w.Value, gi.d.source, live)
		}
	}
	return nil
}

// purgedLocked reports whether writes, a replayed commit's, delete a record of
// gi's source whose value, revived (Derivation.Revived), derives row: the
// record's row while rows were stored, which a log of then deletes beside it.
// The tombstone keeps the value it deletes. Caller has the metastore to
// itself.
func (m *metastore) purgedLocked(gi *groupIndex, writes []Write, row string) bool {
	if gi.d.Revived == nil {
		return false
	}
	for i := range writes {
		w := &writes[i]
		if w.Table != gi.d.source || !w.Deleted {
			continue
		}
		r := m.tables[w.Table].get(w.Key)
		if r == nil || !r.deleted {
			continue
		}
		b, _, ok := gi.rowOf(m.scratch[:0], w.Key, gi.d.Revived(w.Key, r.value()))
		m.scratch = b[:0]
		if ok && string(b) == row {
			return true
		}
	}
	return false
}
