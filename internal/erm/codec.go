package erm

// Compact binary encoding for Entity records.
//
// The seed stored every entity as JSON, which at catalog cardinality is the
// dominant memory cost: field names are repeated in every value, times are
// RFC 3339 strings, and decoding allocates a fresh copy of highly repetitive
// strings ("TABLE", "ACTIVE", the owner principal) for every entity touched
// by a scan. The compact format is a flat, versioned byte layout:
//
//	magic version flags | length-prefixed strings | times | properties | spec
//
// Strings are uvarint-length-prefixed; times use time.MarshalBinary;
// properties are sorted by key so encoding is deterministic. The first byte
// (0xE1) is disjoint from '{', so DecodeEntity transparently accepts JSON
// values written by older versions — no store migration is needed, records
// converge to the compact form as they are rewritten.
//
// On decode, the type, state, and owner strings are interned through a
// bounded table: ten million tables should share one "TABLE" string, not
// hold ten million copies.
//
// # Backing-string ownership
//
// A decoded property-less entity costs three allocations when it is decoded on
// its own (DecodeEntityAt): the Entity, the spec copy, and ONE string holding
// the record's string region, of which Name, ParentID, FullName, Comment and
// StoragePath are substrings. A multi-entity read (DecodeEntities — every
// list page, query plan and unpaged listing) costs the same three for the
// whole batch: the entities are elements of one []Entity, their strings are
// substrings of one string holding every record's string region, and their
// specs are capacity-limited slices of one buffer, so any one entity of a
// page keeps the whole page's slab alive. What the fields alias:
//
//   - Type, Owner and State come from the intern table, or past its cap are
//     copies of their own; they never alias a record or a slab.
//   - ID is the key the record was read by, handed in by the caller: an
//     exactly-sized string (a point read by name or path, an ID the API was
//     given), or a substring of a key the store itself keeps for as long as
//     the entity exists (IndexedID: the child key a listing scanned; the
//     entity-table key of a scan). Never a substring of the slab.
//   - Name, ParentID, FullName, Comment and StoragePath are substrings of the
//     record's or the page's backing string; Spec of the page's spec buffer.
//
// A substring keeps its whole backing alive, so the rule is:
//
//   - request-scoped code uses the fields freely — the entity, and with it
//     the backing, dies with the request;
//   - e.ID (and Type, Owner, State) may be kept by anyone;
//   - anything that keeps another string field of a decoded entity past the
//     request — a map key or struct field of an index, a history, a memo, a
//     follower's document — must strings.Clone it first, or it pins the
//     record's backing (~5x the bytes it uses) or a page's (~500x). Today's
//     holders: search (a document's FullName; and each distinct token,
//     cloned once when the index first sees it, never kept as a substring of
//     the lowered text it was cut from), the event history (stageEvent's
//     FullName), lineage (node FullName), the compiled authorization
//     snapshots (Securable.Parent, copied where the memo files it:
//     privilege's memo.remember) and pathtrie (path segments, which it
//     copies while splitting). The two holders a listed page reaches — the
//     metadata cache's miss-fill key and the authorization memo's keys — keep
//     IDs only. uc.TestPageRetention pages through every table, drops the
//     pages and measures what is still in use.
//
// Entities built in memory by the write path (CreateAsset and friends) own
// ordinary strings.
//
// # Shared entities
//
// A fourth provenance besides the single decode, the page slab and the write
// path: an entity from a point read through a reader that keeps decoded forms
// (GetEntity, GetByName, GetByPath through a DecodedReader — a cache.View) is
// decoded once per cached record version and is the cache's own. It is
//
//   - shared: every request that reads that record at that version, on any
//     goroutine, holds the same *Entity;
//   - immutable: no field, no Properties entry and no byte of Spec may be
//     written, exactly as the bytes View.Get returns may not. Clone is how a
//     writer gets an entity of its own (UpdateAsset, RenameAsset,
//     SetWorkspaceBindings, Undelete), and a transaction reads through its
//     store.Tx, which keeps decoding privately (softDeleteTree);
//   - as long-lived as its cached version: eviction, reconciliation and
//     version pruning drop the entity with the record, a commit installs the
//     next version with nothing decoded, and a request still holding the
//     entity keeps it (and the record's bytes) alive until it returns.
//
// What its fields alias: ID is the cache's own key for the record (never the
// string a later reader passed); Name, ParentID, FullName, Comment and
// StoragePath are substrings of one backing string, as in any single decode;
// Spec is a capacity-limited slice of the cached record itself — the cached
// version that holds the entity holds those bytes anyway — so the decode is
// two allocations, not three. The retention rule above is unchanged: a holder
// that outlives the request still clones the strings it keeps.
// catalog.TestSharedEntityDifferential holds every such read to a private
// decode of the store's bytes under concurrent writers; the poison checks
// (cache.EachDecoded against DecodeEntityAt, after TestMultiNodeDifferential
// and after every mutating route of the server) fail a writer by the
// entity's ID. Batch reads never see a shared entity and never make one.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

const (
	codecMagic   = 0xE1 // first byte of compact records; JSON starts with '{'
	codecVersion = 1
	numStrFields = 9 // id, type, name, parent, full name, owner, comment, path, state
)

// Entity flag bits.
const (
	flagManaged = 1 << iota
	flagDeleted
)

// EncodeEntity renders e in the compact binary format.
func EncodeEntity(e *Entity) ([]byte, error) {
	b := make([]byte, 0, 96+len(e.Spec))
	b = append(b, codecMagic, codecVersion)
	var flags byte
	if e.Managed {
		flags |= flagManaged
	}
	if e.DeletedAt != nil {
		flags |= flagDeleted
	}
	b = append(b, flags)
	b = appendStr(b, string(e.ID))
	b = appendStr(b, string(e.Type))
	b = appendStr(b, e.Name)
	b = appendStr(b, string(e.ParentID))
	b = appendStr(b, e.FullName)
	b = appendStr(b, string(e.Owner))
	b = appendStr(b, e.Comment)
	b = appendStr(b, e.StoragePath)
	b = appendStr(b, string(e.State))
	var err error
	if b, err = appendTime(b, e.CreatedAt); err != nil {
		return nil, fmt.Errorf("erm: encode created_at: %w", err)
	}
	if b, err = appendTime(b, e.UpdatedAt); err != nil {
		return nil, fmt.Errorf("erm: encode updated_at: %w", err)
	}
	if e.DeletedAt != nil {
		if b, err = appendTime(b, *e.DeletedAt); err != nil {
			return nil, fmt.Errorf("erm: encode deleted_at: %w", err)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(e.Properties)))
	if len(e.Properties) > 0 {
		keys := make([]string, 0, len(e.Properties))
		for k := range e.Properties {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = appendStr(b, k)
			b = appendStr(b, e.Properties[k])
		}
	}
	b = appendBytes(b, e.Spec)
	return b, nil
}

// DecodeEntity parses either a compact binary record or a legacy JSON one.
func DecodeEntity(b []byte) (*Entity, error) { return decodeEntity(b, "", false) }

// DecodeEntityAt parses the entity record stored under id in TableEntity.
// The entity's ID is id itself — the caller's lookup key — not a slice of
// the record's backing string, so the field every index, memo and log keeps
// pins nothing the caller's key did not. Point reads that know the key
// (GetEntity) decode through here; multi-entity reads use DecodeEntities.
func DecodeEntityAt(id ids.ID, b []byte) (*Entity, error) { return decodeEntity(b, id, false) }

// layout is where a compact record's variable-length parts lie, as offsets
// into rec: what one walk of the record finds and what placing its strings
// and spec needs.
type layout struct {
	rec  []byte
	str  [numStrFields][2]int
	spec [2]int
}

// strFrom is where the string region a decode copies starts: at the ID, or
// past it when the caller supplies the ID.
func (l *layout) strFrom(haveID bool) int {
	if haveID {
		return l.str[1][0]
	}
	return l.str[0][0]
}

// strRegion is that region: every string field, length prefixes between.
func (l *layout) strRegion(haveID bool) []byte {
	return l.rec[l.strFrom(haveID):l.str[numStrFields-1][1]]
}

func (l *layout) specBytes() []byte { return l.rec[l.spec[0]:l.spec[1]] }

// walk parses compact record b (it starts with codecMagic) into e and l:
// every fixed-size field of e (flags, times) is set, l says where the strings
// and the spec lie, and properties are decoded only if withProps — otherwise
// a record that has any is reported through hasProps and left to the caller.
// It is the one field walk; decodeEntity and DecodeEntities differ only in
// where they put the bytes it locates.
func walk(b []byte, e *Entity, l *layout, withProps bool) (hasProps bool, err error) {
	if len(b) < 3 || b[1] != codecVersion {
		return false, fmt.Errorf("erm: unsupported entity codec version")
	}
	d := decoder{b: b, off: 3}
	flags := b[2]
	l.rec = b
	for i := range l.str {
		n := len(d.bytes())
		l.str[i] = [2]int{d.off - n, d.off}
	}
	e.Managed = flags&flagManaged != 0
	e.CreatedAt = d.time()
	e.UpdatedAt = d.time()
	if flags&flagDeleted != 0 {
		t := d.time()
		e.DeletedAt = &t
	}
	if n := d.uvarint(); n > 0 && d.err == nil {
		if !withProps {
			return true, nil
		}
		if n > uint64(len(b)) { // corrupt count; bail before allocating
			return true, fmt.Errorf("erm: decode entity: property count %d exceeds record size", n)
		}
		e.Properties = make(map[string]string, n)
		for i := uint64(0); i < n; i++ {
			k := d.str()
			e.Properties[k] = d.str()
		}
	}
	n := len(d.bytes())
	l.spec = [2]int{d.off - n, d.off}
	if d.err != nil {
		return false, fmt.Errorf("erm: decode entity: %w", d.err)
	}
	return false, nil
}

// place sets e's string fields and spec from the copies the caller made:
// back is a copy of strRegion — with the ID when e.ID is still empty, without
// it when the caller has set e.ID to the record's key — and spec a copy of
// the spec bytes. Type, Owner and State come from the intern table and alias
// neither.
func (l *layout) place(e *Entity, back string, spec []byte) {
	from := l.strFrom(e.ID != "")
	str := func(i int) string { return back[l.str[i][0]-from : l.str[i][1]-from] }
	raw := func(i int) []byte { return l.rec[l.str[i][0]:l.str[i][1]] }
	if e.ID == "" {
		e.ID = ids.ID(str(0))
	}
	e.Type = SecurableType(intern(raw(1)))
	e.Name = str(2)
	e.ParentID = ids.ID(str(3))
	e.FullName = str(4)
	e.Owner = privilege.Principal(intern(raw(5)))
	e.Comment = str(6)
	e.StoragePath = str(7)
	e.State = State(intern(raw(8)))
	if len(spec) > 0 {
		e.Spec = spec
	}
}

// decodeEntity decodes one record on its own. With aliasSpec the entity's
// Spec is a capacity-limited slice of b instead of a copy: for the reader that
// keeps the entity beside b and for exactly as long (GetEntity through a
// DecodedReader).
func decodeEntity(b []byte, id ids.ID, aliasSpec bool) (*Entity, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("erm: empty entity record")
	}
	if b[0] == '{' {
		var e Entity
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("erm: decode entity json: %w", err)
		}
		if id != "" {
			e.ID = id
		}
		return &e, nil
	}
	if b[0] != codecMagic {
		return nil, fmt.Errorf("erm: unknown entity encoding (leading byte %#x)", b[0])
	}
	e := Entity{ID: id}
	var l layout
	if _, err := walk(b, &e, &l, true); err != nil {
		return nil, err
	}
	// One copy of the string region (without the ID when the caller supplied
	// it), one of the spec unless it aliases the record; see the ownership
	// rule in the file comment.
	spec := l.specBytes()
	if aliasSpec {
		spec = spec[:len(spec):len(spec)]
	} else {
		spec = append(json.RawMessage(nil), spec...)
	}
	l.place(&e, string(l.strRegion(id != "")), spec)
	return &e, nil
}

// DecodeEntities decodes a batch of n entity records in one pass into one
// slab: rec(i) returns the i-th record and the key it is stored under in
// TableEntity, which becomes the entity's ID exactly as in DecodeEntityAt.
// The result is aligned with the batch, nil where the record is nil or
// undecodable. Whatever the batch size it allocates the result, one []Entity,
// one string holding every record's string region and one buffer holding
// every spec, each entity's Spec a capacity-limited slice of it, so an append
// to one never reaches its neighbour; see the ownership rule in the file
// comment for what that lets a holder pin. Legacy JSON records and records
// with properties decode through the single-record path, on their own.
func DecodeEntities(n int, rec func(i int) (ids.ID, []byte)) []*Entity {
	out := make([]*Entity, n)
	if n == 0 {
		return out
	}
	var (
		slab              = make([]Entity, n)
		lays              = make([]layout, n)
		strBytes, specLen int
	)
	for i := range slab {
		id, b := rec(i)
		if b == nil {
			continue
		}
		compact := id != "" && len(b) > 0 && b[0] == codecMagic
		if compact {
			hasProps, err := walk(b, &slab[i], &lays[i], false)
			if err != nil {
				continue
			}
			compact = !hasProps
		}
		if !compact {
			if e, err := decodeEntity(b, id, false); err == nil {
				out[i] = e
			}
			continue
		}
		slab[i].ID = id
		out[i] = &slab[i]
		strBytes += len(lays[i].strRegion(true))
		specLen += len(lays[i].specBytes())
	}
	var sb strings.Builder
	sb.Grow(strBytes)
	for i := range lays {
		if l := &lays[i]; out[i] == &slab[i] {
			sb.Write(l.strRegion(true))
		}
	}
	back, specs := sb.String(), make([]byte, 0, specLen)
	base := 0
	for i := range lays {
		l := &lays[i]
		if out[i] != &slab[i] {
			continue
		}
		from, n := len(specs), len(l.strRegion(true))
		specs = append(specs, l.specBytes()...)
		l.place(&slab[i], back[base:base+n], specs[from:len(specs):len(specs)])
		base += n
	}
	return out
}

// DecodeEntityRows decodes the pairs of an entity-table scan (key = ID) into
// one slab, aligned with kvs.
func DecodeEntityRows(kvs []store.KV) []*Entity {
	return DecodeEntities(len(kvs), func(i int) (ids.ID, []byte) { return ids.ID(kvs[i].Key), kvs[i].Value })
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendTime(b []byte, t time.Time) ([]byte, error) {
	tb, err := t.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return appendBytes(b, tb), nil
}

// decoder walks a compact record; the first error sticks and subsequent
// reads return zero values, so call sites check err once at the end.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)-d.off) < n {
		d.err = fmt.Errorf("truncated field at offset %d (want %d bytes)", d.off, n)
		return nil
	}
	out := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return out
}

func (d *decoder) str() string { return string(d.bytes()) }

func (d *decoder) time() time.Time {
	var t time.Time
	if b := d.bytes(); d.err == nil {
		if err := t.UnmarshalBinary(b); err != nil {
			d.err = fmt.Errorf("bad time encoding: %w", err)
		}
	}
	return t
}

// intern returns the canonical shared copy of the string b spells, without
// allocating on a hit. The table is bounded: past the cap, lookups still hit
// but a new value gets a copy of its own, exactly sized, so a flood of
// distinct values cannot grow the table without bound and an interned field
// never aliases a record's backing string.
//
// Reads are lock-free: the table is an immutable map behind an atomic
// pointer, replaced copy-on-write by the rare insert (a new type, state or
// owner). Filling it to the cap copies at most internCap²/2 entries over the
// life of the process.
func intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if v, ok := (*internTab.Load())[string(b)]; ok {
		return v
	}
	internMu.Lock()
	defer internMu.Unlock()
	old := *internTab.Load()
	if v, ok := old[string(b)]; ok {
		return v
	}
	s := string(b)
	if len(old) >= internCap {
		return s
	}
	next := make(map[string]string, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[s] = s
	internTab.Store(&next)
	return s
}

const internCap = 4096

var (
	internMu  sync.Mutex // serializes inserts
	internTab atomic.Pointer[map[string]string]
)

func init() { internTab.Store(&map[string]string{}) }
