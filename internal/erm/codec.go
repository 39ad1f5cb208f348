package erm

// Compact binary encoding for Entity records.
//
// The seed stored every entity as JSON, which at catalog cardinality is the
// dominant memory cost: field names are repeated in every value, times are
// RFC 3339 strings, and decoding allocates a fresh copy of highly repetitive
// strings ("TABLE", "ACTIVE", the owner principal) for every entity touched
// by a scan. The compact format is a flat, versioned byte layout. A stored
// value is an exact-size allocation (Tx.Put copies), so what a record costs
// resident is the malloc size class its length falls in; TestRecordSizes holds
// a typical table to its class.
//
// # The three formats
//
// Version 3 is the only one written. The record is the value under its ID in
// TableEntity and does not repeat what that key says:
//
//	0xE1 3 flags | type state | owner | parent | name full-name comment path |
//	times | properties | spec (stored form)
//
//   - type and state are one byte each, a position in typeCodes / stateCodes;
//     0 is followed by the value as a string (a type added by Register);
//   - the parent is its 16 bytes (flagParentRaw) when it is an ID as ids.New
//     makes them, else a string;
//   - strings and the spec are uvarint-length-prefixed; properties are a count
//     and key/value strings sorted by key, so encoding is deterministic;
//   - a storage path that ends in the record's own ID — every managed path —
//     is stored without it (flagPathID);
//   - times are Unix nanoseconds, eight bytes each, read back in time.Local
//     or, with flagTimesUTC, in UTC; a record with a time in another zone, or
//     outside what int64 nanoseconds hold, or with times in different zones,
//     keeps them all in time.MarshalBinary's form (flagTimesBinary). A zone is
//     kept as "local" or "UTC", not by name: a log read in another time zone
//     shows the same instants in that zone;
//   - the spec is in its stored form (spec.go): packed if it packs, which
//     every spec the catalog writes does, else JSON. EncodeEntity packs a JSON
//     spec it is handed, so a record read in an older version and rewritten
//     comes back packed.
//
// Version 2, written before specs were packed, is version 3's layout with the
// spec always JSON. Version 3 has a number of its own so that a decoder that
// knows only version 2 refuses its records instead of serving a packed spec as
// JSON. Version 1, written before version 2, has the ID and spells everything
// out:
//
//	0xE1 1 flags | id type name parent full-name owner comment path state |
//	times (time.MarshalBinary, length-prefixed) | properties | spec (JSON)
//
// Both are read for ever. The first byte (0xE1) is disjoint from '{', so a
// decode also accepts the JSON values the seed wrote. No store migration is
// needed: records converge to version 3 as they are rewritten. The index rows
// stored beside a record changed with version 2 (IndexedID in erm.go): a path
// or name row held the ID's 16 bytes, not its 32 hex digits. No child, name or
// path row is stored now: the store derives them from the record (childGroup,
// nameGroup and nameSort, pathGroup, extLocGroup and pathSort, which read its
// head: readHead).
//
// Because a record of version 2 or 3 leaves out its key, it is decoded with it:
// DecodeEntityAt and DecodeEntities take the key and every reader of the
// entity table has it. DecodeEntity, without one, returns an entity with no
// ID and a flagPathID path that stops short of it.
//
// On decode, the owner string — and a type or state that has no code — is
// interned through a bounded table: ten million tables should share one
// owner string, not hold ten million copies.
//
// # Backing-string ownership
//
// A decoded property-less entity costs three allocations when it is decoded on
// its own (DecodeEntityAt): the Entity, the spec copy, and ONE backing string
// (layout.writeBack: the parent's hex digits, the record's string region, the
// key a flagPathID path ends in), of which Name, ParentID, FullName, Comment
// and StoragePath are substrings. A multi-entity read (DecodeEntities — every
// list page, query plan and unpaged listing) costs the same three for the
// whole batch: the entities are elements of one []Entity, their strings are
// substrings of one string holding every record's backing string, and their
// specs are capacity-limited slices of one buffer, so any one entity of a
// page keeps the whole page's slab alive. What the fields alias:
//
//   - Type, Owner and State are constants of this package or come from the
//     intern table, or past its cap are copies of their own; they never alias
//     a record or a slab.
//   - ID is the key the record was read by, handed in by the caller: an
//     exactly-sized string (a point read by name or path, an ID the API was
//     given), or the entity-table key the store itself keeps for as long as
//     the entity exists (a child row's, a scan's). Never a substring of the
//     slab.
//   - Name, ParentID, FullName, Comment and StoragePath are substrings of the
//     record's or the page's backing string; Spec of the page's spec buffer.
//   - Spec is in the form the record stores it, in every provenance, the
//     write path's included: nothing renders it to JSON but a reader of JSON
//     (spec.go).
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
//     holders: search (each distinct token, cloned once when the index
//     first sees it, never kept as a substring of the lowered text it was
//     cut from; a document keeps the ID only), the event history (stageEvent's
//     FullName), the compiled authorization snapshots (Securable.Parent,
//     copied where the memo files it: privilege's memo.remember). The two holders a listed page reaches — the
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
// (GetEntity, GetByName through a DecodedReader — a cache.View) is
// decoded once per cached record version and is the cache's own. It is
//
//   - shared: every request that reads that record at that version, on any
//     goroutine, holds the same *Entity;
//   - immutable: no field, no Properties entry and no byte of Spec may be
//     written, exactly as the bytes View.Get returns may not. A writer gets
//     an entity of its own by reading it through its store.Tx, which keeps
//     decoding privately (UpdateAsset, RenameAsset, softDeleteTree), or by
//     Clone;
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
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

const (
	codecMagic = 0xE1 // first byte of compact records; JSON starts with '{'
	codecV1    = 1    // read, never written
	codecV2    = 2    // read, never written
	codecV3    = 3
)

// Flag bits, the record's third byte. Version 1 has the first two.
const (
	flagManaged = 1 << iota
	flagDeleted
	flagParentRaw   // the parent is its 16 bytes, not a string
	flagPathID      // the storage path is the stored prefix followed by the record's key
	flagTimesUTC    // times are read back in UTC, not in time.Local
	flagTimesBinary // times are length-prefixed time.MarshalBinary forms, not nanoseconds
)

// typeCodes and stateCodes are the one-byte forms of a version 2 record's type
// and state. A value's position is durable: append, never reorder. Code 0 says
// the value follows as a string (a type some Registry.Register added).
var (
	typeCodes = [...]SecurableType{1: TypeMetastore, TypeCatalog, TypeSchema, TypeTable, TypeView,
		TypeVolume, TypeFunction, TypeRegisteredModel, TypeModelVersion, TypeExternalLocation,
		TypeStorageCredential, TypeConnection, TypeShare, TypeRecipient}
	stateCodes = [...]State{1: StateProvisioning, StateActive, StateSoftDeleted}
)

// lowerTypes holds each coded type's name lowered, at its code.
var lowerTypes = func() (l [len(typeCodes)]string) {
	for i, t := range typeCodes {
		l[i] = strings.ToLower(string(t))
	}
	return l
}()

// Lower returns strings.ToLower of the type's name, which a managed storage
// path holds, allocating nothing for a built-in type.
func (t SecurableType) Lower() string {
	for i := 1; i < len(typeCodes); i++ {
		if typeCodes[i] == t {
			return lowerTypes[i]
		}
	}
	return strings.ToLower(string(t))
}

// appendCoded appends v as its position in table, or as 0 and the string.
func appendCoded[T ~string](b []byte, table []T, v T) []byte {
	for i := 1; i < len(table); i++ {
		if table[i] == v {
			return append(b, byte(i))
		}
	}
	return appendStr(append(b, 0), string(v))
}

// EncodeEntity renders e as a version 3 record: the value stored under e.ID in
// TableEntity. The record does not repeat that key (see DecodeEntityAt). A
// JSON spec is packed on the way if it packs (storedSpec).
func EncodeEntity(e *Entity) ([]byte, error) {
	path := e.StoragePath
	flags := timesForm(e)
	if e.Managed {
		flags |= flagManaged
	}
	if e.DeletedAt != nil {
		flags |= flagDeleted
	}
	if e.ID != "" && strings.HasSuffix(path, string(e.ID)) {
		flags |= flagPathID
		path = path[:len(path)-len(e.ID)]
	}
	b := make([]byte, 0, 96+len(e.Name)+len(e.FullName)+len(e.Owner)+len(e.Comment)+len(path)+len(e.Spec))
	b = append(b, codecMagic, codecV3, 0)
	b = appendCoded(b, typeCodes[:], e.Type)
	b = appendCoded(b, stateCodes[:], e.State)
	b = appendStr(b, string(e.Owner))
	if raw, ok := e.ParentID.AppendRaw(b); ok {
		b, flags = raw, flags|flagParentRaw
	} else {
		b = appendStr(b, string(e.ParentID))
	}
	b = appendStr(b, e.Name)
	b = appendStr(b, e.FullName)
	b = appendStr(b, e.Comment)
	b = appendStr(b, path)
	b[2] = flags
	var err error
	if b, err = appendTime(b, flags, e.CreatedAt); err != nil {
		return nil, fmt.Errorf("erm: encode created_at: %w", err)
	}
	if b, err = appendTime(b, flags, e.UpdatedAt); err != nil {
		return nil, fmt.Errorf("erm: encode updated_at: %w", err)
	}
	if e.DeletedAt != nil {
		if b, err = appendTime(b, flags, *e.DeletedAt); err != nil {
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
	return storedSpec(b, e.Spec), nil
}

// timesForm returns the flags of the form e's times are written in: Unix
// nanoseconds when every one of them is an instant int64 nanoseconds can hold
// and they are all in time.Local or all in time.UTC (what a clock hands out),
// otherwise time.MarshalBinary's form, which keeps any zone and any year — the
// same fallback the audit log's packed records use.
func timesForm(e *Entity) byte {
	ts := [3]time.Time{e.CreatedAt, e.UpdatedAt}
	n := 2
	if e.DeletedAt != nil {
		ts[2], n = *e.DeletedAt, 3
	}
	zone := ts[0].Location()
	for _, t := range ts[:n] {
		if t.Location() != zone || !time.Unix(0, t.UnixNano()).Equal(t) {
			return flagTimesBinary
		}
	}
	switch zone {
	case time.Local:
		return 0
	case time.UTC:
		return flagTimesUTC
	}
	return flagTimesBinary
}

// DecodeEntity parses a record on its own, without the key it was stored
// under. A version 2 record does not repeat its key, so the entity has no ID
// and a storage path that ended in it (flagPathID) stops short of it; every
// reader of the entity table knows the key and decodes through DecodeEntityAt
// or DecodeEntities.
func DecodeEntity(b []byte) (*Entity, error) { return decodeEntity(b, "", false) }

// DecodeEntityAt parses the entity record stored under id in TableEntity.
// The entity's ID is id itself — the caller's lookup key — not a slice of
// the record's backing string, so the field every index, memo and log keeps
// pins nothing the caller's key did not. Point reads that know the key
// (GetEntity) decode through here; multi-entity reads use DecodeEntities.
func DecodeEntityAt(id ids.ID, b []byte) (*Entity, error) { return decodeEntity(b, id, false) }

// Text is what the search index cuts an entity's tokens from.
type Text struct {
	Name, FullName, Comment string
	SoftDeleted             bool
}

// ReadText reads an entity record's Text in place: the strings are its own
// bytes, what DecodeEntityAt would decode them to, and a holder that keeps
// one past the read clones it. It reads the record up to its storage path and
// no further, and allocates nothing; a record in the seed's JSON is decoded.
// ok is false for a record whose strings do not read.
func ReadText(rec []byte) (t Text, ok bool) {
	switch {
	case len(rec) == 0:
		return t, false
	case rec[0] == '{':
		e, err := DecodeEntity(rec)
		if err != nil {
			return t, false
		}
		return Text{Name: e.Name, FullName: e.FullName, Comment: e.Comment, SoftDeleted: e.State == StateSoftDeleted}, true
	case rec[0] != codecMagic:
		return t, false
	}
	var l layout
	if _, err := walk(rec, nil, &l, false); err != nil {
		return t, false
	}
	str := func(i int) string { return sharedString(rec[l.str[i][0]:l.str[i][1]]) }
	t = Text{Name: str(fName), FullName: str(fFullName), Comment: str(fComment)}
	if l.state != 0 {
		t.SoftDeleted = stateCodes[l.state] == StateSoftDeleted
	} else {
		t.SoftDeleted = State(str(fState)) == StateSoftDeleted
	}
	return t, true
}

// The parts of a record that decode to strings, as indexes into layout.str.
const (
	fID   = iota // version 1 only
	fType        // version 1, or an unregistered type
	fName
	fParent // version 1, or a parent that is not 16 bytes
	fFullName
	fOwner
	fComment
	fPath
	fState // version 1, or an unregistered state
	numStrFields
)

// layout is where a compact record's variable-length parts lie, as offsets
// into rec: what one walk of the record finds and what placing its strings
// and spec needs.
type layout struct {
	rec         []byte
	version     byte
	flags       byte
	typ, state  byte // version 2 codes; 0 when the string is in str
	parent      int  // where a version 2 record's 16-byte parent starts
	str         [numStrFields][2]int
	strFrom, to int // the string region: every field a decoded entity's strings are cut from
	spec        [2]int
}

// from is where the part of the string region a decode copies starts: a
// version 1 record's region opens with the ID, which is skipped when the caller
// supplies it.
func (l *layout) from(id ids.ID) int {
	if l.version == codecV1 && id != "" {
		return l.str[fType][0]
	}
	return l.strFrom
}

// lead is how many bytes of a backing string precede the copied region: the
// hex form of a 16-byte parent.
func (l *layout) lead() int {
	if l.flags&flagParentRaw != 0 {
		return 2 * ids.RawLen
	}
	return 0
}

// backLen is the length of the backing string of the entity stored under id.
func (l *layout) backLen(id ids.ID) int {
	n := l.lead() + l.to - l.from(id)
	if l.flags&flagPathID != 0 {
		n += len(id)
	}
	return n
}

// writeBack appends that backing string to sb: the parent's hex form if the
// record has its bytes, the string region, and the key if the path ends in it.
func (l *layout) writeBack(sb *strings.Builder, id ids.ID) {
	if l.flags&flagParentRaw != 0 {
		var h [2 * ids.RawLen]byte
		hex.Encode(h[:], l.rec[l.parent:l.parent+ids.RawLen])
		sb.Write(h[:])
	}
	sb.Write(l.rec[l.from(id):l.to])
	if l.flags&flagPathID != 0 {
		sb.WriteString(string(id))
	}
}

func (l *layout) specBytes() []byte { return l.rec[l.spec[0]:l.spec[1]] }

// walk parses compact record b (it starts with codecMagic) into e and l:
// every fixed-size field of e (flags, times) is set, l says where the strings
// and the spec lie, and properties are decoded only if withProps — otherwise
// a record that has any is reported through hasProps and left to the caller.
// With e nil it stops once l says where the strings lie (ReadText).
// It is the one field walk, of every version; decodeEntity and DecodeEntities
// differ only in where they put the bytes it locates.
func walk(b []byte, e *Entity, l *layout, withProps bool) (hasProps bool, err error) {
	if len(b) < 3 || b[1] < codecV1 || b[1] > codecV3 {
		return false, fmt.Errorf("erm: unsupported entity codec version")
	}
	d := decoder{b: b, off: 3}
	l.rec, l.version, l.flags = b, b[1], b[2]
	field := func(i int) {
		n := len(d.bytes())
		l.str[i] = [2]int{d.off - n, d.off}
	}
	if l.version == codecV1 {
		l.flags &= flagManaged | flagDeleted
		l.flags |= flagTimesBinary
		for i := range l.str {
			field(i)
		}
		l.strFrom, l.to = l.str[fID][0], l.str[fState][1]
	} else {
		if l.typ = d.byte(); l.typ == 0 {
			field(fType)
		}
		if l.state = d.byte(); l.state == 0 {
			field(fState)
		}
		field(fOwner)
		if l.flags&flagParentRaw != 0 {
			l.parent = d.off
			d.skip(ids.RawLen)
			l.strFrom = d.off
		} else {
			field(fParent)
			l.strFrom = l.str[fParent][0]
		}
		field(fName)
		field(fFullName)
		field(fComment)
		field(fPath)
		l.to = d.off
		if int(l.typ) >= len(typeCodes) || int(l.state) >= len(stateCodes) {
			return false, fmt.Errorf("erm: decode entity: unknown type code %d or state code %d", l.typ, l.state)
		}
	}
	if e == nil {
		if d.err != nil {
			return false, fmt.Errorf("erm: decode entity: %w", d.err)
		}
		return false, nil
	}
	e.Managed = l.flags&flagManaged != 0
	e.CreatedAt = d.time(l.flags)
	e.UpdatedAt = d.time(l.flags)
	if l.flags&flagDeleted != 0 {
		t := d.time(l.flags)
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

// place sets e's ID, string fields and spec: id is the key the record was read
// by ("" for none), back the string writeBack made for it and spec a copy of
// the spec bytes. Type, Owner and State are constants or come from the intern
// table and alias neither.
func (l *layout) place(e *Entity, id ids.ID, back string, spec []byte) {
	off := l.from(id) - l.lead() // rec[x] is back[x-off]
	str := func(i int) string { return back[l.str[i][0]-off : l.str[i][1]-off] }
	raw := func(i int) []byte { return l.rec[l.str[i][0]:l.str[i][1]] }
	if e.ID = id; id == "" && l.version == codecV1 {
		e.ID = ids.ID(str(fID))
	}
	if l.typ != 0 {
		e.Type = typeCodes[l.typ]
	} else {
		e.Type = SecurableType(intern(raw(fType)))
	}
	if l.state != 0 {
		e.State = stateCodes[l.state]
	} else {
		e.State = State(intern(raw(fState)))
	}
	e.Owner = privilege.Principal(intern(raw(fOwner)))
	if l.flags&flagParentRaw != 0 {
		e.ParentID = ids.ID(back[:2*ids.RawLen])
	} else {
		e.ParentID = ids.ID(str(fParent))
	}
	e.Name = str(fName)
	e.FullName = str(fFullName)
	e.Comment = str(fComment)
	if l.flags&flagPathID != 0 {
		e.StoragePath = back[l.str[fPath][0]-off:] // the prefix, then the key: the path ends the string
	} else {
		e.StoragePath = str(fPath)
	}
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
	var (
		e Entity
		l layout
	)
	if _, err := walk(b, &e, &l, true); err != nil {
		return nil, err
	}
	// One backing string, one copy of the spec unless it aliases the record;
	// see the ownership rule in the file comment.
	spec := l.specBytes()
	if aliasSpec {
		spec = spec[:len(spec):len(spec)]
	} else {
		spec = append(Spec(nil), spec...)
	}
	var sb strings.Builder
	sb.Grow(l.backLen(id))
	l.writeBack(&sb, id)
	l.place(&e, id, sb.String(), spec)
	return &e, nil
}

// DecodeEntities decodes a batch of n entity records in one pass into one
// slab: rec(i) returns the i-th record and the key it is stored under in
// TableEntity, which becomes the entity's ID exactly as in DecodeEntityAt.
// The result is aligned with the batch, nil where the record is nil or
// undecodable. Whatever the batch size it allocates the result, one []Entity,
// one string holding every record's backing string and one buffer holding
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
		strBytes += lays[i].backLen(id)
		specLen += len(lays[i].specBytes())
	}
	var sb strings.Builder
	sb.Grow(strBytes)
	for i := range lays {
		if out[i] == &slab[i] {
			lays[i].writeBack(&sb, slab[i].ID)
		}
	}
	back, specs := sb.String(), make([]byte, 0, specLen)
	base := 0
	for i := range lays {
		l := &lays[i]
		if out[i] != &slab[i] {
			continue
		}
		from, n := len(specs), l.backLen(slab[i].ID)
		specs = append(specs, l.specBytes()...)
		l.place(&slab[i], slab[i].ID, back[base:base+n], specs[from:len(specs):len(specs)])
		base += n
	}
	return out
}

// recordHead is what the derived tables read of an entity record: its type
// (coded, or its string), state, parent and name, and with them, when asked
// for, its storage path.
type recordHead struct {
	typ, parent, name []byte
	coded             SecurableType // the type, when the record has its code
	rawParent         bool          // parent is an ID's 16 bytes
	softDeleted       bool
	// path is the storage path as the record holds it: without the record's
	// key when pathID says the path ends in it.
	path   []byte
	pathID bool
}

// readHead reads the head of an entity record of every format and of the
// seed's JSON, the storage path too if withPath. A value that does not read,
// or whose parent, type or name holds a 0 byte, has none.
func readHead(value []byte, withPath bool) (h recordHead, ok bool) {
	switch {
	case len(value) == 0:
		return h, false
	case value[0] == '{':
		var j struct {
			Type        string `json:"type"`
			ParentID    string `json:"parent_id"`
			Name        string `json:"name"`
			State       State  `json:"state"`
			StoragePath string `json:"storage_path"`
		}
		if json.Unmarshal(value, &j) != nil {
			return h, false
		}
		h.parent, h.typ, h.name, h.softDeleted = []byte(j.ParentID), []byte(j.Type), []byte(j.Name), j.State == StateSoftDeleted
		h.path = []byte(j.StoragePath)
	case value[0] != codecMagic || len(value) < 3:
		return h, false
	case value[1] == codecV1:
		d := decoder{b: value, off: 3}
		d.bytes() // the ID
		h.typ = d.bytes()
		h.name = d.bytes()
		h.parent = d.bytes()
		if d.err != nil {
			return h, false
		}
		for range 3 {
			d.bytes() // the full name, owner and comment
		}
		h.path = d.bytes()
		h.softDeleted = State(d.bytes()) == StateSoftDeleted && d.err == nil
	case value[1] == codecV2 || value[1] == codecV3:
		d := decoder{b: value, off: 3}
		if c := d.byte(); c == 0 {
			h.typ = d.bytes()
		} else if int(c) < len(typeCodes) {
			h.coded = typeCodes[c]
		} else {
			return h, false
		}
		if c := d.byte(); c == 0 {
			h.softDeleted = State(d.bytes()) == StateSoftDeleted
		} else if int(c) < len(stateCodes) {
			h.softDeleted = stateCodes[c] == StateSoftDeleted
		}
		d.bytes() // the owner
		if h.rawParent = value[2]&flagParentRaw != 0; h.rawParent {
			h.parent = d.skip(ids.RawLen)
		} else {
			h.parent = d.bytes()
		}
		h.name = d.bytes()
		if withPath {
			d.bytes() // the full name
			d.bytes() // the comment
			h.path, h.pathID = d.bytes(), value[2]&flagPathID != 0
		}
		if d.err != nil {
			return h, false
		}
	default:
		return h, false
	}
	if bytes.IndexByte(h.typ, 0) >= 0 || bytes.IndexByte(h.name, 0) >= 0 || !h.rawParent && bytes.IndexByte(h.parent, 0) >= 0 {
		return h, false
	}
	return h, true
}

// appendParent appends the head's parent as an ID's string.
func (h *recordHead) appendParent(dst []byte) []byte {
	if h.rawParent {
		return hex.AppendEncode(dst, h.parent)
	}
	return append(dst, h.parent...)
}

// childGroup is the child table's derivation (store.DeriveIndex): it appends
// to dst the group an entity record's value names, parent\0TYPE\0 — the
// prefix ChildKey gives its children of that type. A value without a head
// (readHead) names none.
func childGroup(dst []byte, _ string, value []byte) ([]byte, bool) {
	h, ok := readHead(value, false)
	if !ok {
		return dst, false
	}
	dst = append(h.appendParent(dst), 0)
	dst = append(append(append(dst, h.typ...), h.coded...), 0)
	return dst, true
}

// nameGroup is the group of the name table's derivation: it appends to dst
// NameGroupOf(type)\0parent\0 of an entity that is not soft deleted — the prefix
// NameKey gives the names of its group under its parent — and names none for
// a soft-deleted one or a value without a head.
func nameGroup(dst []byte, _ string, value []byte) ([]byte, bool) {
	h, ok := readHead(value, false)
	if !ok || h.softDeleted {
		return dst, false
	}
	t := h.coded
	if t == "" {
		t = SecurableType(h.typ)
	}
	dst = append(append(dst, NameGroupOf(t)...), 0)
	return append(h.appendParent(dst), 0), true
}

// nameSort is the sort key of the name table's derivation: the entity's name,
// lowered as NameKey lowers it.
func nameSort(dst []byte, _ string, value []byte) []byte {
	h, _ := readHead(value, false)
	return appendLower(dst, unsafe.String(unsafe.SliceData(h.name), len(h.name)))
}

// pathGroup and extLocGroup are the groups of the path tables' derivations:
// each table is one group, "", its rows sorted by path (pathSort). An entity
// that is not soft deleted and has a storage path holding no 0 byte has the
// row of its path in the external-location table if it is one, else in the
// path table; any other has none.
func pathGroup(dst []byte, _ string, value []byte) ([]byte, bool) {
	return dst, hasPathRow(value, false)
}
func extLocGroup(dst []byte, _ string, value []byte) ([]byte, bool) {
	return dst, hasPathRow(value, true)
}

func hasPathRow(value []byte, extLoc bool) bool {
	h, ok := readHead(value, true)
	if !ok || h.softDeleted || len(h.path) == 0 && !h.pathID || bytes.IndexByte(h.path, 0) >= 0 {
		return false
	}
	return (h.coded == TypeExternalLocation || string(h.typ) == string(TypeExternalLocation)) == extLoc
}

// pathSort is the sort key of the path tables' derivations: the storage path
// of the entity record stored under key, which ends in that key when the
// record leaves it out (flagPathID).
func pathSort(dst []byte, key string, value []byte) []byte {
	h, _ := readHead(value, true)
	dst = append(dst, h.path...)
	if h.pathID {
		dst = append(dst, key...)
	}
	return dst
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

// appendTime appends t in the form flags name (timesForm).
func appendTime(b []byte, flags byte, t time.Time) ([]byte, error) {
	if flags&flagTimesBinary == 0 {
		return binary.LittleEndian.AppendUint64(b, uint64(t.UnixNano())), nil
	}
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

// skip passes over n bytes and returns them.
func (d *decoder) skip(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b)-d.off < n {
		d.err = fmt.Errorf("truncated field at offset %d (want %d bytes)", d.off, n)
		return nil
	}
	d.off += n
	return d.b[d.off-n : d.off]
}

func (d *decoder) byte() byte {
	if b := d.skip(1); b != nil {
		return b[0]
	}
	return 0
}

// time reads a time in the form flags name (timesForm).
func (d *decoder) time(flags byte) time.Time {
	if flags&flagTimesBinary == 0 {
		var t time.Time
		if b := d.skip(8); b != nil {
			t = time.Unix(0, int64(binary.LittleEndian.Uint64(b)))
			if flags&flagTimesUTC != 0 {
				t = t.UTC()
			}
		}
		return t
	}
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
