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
// A decoded property-less entity costs three allocations: the Entity, the
// spec copy, and ONE string holding the record's string region, of which
// Name, ParentID, FullName, Comment and StoragePath are substrings. Type,
// Owner and State come from the intern table, and ID is the caller's lookup
// key when the record is read by key (DecodeEntityAt — every read path in
// the repository), so those four pin nothing. A substring keeps its whole
// backing alive, so the rule is:
//
//   - request-scoped code uses the fields freely — the entity, and with it
//     the backing, dies with the request;
//   - e.ID may be kept by anyone;
//   - anything that keeps another string field of a decoded entity past the
//     request — a map key or struct field of an index, a history, a memo, a
//     follower's document — must strings.Clone it first, or it pins ~5x the
//     bytes it uses. Today's holders: search (a document's FullName; and
//     each distinct token, cloned once when the index first sees it, never
//     kept as a substring of the lowered text it was cut from), the event
//     history (stageEvent's FullName), lineage (node FullName), the
//     compiled authorization snapshots (Securable.Parent) and pathtrie
//     (path segments, which it copies while splitting).
//
// Entities built in memory by the write path (CreateAsset and friends) own
// ordinary strings.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
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
func DecodeEntity(b []byte) (*Entity, error) { return decodeEntity(b, "") }

// DecodeEntityAt parses the entity record stored under id in TableEntity.
// The entity's ID is id itself — the caller's lookup key, an exactly-sized
// string — not a slice of the record's backing string, so the field every
// index, memo and log keeps pins nothing but itself. Readers that know the
// key (GetEntity, GetEntities, entity-table scans) decode through here.
func DecodeEntityAt(id ids.ID, b []byte) (*Entity, error) { return decodeEntity(b, id) }

func decodeEntity(b []byte, id ids.ID) (*Entity, error) {
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
	if len(b) < 3 || b[1] != codecVersion {
		return nil, fmt.Errorf("erm: unsupported entity codec version")
	}
	d := decoder{b: b, off: 3}
	flags := b[2]
	// Locate the nine strings, then copy their region once (without the ID
	// when the caller supplied it); see the ownership rule in the file
	// comment.
	var span [numStrFields][2]int
	for i := range span {
		n := len(d.bytes())
		span[i] = [2]int{d.off - n, d.off}
	}
	if d.err != nil {
		return nil, fmt.Errorf("erm: decode entity: %w", d.err)
	}
	first := 0
	if id != "" {
		first = 1
	}
	base := span[first][0]
	back := string(b[base:d.off])
	str := func(i int) string { return back[span[i][0]-base : span[i][1]-base] }
	if id == "" {
		id = ids.ID(str(0))
	}
	var e Entity
	e.ID = id
	e.Type = SecurableType(intern(b[span[1][0]:span[1][1]], str(1)))
	e.Name = str(2)
	e.ParentID = ids.ID(str(3))
	e.FullName = str(4)
	e.Owner = privilege.Principal(intern(b[span[5][0]:span[5][1]], str(5)))
	e.Comment = str(6)
	e.StoragePath = str(7)
	e.State = State(intern(b[span[8][0]:span[8][1]], str(8)))
	e.Managed = flags&flagManaged != 0
	e.CreatedAt = d.time()
	e.UpdatedAt = d.time()
	if flags&flagDeleted != 0 {
		t := d.time()
		e.DeletedAt = &t
	}
	if n := d.uvarint(); n > 0 {
		if n > uint64(len(b)) { // corrupt count; bail before allocating
			return nil, fmt.Errorf("erm: decode entity: property count %d exceeds record size", n)
		}
		e.Properties = make(map[string]string, n)
		for i := uint64(0); i < n; i++ {
			k := d.str()
			e.Properties[k] = d.str()
		}
	}
	if sp := d.bytes(); len(sp) > 0 {
		e.Spec = append(json.RawMessage(nil), sp...)
	}
	if d.err != nil {
		return nil, fmt.Errorf("erm: decode entity: %w", d.err)
	}
	return &e, nil
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
// but new values pass through as fallback (the caller's own copy of b), so a
// flood of distinct values cannot grow it without bound.
//
// Reads are lock-free: the table is an immutable map behind an atomic
// pointer, replaced copy-on-write by the rare insert (a new type, state or
// owner). Filling it to the cap copies at most internCap²/2 entries over the
// life of the process.
func intern(b []byte, fallback string) string {
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
	if len(old) >= internCap {
		return fallback
	}
	next := make(map[string]string, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	s := string(b)
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
