package audit

import (
	"encoding/binary"
	"encoding/hex"
	"hash/maphash"
	"time"

	"unitycatalog/internal/ids"
)

// packed is a Record as the log retains it, in 48 bytes. The time, a trace ID
// of the form obs mints and the securable keep forms of their own; every other
// string is a number into its chunk's table, strs, and what has no such form
// is in the chunk's side entries.
type packed struct {
	when      int64  // Unix nanoseconds, unless flagTimeInSide
	trace     uint64 // the trace ID's 16 hex digits with flagTraceHex, its number with flagTraceStr
	securable ids.ID
	dseq      uint32 // sequence number, counted from the chunk's base
	metastore uint16
	principal uint16
	operation uint16
	detail    uint16
	kind      uint16
	flags     uint8
	side      uint8 // index into the chunk's side, with flagSide
}

const (
	flagAllowed uint8 = 1 << iota
	flagReadOnly
	flagUTC      // when is read back in UTC, not in time.Local
	flagTraceHex // the trace ID is trace, formatted as obs mints them
	flagTraceStr // the trace ID is strs[trace]
	flagSide     // side[p.side] holds Extra, and the time with flagTimeInSide
	flagTimeInSide
)

// side holds what a record has no packed form for: Extra, and a time outside
// int64 nanoseconds or in a zone other than Local and UTC.
type side struct {
	when  time.Time
	extra map[string]string
}

// block is a chunk's one allocation: its record slots and its first string
// slots. A chunk whose records name more strings moves its table to an array
// of its own.
type block struct {
	recs [blockRecs]packed
	strs [blockStrs]string
}

const (
	blockRecs = 160
	blockStrs = 31
	// blockBytes is the malloc size class a block is allocated in: 8,176
	// bytes and the 8-byte header the allocator puts before an object over
	// 512 bytes that holds pointers. One more string slot would take the
	// next class, 9,472.
	blockBytes = 8192
)

// lookup finds a string's number in the open chunk's table: open addressing
// over slots that hold a number plus one (0 is empty), cleared when a chunk
// opens. A record names at most six strings, so a chunk's numbers fit in 16
// bits with room to spare.
type lookup struct {
	seed  maphash.Seed
	slots []uint16
}

// number returns s's number in c's table, adding s if it is new.
func (t *lookup) number(c *chunk, s string) uint16 {
	if 2*(len(c.strs)+1) > len(t.slots) {
		t.grow(c)
	}
	mask := len(t.slots) - 1
	for i := int(maphash.String(t.seed, s)) & mask; ; i = (i + 1) & mask {
		n := t.slots[i]
		if n == 0 {
			c.strs = append(c.strs, s)
			t.slots[i] = uint16(len(c.strs))
			return uint16(len(c.strs) - 1)
		}
		if c.strs[n-1] == s {
			return n - 1
		}
	}
}

// grow doubles the slots, at least 64, and renumbers c's table into them.
func (t *lookup) grow(c *chunk) {
	t.slots = make([]uint16, max(64, 2*len(t.slots)))
	mask := len(t.slots) - 1
	for n, s := range c.strs {
		i := int(maphash.String(t.seed, s)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint16(n + 1)
	}
}

// pack returns r's retained form, numbering its strings in c's table. Caller
// holds the shard's mutex and c is its open chunk.
func (t *lookup) pack(c *chunk, r *Record) packed {
	p := packed{
		securable: r.Securable,
		metastore: t.number(c, r.Metastore),
		principal: t.number(c, r.Principal),
		operation: t.number(c, r.Operation),
		detail:    t.number(c, r.Detail),
		kind:      t.number(c, string(r.Kind)),
	}
	if r.Allowed {
		p.flags |= flagAllowed
	}
	if r.ReadOnly {
		p.flags |= flagReadOnly
	}

	p.when = r.Time.UnixNano()
	switch loc := r.Time.Location(); {
	case !time.Unix(0, p.when).Equal(r.Time), loc != time.Local && loc != time.UTC:
		p.flags |= flagTimeInSide
	case loc == time.UTC:
		p.flags |= flagUTC
	}

	var ok bool
	if p.trace, ok = parseHex16(r.TraceID); ok {
		p.flags |= flagTraceHex
	} else if r.TraceID != "" {
		p.trace = uint64(t.number(c, r.TraceID))
		p.flags |= flagTraceStr
	}

	if r.Extra != nil || p.flags&flagTimeInSide != 0 {
		// A chunk holds fewer than 256 records, so the index fits a byte.
		p.flags |= flagSide
		p.side = uint8(len(c.side))
		c.side = append(c.side, side{when: r.Time, extra: r.Extra})
	}
	return p
}

// unpack returns the Record p was packed from. c is p's chunk, or a copy of
// its header taken after p was appended.
func unpack(c *chunk, p *packed) Record {
	r := Record{
		Kind:      Kind(c.strs[p.kind]),
		Metastore: c.strs[p.metastore],
		Principal: c.strs[p.principal],
		Operation: c.strs[p.operation],
		Securable: p.securable,
		Allowed:   p.flags&flagAllowed != 0,
		ReadOnly:  p.flags&flagReadOnly != 0,
		Detail:    c.strs[p.detail],
	}
	switch {
	case p.flags&flagTimeInSide != 0:
		r.Time = c.side[p.side].when
	case p.flags&flagUTC != 0:
		r.Time = time.Unix(0, p.when).UTC()
	default:
		r.Time = time.Unix(0, p.when)
	}
	switch {
	case p.flags&flagTraceHex != 0:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], p.trace)
		r.TraceID = hex.EncodeToString(b[:])
	case p.flags&flagTraceStr != 0:
		r.TraceID = c.strs[p.trace]
	}
	if p.flags&flagSide != 0 {
		r.Extra = c.side[p.side].extra
	}
	return r
}

// parseHex16 reads the form obs gives a trace ID: exactly 16 lower-case hex
// digits. Anything else is not ok, so that unpack returns the same string.
func parseHex16(s string) (v uint64, ok bool) {
	if len(s) != 16 {
		return 0, false
	}
	for i := 0; i < 16; i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		default:
			return 0, false
		}
		v = v<<4 | uint64(c)
	}
	return v, true
}
