package events

import (
	"math"
	"strings"
	"time"

	"unitycatalog/internal/ids"
)

// slot is an Event as the log holds it, in 96 bytes. The four strings the
// publisher already holds are kept as they came; metastore, op and type are
// numbers in the bus's name table; the time is Unix nanoseconds and a flag.
// An event with anything that has no such form — a non-nil Changes, a time
// outside int64 nanoseconds or in a zone other than Local and UTC, a name past
// the 65,535th — is kept whole behind rest, and the other fields are unused.
type slot struct {
	version   uint64
	when      int64 // Unix nanoseconds
	entityID  ids.ID
	fullName  string
	principal string
	detail    string
	metastore uint16 // numbers in Bus.names
	op        uint16
	typ       uint16
	flags     uint8
	rest      *Event
}

const flagUTC uint8 = 1 // when is read back in UTC, not in time.Local

// number returns name's number in the bus's name table, giving it the next
// one if it is new; ok is false once 65,535 names are numbered. Caller holds
// b.mu.
func (b *Bus) number(name string) (n uint16, ok bool) {
	if n, ok := b.nameNo[name]; ok {
		return n, true
	}
	if len(b.names) == math.MaxUint16 {
		return 0, false
	}
	name = strings.Clone(name) // the table outlives the event it came in
	n = uint16(len(b.names))
	b.names = append(b.names, name)
	b.nameNo[name] = n
	return n, true
}

// pack returns e's slot, counting it in b.spilled if it spills. Caller holds
// b.mu.
func (b *Bus) pack(e *Event) slot {
	s := slot{version: e.Version, when: e.Time.UnixNano(), entityID: e.EntityID,
		fullName: e.FullName, principal: e.Principal, detail: e.Detail}
	var okMS, okOp, okType bool
	s.metastore, okMS = b.number(e.Metastore)
	s.op, okOp = b.number(string(e.Op))
	s.typ, okType = b.number(e.Type)
	loc := e.Time.Location()
	if loc == time.UTC {
		s.flags |= flagUTC
	}
	if e.Changes != nil || !okMS || !okOp || !okType ||
		(loc != time.Local && loc != time.UTC) || !time.Unix(0, s.when).Equal(e.Time) {
		rest := new(Event)
		*rest = *e
		rest.Time = e.Time.Round(0) // no monotonic reading, as unpack's
		b.spilled++
		return slot{rest: rest}
	}
	return s
}

// unpack returns the Event s was packed from; its time carries no monotonic
// reading. Caller holds b.mu.
func (b *Bus) unpack(s *slot) Event {
	if s.rest != nil {
		return *s.rest
	}
	t := time.Unix(0, s.when)
	if s.flags&flagUTC != 0 {
		t = t.UTC()
	}
	return Event{
		Metastore: b.names[s.metastore], Version: s.version, Op: Op(b.names[s.op]),
		EntityID: s.entityID, Type: b.names[s.typ], FullName: s.fullName,
		Principal: s.principal, Detail: s.detail, Time: t,
	}
}
