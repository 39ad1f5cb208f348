package audit

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"time"

	"unitycatalog/internal/ids"
)

// packed is a Record as the log retains it, in 88 bytes. The strings a request already holds (principal, securable, detail) are
// kept as they came; everything with a smaller exact form takes it, and the
// rare value without one goes behind rest.
type packed struct {
	dseq      uint32 // sequence number, counted from the chunk's base
	metastore uint16 // number in Log.metastores, or inRest
	kind      uint8  // index into kinds, or inRest
	flags     uint8
	when      int64    // Unix nanoseconds, unless rest holds the time
	op        *opCount // the operation's counter entry; nil for none
	trace     uint64   // the trace ID's 16 hex digits, with flagTraceHex
	principal string
	securable ids.ID
	detail    string
	rest      *spill
}

const (
	flagAllowed uint8 = 1 << iota
	flagReadOnly
	flagUTC      // when is read back in UTC, not in time.Local
	flagTraceHex // the trace ID is trace, formatted as obs mints them
	flagTimeInRest
)

// inRest in packed.kind or packed.metastore says the value is in rest.
const inRest = math.MaxUint8

const metastoreInRest = math.MaxUint16

// kinds are the record kinds with a one-byte form.
var kinds = [...]Kind{"", KindAPIRequest, KindLifecycle, KindAuthz, KindCredential}

// spill holds what has no packed form: Extra, a trace ID that is not 16
// lower-case hex digits, a kind this package does not define, a time outside
// int64 nanoseconds or in a zone other than Local and UTC, a metastore name
// past the 65,535th distinct one. A record with any of these gets a copy of
// all five fields; the markers in packed say which are read back from here.
type spill struct {
	kind      Kind
	metastore string
	traceID   string
	when      time.Time
	extra     map[string]string
}

// nameTable numbers strings in the order they were first seen.
type nameTable struct {
	idx   map[string]uint16
	names []string
}

// metastoreNumber returns name's number, giving it the next one if it is
// new; ok is false when the numbers have run out.
func (l *Log) metastoreNumber(name string) (n uint16, ok bool) {
	if n, ok := l.metastores.Load().idx[name]; ok {
		return n, true
	}
	l.internMu.Lock()
	defer l.internMu.Unlock()
	t := l.metastores.Load()
	if n, ok := t.idx[name]; ok {
		return n, true
	}
	if len(t.names) == metastoreInRest {
		return 0, false
	}
	next := &nameTable{idx: make(map[string]uint16, len(t.idx)+1), names: append(t.names[:len(t.names):len(t.names)], name)}
	for k, v := range t.idx {
		next.idx[k] = v
	}
	n = uint16(len(t.names))
	next.idx[name] = n
	l.metastores.Store(next)
	return n, true
}

// pack returns r's retained form. op is r.Operation's counter entry.
func (l *Log) pack(r *Record, op *opCount) packed {
	p := packed{op: op, principal: r.Principal, securable: r.Securable, detail: r.Detail}
	if r.Allowed {
		p.flags |= flagAllowed
	}
	if r.ReadOnly {
		p.flags |= flagReadOnly
	}
	spilled := r.Extra != nil

	p.kind = inRest
	for i, k := range kinds {
		if r.Kind == k {
			p.kind = uint8(i)
			break
		}
	}
	spilled = spilled || p.kind == inRest

	p.when = r.Time.UnixNano()
	switch loc := r.Time.Location(); {
	case !time.Unix(0, p.when).Equal(r.Time), loc != time.Local && loc != time.UTC:
		p.flags |= flagTimeInRest
		spilled = true
	case loc == time.UTC:
		p.flags |= flagUTC
	}

	var ok bool
	if p.metastore, ok = l.metastoreNumber(r.Metastore); !ok {
		p.metastore = metastoreInRest
		spilled = true
	}

	if p.trace, ok = parseHex16(r.TraceID); ok {
		p.flags |= flagTraceHex
	} else if r.TraceID != "" {
		spilled = true
	}

	if spilled {
		// Each field is read back only when its marker says it is here.
		p.rest = &spill{kind: r.Kind, metastore: r.Metastore, traceID: r.TraceID, when: r.Time, extra: r.Extra}
	}
	return p
}

// unpack returns the Record p was packed from.
func (l *Log) unpack(p *packed) Record {
	r := Record{
		Principal: p.principal,
		Securable: p.securable,
		Allowed:   p.flags&flagAllowed != 0,
		ReadOnly:  p.flags&flagReadOnly != 0,
		Detail:    p.detail,
	}
	if p.op != nil {
		r.Operation = p.op.name
	}
	switch {
	case p.flags&flagTimeInRest != 0:
		r.Time = p.rest.when
	case p.flags&flagUTC != 0:
		r.Time = time.Unix(0, p.when).UTC()
	default:
		r.Time = time.Unix(0, p.when)
	}
	if p.kind == inRest {
		r.Kind = p.rest.kind
	} else {
		r.Kind = kinds[p.kind]
	}
	if p.metastore == metastoreInRest {
		r.Metastore = p.rest.metastore
	} else {
		r.Metastore = l.metastores.Load().names[p.metastore]
	}
	if p.flags&flagTraceHex != 0 {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], p.trace)
		r.TraceID = hex.EncodeToString(b[:])
	} else if p.rest != nil {
		r.TraceID = p.rest.traceID
	}
	if p.rest != nil {
		r.Extra = p.rest.extra
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
