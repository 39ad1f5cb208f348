// Package ids provides unique identifier generation for catalog entities.
//
// IDs are 128-bit values rendered as 32 hex characters, composed of a
// millisecond timestamp prefix and a random suffix so that IDs sort roughly
// by creation time, similar to ULIDs. Generation is safe for concurrent use.
package ids

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// ID is a unique identifier for a catalog entity.
type ID string

// Nil is the zero ID.
const Nil ID = ""

var counter atomic.Uint64

// New returns a new unique ID. The first 8 bytes encode milliseconds since
// the Unix epoch plus a process-local counter to guarantee uniqueness even
// within the same millisecond; the last 8 bytes are random.
func New() ID {
	var b [16]byte
	ms := uint64(time.Now().UnixMilli())
	binary.BigEndian.PutUint64(b[:8], ms<<16|counter.Add(1)&0xffff)
	if _, err := rand.Read(b[8:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to
		// counter-derived bytes so New never returns a duplicate.
		binary.BigEndian.PutUint64(b[8:], counter.Add(1))
	}
	var h [2 * RawLen]byte
	hex.Encode(h[:], b[:])
	return ID(h[:])
}

// Valid reports whether id looks like an ID produced by New.
func (id ID) Valid() bool {
	if len(id) != 32 {
		return false
	}
	_, err := hex.DecodeString(string(id))
	return err == nil
}

// String returns the hex form of the ID.
func (id ID) String() string { return string(id) }

// Short returns an abbreviated form useful in logs.
func (id ID) Short() string {
	if len(id) < 8 {
		return string(id)
	}
	return string(id[:8])
}

// Parse validates s and returns it as an ID.
func Parse(s string) (ID, error) {
	id := ID(s)
	if !id.Valid() {
		return Nil, fmt.Errorf("ids: invalid id %q", s)
	}
	return id, nil
}

// RawLen is the length of an ID's binary form.
const RawLen = 16

// AppendRaw appends id's 16-byte binary form to b. ok is false, and b comes
// back as it was, when id is not the 32 lower-case hex digits New produces:
// only those IDs come back from FromRaw exactly as they went in, so any other
// is stored as its string by whoever stores it.
func (id ID) AppendRaw(b []byte) (out []byte, ok bool) {
	if len(id) != 2*RawLen {
		return b, false
	}
	n := len(b)
	for i := 0; i < len(id); i += 2 {
		hi, lo := unhex(id[i]), unhex(id[i+1])
		if hi > 0xf || lo > 0xf {
			return b[:n], false
		}
		b = append(b, hi<<4|lo)
	}
	return b, true
}

// unhex returns the value of lower-case hex digit c, or 0xff.
func unhex(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	}
	return 0xff
}

// FromRaw returns the ID whose binary form is raw's first RawLen bytes.
func FromRaw(raw []byte) ID {
	var h [2 * RawLen]byte
	hex.Encode(h[:], raw[:RawLen])
	return ID(h[:])
}
