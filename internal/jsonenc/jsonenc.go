// Package jsonenc is the pooled, reflection-free JSON encoder behind the
// server's hot response paths (resolve, get-asset, temporary credentials,
// paginated listings, healthz). encoding/json walks a value with reflection
// and allocates per call; at the request rates the serving fleet targets
// (paper §4.5) that garbage dominates the per-request cost once the layers
// beneath the handler are fast. The encoders here append directly into a
// sync.Pool'd []byte with zero allocations in steady state, and their output
// is byte-identical to encoding/json.Marshal for the types they cover —
// proven by differential fuzz and property tests — so clients cannot tell
// which path produced a response.
//
// Byte compatibility pins down the full escaping contract of encoding/json
// with its default (HTML-safe) escaping: the HTML-sensitive bytes <, >, &
// become their six-character unicode escapes, control characters use
// \n, \r, \t or \u00XX, invalid UTF-8 bytes are replaced by the escaped
// replacement character U+FFFD, U+2028/U+2029 are escaped for
// JS embedding, map keys are emitted in sorted order, and time.Time uses the
// quoted RFC 3339 format with nanoseconds. An entity spec stored as JSON is
// compacted and HTML-escaped exactly as encoding/json re-emits a
// json.RawMessage; a packed one (erm.Spec) renders to bytes neither step
// would change.
package jsonenc

import (
	"strconv"
	"sync"
	"time"

	"unitycatalog/internal/jsonstr"
)

// Buffer is a pooled append target. Grab one with Get, append via the
// encoder helpers, hand the bytes to the response writer, then Put it back.
type Buffer struct{ B []byte }

// maxRetainedCap bounds the buffers the pool retains: one pathological
// multi-megabyte listing must not pin its buffer for the rest of the
// process. Larger buffers are dropped for the GC.
const maxRetainedCap = 1 << 20

var pool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 4096)} }}

// Get returns an empty pooled buffer.
func Get() *Buffer {
	b := pool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// Put returns a buffer to the pool.
func Put(b *Buffer) {
	if b == nil || cap(b.B) > maxRetainedCap {
		return
	}
	pool.Put(b)
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a quoted JSON string, matching
// encoding/json.Marshal byte-for-byte (jsonstr.Append).
func AppendString(dst []byte, s string) []byte { return jsonstr.Append(dst, s) }

// AppendInt appends a base-10 signed integer.
func AppendInt(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) }

// AppendUint appends a base-10 unsigned integer.
func AppendUint(dst []byte, v uint64) []byte { return strconv.AppendUint(dst, v, 10) }

// AppendBool appends true or false.
func AppendBool(dst []byte, v bool) []byte { return strconv.AppendBool(dst, v) }

// AppendTime appends t as a quoted RFC 3339 timestamp with nanoseconds,
// matching time.Time's MarshalJSON for in-range (year 0..9999) times.
func AppendTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}

// AppendRaw appends pre-encoded JSON exactly as encoding/json re-emits a
// json.RawMessage: insignificant whitespace outside strings is dropped and
// the HTML-sensitive sequences (<, >, &, U+2028, U+2029) are escaped even
// inside strings. raw must be syntactically valid JSON (the server only
// stores specs that arrived through a validating decoder).
func AppendRaw(dst, raw []byte) []byte {
	inStr, esc := false, false
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c == '<' || c == '>' || c == '&' {
			// In valid JSON these bytes only occur inside strings, where the
			// escape is always legal; emitting the escape unconditionally
			// matches encoding/json's compact step.
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			continue
		}
		if c == 0xE2 && i+2 < len(raw) && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xA8 {
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[raw[i+2]&0xF])
			i += 2
			continue
		}
		if inStr {
			dst = append(dst, c)
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '"':
			inStr = true
		}
		dst = append(dst, c)
	}
	return dst
}

// AppendStringMap appends a map[string]string object with keys in sorted
// order, as encoding/json does. The key slice is the only allocation and
// only when the map is non-empty.
func AppendStringMap(dst []byte, m map[string]string) []byte {
	if m == nil {
		return append(dst, "null"...)
	}
	if len(m) == 0 {
		return append(dst, "{}"...)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, k)
		dst = append(dst, ':')
		dst = AppendString(dst, m[k])
	}
	return append(dst, '}')
}

// AppendStringSlice appends a []string array (nil emits null).
func AppendStringSlice(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, s)
	}
	return append(dst, ']')
}

// sortStrings is an insertion sort: key sets here are tiny (entity
// properties, resolve closures) and this avoids sort.Strings' interface
// machinery on the hot path.
func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}
