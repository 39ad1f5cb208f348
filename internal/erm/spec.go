package erm

// The stored form of an entity's spec.
//
// A spec is JSON to everything that reads it, but most of a table's JSON is
// the same few keys and values spelled out in every column. The packed form
// keeps only what a spec says:
//
//	specMagic | rendered length (uvarint) | tokens
//
// The first byte is one no JSON value starts with, so a stored spec says which
// form it is in, and the rendered length sizes a render exactly. The tokens
// are one byte each but for what follows a string, a number or an integer:
//
//   - opObject, opArray and opClose open and close containers; opEmptyObject
//     and opEmptyArray stand for {} and []; the commas and colons between
//     values are left implied;
//   - opTrue, opFalse and opNull are the literals;
//   - opUint is followed by a uvarint, an unsigned integer written as
//     strconv.AppendUint writes it; opNumber by any other number's text,
//     length-prefixed;
//   - a string is kept in its escaped form, without its quotes: a byte
//     opShortString+n followed by its n bytes for n < 96, opString and a
//     uvarint length for a longer one, or one byte, opWord+i, for the i-th
//     entry of specWords.
//
// Packing is lossless by construction: PackSpec packs a spec only when
// rendering the packed form gives back its input byte for byte, and only when
// that input is what a response already carries — it has no whitespace
// outside strings and no <, >, &, U+2028 or U+2029, the bytes encoding/json
// and jsonenc.AppendRaw would rewrite. Any other spec is stored as JSON. So a
// packed spec renders to the bytes a response held before it was packed, and
// nothing compares JSON semantically.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
	"unsafe"
)

// Spec is an entity's type-specific metadata (table columns, a view's
// definition, model versions, ...) in its stored form: JSON, or the packed
// form above, which renders to exactly that JSON. It stays in that form
// wherever it rests (the record, the WAL, the cache's shared entity, a page's
// spec slab, the write path's entity) and is rendered only where JSON is
// read: AppendJSON (jsonenc renders into the response buffer), MarshalJSON
// (encoding/json) and Entity.DecodeSpec.
type Spec []byte

const specMagic = 0xE5 // first byte of a packed spec; no JSON value starts with it

// The tokens of a packed spec.
const (
	opObject = 0x01 + iota
	opArray
	opClose
	opEmptyObject
	opEmptyArray
	opTrue
	opFalse
	opNull
	opUint   // uvarint follows
	opNumber // length-prefixed number text follows
	opString // length-prefixed escaped string follows

	opShortString = 0x20 // +n: a string of n < 96 escaped bytes follows
	opWord        = 0x80 // +i: specWords[i]
)

// specWords is the dictionary of spec keys and common values a packed spec
// names in one byte. A word's position is durable, as typeCodes' are: append,
// never reorder, at most 128 entries, none that needs escaping.
var specWords = [...]string{
	// Keys.
	"columns", "name", "type", "nullable", "position", "comment", "table_type", "format",
	"fgac", "row_filters", "column_masks", "predicate", "exempt_principals", "column", "kind",
	"replacement", "keep_last", "base_table", "foreign_connection", "foreign_source_type",
	"uniform_enabled", "definition", "dependencies", "volume_type", "language", "body", "returns",
	"next_version", "version", "status", "run_id", "source", "credential_name", "url", "provider",
	"identity", "connection_type", "options", "connection_name", "workspace_bindings",
	"share_provider", "share_name", "tables", "bearer_token", "shares",
	// Values.
	"MANAGED", "EXTERNAL", "FOREIGN", "SHALLOW_CLONE", "DELTA", "ICEBERG", "PARQUET", "CSV",
	"JSON", "AVRO", "REGULAR", "DELTA_SHARING", "REDACT", "NULL", "HASH", "PARTIAL", "SQL",
	"PYTHON", "PENDING", "READY", "FAILED", "HIVE_METASTORE", "BIGINT", "INT", "STRING",
	"DOUBLE", "FLOAT", "BOOLEAN", "DATE", "TIMESTAMP", "DECIMAL", "BINARY", "id",
}

var specWordCode = func() map[string]byte {
	m := make(map[string]byte, len(specWords))
	for i, w := range specWords {
		m[w] = opWord + byte(i)
	}
	return m
}()

const (
	// maxSpecDepth bounds the nesting a packed spec may have; a deeper spec
	// stays JSON. A catalog spec nests five deep.
	maxSpecDepth = 32
	// maxSpecExpansion bounds the rendered length a packed spec may claim per
	// packed byte (a one-byte word renders to at most its 19 bytes, quotes
	// and a separator), so a damaged length cannot size a huge render.
	maxSpecExpansion = 24
)

// Packed reports whether s is in the packed form.
func (s Spec) Packed() bool { return len(s) > 0 && s[0] == specMagic }

// AppendJSON appends the spec's JSON to dst: a packed spec rendered, a JSON
// spec as it is stored. A packed spec that does not render — only a damaged
// record holds one — appends null.
func (s Spec) AppendJSON(dst []byte) []byte {
	if !s.Packed() {
		return append(dst, s...)
	}
	out, err := renderSpec(dst, s)
	if err != nil {
		return append(dst, "null"...)
	}
	return out
}

// MarshalJSON renders the spec, as json.RawMessage's would return its bytes.
func (s Spec) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	if !s.Packed() {
		return s, nil
	}
	return renderSpec(nil, s)
}

// UnmarshalJSON keeps the JSON as it came, as json.RawMessage's does.
func (s *Spec) UnmarshalJSON(b []byte) error {
	*s = append((*s)[0:0], b...)
	return nil
}

// PackSpec returns the stored form of the JSON spec js: packed if packing
// gives back js byte for byte, otherwise a copy of js; a spec already packed
// is copied as it is. It never aliases js.
func PackSpec(js []byte) Spec {
	if len(js) == 0 {
		return nil
	}
	if Spec(js).Packed() {
		return Spec(bytes.Clone(js))
	}
	sc := getScratch()
	defer putScratch(sc)
	packed, ok := appendPacked(sc.b[:0], js)
	sc.b = packed
	if ok {
		return Spec(bytes.Clone(packed))
	}
	return Spec(bytes.Clone(js))
}

// storedSpec appends the record form of s to b, packing a JSON spec if it
// packs: how EncodeEntity converges records written before their specs were
// packed.
func storedSpec(b []byte, s Spec) []byte {
	if len(s) == 0 || s.Packed() {
		return appendBytes(b, s)
	}
	sc := getScratch()
	defer putScratch(sc)
	packed, ok := appendPacked(sc.b[:0], s)
	sc.b = packed
	if !ok {
		return appendBytes(b, s)
	}
	return appendBytes(b, packed)
}

// appendPacked appends the packed form of js to dst and reports whether it is
// lossless; when it is not, what it appended is garbage the caller drops.
func appendPacked(dst, js []byte) ([]byte, bool) {
	start := len(dst)
	dst = append(dst, specMagic)
	dst = binary.AppendUvarint(dst, uint64(len(js)))
	depth := 0
	for i := 0; i < len(js); {
		switch c := js[i]; c {
		case '{', '[':
			open, empty := byte(opObject), byte(opEmptyObject)
			if c == '[' {
				open, empty = opArray, opEmptyArray
			}
			if i+1 < len(js) && js[i+1] == c+2 { // {} or []
				dst = append(dst, empty)
				i += 2
				continue
			}
			if depth++; depth > maxSpecDepth {
				return dst, false
			}
			dst = append(dst, open)
			i++
		case '}', ']':
			depth--
			dst = append(dst, opClose)
			i++
		case ',', ':':
			i++ // implied; the render check below catches one out of place
		case '"':
			j := i + 1
			for ; j < len(js); j++ {
				if !inString[js[j]] {
					continue
				}
				if c := js[j]; c == '"' {
					break
				} else if c == '\\' {
					j++
				} else if c != 0xE2 || j+2 < len(js) && js[j+1] == 0x80 && js[j+2]&^1 == 0xA8 {
					return dst, false // <, >, &, U+2028, U+2029
				}
			}
			if j >= len(js) {
				return dst, false
			}
			dst = appendSpecString(dst, js[i+1:j])
			i = j + 1
		case 't', 'f', 'n':
			lit, op := "null", byte(opNull)
			switch c {
			case 't':
				lit, op = "true", opTrue
			case 'f':
				lit, op = "false", opFalse
			}
			if !bytes.HasPrefix(js[i:], []byte(lit)) {
				return dst, false
			}
			dst = append(dst, op)
			i += len(lit)
		default:
			j := i
			for j < len(js) && (js[j] >= '0' && js[j] <= '9' || js[j] == '-' || js[j] == '+' || js[j] == '.' || js[j] == 'e' || js[j] == 'E') {
				j++
			}
			if j == i {
				return dst, false // whitespace, or not JSON
			}
			if v, ok := canonicalUint(js[i:j]); ok {
				dst = binary.AppendUvarint(append(dst, opUint), v)
			} else {
				dst = appendBytes(append(dst, opNumber), js[i:j])
			}
			i = j
		}
	}
	// Lossless by construction: the packed form must render to js exactly.
	sc := getScratch()
	defer putScratch(sc)
	out, err := renderSpec(sc.b[:0], dst[start:])
	sc.b = out
	return dst, err == nil && bytes.Equal(out, js)
}

// inString marks the bytes a string's scan stops at: its end, an escape, and
// the start of what a response would escape.
var inString = [256]bool{'"': true, '\\': true, '<': true, '>': true, '&': true, 0xE2: true}

func appendSpecString(dst, s []byte) []byte {
	if code, ok := specWordCode[string(s)]; ok {
		return append(dst, code)
	}
	if len(s) < opWord-opShortString {
		return append(append(dst, opShortString+byte(len(s))), s...)
	}
	return appendBytes(append(dst, opString), s)
}

// canonicalUint reports the value of num if it is an unsigned integer written
// as strconv.AppendUint writes it: digits only, no leading zero, under 20
// digits.
func canonicalUint(num []byte) (uint64, bool) {
	if len(num) == 0 || len(num) > 19 || (num[0] == '0' && len(num) > 1) {
		return 0, false
	}
	var v uint64
	for _, c := range num {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// The state of an open container while a packed spec renders.
const (
	lvlObject = 1 << iota // an object, not an array
	lvlFirst              // nothing written in it yet
	lvlValue              // an object whose next token is a member's value
)

// errSpec is what a packed spec that does not render reports.
var errSpec = errors.New("erm: damaged packed spec")

// renderSpec appends the JSON the packed spec p stands for to dst. It fails on
// anything that does not render to exactly one JSON value of the length p
// states; it never panics and never allocates more than that length.
func renderSpec(dst, p []byte) ([]byte, error) {
	n, k := binary.Uvarint(p[1:])
	if k <= 0 || n > uint64(maxSpecExpansion*len(p)) {
		return dst, errSpec
	}
	start := len(dst)
	dst = slices.Grow(dst, int(n))
	var stack [maxSpecDepth]byte
	depth, done := 0, false
	for i := 1 + k; i < len(p); {
		op := p[i]
		i++
		if op == opClose {
			if depth == 0 || stack[depth-1]&lvlValue != 0 {
				return dst, errSpec
			}
			depth--
			dst = append(dst, closers[stack[depth]&lvlObject])
			done = depth == 0
			continue
		}
		// A value, or an object member's key: what separates it from the
		// token before.
		if depth == 0 {
			if done {
				return dst, errSpec
			}
			done = op != opObject && op != opArray
		} else if st := stack[depth-1]; st&lvlValue != 0 {
			dst = append(dst, ':')
			stack[depth-1] = st &^ lvlValue
		} else {
			if st&lvlObject != 0 {
				if op < opShortString && op != opString {
					return dst, errSpec // a key that is not a string
				}
				st |= lvlValue
			}
			if st&lvlFirst == 0 {
				dst = append(dst, ',')
			}
			stack[depth-1] = st &^ lvlFirst
		}
		switch {
		case op >= opWord:
			if int(op-opWord) >= len(quotedWords) {
				return dst, errSpec
			}
			dst = append(dst, quotedWords[op-opWord]...)
		case op >= opShortString || op == opString || op == opNumber:
			l := int(op - opShortString)
			if op < opShortString {
				v, w := binary.Uvarint(p[i:])
				if w <= 0 || v > uint64(len(p)) {
					return dst, errSpec
				}
				l, i = int(v), i+w
			}
			if l > len(p)-i {
				return dst, errSpec
			}
			if op == opNumber {
				dst = append(dst, p[i:i+l]...)
			} else {
				dst = append(append(append(dst, '"'), p[i:i+l]...), '"')
			}
			i += l
		case op == opUint:
			v, w := binary.Uvarint(p[i:])
			if w <= 0 {
				return dst, errSpec
			}
			dst = strconv.AppendUint(dst, v, 10)
			i += w
		case op == opObject || op == opArray:
			if depth == maxSpecDepth {
				return dst, errSpec
			}
			stack[depth] = lvlFirst
			if op == opObject {
				stack[depth] |= lvlObject
			}
			dst = append(dst, openers[stack[depth]&lvlObject])
			depth++
		case op >= opEmptyObject && op <= opNull:
			dst = append(dst, literals[op-opEmptyObject]...)
		default:
			return dst, errSpec
		}
	}
	if !done || depth != 0 || uint64(len(dst)-start) != n {
		return dst, errSpec
	}
	return dst, nil
}

// What the tokens that stand for fixed text render to.
var (
	openers     = [2]byte{'[', '{'} // by lvlObject
	closers     = [2]byte{']', '}'}
	literals    = [...]string{"{}", "[]", "true", "false", "null"} // opEmptyObject to opNull
	quotedWords = func() (q [len(specWords)]string) {
		for i, w := range specWords {
			q[i] = `"` + w + `"`
		}
		return q
	}()
)

// StringsMember reads the top-level member name of a packed spec in place, as
// json.Unmarshal of the rendered spec into a struct whose one field is a
// []string of that JSON name would: names match as encoding/json matches
// field names (bytes.EqualFold), the last of repeated members wins, and null
// or no member at all is no strings. It returns how many strings the member
// holds and whether want is one of them, and allocates nothing. An empty spec
// holds no strings. ok is false when the walk cannot decide exactly
// (walkPacked), and the caller then decodes the spec, or when the member is
// not an array of strings or null.
func (s Spec) StringsMember(name, want string) (n int, has, ok bool) {
	if len(s) == 0 {
		return 0, false, true
	}
	member, inArray := false, false // the next token is the member's value; one of its strings
	ok = s.walkPacked(func(t packedToken) bool {
		switch {
		case t.op == opClose:
			inArray = false
		case inArray:
			if t.str == nil {
				return false
			}
			n++
			has = has || string(t.str) == want
		case member:
			member = false
			switch t.op {
			case opArray:
				inArray, n, has = true, 0, false
			case opEmptyArray, opNull:
				n, has = 0, false
			default:
				return false
			}
		case t.key && t.depth == 1:
			member = foldEqual(t.str, name)
		}
		return true
	})
	if !ok {
		return 0, false, false
	}
	return n, has, true
}

// EmptyLists reports whether a packed spec's top-level member name is read,
// in place, as holding no elements in any of its members lists: whether
// json.Unmarshal of the rendered spec into a struct whose field of that JSON
// name is a struct with a slice field for each of lists would succeed on that
// field and leave every one of those slices empty. Names match as
// encoding/json matches field names (bytes.EqualFold), so every member whose
// name folds to name, and every list of it whose name folds to one of lists,
// must be null, or the member {} or an object, and the list []. It allocates
// nothing. An empty spec holds no member. False says the caller must decode
// the spec to know: a list holds elements, the member or a list is of another
// kind (which json.Unmarshal refuses), or the walk cannot decide exactly
// (walkPacked). The other members are read only as far as the walk checks them.
func (s Spec) EmptyLists(name string, lists ...string) bool {
	if len(s) == 0 {
		return true
	}
	const (
		outside = iota // not in a member of that name
		value          // the next token is the member's value
		inside         // in the member's object
		list           // the next token is a list's value
	)
	state := outside
	return s.walkPacked(func(t packedToken) bool {
		switch {
		case state == value:
			switch t.op {
			case opNull, opEmptyObject:
				state = outside
			case opObject:
				state = inside
			default:
				return false
			}
		case state == list:
			if t.op != opNull && t.op != opEmptyArray {
				return false
			}
			state = inside
		case state == inside && t.depth == 2:
			if t.op == opClose {
				state = outside
			} else if t.key && slices.ContainsFunc(lists, func(l string) bool { return foldEqual(t.str, l) }) {
				state = list
			}
		case state == outside && t.key && t.depth == 1 && foldEqual(t.str, name):
			state = value
		}
		return true
	})
}

// foldEqual reports whether b and s are equal under simple Unicode case
// folding, as encoding/json matches a member's name to a field's.
func foldEqual(b []byte, s string) bool {
	return bytes.EqualFold(b, unsafe.Slice(unsafe.StringData(s), len(s)))
}

// packedToken is one token of a packed spec as walkPacked hands it on: its
// op; how many containers are open around it (1 for the top-level object's
// members, a closer counted inside what it closes); whether it is an object
// member's name; and a string's bytes, nil for any other token.
type packedToken struct {
	op    byte
	depth int
	key   bool
	str   []byte
}

// walkPacked walks a packed spec token by token, making renderSpec's checks,
// and hands each token to visit. It reports whether the spec is a packed
// object that renders and every visit returned true. It is false — it cannot
// decide exactly what json.Unmarshal of the rendered spec reads — when the
// spec is JSON, is not an object, or does not render, or when it holds an
// escape, invalid UTF-8 or a number that is not an unsigned integer.
func (s Spec) walkPacked(visit func(packedToken) bool) bool {
	if !s.Packed() {
		return false
	}
	size, k := binary.Uvarint(s[1:])
	if k <= 0 || size > uint64(maxSpecExpansion*len(s)) || 1+k >= len(s) || s[1+k] != opObject && s[1+k] != opEmptyObject {
		return false
	}
	var stack [maxSpecDepth]byte
	depth, done := 0, false
	var rendered uint64 // the length renderSpec would render
	for i := 1 + k; i < len(s); {
		op := s[i]
		i++
		t := packedToken{op: op, depth: depth}
		if op == opClose {
			if depth == 0 || stack[depth-1]&lvlValue != 0 || !visit(t) {
				return false
			}
			depth--
			rendered++
			done = depth == 0
			continue
		}
		if depth == 0 {
			if done {
				return false
			}
			done = op != opObject && op != opArray
		} else if st := stack[depth-1]; st&lvlValue != 0 {
			rendered++ // ':'
			stack[depth-1] = st &^ lvlValue
		} else {
			if st&lvlObject != 0 {
				if op < opShortString && op != opString {
					return false
				}
				st |= lvlValue
				t.key = true
			}
			if st&lvlFirst == 0 {
				rendered++ // ','
			}
			stack[depth-1] = st &^ lvlFirst
		}
		switch {
		case op >= opWord:
			if int(op-opWord) >= len(specWords) {
				return false
			}
			t.str = specWordBytes[op-opWord]
		case op >= opShortString || op == opString:
			l := int(op - opShortString)
			if op == opString {
				v, w := binary.Uvarint(s[i:])
				if w <= 0 || v > uint64(len(s)) {
					return false
				}
				l, i = int(v), i+w
			}
			if l > len(s)-i || !plainString(s[i:i+l]) {
				return false
			}
			t.str, i = s[i:i+l], i+l
		case op == opUint:
			v, w := binary.Uvarint(s[i:])
			if w <= 0 {
				return false
			}
			for i, rendered = i+w, rendered+1; v >= 10; v /= 10 {
				rendered++
			}
		case op == opObject || op == opArray:
			if depth == maxSpecDepth {
				return false
			}
			stack[depth] = lvlFirst
			if op == opObject {
				stack[depth] |= lvlObject
			}
			depth++
			rendered++
		case op >= opEmptyObject && op <= opNull:
			rendered += uint64(len(literals[op-opEmptyObject]))
		default: // opNumber, or not a token
			return false
		}
		if t.str != nil {
			rendered += uint64(len(t.str)) + 2
		}
		if !visit(t) {
			return false
		}
	}
	return done && depth == 0 && rendered == size
}

// specWordBytes are specWords as the byte strings StringsMember compares.
var specWordBytes = func() (w [len(specWords)][]byte) {
	for i, s := range specWords {
		w[i] = []byte(s)
	}
	return w
}()

// plainString reports whether a packed string's bytes are the contents of a
// JSON string that decodes to exactly them: no quote, backslash or control
// character, and valid UTF-8.
func plainString(b []byte) bool {
	ascii := true
	for _, c := range b {
		if c == '"' || c == '\\' || c < ' ' {
			return false
		}
		ascii = ascii && c < utf8.RuneSelf
	}
	return ascii || utf8.Valid(b)
}

// scratch is a pooled buffer for packing, the render that checks it, and a
// spec rendered for json.Unmarshal; and the writer json.Encoder marshals into.
type scratch struct{ b []byte }

func (s *scratch) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// maxScratchCap is the largest buffer the pool keeps: one huge spec must not
// pin its buffer for the life of the process.
const maxScratchCap = 64 << 10

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(s *scratch) {
	if cap(s.b) <= maxScratchCap {
		scratchPool.Put(s)
	}
}

// EncodeSpec marshals v into the entity's spec as json.Marshal would, through
// a pooled buffer, and stores it packed when packing is lossless (PackSpec).
func (e *Entity) EncodeSpec(v any) error {
	sc := getScratch()
	defer putScratch(sc)
	sc.b = sc.b[:0]
	if err := json.NewEncoder(sc).Encode(v); err != nil {
		return fmt.Errorf("erm: encode spec: %w", err)
	}
	e.Spec = PackSpec(sc.b[:len(sc.b)-1]) // Encode ends the value with a newline
	return nil
}

// DecodeSpec unmarshals the entity's spec into v, rendering a packed spec into
// a pooled buffer first. json.Unmarshal copies what it keeps, so nothing v
// holds aliases the buffer.
func (e *Entity) DecodeSpec(v any) error {
	if len(e.Spec) == 0 {
		return nil
	}
	if !e.Spec.Packed() {
		return json.Unmarshal(e.Spec, v)
	}
	sc := getScratch()
	defer putScratch(sc)
	js, err := renderSpec(sc.b[:0], e.Spec)
	sc.b = js
	if err != nil {
		return err
	}
	return json.Unmarshal(js, v)
}
