// Package jsonstr writes and reads JSON strings exactly as encoding/json
// does, for the encoders that build JSON by hand: the server's pooled
// response encoders (internal/jsonenc) and the catalog's stored grant values
// and page tokens. It imports nothing of the project, so any package may use
// it.
package jsonstr

import "unicode/utf8"

const hexDigits = "0123456789abcdef"

// htmlSafe mirrors encoding/json's htmlSafeSet for ASCII: bytes that pass
// through a JSON string unescaped under the default HTML-escaping encoder.
func htmlSafe(c byte) bool {
	return c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// Append appends s as a quoted JSON string, matching encoding/json.Marshal
// byte-for-byte (HTML escaping on, invalid UTF-8 replaced by the escaped
// replacement character, U+2028/U+2029 escaped).
func Append(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe(c) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Control characters and the HTML-sensitive <, >, &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendUnquoted reads the JSON string at the start of b, appends its value
// to dst and returns that and the bytes of b after the string. It reports
// false, having read nothing, for a string that encoding/json reads
// otherwise or not at all: one that holds a control character or invalid
// UTF-8, escapes a UTF-16 surrogate (decoding pairs and replacing lone ones is
// left to encoding/json), or is not terminated; and when b does not start
// with a string.
func AppendUnquoted(dst, b []byte) (out, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return dst, b, false
	}
	out = dst
	for i := 1; i < len(b); {
		c := b[i]
		switch {
		case c == '"':
			return out, b[i+1:], true
		case c < ' ':
			return dst, b, false
		case c == '\\':
			if i+1 == len(b) {
				return dst, b, false
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := hex4(b[i+2:])
				if !ok || 0xD800 <= r && r < 0xE000 {
					return dst, b, false
				}
				out = utf8.AppendRune(out, r)
				i += 4
			default:
				return dst, b, false
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return dst, b, false
			}
			out = append(out, b[i:i+size]...)
			i += size
		}
	}
	return dst, b, false
}

// hex4 reads the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
