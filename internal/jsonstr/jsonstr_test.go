package jsonstr

import (
	"bytes"
	"encoding/json"
	"testing"
)

// unquoteCases are JSON strings AppendUnquoted reads, and ones it leaves to
// encoding/json.
var unquoteCases = []string{
	`""`, `"plain"`, `"a\u0000b"`, `"\"\\\/\b\f\n\r\t"`, `"é€�"`, `"ü€𝄞"`, `"<>&"`,
	"\"raw\u2028sep\"", `"𝄞"`, `"\ud800"`, `"\udfff"`, "\"bad\xff\"", "\"ctl\x01\"", `"\x"`, `"\u12"`,
	`"\u12g4"`, `"open`, `"trail\`, `x"`, ``, `"a"rest`,
}

// checkUnquote holds AppendUnquoted to json.Unmarshal on the string that b
// starts with: when it reads one, it is encoding/json's value of the same
// bytes, and the rest is what follows them.
func checkUnquote(t *testing.T, b []byte) {
	t.Helper()
	out, rest, ok := AppendUnquoted([]byte("keep"), b)
	if !ok {
		if string(out) != "keep" || !bytes.Equal(rest, b) {
			t.Fatalf("%q: refused, yet returned %q, %q", b, out, rest)
		}
		return
	}
	str := b[:len(b)-len(rest)]
	var want string
	if err := json.Unmarshal(str, &want); err != nil {
		t.Fatalf("%q: read %q, which encoding/json refuses: %v", b, str, err)
	}
	if string(out) != "keep"+want {
		t.Fatalf("%q: read %q, encoding/json %q", b, out[len("keep"):], want)
	}
}

func TestAppendUnquotedMatchesEncodingJSON(t *testing.T) {
	for _, c := range unquoteCases {
		checkUnquote(t, []byte(c))
	}
	// Whatever Append writes reads back, but for what Marshal replaces.
	for _, s := range []string{"", "a<b>&c", "q\"u\\o", "\x00\x1f\x7f", "line\u2028sep\u2029", "ü€𝄞", "bad\xff"} {
		b := Append(nil, s)
		want, _ := json.Marshal(s)
		if !bytes.Equal(b, want) {
			t.Fatalf("Append(%q) = %s, json.Marshal %s", s, b, want)
		}
		checkUnquote(t, b)
		if _, _, ok := AppendUnquoted(nil, b); !ok {
			t.Fatalf("Append(%q) = %s does not read back", s, b)
		}
	}
}

// FuzzAppendUnquoted: whatever the bytes, AppendUnquoted reads a string as
// encoding/json does or leaves it alone.
func FuzzAppendUnquoted(f *testing.F) {
	for _, c := range unquoteCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkUnquote(t, b) })
}
