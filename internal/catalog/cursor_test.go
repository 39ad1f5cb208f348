package catalog

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// cursorStrings are plan tags and index keys: what the listings write (0
// bytes between a key's parts) and every string json.Marshal escapes.
var cursorStrings = []string{"", "child", "name", "catname", "tag", "0123456789abcdef\x00TABLE\x00orders",
	"ms\x00CATALOG\x00sales\x00", "a<b>&c", `q"u\o/`, "tab\tnl\n\r\b\f", "bad\xffutf8", "line\u2028sep\u2029",
	"ü€𝄞", "\x1f\x7f"}

// refDecodeCursor is decodeCursor as it read every token with
// json.Unmarshal: the reference the hand parser is held to.
func refDecodeCursor(tok, plan string) (*pageCursor, error) {
	if tok == "" {
		return nil, nil
	}
	b, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return nil, fmt.Errorf("%w: malformed page token", ErrInvalidArgument)
	}
	var c pageCursor
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%w: malformed page token", ErrInvalidArgument)
	}
	if c.S != plan {
		return nil, fmt.Errorf("%w: page token from a different request", ErrInvalidArgument)
	}
	return &c, nil
}

// checkCursorDecode holds decodeCursor to the reference on one token: a
// token it reads (to a cursor, or to a different request's) reads the same
// way through json.Unmarshal. It may refuse as malformed one that
// json.Unmarshal takes, since only encodeCursor's form is ever minted.
func checkCursorDecode(t *testing.T, tok, plan string) {
	t.Helper()
	got, gotErr := decodeCursor(tok, plan)
	if gotErr != nil && strings.HasSuffix(gotErr.Error(), "malformed page token") {
		return
	}
	want, wantErr := refDecodeCursor(tok, plan)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		b, _ := base64.RawURLEncoding.DecodeString(tok)
		t.Fatalf("token %q (%q) for plan %q: decodeCursor %+v, %v; json.Unmarshal %+v, %v", tok, b, plan, got, gotErr, want, wantErr)
	}
}

// TestCursorMatchesEncodingJSON: over random cursors, a token is the base64
// of json.Marshal's bytes, so tokens minted before still decode; it decodes
// to its cursor for its own plan and to an error for another; and a token in
// any other form is refused or read as json.Unmarshal reads it.
func TestCursorMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pick := func() string { return cursorStrings[rng.Intn(len(cursorStrings))] }
	versions := []uint64{0, 1, 9, 10, 12345, 1<<63 - 1, 1 << 63, 1<<64 - 1}
	stages := []int{0, 1, 2, -1, -17, 1 << 40, math.MaxInt, -math.MaxInt}
	// Other forms json.Unmarshal reads or refuses: space, a key in another
	// case or order, an unknown member, an escape where none is needed, a
	// number not as strconv writes it, a repeat, null, trailing bytes.
	variants := []func([]byte) []byte{
		func(b []byte) []byte { return append([]byte(" "), b...) },
		func(b []byte) []byte { return bytes.Replace(b, []byte(`,"k":`), []byte(`, "k" :`), 1) },
		func(b []byte) []byte { return bytes.Replace(b, []byte(`"v":`), []byte(`"V":`), 1) },
		func(b []byte) []byte { return bytes.Replace(b, []byte(`"s":`), []byte(`"x":1,"s":`), 1) },
		func(b []byte) []byte { return bytes.Replace(b, []byte(`"k":"`), []byte(`"k":"\/`), 1) },
		func(b []byte) []byte { return bytes.Replace(b, []byte(`"k":"`), []byte(`"k":"é𝄞`), 1) },
		func(b []byte) []byte { return bytes.Replace(b, []byte(`"k":"`), []byte(`"k":"\ud800`), 1) },
		func(b []byte) []byte { return bytes.Replace(b, []byte(`"v":`), []byte(`"v":0`), 1) },
		func(b []byte) []byte { return bytes.Replace(b, []byte(`"v":`), []byte(`"v":-`), 1) },
		func(b []byte) []byte { return bytes.Replace(b, []byte(`"v":`), []byte(`"v":99999999999999999999`), 1) },
		func(b []byte) []byte { return bytes.Replace(b, []byte(`}`), []byte(`,"g":1.0}`), 1) },
		func(b []byte) []byte { return bytes.Replace(b, []byte(`}`), []byte(`,"g":-9223372036854775808}`), 1) },
		func(b []byte) []byte { return bytes.Replace(b, []byte(`}`), []byte(`,"k":"again"}`), 1) },
		func(b []byte) []byte { return bytes.Replace(b, []byte(`}`), []byte(`,"k2":null}`), 1) },
		func(b []byte) []byte { return append(b, '}') },
		func(b []byte) []byte { return b[:len(b)-1] },
		func(b []byte) []byte { return []byte(`{"s":"child","k":"x","v":3}`) },
		func(b []byte) []byte { return []byte(`[]`) },
	}
	for i := 0; i < 3000; i++ {
		c := pageCursor{V: versions[rng.Intn(len(versions))], S: pick(), K: pick(), G: stages[rng.Intn(len(stages))]}
		if rng.Intn(2) == 0 {
			c.K2 = pick()
		}
		js, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		tok := encodeCursor(c)
		if want := base64.RawURLEncoding.EncodeToString(js); tok != want {
			t.Fatalf("encodeCursor(%+v) = %q (%s), want %q (%s)", c, tok, mustUnbase(tok), want, js)
		}
		// The plan as read back: json.Marshal writes bad UTF-8 as U+FFFD.
		want := new(pageCursor)
		if err := json.Unmarshal(js, want); err != nil {
			t.Fatal(err)
		}
		if got, err := decodeCursor(tok, want.S); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("token %q (%s): decodeCursor %+v, %v; json.Unmarshal %+v", tok, js, got, err, want)
		}
		if _, err := decodeCursor(tok, "other"); want.S != "other" && (err == nil || !strings.HasSuffix(err.Error(), "page token from a different request")) {
			t.Fatalf("token %q (%s) for plan %q: %v, want a different request's", tok, js, "other", err)
		}
		v := variants[rng.Intn(len(variants))](bytes.Clone(js))
		checkCursorDecode(t, base64.RawURLEncoding.EncodeToString(v), c.S)
	}
	if _, err := decodeCursor("not-base64!!!", "child"); err == nil {
		t.Fatal("a token that is not base64 decoded")
	}
}

func mustUnbase(tok string) []byte {
	b, _ := base64.RawURLEncoding.DecodeString(tok)
	return b
}

// FuzzPageToken: whatever a token's bytes, decodeCursor refuses them as
// malformed or reads them as json.Unmarshal does.
func FuzzPageToken(f *testing.F) {
	f.Add([]byte(`{"v":12,"s":"child","k":"a\u0000TABLE\u0000b","k2":"x","g":1}`), "child")
	f.Add([]byte("{\"v\":12,\"s\":\"name\",\"k\":\"<\ufffd\xff\"}"), "name")
	f.Fuzz(func(t *testing.T, b []byte, plan string) {
		checkCursorDecode(t, base64.RawURLEncoding.EncodeToString(b), plan)
	})
}

// TestCursorAllocs: a token is minted in one allocation, its string, and a
// continuation's token decodes into the base64's bytes, the cursor and its
// keys.
func TestCursorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("counts allocations")
	}
	c := pageCursor{V: 812, S: "catname", K: "0123456789abcdef\x00TABLE\x00orders", K2: "fedcba9876543210\x00SCHEMA\x00raw", G: 1}
	tok := encodeCursor(c)
	if got := testing.AllocsPerRun(100, func() { encodeCursor(c) }); got != 1 {
		t.Errorf("encodeCursor: %.0f allocations, want 1", got)
	}
	if got := testing.AllocsPerRun(100, func() { decodeCursor(tok, "catname") }); got != 4 {
		t.Errorf("decodeCursor: %.0f allocations, want 4", got)
	}
}
