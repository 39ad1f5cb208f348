package erm

import (
	"math/rand"
	"strings"
	"testing"

	"unitycatalog/internal/ids"
)

// nameRunes are what TestNameKeyMatchesReference builds names from: ASCII of
// either case, runes whose lower case is ASCII or of another length (İ,
// U+0130, and the Kelvin sign, U+212A), one with no lower case of its own (ß),
// a replacement character, and bytes that are not UTF-8 (a lone lead byte, a
// continuation byte, 0xff).
var nameRunes = []string{"a", "Z", "q", "_", "0", "İ", "K", "ß", "Σ", "é", "�", "\xc3", "\x80", "\xff"}

// TestNameKeyMatchesReference holds the name key a resolution builds in its
// buffer (AppendNameKey) and NameKey to the key as it has always been spelled:
// group, parent and strings.ToLower of the name, 0-separated; and the name
// table's sort key to the name's part of it.
func TestNameKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	buf := make([]byte, 0, 8)
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(nameRunes[rng.Intn(len(nameRunes))])
		}
		name, parent := b.String(), ids.ID([]string{"", "p1", "0123456789abcdef0123456789abcdef"}[rng.Intn(3)])
		group := NameGroupOf([]SecurableType{TypeTable, TypeSchema, TypeStorageCredential}[rng.Intn(3)])
		want := group + "\x00" + string(parent) + "\x00" + strings.ToLower(name)
		buf = AppendNameKey(buf[:0], group, parent, name)
		if string(buf) != want || NameKey(group, parent, name) != want {
			t.Fatalf("name %q: AppendNameKey %q, NameKey %q, want %q", name, buf, NameKey(group, parent, name), want)
		}
		if got := appendLower(nil, name); string(got) != strings.ToLower(name) {
			t.Fatalf("name %q lowers to %q, want %q", name, got, strings.ToLower(name))
		}
	}
}

// TestAppendNameKeyAllocs: a key built into a buffer with room allocates
// nothing, ASCII or not.
func TestAppendNameKeyAllocs(t *testing.T) {
	buf := make([]byte, 0, 128)
	for _, name := range []string{"Orders", "İstanbul_Kelvin", "bad\xff"} {
		if a := testing.AllocsPerRun(100, func() { buf = AppendNameKey(buf[:0], "RELATION", "0123456789abcdef0123456789abcdef", name) }); a != 0 {
			t.Errorf("AppendNameKey of %q: %.0f allocations, want 0", name, a)
		}
	}
}
