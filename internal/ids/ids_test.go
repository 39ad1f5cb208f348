package ids

import (
	"sync"
	"testing"
)

func TestNewUniqueAndValid(t *testing.T) {
	seen := make(map[ID]bool, 10000)
	for i := 0; i < 10000; i++ {
		id := New()
		if !id.Valid() {
			t.Fatalf("invalid id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestNewConcurrentUnique(t *testing.T) {
	const workers, each = 8, 2000
	var mu sync.Mutex
	seen := make(map[ID]bool, workers*each)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]ID, 0, each)
			for i := 0; i < each; i++ {
				local = append(local, New())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate id %q", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
}

func TestParse(t *testing.T) {
	id := New()
	back, err := Parse(id.String())
	if err != nil || back != id {
		t.Fatalf("parse round trip: %v, %v", back, err)
	}
	for _, bad := range []string{"", "short", string(make([]byte, 32)), "zz" + id.String()[2:]} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestShort(t *testing.T) {
	id := New()
	if got := id.Short(); len(got) != 8 || got != id.String()[:8] {
		t.Fatalf("short = %q", got)
	}
	if got := ID("abc").Short(); got != "abc" {
		t.Fatalf("tiny short = %q", got)
	}
	if Nil.Valid() {
		t.Fatal("Nil should be invalid")
	}
}

func TestRoughTimeOrdering(t *testing.T) {
	// IDs generated later sort at or after earlier ones most of the time
	// (timestamp-prefixed); check a weak monotonicity property.
	prev := New()
	inversions := 0
	for i := 0; i < 1000; i++ {
		cur := New()
		if cur < prev {
			inversions++
		}
		prev = cur
	}
	if inversions > 100 {
		t.Fatalf("too many orderings inversions: %d", inversions)
	}
}

func TestRawRoundTrip(t *testing.T) {
	for i := 0; i < 1000; i++ {
		id := New()
		raw, ok := id.AppendRaw([]byte("x"))
		if !ok || len(raw) != 1+RawLen || raw[0] != 'x' {
			t.Fatalf("AppendRaw(%q) = %x, %v", id, raw, ok)
		}
		if back := FromRaw(raw[1:]); back != id {
			t.Fatalf("FromRaw(AppendRaw(%q)) = %q", id, back)
		}
	}
	// Anything FromRaw would not spell the same way has no binary form.
	for _, id := range []ID{"", "abc", "0123456789ABCDEF0123456789abcdef", "0123456789abcdef0123456789abcdeg", "0123456789abcdef0123456789abcdef0"} {
		if raw, ok := id.AppendRaw([]byte("x")); ok || string(raw) != "x" {
			t.Errorf("AppendRaw(%q) = %x, %v; want the input back and false", id, raw, ok)
		}
	}
}
