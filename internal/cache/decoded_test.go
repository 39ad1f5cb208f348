package cache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"unitycatalog/internal/clock"
	"unitycatalog/internal/store"
)

// form is what the tests' decode function makes of a record.
type form struct {
	key string
	val string
}

// decoder returns a decode function and the number of times it has run.
func decoder() (func(key string, rec []byte) (any, error), *int) {
	n := new(int)
	var mu sync.Mutex
	return func(key string, rec []byte) (any, error) {
		mu.Lock()
		*n++
		mu.Unlock()
		return &form{key: key, val: string(rec)}, nil
	}, n
}

func put(t *testing.T, db *store.DB, key, val string) {
	t.Helper()
	if _, err := db.Update("m", func(tx *store.Tx) error { tx.Put("t", key, []byte(val)); return nil }); err != nil {
		t.Fatal(err)
	}
}

// decodedForms counts the decoded forms the cache holds for "m".
func decodedForms(c *Cache) (n int) {
	c.EachDecoded("m", func(string, string, []byte, any) { n++ })
	return n
}

func readForm(t *testing.T, c *Cache, decode func(string, []byte) (any, error), key string) *form {
	t.Helper()
	v, err := c.NewView("m")
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	d, ok := v.GetDecoded("t", key, decode)
	if !ok {
		return nil
	}
	return d.(*form)
}

// TestGetDecodedDecodesOncePerVersion: the first read of a record version
// decodes it, every later one is handed the same form, and a commit installs
// its version with nothing decoded while a view pinned before it still finds
// the old bytes and the old form together.
func TestGetDecodedDecodesOncePerVersion(t *testing.T) {
	db := newDB(t)
	put(t, db, "k", "v1")
	c := New(db, Options{})
	c.Own("m")
	decode, calls := decoder()

	first := readForm(t, c, decode, "k")
	if first == nil || first.val != "v1" || *calls != 1 {
		t.Fatalf("cold read = %+v after %d decodes", first, *calls)
	}
	for i := 0; i < 3; i++ {
		if again := readForm(t, c, decode, "k"); again != first {
			t.Fatalf("warm read %d was handed a different form", i)
		}
	}
	if m := c.Metrics(); *calls != 1 || m.Decodes != 1 || m.DecodedHits != 3 {
		t.Fatalf("after three warm reads: %d decodes, metrics %+v", *calls, m)
	}
	if _, ok := func() (any, bool) {
		v, _ := c.NewView("m")
		defer v.Close()
		return v.GetDecoded("t", "absent", decode)
	}(); ok || *calls != 1 {
		t.Fatalf("an absent record was decoded (%d decodes)", *calls)
	}

	// A view pinned at V, then V+1 written through beside it.
	pinned, _ := c.NewView("m")
	defer pinned.Close()
	if d, _ := pinned.GetDecoded("t", "k", decode); d != any(first) {
		t.Fatal("pinning read was handed a different form")
	}
	if _, err := c.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("v2")); return nil }); err != nil {
		t.Fatal(err)
	}
	if n := decodedForms(c); n != 1 {
		t.Fatalf("after a write-through the cache holds %d decoded forms, want the old version's one", n)
	}
	if d, _ := pinned.GetDecoded("t", "k", decode); d != any(first) {
		t.Fatalf("the view pinned at %d was handed %+v after the next version was written through", pinned.Version(), d)
	}
	second := readForm(t, c, decode, "k")
	if second == nil || second.val != "v2" || second == first || *calls != 2 {
		t.Fatalf("read after the write = %+v after %d decodes", second, *calls)
	}
	if again := readForm(t, c, decode, "k"); again != second || *calls != 2 {
		t.Fatalf("second read after the write decoded again (%d decodes)", *calls)
	}
	// The bytes Get returns at either version are the ones decoded.
	if b, _ := pinned.Get("t", "k"); string(b) != first.val {
		t.Fatalf("pinned view: bytes %q beside form %q", b, first.val)
	}
}

// TestDecodedFormKeepsTheCachesKey: decode is handed the key string the cache
// itself holds for the record, not the one a later reader happened to pass —
// a reader's key may be a substring of something large, and a decoded form
// that kept it would pin that for as long as the record stays cached.
func TestDecodedFormKeepsTheCachesKey(t *testing.T) {
	db := newDB(t)
	put(t, db, "k1", "v")
	c := New(db, Options{})
	c.Own("m")
	decode, _ := decoder()

	// A plain Get caches the record under its own key string first.
	own := string([]byte("k1"))
	v, _ := c.NewView("m")
	v.Get("t", own)
	v.Close()
	// The decoding read passes an equal key cut out of a larger string.
	page := "....k1...."
	f := readForm(t, c, decode, page[4:6])
	if f == nil || f.key != "k1" {
		t.Fatalf("form = %+v", f)
	}
	if unsafe.StringData(f.key) != unsafe.StringData(own) {
		t.Fatal("the decoded form kept the reader's key, not the cache's own")
	}
}

// TestDecodedFormFollowsItsRecord: a decoded form has no life of its own.
// LRU eviction, a full reconcile, a selective invalidation and version pruning
// each take it away with the version it hangs off, and leave the others'.
func TestDecodedFormFollowsItsRecord(t *testing.T) {
	t.Run("evict", func(t *testing.T) {
		db := newDB(t)
		for i := 0; i < 64; i++ {
			put(t, db, fmt.Sprintf("k%02d", i), "v")
		}
		c := New(db, Options{MaxEntriesPerMetastore: 8})
		c.Own("m")
		decode, calls := decoder()
		for i := 0; i < 64; i++ {
			readForm(t, c, decode, fmt.Sprintf("k%02d", i))
		}
		entries, forms := c.EntryCount("m"), decodedForms(c)
		if entries > 8 || forms > entries {
			t.Fatalf("%d records cached under a cap of 8, %d decoded forms", entries, forms)
		}
		if m := c.Metrics(); m.Evictions != int64(64-entries) || *calls != 64 {
			t.Fatalf("%d evictions, %d decodes for 64 cold reads leaving %d records", m.Evictions, *calls, entries)
		}
		// An evicted record is decoded anew, once.
		held := map[string]bool{}
		c.EachDecoded("m", func(_, key string, _ []byte, _ any) { held[key] = true })
		for i := 0; i < 64; i++ {
			if key := fmt.Sprintf("k%02d", i); !held[key] {
				readForm(t, c, decode, key)
				if *calls != 65 {
					t.Fatalf("re-reading evicted %s took %d decodes, want 1", key, *calls-64)
				}
				break
			}
		}
	})

	t.Run("reconcile full", func(t *testing.T) {
		db := newDB(t)
		put(t, db, "a", "1")
		put(t, db, "b", "2")
		c := New(db, Options{})
		c.Own("m")
		decode, calls := decoder()
		readForm(t, c, decode, "a")
		readForm(t, c, decode, "b")
		if err := c.ReconcileFull("m"); err != nil {
			t.Fatal(err)
		}
		if c.EntryCount("m") != 0 || decodedForms(c) != 0 {
			t.Fatalf("after ReconcileFull: %d records, %d decoded forms", c.EntryCount("m"), decodedForms(c))
		}
		if f := readForm(t, c, decode, "a"); f == nil || *calls != 3 {
			t.Fatalf("read after ReconcileFull = %+v after %d decodes, want a third", f, *calls)
		}
	})

	t.Run("selective invalidation", func(t *testing.T) {
		db := newDB(t)
		put(t, db, "a", "1")
		put(t, db, "b", "2")
		c := New(db, Options{})
		c.Own("m")
		decode, calls := decoder()
		readForm(t, c, decode, "a")
		b := readForm(t, c, decode, "b")
		put(t, db, "a", "1'") // another node's commit: the cache hears of it at the next view
		a := readForm(t, c, decode, "a")
		if a == nil || a.val != "1'" || *calls != 3 {
			t.Fatalf("read of the changed record = %+v after %d decodes", a, *calls)
		}
		if m := c.Metrics(); m.SelectiveReconciles != 1 || m.FullReconciles != 0 {
			t.Fatalf("reconciles: %+v", m)
		}
		if again := readForm(t, c, decode, "b"); again != b || *calls != 3 {
			t.Fatalf("the untouched record was decoded again (%d decodes)", *calls)
		}
		if n := decodedForms(c); n != 2 {
			t.Fatalf("%d decoded forms, want the two current ones", n)
		}
	})

	t.Run("version pruning", func(t *testing.T) {
		db := newDB(t)
		put(t, db, "k", "v0")
		c := New(db, Options{VersionRetention: time.Nanosecond})
		c.Own("m")
		decode, _ := decoder()
		for i := 1; i <= 4; i++ {
			readForm(t, c, decode, "k") // decodes the current version
			time.Sleep(time.Millisecond)
			if _, err := c.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte(fmt.Sprintf("v%d", i))); return nil }); err != nil {
				t.Fatal(err)
			}
		}
		// Past retention one superseded version is kept beside the newest;
		// the forms of the pruned ones went with them.
		versions := 0
		m, _ := c.owner("m")
		for i := range m.shards {
			for _, rec := range m.shards[i].records {
				versions += len(rec.versions)
			}
		}
		if forms := decodedForms(c); versions != 2 || forms != 1 {
			t.Fatalf("%d versions cached with %d decoded forms, want 2 and the superseded one's 1", versions, forms)
		}
	})
}

// TestGetDecodedConcurrentFirstReads: readers racing to a cold record share
// one form, decoded once.
func TestGetDecodedConcurrentFirstReads(t *testing.T) {
	db := newDB(t)
	put(t, db, "k", "v")
	c := New(db, Options{})
	c.Own("m")
	decode, calls := decoder()
	const readers = 16
	forms := make([]*form, readers)
	var wg sync.WaitGroup
	for i := range forms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			forms[i] = readForm(t, c, decode, "k")
		}(i)
	}
	wg.Wait()
	for i, f := range forms {
		if f == nil || f != forms[0] {
			t.Fatalf("reader %d was handed %p, reader 0 %p", i, f, forms[0])
		}
	}
	if m := c.Metrics(); *calls != 1 || m.Decodes != 1 || m.DecodedHits != readers-1 {
		t.Fatalf("%d decodes for %d concurrent first reads; metrics %+v", *calls, readers, m)
	}
}

// TestGetDecodedOutsideTheMemo: where there is no cached version to keep a
// form in, or the form cannot be made, the read still answers — privately.
func TestGetDecodedOutsideTheMemo(t *testing.T) {
	db := newDB(t)
	put(t, db, "k", "v1")

	t.Run("cache disabled", func(t *testing.T) {
		c := New(db, Options{Disabled: true})
		decode, calls := decoder()
		a, b := readForm(t, c, decode, "k"), readForm(t, c, decode, "k")
		if a == nil || b == nil || a == b || *calls != 2 {
			t.Fatalf("disabled cache: forms %p %p after %d decodes, want two private ones", a, b, *calls)
		}
	})

	t.Run("batch reads neither read nor fill", func(t *testing.T) {
		c := New(db, Options{})
		c.Own("m")
		v, _ := c.NewView("m")
		defer v.Close()
		if got := v.GetBatch("t", []string{"k", "absent"}); string(got[0]) != "v1" || got[1] != nil {
			t.Fatalf("batch = %q", got)
		}
		if m := c.Metrics(); decodedForms(c) != 0 || m.Decodes != 0 || m.DecodedHits != 0 {
			t.Fatalf("GetBatch touched the decoded forms: %+v", m)
		}
	})

	t.Run("decode error", func(t *testing.T) {
		c := New(db, Options{})
		c.Own("m")
		v, _ := c.NewView("m")
		defer v.Close()
		bad := func(string, []byte) (any, error) { return nil, errors.New("corrupt") }
		if d, ok := v.GetDecoded("t", "k", bad); ok || d != nil {
			t.Fatalf("undecodable record read as %v", d)
		}
		if decodedForms(c) != 0 {
			t.Fatal("a failed decode left a form behind")
		}
		if b, ok := v.Get("t", "k"); !ok || string(b) != "v1" {
			t.Fatalf("the bytes are still served: %q %v", b, ok)
		}
	})

	t.Run("degraded", func(t *testing.T) {
		// A view pinned before the record's cached version is, during an
		// outage, served the newest cached version — bytes and form.
		fc := clock.NewFake(time.Unix(1000, 0))
		c := New(db, Options{Clock: fc, MaxStaleness: time.Minute})
		c.Own("m")
		decode, calls := decoder()
		old, _ := c.NewView("m")
		defer old.Close()
		old.Get("t", "absent") // pins
		put(t, db, "k", "v2")
		fresh := readForm(t, c, decode, "k")
		outage(db)
		defer db.SetFaults(nil)
		d, ok := old.GetDecoded("t", "k", decode)
		if !ok || d != any(fresh) || *calls != 1 {
			t.Fatalf("degraded read = %+v (%v) after %d decodes, want the cached version's form", d, ok, *calls)
		}
		fc.Advance(2 * time.Minute)
		if _, ok := old.GetDecoded("t", "k", decode); ok || old.Err() == nil {
			t.Fatal("a degraded read past the staleness bound was served")
		}
	})
}
