package pathtrie

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestInsertAndLookup(t *testing.T) {
	tr := New()
	if err := tr.Insert("s3://bucket/wh/db1/t1", "a"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := tr.Insert("s3://bucket/wh/db1/t2", "b"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if v, reg, ok := tr.Resolve("s3://bucket/wh/db1/t1"); !ok || v != "a" || reg != "s3://bucket/wh/db1/t1" {
		t.Fatalf("lookup = %v, %q, %v", v, reg, ok)
	}
	if v, _, ok := tr.Resolve("s3://bucket/wh/db1/t2"); !ok || v != "b" {
		t.Fatalf("lookup = %v, %v", v, ok)
	}
	if _, _, ok := tr.Resolve("s3://bucket/wh/db1"); ok {
		t.Fatal("lookup of non-registered prefix should fail")
	}
}

func TestInsertOverlapRejected(t *testing.T) {
	cases := []struct {
		first, second string
	}{
		{"s3://b/wh/t1", "s3://b/wh/t1"},        // identical
		{"s3://b/wh/t1", "s3://b/wh/t1/part"},   // new under existing
		{"s3://b/wh/t1/part", "s3://b/wh/t1"},   // new above existing
		{"s3://b/wh", "s3://b/wh/deep/nested"},  // deep descendant
		{"s3://b/wh/deep/nested", "s3://b/wh"},  // deep ancestor
		{"s3://b/wh/t1/", "s3://b/wh/t1"},       // trailing slash
		{"gs://bucket/x", "gs://bucket/x/y/z/"}, // other scheme
	}
	for _, c := range cases {
		tr := New()
		if err := tr.Insert(c.first, 1); err != nil {
			t.Fatalf("first insert %q: %v", c.first, err)
		}
		err := tr.Insert(c.second, 2)
		if err == nil {
			t.Fatalf("insert %q after %q should overlap", c.second, c.first)
		}
		var oe *ErrOverlap
		if !asOverlap(err, &oe) {
			t.Fatalf("error %v is not *ErrOverlap", err)
		}
	}
}

func asOverlap(err error, target **ErrOverlap) bool {
	oe, ok := err.(*ErrOverlap)
	if ok {
		*target = oe
	}
	return ok
}

func TestSiblingsAndDifferentBucketsDoNotOverlap(t *testing.T) {
	tr := New()
	paths := []string{
		"s3://b/wh/t1", "s3://b/wh/t2", "s3://b/wh/t10", // t1 is not a prefix of t10 at segment boundary
		"s3://b2/wh/t1", "gs://b/wh/t1", "abfss://b/wh/t1",
	}
	for _, p := range paths {
		if err := tr.Insert(p, p); err != nil {
			t.Fatalf("insert %q: %v", p, err)
		}
	}
	for _, p := range paths {
		if v, _, ok := tr.Resolve(p + "/file"); !ok || v != p {
			t.Fatalf("resolve under %q = %v, %v", p, v, ok)
		}
	}
}

func TestResolve(t *testing.T) {
	tr := New()
	tr.Insert("s3://b/wh/db/t1", "t1")
	v, reg, ok := tr.Resolve("s3://b/wh/db/t1/part-0001.parquet")
	if !ok || v != "t1" || reg != "s3://b/wh/db/t1" {
		t.Fatalf("resolve = (%v,%q,%v)", v, reg, ok)
	}
	if _, _, ok := tr.Resolve("s3://b/wh/db/t2/file"); ok {
		t.Fatal("resolve of ungoverned path should fail")
	}
	if _, _, ok := tr.Resolve("s3://b/wh/db"); ok {
		t.Fatal("resolve of a strict ancestor should fail")
	}
	// Exact path resolves to itself.
	if v, _, ok := tr.Resolve("s3://b/wh/db/t1"); !ok || v != "t1" {
		t.Fatalf("exact resolve = %v, %v", v, ok)
	}
}

// TestQuickNoOverlapInvariant property-tests the core invariant: after any
// sequence of successful inserts, no registered path is a prefix of another.
func TestQuickNoOverlapInvariant(t *testing.T) {
	seg := []string{"a", "b", "c", "dd", "e1"}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		var accepted []string
		for i := 0; i < int(n%40)+1; i++ {
			depth := rng.Intn(4) + 1
			parts := make([]string, depth)
			for j := range parts {
				parts[j] = seg[rng.Intn(len(seg))]
			}
			p := "s3://bkt/" + strings.Join(parts, "/")
			if err := tr.Insert(p, i); err == nil {
				accepted = append(accepted, p)
			}
		}
		// Invariant: no accepted path is a segment-prefix of another.
		for i := range accepted {
			for j := range accepted {
				if i == j {
					continue
				}
				if accepted[i] == accepted[j] || strings.HasPrefix(accepted[j], accepted[i]+"/") {
					return false
				}
			}
		}
		// And every accepted path resolves to itself.
		for _, p := range accepted {
			if _, reg, ok := tr.Resolve(p + "/file"); !ok || reg != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
