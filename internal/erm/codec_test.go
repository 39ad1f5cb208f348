package erm

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"unitycatalog/internal/ids"
)

func sampleEntity(rng *rand.Rand) *Entity {
	now := time.Unix(1700000000+rng.Int63n(1e6), rng.Int63n(1e9)).UTC()
	e := &Entity{
		ID:        ids.ID(fmt.Sprintf("id-%d", rng.Int63())),
		Type:      TypeTable,
		Name:      fmt.Sprintf("t_%d", rng.Intn(1e6)),
		ParentID:  ids.ID(fmt.Sprintf("parent-%d", rng.Intn(100))),
		FullName:  "main.analytics.t",
		Owner:     "alice@example.com",
		State:     StateActive,
		CreatedAt: now,
		UpdatedAt: now.Add(time.Minute),
	}
	switch rng.Intn(4) {
	case 0:
		e.Comment = "a comment"
		e.Properties = map[string]string{"delta.minReaderVersion": "2", "pii": "true"}
	case 1:
		e.StoragePath = "s3://bucket/prefix/t"
		e.Managed = true
		e.Spec = json.RawMessage(`{"columns":[{"name":"id","type":"INT"}]}`)
	case 2:
		d := now.Add(time.Hour)
		e.DeletedAt = &d
		e.State = StateSoftDeleted
	}
	return e
}

func TestEntityCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		want := sampleEntity(rng)
		b, err := EncodeEntity(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEntity(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		// Times survive MarshalBinary bit-exactly (UTC, no monotonic part),
		// so deep equality holds for the whole struct.
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestEntityCodecZeroValues(t *testing.T) {
	want := &Entity{ID: "x", Type: TypeCatalog, Name: "c", State: StateProvisioning}
	b, err := EncodeEntity(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntity(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CreatedAt.Equal(want.CreatedAt) || got.DeletedAt != nil || got.Properties != nil || got.Spec != nil {
		t.Fatalf("zero-value round trip: %+v", got)
	}
}

// TestDecodeEntityJSONFallback proves records written by the seed (plain
// JSON) remain readable without migration.
func TestDecodeEntityJSONFallback(t *testing.T) {
	want := sampleEntity(rand.New(rand.NewSource(3)))
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntity(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.Type != want.Type || !got.CreatedAt.Equal(want.CreatedAt) {
		t.Fatalf("json fallback: got %+v", got)
	}
}

func TestDecodeEntityCorrupt(t *testing.T) {
	e := sampleEntity(rand.New(rand.NewSource(5)))
	b, err := EncodeEntity(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 2, 5, len(b) / 2, len(b) - 1} {
		if _, err := DecodeEntity(b[:cut]); err == nil {
			t.Errorf("truncated at %d: decode unexpectedly succeeded", cut)
		}
	}
	if _, err := DecodeEntity([]byte{0x7f, 0x01}); err == nil {
		t.Error("unknown magic accepted")
	}
}

func TestInternSharesStrings(t *testing.T) {
	e := sampleEntity(rand.New(rand.NewSource(9)))
	b, _ := EncodeEntity(e)
	a1, _ := DecodeEntity(b)
	a2, _ := DecodeEntity(b)
	if string(a1.Type) != string(a2.Type) || string(a1.Owner) != string(a2.Owner) {
		t.Fatal("interned fields differ")
	}
}

func TestCompactSmallerThanJSON(t *testing.T) {
	e := sampleEntity(rand.New(rand.NewSource(13)))
	cb, err := EncodeEntity(e)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(cb) >= len(jb) {
		t.Fatalf("compact %d bytes >= json %d bytes", len(cb), len(jb))
	}
	t.Logf("compact %dB vs json %dB (%.0f%%)", len(cb), len(jb), 100*float64(len(cb))/float64(len(jb)))
}

// TestDecodeEntityAllocs gates the decode cost the read path pays per
// entity: the Entity, one backing string for the nine string fields, and the
// spec copy.
func TestDecodeEntityAllocs(t *testing.T) {
	now := time.Unix(1700000000, 0).UTC()
	b, err := EncodeEntity(&Entity{
		ID: ids.New(), Type: TypeTable, Name: "orders", ParentID: ids.New(),
		FullName: "main.sales.orders", Owner: "alice@example.com", Comment: "fact table",
		StoragePath: "s3://bucket/main/sales/orders", Managed: true, State: StateActive,
		CreatedAt: now, UpdatedAt: now,
		Spec: json.RawMessage(`{"columns":[{"name":"id","type":"BIGINT"}]}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEntity(b); err != nil { // warm the intern table
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := DecodeEntity(b); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Fatalf("DecodeEntity of a property-less table: %.0f allocations, want <= 3", n)
	}
}

// TestDecodeEntityOwnsItsBytes: values handed out by the cache and the store
// are shared, so a decoded entity must not alias the record it came from.
func TestDecodeEntityOwnsItsBytes(t *testing.T) {
	want := sampleEntity(rand.New(rand.NewSource(1))) // case 1: path and spec
	want.Comment = "kept"
	b, err := EncodeEntity(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntity(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xAA
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded entity changed with its input:\n got %+v\nwant %+v", got, want)
	}
}

// TestInternBoundedAndShared: hits return the table's copy, and past the
// cap new values pass through without growing the table.
func TestInternBoundedAndShared(t *testing.T) {
	a := intern([]byte("TABLE"), "x")
	if b := intern([]byte("TABLE"), "y"); a != "TABLE" || b != "TABLE" {
		t.Fatalf("intern hit returned %q, %q", a, b)
	}
	for i := 0; len(*internTab.Load()) < internCap; i++ {
		intern([]byte(fmt.Sprintf("owner-%d", i)), "")
	}
	if got := intern([]byte("one-too-many"), "fallback"); got != "fallback" {
		t.Fatalf("past the cap intern returned %q, want the caller's fallback", got)
	}
	if n := len(*internTab.Load()); n != internCap {
		t.Fatalf("intern table grew to %d entries, cap %d", n, internCap)
	}
}
