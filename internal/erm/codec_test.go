package erm

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

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
// cap a new value gets a copy of its own without growing the table.
func TestInternBoundedAndShared(t *testing.T) {
	defer internTab.Store(internTab.Load()) // leave later tests a table with room
	a := intern([]byte("TABLE"))
	if b := intern([]byte("TABLE")); a != "TABLE" || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatalf("intern hit returned %q, %q: not one shared string", a, b)
	}
	for i := 0; len(*internTab.Load()) < internCap; i++ {
		intern([]byte(fmt.Sprintf("owner-%d", i)))
	}
	rec := []byte("one-too-many")
	if got := intern(rec); got != "one-too-many" || unsafe.StringData(got) == &rec[0] {
		t.Fatalf("past the cap intern returned %q, want a copy of the value", got)
	}
	if n := len(*internTab.Load()); n != internCap {
		t.Fatalf("intern table grew to %d entries, cap %d", n, internCap)
	}
}

// batchRecords draws a batch the slab decoder must handle record by record:
// compact records with and without properties, specs and deletion times,
// legacy JSON, truncated and unknown encodings, and nil.
func batchRecords(rng *rand.Rand, n int) (keys []ids.ID, recs [][]byte) {
	for i := 0; i < n; i++ {
		e := sampleEntity(rng)
		b, err := EncodeEntity(e)
		if err != nil {
			panic(err)
		}
		switch rng.Intn(8) {
		case 0:
			b, _ = json.Marshal(e)
		case 1:
			b = b[:rng.Intn(len(b))]
		case 2:
			b = nil
		case 3:
			b = []byte{0x7f, 0x01, 0x02}
		}
		keys = append(keys, ids.ID(fmt.Sprintf("key-%d", i)))
		recs = append(recs, b)
	}
	return keys, recs
}

// TestDecodeEntitiesMatchesSingle: the slab decoder's output is, entity for
// entity, what DecodeEntityAt returns for the same key and record, and nil
// exactly where DecodeEntityAt fails.
func TestDecodeEntitiesMatchesSingle(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys, recs := batchRecords(rng, rng.Intn(40)) // includes the empty batch
		got := DecodeEntities(len(keys), func(i int) (ids.ID, []byte) { return keys[i], recs[i] })
		if len(got) != len(keys) {
			t.Fatalf("seed %d: %d entities for %d records", seed, len(got), len(keys))
		}
		for i := range keys {
			var want *Entity
			if recs[i] != nil {
				want, _ = DecodeEntityAt(keys[i], recs[i])
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("seed %d record %d (%q...):\n got %+v\nwant %+v", seed, i, recs[i][:min(len(recs[i]), 4)], got[i], want)
			}
			// The ownership rule: the ID is the caller's key, not a slice
			// of the slab.
			if got[i] != nil && unsafe.StringData(string(got[i].ID)) != unsafe.StringData(string(keys[i])) {
				t.Fatalf("seed %d record %d: the entity's ID is not the key it was read by", seed, i)
			}
		}
	}
}

// TestDecodeEntitiesIsolation: entities of one slab share buffers, not
// bytes. An append to one entity's Spec, or a write to any of its fields,
// leaves its neighbours and the records they were decoded from as they were.
func TestDecodeEntitiesIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var keys []ids.ID
	var recs [][]byte
	for i := 0; i < 8; i++ {
		e := sampleEntity(rng)
		e.Properties, e.DeletedAt = nil, nil
		e.Spec = json.RawMessage(fmt.Sprintf(`{"columns":[{"name":"c%d"}]}`, i))
		b, err := EncodeEntity(e)
		if err != nil {
			t.Fatal(err)
		}
		keys, recs = append(keys, ids.ID(fmt.Sprintf("key-%d", i))), append(recs, b)
	}
	decode := func() []*Entity {
		return DecodeEntities(len(keys), func(i int) (ids.ID, []byte) { return keys[i], recs[i] })
	}
	want, got := decode(), decode()
	pristine := make([][]byte, len(recs))
	for i, b := range recs {
		pristine[i] = append([]byte(nil), b...)
	}
	for i, e := range got {
		if cap(e.Spec) != len(e.Spec) {
			t.Fatalf("entity %d: spec has %d bytes of capacity past its end", i, cap(e.Spec)-len(e.Spec))
		}
		e.Spec = append(e.Spec, "overflow into the next spec"...)
		for j := range e.Spec {
			e.Spec[j] = 'X'
		}
		e.Name, e.Comment, e.Managed = "renamed", "rewritten", !e.Managed
		for j, other := range got {
			if j > i && !reflect.DeepEqual(other, want[j]) { // those before i are already mutated
				t.Fatalf("mutating entity %d changed entity %d:\n got %+v\nwant %+v", i, j, other, want[j])
			}
		}
	}
	for i := range recs {
		if !reflect.DeepEqual(recs[i], pristine[i]) {
			t.Fatalf("mutating decoded entities changed record %d", i)
		}
	}
}

// TestDecodeEntitiesAllocs: a batch of property-less compact records costs
// the result, the slab, the walk's scratch, the backing string and the spec
// buffer, whatever its size.
func TestDecodeEntitiesAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var keys []ids.ID
	var recs [][]byte
	for i := 0; i < 100; i++ {
		e := sampleEntity(rng)
		e.Properties, e.DeletedAt = nil, nil
		e.Spec = json.RawMessage(`{"columns":[{"name":"id","type":"INT"}]}`)
		b, err := EncodeEntity(e)
		if err != nil {
			t.Fatal(err)
		}
		keys, recs = append(keys, ids.ID(fmt.Sprintf("key-%d", i))), append(recs, b)
	}
	decode := func() { DecodeEntities(len(keys), func(i int) (ids.ID, []byte) { return keys[i], recs[i] }) }
	decode() // warm the intern table
	if n := testing.AllocsPerRun(100, decode); n > 5 {
		t.Fatalf("DecodeEntities of 100 records: %.0f allocations, want <= 5", n)
	}
}
