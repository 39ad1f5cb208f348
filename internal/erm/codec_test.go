package erm

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"unitycatalog/internal/ids"
	"unitycatalog/internal/store"
)

// hexID draws an ID of the form ids.New produces from rng, so a seed names
// the same entities on every run.
func hexID(rng *rand.Rand) ids.ID {
	var raw [ids.RawLen]byte
	rng.Read(raw[:])
	return ids.FromRaw(raw[:])
}

// sampleEntity draws an entity from everything a record has a form for: IDs
// and parents that are 32 hex digits and ones that are not (a parent may be
// empty), registered and unregistered types and states, times in UTC, in
// time.Local, in another zone and at the zero time, a path that ends in the ID
// and one that does not, properties, a spec, a deletion time.
func sampleEntity(rng *rand.Rand) *Entity {
	now := time.Unix(1700000000+rng.Int63n(1e6), rng.Int63n(1e9))
	switch rng.Intn(8) {
	case 0:
	case 1:
		now = now.In(time.FixedZone("", 2*60*60))
	case 2:
		now = time.Time{}
	default:
		now = now.UTC()
	}
	e := &Entity{
		ID:        hexID(rng),
		Type:      TypeTable,
		Name:      fmt.Sprintf("t_%d", rng.Intn(1e6)),
		ParentID:  hexID(rng),
		FullName:  "main.analytics.t",
		Owner:     "alice@example.com",
		State:     StateActive,
		CreatedAt: now,
		UpdatedAt: now.Add(time.Minute),
	}
	switch rng.Intn(6) {
	case 0:
		e.ID = ids.ID(fmt.Sprintf("id-%d", rng.Int63()))
	case 1:
		e.ParentID = ids.ID(fmt.Sprintf("parent-%d", rng.Intn(100)))
	case 2:
		e.ParentID = ""
		e.Type, e.State = "DASHBOARD", "ARCHIVED"
	case 3:
		e.UpdatedAt = e.UpdatedAt.Local() // one entity, two zones
	}
	switch rng.Intn(4) {
	case 0:
		e.Comment = "a comment"
		e.Properties = map[string]string{"delta.minReaderVersion": "2", "pii": "true"}
	case 1:
		e.StoragePath = "s3://bucket/prefix/t"
		if rng.Intn(2) == 0 {
			e.StoragePath = "s3://root/ms1/table/" + string(e.ID)
		}
		e.Managed = true
		e.Spec = json.RawMessage(`{"columns":[{"name":"id","type":"INT"}]}`)
	case 2:
		d := now.Add(time.Hour)
		e.DeletedAt = &d
		e.State = StateSoftDeleted
	}
	return e
}

// encoders are the two record versions a store may hold: every decode test
// runs over both.
var encoders = []struct {
	name   string
	encode func(*Entity) ([]byte, error)
}{{"v1", encodeEntityV1}, {"v2", EncodeEntity}}

func TestEntityCodecRoundTrip(t *testing.T) {
	for _, enc := range encoders {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 400; i++ {
			want := sampleEntity(rng)
			b, err := enc.encode(want)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeEntityAt(want.ID, b)
			if err != nil {
				t.Fatalf("%s: decode: %v", enc.name, err)
			}
			// Times survive bit-exactly (no monotonic part), so deep equality
			// holds for the whole struct.
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", enc.name, got, want)
			}
			// Without its key a version 1 record still says everything; a
			// version 2 record lacks what the key says, the ID and a path's
			// end that repeats it, and nothing else.
			if enc.name == "v2" {
				want.StoragePath = strings.TrimSuffix(want.StoragePath, string(want.ID))
				want.ID = ""
			}
			if got, err = DecodeEntity(b); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decode without the key: %v\n got %+v\nwant %+v", enc.name, err, got, want)
			}
		}
	}
}

func TestEntityCodecZeroValues(t *testing.T) {
	want := &Entity{ID: "x", Type: TypeCatalog, Name: "c", State: StateProvisioning}
	b, err := EncodeEntity(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntityAt("x", b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CreatedAt.Equal(want.CreatedAt) || got.DeletedAt != nil || got.Properties != nil || got.Spec != nil {
		t.Fatalf("zero-value round trip: %+v", got)
	}
}

// TestRecordSizes holds the record format to the malloc size classes its
// savings come from: a stored value is an exact-size allocation (Tx.Put
// copies), so what a record costs is the class its length falls in. A typical
// managed table of the benchmark's population was 506 bytes in version 1, the
// 512 class; in version 2 it must stay at or under 448, its child row must
// store nothing and its name and path rows the ID's 16 bytes. One more byte in
// a field is one byte here and 64 resident.
func TestRecordSizes(t *testing.T) {
	now := time.Now()
	id, parent := ids.New(), ids.New()
	// A table of the benchmark's population: its four columns, a managed path.
	const spec = `{"table_type":"MANAGED","format":"DELTA","columns":[{"name":"id","type":"BIGINT","nullable":false,"position":0},` +
		`{"name":"region","type":"STRING","nullable":true,"position":1},{"name":"amount","type":"DOUBLE","nullable":true,"position":2},` +
		`{"name":"ts","type":"TIMESTAMP","nullable":true,"position":3}],"fgac":{}}`
	e := &Entity{
		ID: id, Type: TypeTable, Name: "t_0042", ParentID: parent, FullName: "cat03.s07.t_0042",
		Owner: "admin", StoragePath: "s3://perf/ms1/table/" + string(id), Managed: true, State: StateActive,
		CreatedAt: now, UpdatedAt: now, Spec: json.RawMessage(spec),
	}
	v1, err := encodeEntityV1(e)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := EncodeEntity(e)
	if err != nil {
		t.Fatal(err)
	}
	external := *e
	external.StoragePath, external.Managed = "s3://perf/external/cat03/s07/t_0042/data", false
	ext, err := EncodeEntity(&external)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("a benchmark table: version 1 %d B, version 2 %d B (%d B with a path that does not end in the ID)", len(v1), len(v2), len(ext))
	// ID 33, type 5, state 6, parent 17, two times 16, the path's end 32.
	if want := len(v1) - 109; len(v1) > 512 || len(v2) > want {
		t.Errorf("version 2 record is %d B, want at most %d (version 1, %d B and at most 512, less 109)", len(v2), want, len(v1))
	}
	if len(v2) > 416 || len(ext) > 448 {
		t.Errorf("version 2 record is %d B (want <= 416) and %d B with a path of its own (want <= 448)", len(v2), len(ext))
	}
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateMetastore("m")
	if _, err := db.Update("m", func(tx *store.Tx) error { return PutEntity(tx, e, "RELATION") }); err != nil {
		t.Fatal(err)
	}
	snap, _ := db.Snapshot("m")
	defer snap.Close()
	for table, want := range map[string]int{TableChild: 0, TableName: ids.RawLen, TablePath: ids.RawLen} {
		kvs := snap.Scan(table, "")
		if len(kvs) != 1 || len(kvs[0].Value) != want || IndexedID(kvs[0]) != id {
			t.Errorf("%s rows %v: want one row with a %d-byte value that reads back as %s", table, kvs, want, id)
		}
	}
}

// TestIndexedIDReadsEveryForm: an index value is empty (a child row), the
// ID's 16 bytes, or its string; before record format 2 it was always the
// string. Any ID comes back from any of them.
func TestIndexedIDReadsEveryForm(t *testing.T) {
	for _, id := range []ids.ID{ids.New(), "plain", "sixteen-bytes-id", "", "\xffodd", "0123456789ABCDEF0123456789abcdef"} {
		child := ChildKey("p", TypeTable, id)
		for what, kv := range map[string]store.KV{
			"child row":                 {Key: child},
			"child row, written before": {Key: child, Value: []byte(id)},
			"name row":                  {Key: "RELATION\x00p\x00t", Value: IDValue(id)},
		} {
			if what == "child row, written before" && len(id) != 32 {
				continue // the only IDs there were
			}
			if got := IndexedID(kv); got != id {
				t.Errorf("%s of %q: IndexedID(%q, %x) = %q", what, id, kv.Key, kv.Value, got)
			}
		}
	}
	id := ids.New()
	if v := IDValue(id); len(v) != ids.RawLen {
		t.Errorf("IDValue(%s) is %d bytes, want %d", id, len(v), ids.RawLen)
	}
	if got := IndexedID(store.KV{Key: "s3://b/t", Value: []byte(id)}); got != id {
		t.Errorf("a path row written before: %q, want %q", got, id)
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
	for _, enc := range encoders {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 20; i++ {
			e := sampleEntity(rng)
			b, err := enc.encode(e)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < len(b); cut++ {
				if _, err := DecodeEntityAt(e.ID, b[:cut]); err == nil {
					t.Fatalf("%s: truncated at %d of %d: decode unexpectedly succeeded", enc.name, cut, len(b))
				}
			}
		}
	}
	for _, b := range [][]byte{{0x7f, 0x01}, {codecMagic, 3, 0}, {codecMagic, codecV2, 0, 200}, {codecMagic, codecV2, 0, 1, 200}} {
		if _, err := DecodeEntityAt("k", b); err == nil {
			t.Errorf("%x accepted: unknown magic, version, type code or state code", b)
		}
	}
}

// FuzzDecodeEntity: arbitrary bytes under any key decode or fail; they never
// panic, and what a decode allocates is bounded by the record (a property
// count or a length that the bytes do not back is refused before anything is
// sized by it). The seed corpus — both versions of every sample, whole and
// cut, and the JSON form — is what plain `go test` runs.
func FuzzDecodeEntity(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 24; i++ {
		e := sampleEntity(rng)
		for _, enc := range encoders {
			b, err := enc.encode(e)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(e.ID), b)
			f.Add("", b[:rng.Intn(len(b))])
		}
		b, _ := json.Marshal(e)
		f.Add(string(e.ID), b)
	}
	f.Fuzz(func(t *testing.T, key string, b []byte) {
		single, err := DecodeEntityAt(ids.ID(key), b)
		batch := DecodeEntities(2, func(int) (ids.ID, []byte) { return ids.ID(key), b })
		if (err == nil) != (batch[0] != nil) || (err == nil && !reflect.DeepEqual(single, batch[1])) {
			t.Fatalf("the single and the batch decode disagree on %x under %q: %+v (%v) against %+v", b, key, single, err, batch[0])
		}
		if err == nil && len(b) > 0 && b[0] == codecMagic {
			if n := len(single.Name) + len(single.FullName) + len(single.Comment) + len(single.Spec); n > len(b) {
				t.Fatalf("a %d-byte record decoded to %d bytes of strings", len(b), n)
			}
		}
	})
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
// entity, whichever version the record is: the Entity, one backing string for
// its string fields, and the spec copy.
func TestDecodeEntityAllocs(t *testing.T) {
	now := time.Now()
	id := ids.New()
	for _, enc := range encoders {
		b, err := enc.encode(&Entity{
			ID: id, Type: TypeTable, Name: "orders", ParentID: ids.New(),
			FullName: "main.sales.orders", Owner: "alice@example.com", Comment: "fact table",
			StoragePath: "s3://bucket/main/table/" + string(id), Managed: true, State: StateActive,
			CreatedAt: now, UpdatedAt: now,
			Spec: json.RawMessage(`{"columns":[{"name":"id","type":"BIGINT"}]}`),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeEntityAt(id, b); err != nil { // warm the intern table
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := DecodeEntityAt(id, b); err != nil {
				t.Fatal(err)
			}
		}); n > 3 {
			t.Fatalf("%s: DecodeEntityAt of a property-less table: %.0f allocations, want <= 3", enc.name, n)
		}
	}
}

// TestDecodeEntityOwnsItsBytes: values handed out by the cache and the store
// are shared, so a decoded entity must not alias the record it came from.
func TestDecodeEntityOwnsItsBytes(t *testing.T) {
	for _, enc := range encoders {
		want := sampleEntity(rand.New(rand.NewSource(1)))
		want.Comment, want.StoragePath, want.Spec = "kept", "s3://root/ms1/table/"+string(want.ID), json.RawMessage(`{"columns":[]}`)
		b, err := enc.encode(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEntityAt(want.ID, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b {
			b[i] = 0xAA
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded entity changed with its input:\n got %+v\nwant %+v", enc.name, got, want)
		}
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
// compact records of both versions with and without properties, specs and
// deletion times, legacy JSON, truncated and unknown encodings, and nil.
func batchRecords(rng *rand.Rand, n int) (keys []ids.ID, recs [][]byte) {
	for i := 0; i < n; i++ {
		e := sampleEntity(rng)
		b, err := encoders[rng.Intn(len(encoders))].encode(e)
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
		keys = append(keys, e.ID)
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
	for _, enc := range encoders {
		rng := rand.New(rand.NewSource(2))
		var keys []ids.ID
		var recs [][]byte
		for i := 0; i < 100; i++ {
			e := sampleEntity(rng)
			e.Properties, e.DeletedAt = nil, nil
			e.Spec = json.RawMessage(`{"columns":[{"name":"id","type":"INT"}]}`)
			b, err := enc.encode(e)
			if err != nil {
				t.Fatal(err)
			}
			keys, recs = append(keys, e.ID), append(recs, b)
		}
		decode := func() { DecodeEntities(len(keys), func(i int) (ids.ID, []byte) { return keys[i], recs[i] }) }
		decode() // warm the intern table
		if n := testing.AllocsPerRun(100, decode); n > 5 {
			t.Fatalf("%s: DecodeEntities of 100 records: %.0f allocations, want <= 5", enc.name, n)
		}
	}
}
