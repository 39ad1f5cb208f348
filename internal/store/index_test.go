package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestBtreeAgainstReference drives the B+ tree with a randomized
// insert/delete/lookup workload and checks every ascend against a sorted
// reference map.
func TestBtreeAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tree := newBtree()
	ref := map[string]*record{}
	key := func() string { return fmt.Sprintf("k%05d", rng.Intn(4000)) }

	check := func(start string) {
		t.Helper()
		want := make([]string, 0, len(ref))
		for k := range ref {
			if k >= start {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		var got []string
		tree.ascend(start, func(k string, r *record) bool {
			if r != ref[k] {
				t.Fatalf("ascend(%q): key %q has wrong record pointer", start, k)
			}
			got = append(got, k)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("ascend(%q): got %d keys, want %d (%s)", start, len(got), len(want), firstDiff(got, want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ascend(%q): %s", start, firstDiff(got, want))
			}
		}
	}

	for i := 0; i < 30000; i++ {
		k := key()
		switch rng.Intn(10) {
		case 0, 1, 2: // delete
			tree.delete(k)
			delete(ref, k)
		default:
			r := &record{}
			tree.insert(k, r)
			ref[k] = r
		}
		if tree.size != len(ref) {
			t.Fatalf("step %d: size %d, want %d", i, tree.size, len(ref))
		}
		if i%5000 == 0 {
			check("")
			check(key())
		}
	}
	check("")
	check("k01")
	check("k03999")
	check("zzz")

	// Early termination.
	n := 0
	tree.ascend("", func(string, *record) bool { n++; return n < 7 })
	if n != 7 && tree.size >= 7 {
		t.Fatalf("ascend stop: visited %d keys", n)
	}
}

func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("index %d: %q vs %q", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}

// TestPrefixEnd pins the range-bound arithmetic Scan is built on.
func TestPrefixEnd(t *testing.T) {
	cases := map[string]string{
		"":          "",
		"a":         "b",
		"ab":        "ac",
		"a\xff":     "b",
		"\xff\xff":  "",
		"p\x00":     "p\x01",
		"a\xffb":    "a\xffc",
		"a\xff\xff": "b",
	}
	for in, want := range cases {
		if got := PrefixEnd(in); got != want {
			t.Errorf("PrefixEnd(%q) = %q, want %q", in, got, want)
		}
	}
}

// applyRandomWorkload drives the same randomized sequence of commits into
// every provided DB, returning the version after each commit batch.
func applyRandomWorkload(t *testing.T, seed int64, dbs ...*DB) []uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tables := []string{"entity", "name", "child"}
	var versions []uint64
	for commit := 0; commit < 120; commit++ {
		type op struct {
			table, key string
			value      []byte
			del        bool
		}
		var ops []op
		for n := rng.Intn(6) + 1; n > 0; n-- {
			o := op{
				table: tables[rng.Intn(len(tables))],
				key:   fmt.Sprintf("p%d\x00k%03d", rng.Intn(4), rng.Intn(60)),
				del:   rng.Intn(4) == 0,
			}
			if !o.del {
				o.value = []byte(fmt.Sprintf("v%d-%d", commit, rng.Intn(100)))
			}
			ops = append(ops, o)
		}
		var v uint64
		for _, db := range dbs {
			var err error
			v, err = db.Update("ms", func(tx *Tx) error {
				for _, o := range ops {
					if o.del {
						tx.Delete(o.table, o.key)
					} else {
						tx.Put(o.table, o.key, o.value)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("commit %d: %v", commit, err)
			}
		}
		versions = append(versions, v)
	}
	return versions
}

// naiveScan is the scan oracle: it ignores the ordered index, filtering the
// table's record map to [start, end), sorting the keys and reading each
// record at version v — the seed's full-scan implementation, kept here so
// the index-backed path always has something independent to agree with.
func naiveScan(ms *metastore, table, start, end string, v uint64, limit int) []KV {
	ms.stateMu.RLock()
	defer ms.stateMu.RUnlock()
	t := ms.tables[table]
	var keys []string
	for k := range t {
		if k >= start && (end == "" || k < end) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []KV
	for _, k := range keys {
		if val, live := t[k].at(v); live {
			out = append(out, KV{Key: k, Value: val})
			if limit > 0 && len(out) == limit {
				break
			}
		}
	}
	return out
}

// TestScanDifferential proves the acceptance criterion: index-backed Scan,
// ScanRange, and Count results are byte-identical to the naive full-scan
// oracle across randomized workloads and snapshot versions.
func TestScanDifferential(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			db, err := Open(Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.CreateMetastore("ms"); err != nil {
				t.Fatal(err)
			}
			versions := applyRandomWorkload(t, seed, db)

			probe := []struct{ start, end string }{
				{"", ""},
				{"p0\x00", PrefixEnd("p0\x00")},
				{"p1\x00k01", "p1\x00k04"},
				{"p2\x00k030", ""},
				{"p3\x00k000\x00", PrefixEnd("p3\x00")},
			}
			checkAt := func(v uint64) {
				t.Helper()
				snap, err := db.SnapshotAt("ms", v)
				if err != nil {
					t.Fatal(err)
				}
				defer snap.Close()
				for _, table := range []string{"entity", "name", "child", "missing"} {
					for _, pfx := range []string{"", "p0\x00", "p3\x00k0"} {
						want := naiveScan(snap.ms, table, pfx, PrefixEnd(pfx), v, 0)
						if got := snap.Scan(table, pfx); !reflect.DeepEqual(got, want) {
							t.Fatalf("v%d Scan(%s,%q): indexed %d rows, naive %d rows", v, table, pfx, len(got), len(want))
						}
						if got := snap.Count(table, pfx); got != len(want) {
							t.Fatalf("v%d Count(%s,%q): %d vs %d", v, table, pfx, got, len(want))
						}
					}
					for _, p := range probe {
						for _, limit := range []int{0, 1, 3, 1000} {
							got := snap.ScanRange(table, p.start, p.end, limit)
							want := naiveScan(snap.ms, table, p.start, p.end, v, limit)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("v%d ScanRange(%s,%q,%q,%d): indexed %d rows, naive %d rows",
									v, table, p.start, p.end, limit, len(got), len(want))
							}
						}
					}
				}
			}

			// Probe the latest version plus a spread of historical ones.
			last := versions[len(versions)-1]
			checkAt(last)
			for _, v := range []uint64{versions[10], versions[40], versions[80], versions[110]} {
				checkAt(v)
			}
		})
	}
}

// TestTxScanRangeDifferential checks the transaction-level merge (applied
// state + buffered writes) against the naive oracle with the same writes
// laid over it, including limits.
func TestTxScanRangeDifferential(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	if err := db.CreateMetastore("ms"); err != nil {
		t.Fatal(err)
	}
	versions := applyRandomWorkload(t, 42, db)
	base := versions[len(versions)-1]

	rng := rand.New(rand.NewSource(99))
	type bufOp struct {
		key string
		del bool
	}
	var bufOps []bufOp
	for i := 0; i < 40; i++ {
		bufOps = append(bufOps, bufOp{
			key: fmt.Sprintf("p%d\x00k%03d", rng.Intn(4), rng.Intn(60)),
			del: rng.Intn(3) == 0,
		})
	}
	// naiveTxScan lays the buffered writes over the oracle's view of the
	// applied state, then cuts the range and the limit.
	naiveTxScan := func(ms *metastore, start, end string, limit int) []KV {
		merged := map[string][]byte{}
		for _, kv := range naiveScan(ms, "entity", "", "", base, 0) {
			merged[kv.Key] = kv.Value
		}
		for _, o := range bufOps {
			if o.del {
				delete(merged, o.key)
			} else {
				merged[o.key] = []byte("txval")
			}
		}
		var out []KV
		for k, v := range merged {
			if k >= start && (end == "" || k < end) {
				out = append(out, KV{Key: k, Value: v})
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		if limit > 0 && len(out) > limit {
			out = out[:limit]
		}
		return out
	}

	var got, want map[string][]KV
	_, err := db.Update("ms", func(tx *Tx) error {
		// Buffer overlapping writes and deletes, then scan within the tx.
		for _, o := range bufOps {
			if o.del {
				tx.Delete("entity", o.key)
			} else {
				tx.Put("entity", o.key, []byte("txval"))
			}
		}
		got = map[string][]KV{
			"full":    tx.Scan("entity", ""),
			"prefix":  tx.Scan("entity", "p1\x00"),
			"range":   tx.ScanRange("entity", "p0\x00k010", "p2\x00k050", 0),
			"limited": tx.ScanRange("entity", "", "", 9),
		}
		want = map[string][]KV{
			"full":    naiveTxScan(tx.ms, "", "", 0),
			"prefix":  naiveTxScan(tx.ms, "p1\x00", PrefixEnd("p1\x00"), 0),
			"range":   naiveTxScan(tx.ms, "p0\x00k010", "p2\x00k050", 0),
			"limited": naiveTxScan(tx.ms, "", "", 9),
		}
		return fmt.Errorf("abort") // read-only probe; do not commit
	})
	if err == nil {
		t.Fatal("expected abort error")
	}
	if len(want["limited"]) != 9 || len(want["full"]) <= len(want["range"]) {
		t.Fatalf("oracle scans are degenerate: %d full, %d range, %d limited", len(want["full"]), len(want["range"]), len(want["limited"]))
	}
	for name := range want {
		if !reflect.DeepEqual(got[name], want[name]) {
			t.Fatalf("tx scan %q: indexed and naive differ (%d vs %d rows)", name, len(got[name]), len(want[name]))
		}
	}
}

// TestScanRangeSemantics pins the contract: half-open [start, end), limit,
// and keyset continuation.
func TestScanRangeSemantics(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	if err := db.CreateMetastore("ms"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update("ms", func(tx *Tx) error {
		for _, k := range []string{"a", "b", "c", "d", "e"} {
			tx.Put("t", k, []byte(k))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s, err := db.Snapshot("ms")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys := func(kvs []KV) (out []string) {
		for _, kv := range kvs {
			out = append(out, kv.Key)
		}
		return
	}
	if got := keys(s.ScanRange("t", "b", "d", 0)); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("[b,d): %v", got)
	}
	if got := keys(s.ScanRange("t", "", "", 2)); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("limit 2: %v", got)
	}
	// Keyset continuation: resume after the last key seen.
	page1 := s.ScanRange("t", "", "", 3)
	page2 := s.ScanRange("t", page1[len(page1)-1].Key+"\x00", "", 3)
	if got := append(keys(page1), keys(page2)...); !reflect.DeepEqual(got, []string{"a", "b", "c", "d", "e"}) {
		t.Fatalf("keyset pages: %v", got)
	}
	if got := s.GetBatch("t", []string{"a", "zz", "c"}); string(got[0]) != "a" || got[1] != nil || string(got[2]) != "c" {
		t.Fatalf("GetBatch: %q", got)
	}
}
