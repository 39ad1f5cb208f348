package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// checkBtree holds a tree to its reference: ascend and get agree with the
// sorted map, the leaf chain is complete (every leaf the descent reaches, in
// order, and nothing else), separators bound their subtrees, size and slots
// are what the leaves hold, and no leaf keeps a key or a record in a slot
// past its length. It returns the number of leaves.
func checkBtree(t *testing.T, tree *btree, ref map[string]*record) int {
	t.Helper()
	want := make([]string, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	sort.Strings(want)
	var got []string
	tree.ascend("", func(k string, r *record) bool {
		if r != ref[k] {
			t.Fatalf("ascend: key %q has the wrong record", k)
		}
		got = append(got, k)
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("ascend: %s", firstDiff(got, want))
	}
	if tree.size != len(ref) {
		t.Fatalf("size %d, want %d", tree.size, len(ref))
	}
	for _, k := range want {
		if r, ok := tree.get(k); !ok || r != ref[k] {
			t.Fatalf("get(%q) = %v, %v", k, r, ok)
		}
	}

	var leaves []*bnode
	var walk func(n *bnode, lo, hi string)
	walk = func(n *bnode, lo, hi string) {
		for i, k := range n.keys {
			if k < lo || (hi != "" && k >= hi) || (i > 0 && k <= n.keys[i-1]) {
				t.Fatalf("key %q out of place in a node bounded by [%q, %q)", k, lo, hi)
			}
		}
		if n.leaf {
			leaves = append(leaves, n)
			return
		}
		if len(n.children) != len(n.keys)+1 {
			t.Fatalf("interior node with %d keys and %d children", len(n.keys), len(n.children))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			walk(c, clo, chi)
		}
	}
	walk(tree.root, "", "")
	slots, keys := 0, 0
	for i, n := range leaves {
		if next := n.next; (i+1 < len(leaves) && next != leaves[i+1]) || (i+1 == len(leaves) && next != nil) {
			t.Fatalf("leaf %d of %d does not chain to the next leaf of the tree", i, len(leaves))
		}
		if cap(n.keys) != cap(n.vals) || cap(n.keys)%leafStep != 0 || cap(n.keys) > btreeMaxKeys+1 || len(n.keys) > btreeMaxKeys {
			t.Fatalf("leaf %d: %d keys in arrays of %d and %d slots", i, len(n.keys), cap(n.keys), cap(n.vals))
		}
		for j := len(n.keys); j < cap(n.keys); j++ {
			if n.keys[:cap(n.keys)][j] != "" || n.vals[:cap(n.vals)][j] != nil {
				t.Fatalf("leaf %d keeps a key or a record in slot %d, past its %d keys", i, j, len(n.keys))
			}
		}
		slots += cap(n.keys)
		keys += len(n.keys)
	}
	if keys != len(ref) || slots != tree.slots {
		t.Fatalf("the leaves hold %d keys in %d slots; the tree says %d in %d, the reference %d", keys, slots, tree.size, tree.slots, len(ref))
	}
	return len(leaves)
}

// TestBtreeAgainstReference drives the B+ tree with ascending, descending,
// per-parent-ascending, per-group-descending and random loads, and with a
// descending run into the gap after a full leaf, then with insert/delete
// mixes over each, checking the whole structure against a sorted reference
// map after every phase. It holds the leaves to their fill (keys over
// allocated slots) and to their mean length: an ascending load must leave at
// least 90 % of the slots used and 120 keys a leaf, and no load under 85 % or
// 60 keys a leaf, which is what splitting every leaf in half gives.
func TestBtreeAgainstReference(t *testing.T) {
	const n = 20000
	loads := []struct {
		name       string
		minFill    float64
		minPerLeaf int
		key        func(rng *rand.Rand, i int) string
	}{
		{"ascending", 0.90, 120, func(_ *rand.Rand, i int) string { return fmt.Sprintf("k%06d", i) }},
		{"descending", 0.85, 60, func(_ *rand.Rand, i int) string { return fmt.Sprintf("k%06d", n-i) }},
		// The order name, child and path rows arrive in: parents in random
		// order, the 80 children of each in name order.
		{"per-parent-ascending", 0.85, 60, func(_ *rand.Rand, i int) string {
			return fmt.Sprintf("%016x/t%04d", rand.New(rand.NewSource(int64(i/80))).Uint64(), i%80)
		}},
		// Groups in order, the 80 members of each in reverse: all but a
		// group's first key land below the key before them.
		{"groups-ascending-members-descending", 0.85, 60, func(_ *rand.Rand, i int) string {
			return fmt.Sprintf("g%04d/m%03d", i/80, 79-i%80)
		}},
		// An ascending load leaves k000000..k000126 in a full first leaf; the
		// second half of the keys then arrives in descending order between
		// k000126 and k000127.
		{"descending-into-a-gap", 0.85, 60, func(_ *rand.Rand, i int) string {
			if i < n/2 {
				return fmt.Sprintf("k%06d", i)
			}
			return fmt.Sprintf("k000126/%06d", n-i)
		}},
		{"random", 0.85, 60, func(rng *rand.Rand, _ int) string { return fmt.Sprintf("k%06d", rng.Intn(10*n)) }},
	}
	for _, load := range loads {
		t.Run(load.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			tree := newBtree()
			ref := map[string]*record{}
			var keys []string
			for i := 0; i < n; i++ {
				k := load.key(rng, i)
				r := &record{}
				tree.insert(k, r)
				ref[k] = r
				keys = append(keys, k)
				if i%(n/4) == 0 {
					checkBtree(t, tree, ref)
				}
			}
			leaves := checkBtree(t, tree, ref)
			fill := float64(tree.size) / float64(tree.slots)
			t.Logf("%d keys in %d slots of %d leaves: fill %.3f, %d keys a leaf", tree.size, tree.slots, leaves, fill, tree.size/leaves)
			if fill < load.minFill || tree.size/leaves < load.minPerLeaf {
				t.Fatalf("leaf fill %.3f and %d keys a leaf after a %s load, want >= %.2f and >= %d",
					fill, tree.size/leaves, load.name, load.minFill, load.minPerLeaf)
			}

			// A mix over the same keys: deletes, re-inserts, replacements.
			for i := 0; i < 2*n; i++ {
				k := keys[rng.Intn(len(keys))]
				if rng.Intn(10) < 4 {
					tree.delete(k)
					delete(ref, k)
				} else {
					r := &record{}
					tree.insert(k, r)
					ref[k] = r
				}
				if tree.size != len(ref) {
					t.Fatalf("step %d: size %d, want %d", i, tree.size, len(ref))
				}
				if i%(n/2) == 0 {
					checkBtree(t, tree, ref)
				}
			}
			checkBtree(t, tree, ref)

			// Ranges and early termination.
			for _, start := range []string{"", keys[0], keys[len(keys)/2] + "x", "zzz"} {
				var want, got []string
				for k := range ref {
					if k >= start {
						want = append(want, k)
					}
				}
				sort.Strings(want)
				tree.ascend(start, func(k string, _ *record) bool { got = append(got, k); return true })
				if !slices.Equal(got, want) {
					t.Fatalf("ascend(%q): %s", start, firstDiff(got, want))
				}
			}
			visited := 0
			tree.ascend("", func(string, *record) bool { visited++; return visited < 7 })
			if visited != 7 {
				t.Fatalf("ascend stop: visited %d keys", visited)
			}
		})
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
