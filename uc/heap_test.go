package uc

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/lineage"
)

// residentBudget is what each holder measures, in bytes per table of
// TestResidentBudget's population. The test fails at 10 % over; a deliberate
// layout change regenerates the table with `make heap`. The erm row is the
// durable format as the store holds it — an entity record and its name and
// path rows, each an exact-size copy made by Tx.Put, and their keys — and was
// 680 before record format 2, 487 before the spec was packed (record format
// 3) and 343 while a child row's key was stored beside each entity. The catalog row is
// strings a create makes and others keep — a managed table's storage path,
// which the store keeps as the path row's key (68) — and no per-node state:
// the URL trie the catalog kept beside the store's path table (103) is gone,
// and per-path state that came back would show here; 97 while the event log
// kept 8,192 events' full names. The events row is the log's open chunk of
// 36 Events and at most one spare (6 KiB each); there is no name table: 394
// when it was a fixed ring of 8,192 packed 96-byte slots, 689 when a fixed
// ring held whole 168-byte Events. The store structure row holds, per key, a 48-byte record
// that holds its key and a pointer to it in a key-table slot and in a B+tree
// leaf slot, per entity a pointer in its derived child group's leaf, and the
// change ring, 8,192 slots of 32 bytes: 482 while each entity had a stored
// child row, 565 while a leaf kept every key's header beside its pointer, 726
// while a Go map did too, 820 when the ring held 48-byte Changes. The search row is a document's ID and
// token numbers and its entries in sorted postings: 264 while postings were
// maps and a document kept its full name and type.
var residentBudget = map[string]float64{
	"search":          151,
	"catalog":         74,
	"events":          7,
	"store structure": 413,
	"erm":             262,
}

// auditRecordBudget is what the audit log holds per retained record, in
// bytes allocated under internal/audit: the 48-byte packed record in its
// 8 KiB block of 160, the open chunks' empty slots, the tables of the chunks
// whose strings outgrow their block, and the side entries of the few records
// that carry Extra; 91.0 while a record was 88 bytes and held its strings'
// headers. It is per record, not per table: the log grows with calls. The
// strings a table names belong to whoever made them. Fails at 10 % over.
const auditRecordBudget = 52.7

// warmCacheBudget is what reading every table of that population once by name
// leaves in use under the metadata cache and the decoder (cache + erm), in
// bytes per table read: the record's cache entry and name-index entry, their
// keys, and — since ISSUE 20 — the decoded forms that hang off them, an Entity
// (240 B) and the one string its fields are cut from, its Spec aliasing the
// record. heap_bytes_per_asset cannot see this: the benchmark reads it on a
// cache ReconcileFull has just emptied. cache.Options.MaxEntriesPerMetastore
// bounds it as it bounds the records. The same reads left 561 B per table at
// the commit before the decoded forms (436 under cache, 125 under erm for the
// name keys): a decoded entity costs 465 B to keep. 1,026 until record format
// 2 (ISSUE 24): the string a version 2 record's fields are cut from no longer
// holds the ID, the type, the state and their length prefixes; 958 until prefix
// scans stopped being cached whole beside the records. Fails at 10 % over.
const warmCacheBudget = 851

const internalPrefix = "unitycatalog/internal/"

// holderOf names who answers for an allocation: the package of the innermost
// unitycatalog/internal frame on its stack. The store's share under update is
// "store structure" — records, key-table and tree growth, the change ring — apart
// from the value copies Tx.Put makes, which are the on-disk format's bytes:
// those are "store values" where Put is called, and its caller's (erm,
// catalog) where the compiler inlined it, which is nearly everywhere.
func holderOf(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	holder, underUpdate := "", false
	for {
		f, more := frames.Next()
		if rest, ok := strings.CutPrefix(f.Function, internalPrefix); ok {
			if holder == "" {
				holder = rest[:strings.IndexAny(rest, "./")]
				if strings.HasSuffix(f.Function, "store.(*Tx).Put") {
					return "store values"
				}
			}
			if strings.HasSuffix(f.Function, "store.(*DB).update") {
				underUpdate = true
			}
		}
		if !more {
			break
		}
	}
	switch {
	case holder == "":
		return "(outside internal/)"
	case holder == "store" && underUpdate:
		return "store structure"
	}
	return holder
}

// inUseByHolder collects twice, so that what the profile reports as in use
// is what is reachable, and attributes every in-use byte to its holder.
func inUseByHolder() (inUse map[string]int64, total int64) { return inUseBy(holderOf) }

// inUseBy is inUseByHolder under any naming of allocation stacks.
func inUseBy(holderOf func(stack []uintptr) string) (inUse map[string]int64, total int64) {
	runtime.GC()
	runtime.GC()
	records := make([]runtime.MemProfileRecord, 4096)
	for {
		n, ok := runtime.MemProfile(records, false)
		if ok {
			records = records[:n]
			break
		}
		records = make([]runtime.MemProfileRecord, 2*n)
	}
	inUse = map[string]int64{}
	for i := range records {
		r := &records[i]
		inUse[holderOf(r.Stack())] += r.InUseBytes()
		total += r.InUseBytes()
	}
	return inUse, total
}

// TestResidentBudget builds a small metastore through the assembled stack and
// attributes every byte still in use afterwards to the package that allocated
// it. It is the regression gate for bytes per asset: the benchmark's
// heap_bytes_per_asset says that the total moved, this says whose share did.
func TestResidentBudget(t *testing.T) {
	const schemas, tablesPerSchema = 20, 100
	const tables = schemas * tablesPerSchema

	// Every allocation from here on is in the profile; what the process
	// allocated before is sampled at the default rate and is noise of a few
	// hundred bytes per holder at most.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1"); err != nil {
		t.Fatal(err)
	}
	admin := c.Session("admin", "ms1")
	if _, err := admin.CreateCatalog("sales", ""); err != nil {
		t.Fatal(err)
	}
	spec := TableSpec{Columns: []ColumnInfo{{Name: "id", Type: "BIGINT"}, {Name: "amount", Type: "DOUBLE"}}}
	for s := 0; s < schemas; s++ {
		schema := fmt.Sprintf("s%02d", s)
		if _, err := admin.CreateSchema("sales", schema, ""); err != nil {
			t.Fatal(err)
		}
		if err := admin.Grant("sales."+schema, "analysts", "USE SCHEMA"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tablesPerSchema; i++ {
			name := fmt.Sprintf("t_%04d", i)
			if _, err := admin.CreateTable("sales."+schema, name, spec, ""); err != nil {
				t.Fatal(err)
			}
			if i%4 == 0 {
				if err := admin.SetTag("sales."+schema+"."+name, "", "tier", fmt.Sprintf("t%d", i%3)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	c.Search.Sync()
	// The benchmark's measurement point: set-up done, metadata cache empty.
	if err := c.Service.Cache().ReconcileFull("ms1"); err != nil {
		t.Fatal(err)
	}

	inUse, total := inUseByHolder()
	runtime.KeepAlive(c)

	holders := make([]string, 0, len(inUse))
	for h := range inUse {
		holders = append(holders, h)
	}
	sort.Slice(holders, func(i, j int) bool { return inUse[holders[i]] > inUse[holders[j]] })
	t.Logf("%d tables, %d bytes in use, %.0f B/table", tables, total, float64(total)/tables)
	t.Logf("%-22s %10s %9s %8s", "holder", "bytes", "B/table", "budget")
	for _, h := range holders {
		perTable := float64(inUse[h]) / tables
		budget := ""
		if b, ok := residentBudget[h]; ok {
			budget = fmt.Sprintf("%.0f", b)
			if perTable > 1.10*b {
				t.Errorf("%s holds %.0f B/table, more than 10 %% over its budget of %.0f", h, perTable, b)
			}
		}
		t.Logf("%-22s %10d %9.0f %8s", h, inUse[h], perTable, budget)
	}
	for h := range residentBudget {
		if inUse[h] == 0 {
			t.Errorf("nothing attributed to %s: the attribution no longer sees it", h)
		}
	}
	retained, heldBytes := c.Audit().Retained()
	perRecord := float64(inUse["audit"]) / float64(retained)
	t.Logf("audit: %d records retained in %d B of chunks and tables; %d B in use under audit: %.1f B per record (budget %.1f)",
		retained, heldBytes, inUse["audit"], perRecord, auditRecordBudget)
	if retained == 0 || perRecord > 1.10*auditRecordBudget {
		t.Errorf("the audit log holds %.1f B per retained record, more than 10 %% over its budget of %.1f", perRecord, auditRecordBudget)
	}

	// The warm-cache row: the same population, every table read once by name.
	cold := c.Service.CacheMetrics()
	for s := 0; s < schemas; s++ {
		for i := 0; i < tablesPerSchema; i++ {
			if _, err := admin.Get(fmt.Sprintf("sales.s%02d.t_%04d", s, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm, _ := inUseByHolder()
	runtime.KeepAlive(c)
	decodes := c.Service.CacheMetrics().Decodes - cold.Decodes
	perTable := float64(warm["cache"]-inUse["cache"]+warm["erm"]-inUse["erm"]) / tables
	t.Logf("warm cache: %d records cached, %d decoded; cache +%d B, erm +%d B: %.0f B per table read (budget %d)",
		c.Service.Cache().EntryCount("ms1"), decodes, warm["cache"]-inUse["cache"], warm["erm"]-inUse["erm"], perTable, warmCacheBudget)
	if perTable > 1.10*warmCacheBudget {
		t.Errorf("a warm cache holds %.0f B per table read under cache + erm, more than 10 %% over its budget of %d", perTable, warmCacheBudget)
	}
	if decodes < 2*tables {
		t.Errorf("%d records decoded for %d tables read by name: the reads did not go through the decoded forms", decodes, tables)
	}
}

// lineageEdgeBudget is what one lineage edge leaves in use once committed,
// in bytes under the holders of durable rows (store structure, store values,
// erm, catalog): 240 under erm — its two keys and its value, 80 bytes each
// for this test's edge — and 154 under the store's structure — two 48-byte
// records that hold their keys, and their pointers' share of two key tables
// and two trees (191, 431 in all, while the trees' leaves held the keys'
// headers; 262, 502 while two Go maps did). TestLineageEdgeBytes fails at
// 10 % over.
const lineageEdgeBudget = 394

// TestLineageEdgeBytes submits one edge per table of a 2,000-table
// population, each its own commit, and holds what the edges leave in use to
// lineageEdgeBudget per edge.
func TestLineageEdgeBytes(t *testing.T) {
	const tables = 2000
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.CreateMetastore("ms1", "main", "r", "admin", "s3://lake/ms1"); err != nil {
		t.Fatal(err)
	}
	admin := c.Session("admin", "ms1")
	admin.CreateCatalog("sales", "")
	admin.CreateSchema("sales", "raw", "")
	spec := TableSpec{Columns: []ColumnInfo{{Name: "id", Type: "BIGINT"}}}
	tbl := make([]ids.ID, tables)
	for i := range tbl {
		e, err := admin.CreateTable("sales.raw", fmt.Sprintf("t_%04d", i), spec, "")
		if err != nil {
			t.Fatal(err)
		}
		tbl[i] = e.ID
	}
	held := func() int64 {
		if err := c.Service.Cache().ReconcileFull("ms1"); err != nil {
			t.Fatal(err)
		}
		inUse, _ := inUseByHolder()
		runtime.KeepAlive(c)
		return inUse["store structure"] + inUse["store values"] + inUse["erm"] + inUse["catalog"]
	}
	before := held()
	for i, id := range tbl {
		if err := c.Lineage.Submit(admin.Ctx(), []lineage.Edge{{
			Upstream: id, Downstream: tbl[(i+1)%tables], JobName: "nightly-etl",
			QueryText: "INSERT INTO sales.raw.t SELECT ... FROM sales.raw.s",
		}}); err != nil {
			t.Fatal(err)
		}
	}
	perEdge := float64(held()-before) / tables
	runtime.KeepAlive(tbl)
	t.Logf("%d edges: %.0f B per edge under store, erm and catalog (budget %d)", tables, perEdge, lineageEdgeBudget)
	if perEdge > 1.10*lineageEdgeBudget {
		t.Errorf("a lineage edge holds %.0f B, more than 10 %% over its budget of %d", perEdge, lineageEdgeBudget)
	}
}

// TestWALBufferIsItsLargestBatch: the WAL writer's only resident allocation
// is the buffer it gathers a batch into, and that is as large as the largest
// batch it has written — here one commit, since nothing commits concurrently
// — give or take append's rounding.
func TestWALBufferIsItsLargestBatch(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	path := filepath.Join(t.TempDir(), "wal")
	c, err := Open(Config{WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1"); err != nil {
		t.Fatal(err)
	}
	admin := c.Session("admin", "ms1")
	admin.CreateCatalog("sales", "")
	admin.CreateSchema("sales", "raw", "")
	spec := TableSpec{Columns: []ColumnInfo{{Name: "id", Type: "BIGINT"}, {Name: "amount", Type: "DOUBLE"}}}
	for i := 0; i < 200; i++ {
		if _, err := admin.CreateTable("sales.raw", fmt.Sprintf("t_%04d", i), spec, ""); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.db.WALStats(); st.MaxBatch != 1 {
		t.Fatalf("MaxBatch = %d: this test reads the largest batch off the log as its longest entry", st.MaxBatch)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// An entry is a frame: a magic byte, its payload's length, a checksum.
	longest := 0
	for len(log) >= 9 {
		n := 9 + int(binary.LittleEndian.Uint32(log[1:5]))
		longest, log = max(longest, n), log[n:]
	}

	inUse, _ := inUseBy(func(stack []uintptr) string {
		frames := runtime.CallersFrames(stack)
		for {
			f, more := frames.Next()
			if strings.Contains(f.Function, "store.(*walWriter).") {
				return "writer"
			}
			if !more {
				return ""
			}
		}
	})
	runtime.KeepAlive(c)
	t.Logf("%d commits, longest entry %d B, %d B in use under the WAL writer", 200, longest, inUse["writer"])
	if got := inUse["writer"]; got < int64(longest) || got > 2*int64(longest)+512 {
		t.Fatalf("the WAL writer holds %d B; its largest batch was %d B", got, longest)
	}
}

// pageRetention is what paging through every table, first by an unscoped
// query and then schema by schema, as each of four principals leaves in use once the pages themselves are dropped, in bytes per table
// listed. privilege is what the walk cost at the commit before pages were
// decoded into slabs (ISSUE 19), when the most a holder could pin through an
// entity was that entity's own record; cache was 10.6 then, 12.3 once a cached
// record carried its own key and each version a slot for its decoded form
// (32 B per record the walk cached), 11.0 once the grant scans were no
// longer cached whole, and is 1.1 since a listing reads its entities with its
// child rows and fills the cache with none of them. "decoded" is what the
// decode and page code (erm, catalog) allocated; nothing a page decodes may
// outlive it, so what is left there is the key strings of the name lookups
// the walk put in the cache (18.7 before the slabs: one ID
// string per entity listed by schema, kept by the cache as a key, which is
// now the store's own entity key). TestPageRetention fails at 10 %
// over; a holder that keeps a substring of a page keeps the page's slab,
// ~500 B per table listed.
var pageRetention = map[string]float64{
	"privilege": 131.2,
	"cache":     2, // measures 1.1: a kilobyte in all, so the slack is absolute
	"decoded":   2, // measures 0.8 (1.5 while grant scans were cached): a kilobyte in all, so the slack is absolute; one pinned page per memo reads 21.7
}

// TestPageRetention is the ownership rule of erm/codec.go, tested from the
// outside: the two holders a listed page can reach — the metadata cache's
// miss-fill keys and the authorization memos' keys and parents — keep strings
// of their own (or the store's), never a substring of the page's slab, whose
// every byte would stay in use for as long as they did.
func TestPageRetention(t *testing.T) {
	const schemas, tablesPerSchema = 8, 120
	principals := []Principal{"admin", "ana", "ben", "cy"}

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1"); err != nil {
		t.Fatal(err)
	}
	admin := c.Session("admin", "ms1")
	if _, err := admin.CreateCatalog("sales", ""); err != nil {
		t.Fatal(err)
	}
	spec := TableSpec{Columns: []ColumnInfo{{Name: "id", Type: "BIGINT"}, {Name: "amount", Type: "DOUBLE"}}}
	grant := func(full string, privs ...Privilege) {
		t.Helper()
		for _, p := range principals[1:] {
			for _, priv := range privs {
				if err := admin.Grant(full, p, priv); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	grant("sales", "USE CATALOG", "SELECT")
	for s := 0; s < schemas; s++ {
		schema := fmt.Sprintf("s%02d", s)
		if _, err := admin.CreateSchema("sales", schema, ""); err != nil {
			t.Fatal(err)
		}
		grant("sales."+schema, "USE SCHEMA")
		for i := 0; i < tablesPerSchema; i++ {
			if _, err := admin.CreateTable("sales."+schema, fmt.Sprintf("t_%04d", i), spec, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Search.Sync()
	if err := c.Service.Cache().ReconcileFull("ms1"); err != nil {
		t.Fatal(err)
	}
	before, _ := inUseByHolder()

	// Each principal pages through an unscoped query first, so that its memo
	// meets the first table of every schema before the schema itself: that
	// entry's parent has no filed ID to share and must be a copy.
	listed := 0
	for _, p := range principals {
		ctx := c.Session(p, "ms1").Ctx()
		for f := (catalog.Filter{Type: erm.TypeTable, MaxResults: 50}); ; {
			page, err := c.Service.QueryAssetsPage(ctx, f)
			if err != nil {
				t.Fatal(err)
			}
			listed += len(page.Assets)
			if f.PageToken = page.NextPageToken; f.PageToken == "" {
				break
			}
		}
		for s := 0; s < schemas; s++ {
			for token := ""; ; {
				page, err := c.Service.ListAssetsPage(ctx, fmt.Sprintf("sales.s%02d", s), erm.TypeTable, 50, token)
				if err != nil {
					t.Fatal(err)
				}
				listed += len(page.Assets)
				if token = page.NextPageToken; token == "" {
					break
				}
			}
		}
	}
	if want := 2 * len(principals) * schemas * tablesPerSchema; listed != want {
		t.Fatalf("walks listed %d tables, want %d", listed, want)
	}
	after, _ := inUseByHolder()
	runtime.KeepAlive(c)

	left := map[string]float64{}
	for h, b := range after {
		if d := float64(b-before[h]) / float64(listed); d != 0 {
			if h == "erm" || h == "catalog" {
				h = "decoded"
			}
			left[h] += d
		}
	}
	holders := make([]string, 0, len(left))
	for h := range left {
		holders = append(holders, h)
	}
	sort.Slice(holders, func(i, j int) bool { return left[holders[i]] > left[holders[j]] })
	t.Logf("%d tables listed; left in use once the pages were dropped:", listed)
	t.Logf("%-22s %12s %8s", "holder", "B/listed", "budget")
	for _, h := range holders {
		budget := ""
		if b, ok := pageRetention[h]; ok {
			budget = fmt.Sprintf("%.1f", b)
			if left[h] > 1.10*b {
				t.Errorf("%s keeps %.1f B per table listed, more than 10 %% over its budget of %.1f", h, left[h], b)
			}
		}
		t.Logf("%-22s %12.1f %8s", h, left[h], budget)
	}
}
