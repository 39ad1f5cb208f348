package uc

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// residentBudget is what each holder measured, in bytes per table of
// TestResidentBudget's population, when its layout was last changed on
// purpose (ISSUE 18: numbered search index, map-less trie leaves, one-object
// store records, no retained change sets). The test fails at 10 % over.
// Regenerate the table with `make heap`.
var residentBudget = map[string]float64{
	"search":          264,
	"pathtrie":        103,
	"events":          689,
	"store structure": 938,
}

const internalPrefix = "unitycatalog/internal/"

// holderOf names who answers for an allocation: the package of the innermost
// unitycatalog/internal frame on its stack. The store's share under update is
// "store structure" — records, map and tree growth, the change ring — apart
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
	c.Lineage.Sync()
	// The benchmark's measurement point: set-up done, metadata cache empty.
	if err := c.Service.Cache().ReconcileFull("ms1"); err != nil {
		t.Fatal(err)
	}

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
	inUse := map[string]int64{}
	var total int64
	for i := range records {
		r := &records[i]
		inUse[holderOf(r.Stack())] += r.InUseBytes()
		total += r.InUseBytes()
	}
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
}
