package catalog

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"unitycatalog/internal/cache"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// pagedList walks ListAssetsPage to exhaustion and returns all assets plus
// the number of pages fetched.
func pagedList(t *testing.T, svc *Service, ctx Ctx, parent string, typ erm.SecurableType, pageSize int) ([]*erm.Entity, int) {
	t.Helper()
	var out []*erm.Entity
	token := ""
	pages := 0
	for {
		p, err := svc.ListAssetsPage(ctx, parent, typ, pageSize, token)
		if err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		out = append(out, p.Assets...)
		pages++
		if p.NextPageToken == "" {
			return out, pages
		}
		token = p.NextPageToken
		if pages > 10000 {
			t.Fatal("pagination failed to terminate")
		}
	}
}

func pagedQuery(t *testing.T, svc *Service, ctx Ctx, f Filter) ([]*erm.Entity, int) {
	t.Helper()
	var out []*erm.Entity
	pages := 0
	for {
		p, err := svc.QueryAssetsPage(ctx, f)
		if err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		out = append(out, p.Assets...)
		pages++
		if p.NextPageToken == "" {
			return out, pages
		}
		f.PageToken = p.NextPageToken
		if pages > 10000 {
			t.Fatal("pagination failed to terminate")
		}
	}
}

func namesOf(ents []*erm.Entity) map[string]bool {
	out := make(map[string]bool, len(ents))
	for _, e := range ents {
		out[e.FullName] = true
	}
	return out
}

func TestListAssetsPageMatchesUnpaged(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	for i := 0; i < 57; i++ {
		if _, err := svc.CreateTable(admin, "sales.raw", fmt.Sprintf("t%03d", i), TableSpec{Columns: cols("a")}, ""); err != nil {
			t.Fatal(err)
		}
	}

	want := childWalk(t, svc, admin, "sales.raw", 1, Filter{Type: erm.TypeTable})
	unpaged, err := svc.ListAssets(admin, "sales.raw", erm.TypeTable)
	if err != nil {
		t.Fatal(err)
	}
	got, pages := pagedList(t, svc, admin, "sales.raw", erm.TypeTable, 10)
	if len(got) != len(want) || len(unpaged) != len(want) {
		t.Fatalf("paged %d assets, unpaged %d, child walk %d", len(got), len(unpaged), len(want))
	}
	if pages < 6 {
		t.Fatalf("expected >= 6 pages of 10 over %d assets, got %d", len(want), pages)
	}
	wantNames, gotNames, unpagedNames := namesOf(want), namesOf(got), namesOf(unpaged)
	for n := range wantNames {
		if !gotNames[n] || !unpagedNames[n] {
			t.Fatalf("listing missing %s (paged has it: %v, unpaged: %v)", n, gotNames[n], unpagedNames[n])
		}
	}
	// No duplicates: map size equals slice length.
	if len(gotNames) != len(got) {
		t.Fatalf("paged listing returned duplicates: %d unique of %d", len(gotNames), len(got))
	}
}

// TestListAssetsPageStableUnderWrites proves cursor stability: a walk begun
// before a burst of creates and drops returns exactly the first page's
// snapshot population.
func TestListAssetsPageStableUnderWrites(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	for i := 0; i < 30; i++ {
		if _, err := svc.CreateTable(admin, "sales.raw", fmt.Sprintf("t%03d", i), TableSpec{Columns: cols("a")}, ""); err != nil {
			t.Fatal(err)
		}
	}
	before, err := svc.ListAssets(admin, "sales.raw", erm.TypeTable)
	if err != nil {
		t.Fatal(err)
	}

	// First page pins the snapshot.
	p1, err := svc.ListAssetsPage(admin, "sales.raw", erm.TypeTable, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	if p1.NextPageToken == "" {
		t.Fatal("expected a continuation")
	}

	// Churn: create new tables and drop an old one.
	for i := 0; i < 10; i++ {
		if _, err := svc.CreateTable(admin, "sales.raw", fmt.Sprintf("new%02d", i), TableSpec{Columns: cols("a")}, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.DeleteAsset(admin, "sales.raw.t005", false); err != nil {
		t.Fatal(err)
	}

	got := append([]*erm.Entity{}, p1.Assets...)
	token := p1.NextPageToken
	for token != "" {
		p, err := svc.ListAssetsPage(admin, "sales.raw", erm.TypeTable, 7, token)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p.Assets...)
		token = p.NextPageToken
	}
	if len(got) != len(before) {
		t.Fatalf("stable walk returned %d assets, snapshot had %d", len(got), len(before))
	}
	gotNames := namesOf(got)
	if !gotNames["sales.raw.t005"] {
		t.Fatal("dropped asset missing from pinned cursor walk")
	}
	for n := range gotNames {
		if len(n) >= len("sales.raw.new") && n[:len("sales.raw.new")] == "sales.raw.new" {
			t.Fatalf("asset %s created after the cursor leaked into the walk", n)
		}
	}
}

func TestListAssetsPageRespectsVisibility(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	for i := 0; i < 12; i++ {
		tbl, err := svc.CreateTable(admin, "sales.raw", fmt.Sprintf("t%02d", i), TableSpec{Columns: cols("a")}, "")
		if err != nil {
			t.Fatal(err)
		}
		// Grant SELECT on even tables only.
		if i%2 == 0 {
			if err := svc.Grant(admin, tbl.FullName, "bob", privilege.Select); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := svc.Grant(admin, "sales", "bob", privilege.UseCatalog); err != nil {
		t.Fatal(err)
	}
	if err := svc.Grant(admin, "sales.raw", "bob", privilege.UseSchema); err != nil {
		t.Fatal(err)
	}
	bob := Ctx{Principal: "bob", Metastore: "ms1"}
	got, _ := pagedList(t, svc, bob, "sales.raw", erm.TypeTable, 3)
	if len(got) != 6 {
		t.Fatalf("bob sees %d tables, want 6", len(got))
	}
	for _, e := range got {
		if (e.Name[len(e.Name)-1]-'0')%2 != 0 {
			t.Fatalf("bob sees unauthorized table %s", e.FullName)
		}
	}
}

func TestQueryAssetsPagePlans(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	if _, err := svc.CreateSchema(admin, "sales", "curated", ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		tbl, err := svc.CreateTable(admin, "sales.raw", fmt.Sprintf("fact_%02d", i), TableSpec{Columns: cols("a")}, "")
		if err != nil {
			t.Fatal(err)
		}
		if i < 7 {
			if err := svc.SetTag(admin, tbl.FullName, "", "pii", "high"); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := svc.CreateTable(admin, "sales.curated", fmt.Sprintf("dim_%02d", i), TableSpec{Columns: cols("a")}, ""); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name string
		f    Filter
	}{
		{"schema scope (child plan)", Filter{CatalogName: "sales", SchemaName: "raw", Type: erm.TypeTable}},
		{"catalog scope (cat plan)", Filter{CatalogName: "sales", Type: erm.TypeTable}},
		{"catalog scope all types", Filter{CatalogName: "sales"}},
		{"tag (inverted index plan)", Filter{TagKey: "pii"}},
		{"tag with value", Filter{TagKey: "pii", TagValue: "high"}},
		{"name prefix (name plan)", Filter{CatalogName: "sales", SchemaName: "raw", NamePrefix: "FACT_0", Type: erm.TypeTable}},
		{"unscoped (entity scan plan)", Filter{Type: erm.TypeTable}},
		{"unscoped with residual", Filter{Owner: "admin", NameContains: "dim"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := queryOracle(t, svc, admin, tc.f)
			if len(want) == 0 {
				t.Fatal("the child walk found nothing: the case tests nothing")
			}
			unpaged, err := svc.QueryAssets(admin, tc.f)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(idsOf(t, unpaged), idsOf(t, want)) {
				t.Fatalf("unpaged %d, child walk %d", len(unpaged), len(want))
			}
			pf := tc.f
			pf.MaxResults = 4
			got, pages := pagedQuery(t, svc, admin, pf)
			if len(got) != len(want) {
				t.Fatalf("paged %d, child walk %d", len(got), len(want))
			}
			if len(want) > 4 && pages < 2 {
				t.Fatalf("expected multiple pages over %d rows, got %d", len(want), pages)
			}
			wantNames, gotNames := namesOf(want), namesOf(got)
			if len(gotNames) != len(got) {
				t.Fatalf("duplicates in paged result: %d unique of %d", len(gotNames), len(got))
			}
			for n := range wantNames {
				if !gotNames[n] {
					t.Fatalf("paged result missing %s", n)
				}
			}
		})
	}
}

func TestPageTokenValidation(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	if _, err := svc.ListAssetsPage(admin, "sales.raw", erm.TypeTable, 5, "not-base64!!!"); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("garbage token: %v", err)
	}
	// A list token fed into a query with a different plan is rejected.
	p, err := svc.ListAssetsPage(admin, "sales.raw", "", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if p.NextPageToken != "" {
		if _, err := svc.QueryAssetsPage(admin, Filter{TagKey: "x", MaxResults: 5, PageToken: p.NextPageToken}); !errors.Is(err, ErrInvalidArgument) {
			t.Fatalf("cross-plan token: %v", err)
		}
	}
}

// TestQueryAssetsTagIndexConsistency checks the inverted index tracks set,
// unset, and GC-purged tags.
func TestQueryAssetsTagIndexConsistency(t *testing.T) {
	svc, admin := testService(t)
	tbl := seedNamespace(t, svc, admin)
	if err := svc.SetTag(admin, tbl.FullName, "", "tier", "gold"); err != nil {
		t.Fatal(err)
	}
	if err := svc.SetTag(admin, tbl.FullName, "amount", "mask", "strict"); err != nil {
		t.Fatal(err)
	}

	got, err := svc.QueryAssets(admin, Filter{TagKey: "tier"})
	if err != nil || len(got) != 1 || got[0].ID != tbl.ID {
		t.Fatalf("tag query after set: %v, %v", got, err)
	}
	if got, err = svc.QueryAssets(admin, Filter{TagKey: "mask", TagValue: "strict"}); err != nil || len(got) != 1 {
		t.Fatalf("column tag query: %v, %v", got, err)
	}

	if err := svc.UnsetTag(admin, tbl.FullName, "", "tier"); err != nil {
		t.Fatal(err)
	}
	if got, err = svc.QueryAssets(admin, Filter{TagKey: "tier"}); err != nil || len(got) != 0 {
		t.Fatalf("tag query after unset: %v, %v", got, err)
	}
	// Column tag remains.
	if got, err = svc.QueryAssets(admin, Filter{TagKey: "mask"}); err != nil || len(got) != 1 {
		t.Fatalf("column tag survived unset of other key: %v, %v", got, err)
	}
}

// TestHasTagMatchesEntityTags holds the tag residual, which reads one key
// and builds nothing, to EntityTags: entity-level and column-level tags, with
// and without a value to match. An entity-level tag decides alone; where
// several columns carry the key, any of them may match.
func TestHasTagMatchesEntityTags(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	table := func(name string, tags ...[3]string) ids.ID { // {column, key, value}
		t.Helper()
		e, err := svc.CreateTable(admin, "sales.raw", name, TableSpec{Columns: cols("a", "b", "col")}, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, tag := range tags {
			if err := svc.SetTag(admin, e.FullName, tag[0], tag[1], tag[2]); err != nil {
				t.Fatal(err)
			}
		}
		return e.ID
	}
	tables := []ids.ID{
		table("untagged"),
		table("entity_only", [3]string{"", "tier", "gold"}, [3]string{"", "pii", "no"}),
		table("column_only", [3]string{"a", "tier", "gold"}),
		table("two_columns", [3]string{"a", "tier", "gold"}, [3]string{"b", "tier", "silver"}),
		table("entity_over_column", [3]string{"", "tier", "silver"}, [3]string{"a", "tier", "gold"}),
		table("other_keys", [3]string{"", "tiers", "gold"}, [3]string{"a", "tie", "gold"}, [3]string{"", "col", "gold"}),
		table("column_named_col", [3]string{"col", "tier", "gold"}),
	}
	v, err := svc.view(admin)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for _, id := range tables {
		entity, columns := EntityTags(v, id)
		for _, key := range []string{"tier", "pii", "tiers", "tie", "col", "absent"} {
			for _, value := range []string{"", "gold", "silver", "no"} {
				val, want := entity[key]
				if want {
					want = value == "" || val == value
				} else {
					for _, ct := range columns {
						if cv, ok := ct[key]; ok && (value == "" || cv == value) {
							want = true
						}
					}
				}
				if got := hasTag(v, id, key, value); got != want {
					t.Errorf("hasTag(%s, %q, %q) = %v; EntityTags has %v and %v", id.Short(), key, value, got, entity, columns)
				}
			}
		}
	}
	// The tag plan decides from the inverted index's rows alone, by the same
	// rule, paged or not.
	for _, key := range []string{"tier", "pii", "tiers", "tie", "col", "absent"} {
		for _, value := range []string{"", "gold", "silver", "no"} {
			var want []string
			for _, id := range tables {
				if hasTag(v, id, key, value) {
					want = append(want, string(id))
				}
			}
			slices.Sort(want)
			f := Filter{TagKey: key, TagValue: value}
			got, err := svc.QueryAssets(admin, f)
			if err != nil {
				t.Fatal(err)
			}
			f.MaxResults = 1
			paged, _ := pagedQuery(t, svc, admin, f)
			if !slices.Equal(idsOf(t, got), want) || !slices.Equal(idsOf(t, paged), want) {
				t.Errorf("tag plan for %q=%q: %d assets unpaged, %d paged; hasTag holds %d", key, value, len(got), len(paged), len(want))
			}
		}
	}
}

// listPageAllocs and listAllAllocs are what a 100-table ListAssetsPageFunc page
// and a 100-table unpaged ListAssets allocated on a cache-less service when the
// read path last changed on purpose: one engine behind both, a page's batch
// answering "is there more" itself, the catalog's workspace bindings read in
// place, the page's range scan sizing its result once, its token minted by hand
// (26 through encoding/json), its view and authorizer
// in one object with the request's resolution (28 and 36 as three objects, 33
// and 41 recorded before that), the child rows carrying their entities' records
// (34 and 42 with a batch read of them; 45 while the scan grew its result row
// by row; 51 and 52 with a decode of the catalog's whole spec; the page was 60
// with its probe read, and 456 before it decoded into one slab).
// TestListPageAllocs fails at 10 % over; `make allocs` prints the figures.
const (
	listPageAllocs = 23
	listAllAllocs  = 34
)

// pageWorld is sales.raw with 150 tables beside seedNamespace's one (a page
// of 100 and a tail), sales.small with 76 (a first page of 100 is also the
// last) and sales.even with exactly 100, every raw table tagged "pii" and
// every small one "tier", on a service with or without a metadata cache.
func pageWorld(t *testing.T, cacheless bool) (*Service, Ctx, *store.DB) {
	t.Helper()
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := New(Config{DB: db, CacheOpts: cache.Options{Disabled: cacheless}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateMetastore("ms1", "main", "us-east-1", "admin", "s3://metastore-root/ms1"); err != nil {
		t.Fatal(err)
	}
	admin := Ctx{Principal: "admin", Metastore: "ms1"}
	seedNamespace(t, svc, admin)
	for schema, spec := range map[string]struct {
		tables int
		tag    string
	}{"raw": {150, "pii"}, "small": {76, "tier"}, "even": {100, ""}} {
		if schema != "raw" {
			if _, err := svc.CreateSchema(admin, "sales", schema, ""); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < spec.tables; i++ {
			name := fmt.Sprintf("t%03d", i)
			if _, err := svc.CreateTable(admin, "sales."+schema, name, TableSpec{Columns: cols("id", "amount")}, ""); err != nil {
				t.Fatal(err)
			}
			if spec.tag != "" {
				if err := svc.SetTag(admin, "sales."+schema+"."+name, "", spec.tag, "x"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return svc, admin, db
}

// TestListPageAllocs gates what a list page allocates end to end — token,
// reader, parent resolution, authorization, range scan, batch read, decode,
// visibility, audit — so a per-entity allocation that creeps back into any
// of them shows as a hundred; and the same for the engine's other shell, the
// unpaged listing with its sort.
func TestListPageAllocs(t *testing.T) {
	svc, admin, _ := pageWorld(t, true)
	listed := 0
	page := func() {
		listed = 0
		next, err := svc.ListAssetsPageFunc(admin, "sales.raw", erm.TypeTable, 100, "", func(*erm.Entity) { listed++ })
		if err != nil || next == "" {
			t.Fatalf("page: token %q, %v", next, err)
		}
	}
	all := func() {
		out, err := svc.ListAssets(admin, "sales.even", erm.TypeTable)
		if err != nil {
			t.Fatal(err)
		}
		listed = len(out)
	}
	for _, row := range []struct {
		name     string
		call     func()
		recorded float64
	}{{"100-table list page", page, listPageAllocs}, {"100-table unpaged listing", all, listAllAllocs}} {
		row.call() // compile the principal's snapshot, fill its memo
		got := testing.AllocsPerRun(50, row.call)
		if listed != 100 {
			t.Fatalf("%s listed %d tables, want 100", row.name, listed)
		}
		t.Logf("%s: %.0f allocations (recorded %.0f)", row.name, got, row.recorded)
		if got > 1.10*row.recorded {
			t.Fatalf("%s: %.0f allocations, more than 10 %% over the recorded %.0f", row.name, got, row.recorded)
		}
	}
}

// TestFinalPageReadsOneRange: a page that ends its range — the tail of a
// walk, or a first page with room to spare — makes one index range read, as
// a full page does: the batch that came back short is the answer to "is there
// more". (Each of the three page loops the engine replaced read the range
// again after a short batch, and once more for the token: 3 reads.) On a warm
// cache the range read is the page's only store read; on a cache-less service
// every read counts, so a final page must cost what the full page before it
// cost: no candidate costs a read of its own, the tag plan's included (its
// index rows decide the tag; the forward table is not read).
func TestFinalPageReadsOneRange(t *testing.T) {
	rows := 0
	emit := func(*erm.Entity) { rows++ }
	plans := []struct {
		name string
		// page fetches one page of 100 of a walk that takes several (whole:
		// of one that a single page holds).
		page func(svc *Service, ctx Ctx, whole bool, tok string) (string, error)
	}{
		{"list", func(svc *Service, ctx Ctx, whole bool, tok string) (string, error) {
			parent := "sales.raw"
			if whole {
				parent = "sales.small"
			}
			return svc.ListAssetsPageFunc(ctx, parent, erm.TypeTable, 100, tok, emit)
		}},
		{"tag", func(svc *Service, ctx Ctx, whole bool, tok string) (string, error) {
			key := "pii"
			if whole {
				key = "tier"
			}
			return svc.QueryAssetsPageFunc(ctx, Filter{TagKey: key, MaxResults: 100, PageToken: tok}, emit)
		}},
		{"scan", func(svc *Service, ctx Ctx, whole bool, tok string) (string, error) {
			f := Filter{MaxResults: 100, PageToken: tok}
			if whole {
				f.MaxResults = 1000
			}
			return svc.QueryAssetsPageFunc(ctx, f, emit)
		}},
	}
	for _, cacheless := range []bool{false, true} {
		svc, admin, db := pageWorld(t, cacheless)
		for _, p := range plans {
			reads := func(whole bool, tok string) (next string, n int64) {
				t.Helper()
				var err error
				for i := 0; i < 2; i++ { // the first call warms the cache and the authorization memo
					rows, n = 0, db.ReadCount()
					if next, err = p.page(svc, admin, whole, tok); err != nil {
						t.Fatalf("%s: %v", p.name, err)
					}
					n = db.ReadCount() - n
				}
				return next, n
			}
			if next, n := reads(true, ""); next != "" {
				t.Fatalf("%s: a page with room to spare returned a token", p.name)
			} else if !cacheless && n != 1 {
				t.Fatalf("%s: a first and final page on a warm cache made %d store reads, want 1", p.name, n)
			}
			if !cacheless {
				continue
			}
			tok, full := reads(false, "")
			if tok == "" {
				t.Fatalf("%s: no second page", p.name)
			}
			for tok != "" {
				var n int64
				if tok, n = reads(false, tok); n != full {
					t.Fatalf("%s: a page of %d rows made %d store reads (final: %v); the full first page made %d", p.name, rows, n, tok == "", full)
				}
			}
		}
	}
}
