package catalog

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
)

// Differential tests for the name-index plans ("name", "catname"): whatever
// index a paged query walks, its pages must add up to exactly what the
// child-index walk returns for the same filter, for every principal.

// planWorld is a seeded catalog "lake" built to stress the name-index walk:
// mixed-case names that collide on short prefixes, tables and views sharing
// the RELATION name group, soft-deleted assets (one with its name reused),
// empty schemas, a soft-deleted schema, "pii" tags on entities and on columns
// (some on both, so the inverted index repeats the securable), and two
// restricted principals.
type planWorld struct {
	svc   *Service
	admin Ctx
	half  Ctx // USE CATALOG, and USE SCHEMA + SELECT on every second schema
	one   Ctx // USE CATALOG, and SELECT on one table of a schema it cannot use
	// oneTable is the full name of the table granted directly to "one".
	oneTable string
}

func buildPlanWorld(t *testing.T, seed int64) *planWorld {
	t.Helper()
	svc, admin := testService(t)
	rng := rand.New(rand.NewSource(seed))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := svc.CreateCatalog(admin, "lake", "")
	must(err)
	must(svc.Grant(admin, "lake", "half", privilege.UseCatalog))
	must(svc.Grant(admin, "lake", "one", privilege.UseCatalog))

	w := &planWorld{
		svc: svc, admin: admin,
		half: Ctx{Principal: "half", Metastore: admin.Metastore},
		one:  Ctx{Principal: "one", Metastore: admin.Metastore},
	}
	stems := []string{"Ta", "tA", "TAB", "tb", "T_0", "t_1", "Va", "v_0"}
	for si := 0; si < 7; si++ {
		schema := fmt.Sprintf("s%d", si)
		_, err := svc.CreateSchema(admin, "lake", schema, "")
		must(err)
		full := "lake." + schema
		if si%2 == 0 {
			must(svc.Grant(admin, full, "half", privilege.UseSchema))
			must(svc.Grant(admin, full, "half", privilege.Select))
		}
		if si == 3 || si == 4 {
			continue // empty schemas, one on each side of "half"'s grants
		}
		used := map[string]bool{}
		var tables []string
		for n := 5 + rng.Intn(12); n > 0; n-- {
			name := fmt.Sprintf("%s%d", stems[rng.Intn(len(stems))], rng.Intn(40))
			if used[strings.ToLower(name)] {
				continue
			}
			used[strings.ToLower(name)] = true
			if rng.Intn(3) == 0 {
				_, err = svc.CreateView(admin, full, name, ViewSpec{Definition: "SELECT 1"})
			} else {
				_, err = svc.CreateTable(admin, full, name, TableSpec{Columns: cols("a", "b")}, "")
				must(err)
				// Tags by position, not by rng: the draws above stay as they were.
				if i := len(tables); i%3 == 0 {
					must(svc.SetTag(admin, full+"."+name, "", "pii", []string{"high", "low"}[i%2]))
				}
				if i := len(tables); i%4 == 0 {
					must(svc.SetTag(admin, full+"."+name, "a", "pii", "high"))
					must(svc.SetTag(admin, full+"."+name, "b", "pii", "low"))
				}
				tables = append(tables, name)
			}
			must(err)
		}
		// Soft-delete two tables; re-create the first under the same name,
		// so the name key points at the live one and the child index holds
		// both.
		for i := 0; i < 2 && i < len(tables); i++ {
			must(svc.DeleteAsset(admin, full+"."+tables[i], false))
		}
		if len(tables) > 0 {
			_, err = svc.CreateTable(admin, full, tables[0], TableSpec{Columns: cols("a")}, "")
			must(err)
		}
		if si == 1 && len(tables) > 2 {
			w.oneTable = full + "." + tables[2]
			must(svc.Grant(admin, w.oneTable, "one", privilege.Select))
		}
		if si == 6 {
			must(svc.DeleteAsset(admin, full, true)) // a whole schema soft-deleted
		}
	}
	if w.oneTable == "" {
		t.Fatal("world has no table for the direct grant; change the seed")
	}
	return w
}

// childWalk is the listing engine's oracle, and shares nothing with it:
// candidates come from a recursive erm.ListChildren descent over the store's
// current snapshot — no plan, no cursor, no batch — the predicates are
// written out here (tags through EntityTags), and visibility is decided by
// the reference privilege.Engine, not the compiled snapshot. scope "" is the
// metastore; depth 1 takes scope's children, 2 its grandchildren too, 0 every
// descendant and scope itself (what the entity table holds).
func childWalk(t *testing.T, svc *Service, ctx Ctx, scope string, depth int, f Filter) []*erm.Entity {
	t.Helper()
	ms, err := svc.meta(ctx.Metastore)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := svc.db.Snapshot(ctx.Metastore)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	chain, err := svc.resolveParentChain(snap, ms, scope)
	if err != nil {
		t.Fatal(err)
	}
	var all []*erm.Entity
	if depth == 0 {
		all = append(all, leaf(chain))
	}
	var descend func(id ids.ID, level int)
	descend = func(id ids.ID, level int) {
		for _, c := range erm.ListChildren(snap, id, "") {
			all = append(all, c)
			if depth == 0 || level < depth {
				descend(c.ID, level+1)
			}
		}
	}
	descend(leaf(chain).ID, 1)

	auth := privilege.NewEngine(viewResolver{snap}, viewGrants{snap}, svc.groups).For(ctx.Principal)
	lower := strings.ToLower
	var out []*erm.Entity
	for _, e := range all {
		tags, columns := EntityTags(snap, e.ID)
		tagged := f.TagKey == ""
		if v, ok := tags[f.TagKey]; ok {
			tagged = f.TagValue == "" || v == f.TagValue
		} else {
			for _, ct := range columns {
				if v, ok := ct[f.TagKey]; ok && (f.TagValue == "" || v == f.TagValue) {
					tagged = true
				}
			}
		}
		switch {
		case f.Type != "" && e.Type != f.Type,
			!f.IncludeSoft && e.State == erm.StateSoftDeleted,
			!strings.Contains(lower(e.Name), lower(f.NameContains)),
			!strings.HasPrefix(lower(e.Name), lower(f.NamePrefix)),
			f.Owner != "" && string(e.Owner) != f.Owner,
			!tagged,
			!svc.visible(ctx, auth, snap, e):
			continue
		}
		out = append(out, e)
	}
	return out
}

// queryOracle answers QueryAssets(f) by childWalk: the scope and depth the
// filter names, nothing pushed into any index.
func queryOracle(t *testing.T, svc *Service, ctx Ctx, f Filter) []*erm.Entity {
	t.Helper()
	switch {
	case f.CatalogName != "" && f.SchemaName != "":
		return childWalk(t, svc, ctx, f.CatalogName+"."+f.SchemaName, 1, f)
	case f.CatalogName != "":
		return childWalk(t, svc, ctx, f.CatalogName, 2, f)
	}
	return childWalk(t, svc, ctx, "", 0, f)
}

func (w *planWorld) oracle(t *testing.T, ctx Ctx, f Filter) []string {
	t.Helper()
	return idsOf(t, queryOracle(t, w.svc, ctx, f))
}

func idsOf(t *testing.T, ents []*erm.Entity) []string {
	t.Helper()
	out := make([]string, len(ents))
	seen := map[string]bool{}
	for i, e := range ents {
		out[i] = string(e.ID)
		if seen[out[i]] {
			t.Fatalf("%s (%s) returned twice", e.FullName, e.ID)
		}
		seen[out[i]] = true
	}
	sort.Strings(out)
	return out
}

func TestNameIndexPlansMatchChildWalk(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		w := buildPlanWorld(t, seed)
		principals := []Ctx{w.admin, w.half, w.one}
		for _, ctx := range principals {
			for _, schema := range []string{"", "s0", "s1", "s3"} {
				for _, typ := range []erm.SecurableType{erm.TypeTable, erm.TypeView} {
					for _, prefix := range []string{"t", "TA", "ta1", "T_", "v", "zz"} {
						for _, soft := range []bool{false, true} {
							f := Filter{CatalogName: "lake", SchemaName: schema, Type: typ, NamePrefix: prefix, IncludeSoft: soft}
							name := fmt.Sprintf("seed%d/%s/%s/%s/%s/soft=%v", seed, ctx.Principal, schema, typ, prefix, soft)
							wantPlan := "catname"
							switch {
							case schema != "" && soft:
								wantPlan = "child"
							case schema != "":
								wantPlan = "name"
							case soft:
								wantPlan = "cat"
							}
							if got := queryPlan(f); got != wantPlan {
								t.Fatalf("%s: plan %q, want %q", name, got, wantPlan)
							}
							want := w.oracle(t, ctx, f)
							unpaged, err := w.svc.QueryAssets(ctx, f)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if got := idsOf(t, unpaged); !slices.Equal(got, want) {
								t.Fatalf("%s: unpaged returned %d assets, child walk %d", name, len(got), len(want))
							}
							for _, size := range []int{1, 2, 7, 100} {
								pf := f
								pf.MaxResults = size
								paged, _ := pagedQuery(t, w.svc, ctx, pf)
								if got := idsOf(t, paged); !slices.Equal(got, want) {
									t.Fatalf("%s: pages of %d returned %d assets, child walk %d", name, size, len(got), len(want))
								}
							}
						}
					}
				}
			}
		}
		// The direct grant must surface through the catalog-wide name walk
		// although "one" cannot use the schema: visibility is per entity.
		tbl := w.oneTable[strings.LastIndex(w.oneTable, ".")+1:]
		got, _ := pagedQuery(t, w.svc, w.one, Filter{CatalogName: "lake", Type: erm.TypeTable, NamePrefix: tbl[:2], MaxResults: 2})
		if !namesOf(got)[w.oneTable] {
			t.Fatalf("seed %d: %s, granted directly, missing from the catalog-wide name walk", seed, w.oneTable)
		}
		for _, e := range got {
			if e.FullName != w.oneTable {
				t.Fatalf("seed %d: principal with one direct grant sees %s", seed, e.FullName)
			}
		}
	}
}

// TestListingMatchesChildWalk holds all four shells of the listing engine to
// the child walk over the seeded worlds, for every principal: ListAssets at
// the metastore root, the catalog and its schemas for every type and "";
// QueryAssets over every scope, type, prefix, tag and soft-delete setting.
// Unpaged and paged results are the walk's set; unpaged order is Name
// (FullName for queries); Filter.Limit keeps the head of that order; an
// unpaged call writes exactly one audit record; and repeated on the unchanged
// metastore it reads nothing from the store (a name-index plan aside: its
// range is read past the scan cache, see listing.read).
func TestListingMatchesChildWalk(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		w := buildPlanWorld(t, seed)
		db, log := w.svc.db, w.svc.Audit()
		// once runs an unpaged call and checks its audit record; twice runs
		// it again and checks the second run cost the store nothing.
		once := func(name, op string, call func() error) error {
			t.Helper()
			before := log.Stats().ByOperation[op]
			err := call()
			if n := log.Stats().ByOperation[op] - before; n != 1 {
				t.Fatalf("%s: %d %s audit records for one call", name, n, op)
			}
			return err
		}
		twice := func(name, op string, cached bool, call func() error) error {
			t.Helper()
			if err := once(name, op, call); err != nil {
				return err
			}
			reads := db.ReadCount()
			if err := once(name, op, call); err != nil {
				t.Fatalf("%s: repeated call: %v", name, err)
			}
			if n := db.ReadCount() - reads; cached && n != 0 {
				t.Fatalf("%s: repeated call on an unchanged metastore made %d store reads", name, n)
			}
			return nil
		}
		types := append([]erm.SecurableType{""}, w.svc.reg.Types()...)
		for _, ctx := range []Ctx{w.admin, w.half, w.one} {
			for _, parent := range []string{"", "lake", "lake.s0", "lake.s1", "lake.s3", "lake.s6", "lake.nope"} {
				for _, typ := range types {
					name := fmt.Sprintf("seed%d/%s/list %q/%s", seed, ctx.Principal, parent, typ)
					var got []*erm.Entity
					err := twice(name, "ListAssets", true, func() (err error) {
						got, err = w.svc.ListAssets(ctx, parent, typ)
						return err
					})
					if err != nil {
						// A container that is gone, or that the principal may
						// not use: the paged shell must refuse alike.
						if _, perr := w.svc.ListAssetsPage(ctx, parent, typ, 3, ""); perr == nil || perr.Error() != err.Error() {
							t.Fatalf("%s: unpaged failed with %v, paged with %v", name, err, perr)
						}
						continue
					}
					want := idsOf(t, childWalk(t, w.svc, ctx, parent, 1, Filter{Type: typ}))
					if !slices.Equal(idsOf(t, got), want) {
						t.Fatalf("%s: unpaged returned %d assets, child walk %d", name, len(got), len(want))
					}
					if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Name < got[j].Name }) {
						t.Fatalf("%s: unpaged listing not in name order", name)
					}
					for _, size := range []int{1, 3, 100} {
						paged, _ := pagedList(t, w.svc, ctx, parent, typ, size)
						if !slices.Equal(idsOf(t, paged), want) {
							t.Fatalf("%s: pages of %d returned %d assets, child walk %d", name, size, len(paged), len(want))
						}
					}
				}
			}
			for _, schema := range []string{"-", "", "s0", "s1", "s3"} {
				for _, typ := range []erm.SecurableType{"", erm.TypeTable, erm.TypeView, erm.TypeSchema} {
					for _, prefix := range []string{"", "t", "TA"} {
						for _, tag := range [][2]string{{}, {"pii"}, {"pii", "high"}, {"pii", "low"}} {
							for _, soft := range []bool{false, true} {
								f := Filter{CatalogName: "lake", SchemaName: schema, Type: typ, NamePrefix: prefix, TagKey: tag[0], TagValue: tag[1], IncludeSoft: soft}
								if schema == "-" { // no scope: the tag plan, or the entity scan
									f.CatalogName, f.SchemaName = "", ""
								}
								name := fmt.Sprintf("seed%d/%s/query %+v", seed, ctx.Principal, f)
								var got []*erm.Entity
								err := twice(name, "QueryAssets", !nameIndexed(f), func() (err error) {
									got, err = w.svc.QueryAssets(ctx, f)
									return err
								})
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								want := idsOf(t, queryOracle(t, w.svc, ctx, f))
								if !slices.Equal(idsOf(t, got), want) {
									t.Fatalf("%s: unpaged returned %d assets, child walk %d", name, len(got), len(want))
								}
								if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].FullName < got[j].FullName }) {
									t.Fatalf("%s: unpaged query not in full-name order", name)
								}
								if len(got) > 1 {
									lf := f
									lf.Limit = len(got) - 1
									head, err := w.svc.QueryAssets(ctx, lf)
									if err != nil || len(head) != lf.Limit {
										t.Fatalf("%s: limit %d returned %d assets, %v", name, lf.Limit, len(head), err)
									}
									for i, e := range head {
										if e.FullName != got[i].FullName {
											t.Fatalf("%s: limit %d kept %s at %d, the full result has %s there", name, lf.Limit, e.FullName, i, got[i].FullName)
										}
									}
								}
								for _, size := range []int{2, 100} {
									pf := f
									pf.MaxResults = size
									paged, _ := pagedQuery(t, w.svc, ctx, pf)
									if !slices.Equal(idsOf(t, paged), want) {
										t.Fatalf("%s: pages of %d returned %d assets, child walk %d", name, size, len(paged), len(want))
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestNamePlanIncludesSoftDeleted is the regression test for the planner
// bug: soft deletion frees the name key, so the name index cannot answer a
// query that asks for soft-deleted assets.
func TestNamePlanIncludesSoftDeleted(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	for _, n := range []string{"fact_a", "fact_b", "fact_c"} {
		if _, err := svc.CreateTable(admin, "sales.raw", n, TableSpec{Columns: cols("a")}, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.DeleteAsset(admin, "sales.raw.fact_b", false); err != nil {
		t.Fatal(err)
	}
	for _, schema := range []string{"raw", ""} {
		f := Filter{CatalogName: "sales", SchemaName: schema, Type: erm.TypeTable, NamePrefix: "fact_", IncludeSoft: true}
		want, err := svc.QueryAssets(admin, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 3 {
			t.Fatalf("schema %q: unpaged query returned %d assets, want 3 (one soft-deleted)", schema, len(want))
		}
		f.MaxResults = 2
		got, _ := pagedQuery(t, svc, admin, f)
		if !slices.Equal(idsOf(t, got), idsOf(t, want)) {
			t.Fatalf("schema %q: paged query returned %v, unpaged %v", schema, namesOf(got), namesOf(want))
		}
	}
}

// TestCatalogPlanTokensDoNotCross: a continuation must select the plan that
// minted its token — the cursor's inner key is a child key under one plan
// and a name key under the other.
func TestCatalogPlanTokensDoNotCross(t *testing.T) {
	w := buildPlanWorld(t, 1)
	child := Filter{CatalogName: "lake", Type: erm.TypeTable, MaxResults: 1}
	byName := Filter{CatalogName: "lake", Type: erm.TypeTable, NamePrefix: "t", MaxResults: 1}
	tokens := map[string]string{}
	for plan, f := range map[string]Filter{"cat": child, "catname": byName} {
		if got := queryPlan(f); got != plan {
			t.Fatalf("plan %q, want %q", got, plan)
		}
		p, err := w.svc.QueryAssetsPage(w.admin, f)
		if err != nil || p.NextPageToken == "" {
			t.Fatalf("%s: first page: token %q, err %v", plan, p.NextPageToken, err)
		}
		tokens[plan] = p.NextPageToken
	}
	child.PageToken, byName.PageToken = tokens["catname"], tokens["cat"]
	for _, f := range []Filter{child, byName} {
		if _, err := w.svc.QueryAssetsPage(w.admin, f); !errors.Is(err, ErrInvalidArgument) {
			t.Fatalf("plan %s accepted the other plan's token: %v", queryPlan(f), err)
		}
	}
}

// TestCatalogNameWalkStableUnderWriters walks the catalog-wide name plan
// while writers create, rename-by-recreate and drop matching tables: the
// cursor pins the first page's snapshot, so the walk returns exactly the
// population of that moment. Run under -race by `make race`.
func TestCatalogNameWalkStableUnderWriters(t *testing.T) {
	w := buildPlanWorld(t, 2)
	f := Filter{CatalogName: "lake", Type: erm.TypeTable, NamePrefix: "t", MaxResults: 3}
	before, err := w.svc.QueryAssets(w.admin, f)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.svc.QueryAssetsPage(w.admin, f) // pins the snapshot
	if err != nil || p.NextPageToken == "" {
		t.Fatalf("first page: token %q, err %v", p.NextPageToken, err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for wi, schema := range []string{"lake.s0", "lake.s2"} {
		wg.Add(1)
		go func(wi int, schema string) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("t_new_%d_%d", wi, i)
				if _, err := w.svc.CreateTable(w.admin, schema, name, TableSpec{Columns: cols("a")}, ""); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := w.svc.DeleteAsset(w.admin, schema+"."+name, false); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(wi, schema)
	}
	// Drop a table of the pinned population mid-walk, too.
	victim := before[len(before)-1].FullName
	got := append([]*erm.Entity{}, p.Assets...)
	for f.PageToken = p.NextPageToken; f.PageToken != ""; f.PageToken = p.NextPageToken {
		if victim != "" {
			if err := w.svc.DeleteAsset(w.admin, victim, false); err != nil {
				t.Fatal(err)
			}
			victim = ""
		}
		if p, err = w.svc.QueryAssetsPage(w.admin, f); err != nil {
			t.Fatal(err)
		}
		got = append(got, p.Assets...)
	}
	close(stop)
	wg.Wait()
	if !slices.Equal(idsOf(t, got), idsOf(t, before)) {
		t.Fatalf("walk under writers returned %d assets, the pinned snapshot had %d", len(got), len(before))
	}
}

// TestUnpagedReadsOneVersion: an unpaged call walks every range of its plan
// on the one view it opened. A writer creates a table in schema a, then its
// twin in schema b, over and over; at any single version a holds as many
// tables as b or one more, and a catalog-wide query that read its schemas at
// different versions would say otherwise. Run under -race by `make race`.
func TestUnpagedReadsOneVersion(t *testing.T) {
	svc, admin := testService(t)
	if _, err := svc.CreateCatalog(admin, "lake", ""); err != nil {
		t.Fatal(err)
	}
	for _, schema := range []string{"a", "b"} {
		if _, err := svc.CreateSchema(admin, "lake", schema, ""); err != nil {
			t.Fatal(err)
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-done }() // the writer does not outlive a failed test
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			for _, schema := range []string{"lake.a", "lake.b"} {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := svc.CreateTable(admin, schema, fmt.Sprintf("t%d", i), TableSpec{Columns: cols("a")}, ""); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for n, writing := 0, true; writing; n++ {
		select {
		case <-done:
			writing = false // one last query, of the finished population
		default:
		}
		out, err := svc.QueryAssets(admin, Filter{CatalogName: "lake", Type: erm.TypeTable})
		if err != nil {
			t.Fatal(err)
		}
		a, b := 0, 0
		for _, e := range out {
			if strings.HasPrefix(e.FullName, "lake.a.") {
				a++
			} else {
				b++
			}
		}
		if a != b && a != b+1 {
			t.Fatalf("query %d saw %d tables in a and %d in b: no version of the metastore holds that", n, a, b)
		}
	}
}
