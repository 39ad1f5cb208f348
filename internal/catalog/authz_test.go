package catalog

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unitycatalog/internal/clock"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// TestAuthzSnapshotInvalidation proves the cross-version snapshot cache
// never serves stale decisions through the service API: a revoke reaches the
// reader's cached snapshot through the change log, which costs it the
// revoked table's memo entries and nothing else, and the next check denies.
func TestAuthzSnapshotInvalidation(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	reader := Ctx{Principal: "reader", Metastore: "ms1"}

	for _, g := range []struct {
		full string
		priv privilege.Privilege
	}{
		{"sales", privilege.UseCatalog},
		{"sales.raw", privilege.UseSchema},
		{"sales.raw.orders", privilege.Select},
	} {
		if err := svc.Grant(admin, g.full, "reader", g.priv); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.GetAsset(reader, "sales.raw.orders"); err != nil {
		t.Fatalf("granted reader denied: %v", err)
	}
	// Repeat reads hit the cached snapshot.
	before := svc.AuthzMetrics()
	if _, err := svc.GetAsset(reader, "sales.raw.orders"); err != nil {
		t.Fatal(err)
	}
	if after := svc.AuthzMetrics(); after.Hits <= before.Hits {
		t.Fatalf("no snapshot-cache hits: before %+v after %+v", before, after)
	}

	before = svc.AuthzMetrics()
	if err := svc.Revoke(admin, "sales.raw.orders", "reader", privilege.Select); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.GetAsset(reader, "sales.raw.orders"); err == nil {
		t.Fatal("stale snapshot allowed access after revoke")
	}
	m := svc.AuthzMetrics()
	if m.Patches == before.Patches || m.MemoDropped == before.MemoDropped {
		t.Fatalf("revoke did not patch the reader's snapshot: before %+v after %+v", before, m)
	}
	if m.Invalidations != before.Invalidations || m.Builds != before.Builds {
		t.Fatalf("a revoke on a table discarded or recompiled a snapshot: before %+v after %+v", before, m)
	}

	// A commit that writes neither an entity row nor a grant costs the
	// snapshots nothing; a grant on a container the reader's memo inherits
	// from costs the reader's whole memo.
	svc.GetAsset(admin, "sales.raw.orders") // the admin's snapshot absorbs the revoke too
	before = svc.AuthzMetrics()
	if err := svc.SetTag(admin, "sales.raw.orders", "", "tier", "gold"); err != nil {
		t.Fatal(err)
	}
	svc.GetAsset(reader, "sales.raw.orders")
	if m = svc.AuthzMetrics(); m.MemoDropped != before.MemoDropped || m.Invalidations != before.Invalidations {
		t.Fatalf("a tag write dropped memo entries: before %+v after %+v", before, m)
	}
	if err := svc.Grant(admin, "sales.raw", "reader", privilege.Select); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.GetAsset(reader, "sales.raw.orders"); err != nil {
		t.Fatalf("schema-level SELECT did not reach the table: %v", err)
	}
	if m = svc.AuthzMetrics(); m.Invalidations == before.Invalidations {
		t.Fatalf("a schema grant left the reader's memo in place: before %+v after %+v", before, m)
	}
}

// requireSameDecisions holds got to want on everything an Authorizer
// answers — Check, CheckNoGate, CheckMany, IsOwner, EffectivePrivileges,
// EffectiveSet and EffectiveSetOf — for every (privilege, securable). rows
// reads the securables as got's view has them; each is handed to got before
// anything else asks about it, the way a listing meets an entity got has lost
// to a commit or never seen.
func requireSameDecisions(t *testing.T, stage string, p privilege.Principal, got, want privilege.Authorizer, rows privilege.HierarchyResolver, secs []ids.ID, privs []privilege.Privilege) {
	t.Helper()
	for _, sec := range secs {
		if row, ok := rows.Securable(sec); ok {
			gs, gok := got.EffectiveSetOf(row)
			if ws, wok := want.EffectiveSet(sec); gs != ws || gok != wok {
				t.Fatalf("%s: EffectiveSetOf(%s, %s): got %b/%v, reference %b/%v", stage, p, sec.Short(), gs, gok, ws, wok)
			}
		}
		for _, priv := range privs {
			if g, w := got.Check(priv, sec), want.Check(priv, sec); g != w {
				t.Fatalf("%s: Check(%s, %s, %s): got %+v, reference %+v", stage, p, priv, sec.Short(), g, w)
			}
			if g, w := got.CheckNoGate(priv, sec), want.CheckNoGate(priv, sec); g != w {
				t.Fatalf("%s: CheckNoGate(%s, %s, %s): got %+v, reference %+v", stage, p, priv, sec.Short(), g, w)
			}
		}
		if g, w := got.IsOwner(sec), want.IsOwner(sec); g != w {
			t.Fatalf("%s: IsOwner(%s, %s): got %v, reference %v", stage, p, sec.Short(), g, w)
		}
		if g, w := got.EffectivePrivileges(sec), want.EffectivePrivileges(sec); !slices.Equal(g, w) {
			t.Fatalf("%s: EffectivePrivileges(%s, %s): got %v, reference %v", stage, p, sec.Short(), g, w)
		}
		gs, gok := got.EffectiveSet(sec)
		if ws, wok := want.EffectiveSet(sec); gs != ws || gok != wok {
			t.Fatalf("%s: EffectiveSet(%s, %s): got %b/%v, reference %b/%v", stage, p, sec.Short(), gs, gok, ws, wok)
		}
	}
	for _, priv := range privs {
		g, w := got.CheckMany(priv, secs), want.CheckMany(priv, secs)
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: CheckMany(%s, %s)[%d]: got %+v, reference %+v", stage, p, priv, i, g[i], w[i])
			}
		}
	}
}

// onceReaders reads each securable and each grant list from the view once.
// The reference engine asks for the same few thousands of times per commit,
// and the view decodes them every time.
type onceReaders struct {
	view   erm.Reader
	secs   map[ids.ID]privilege.Securable
	grants map[ids.ID][]privilege.Grant
}

func newOnceReaders(view erm.Reader) *onceReaders {
	return &onceReaders{view: view, secs: map[ids.ID]privilege.Securable{}, grants: map[ids.ID][]privilege.Grant{}}
}

func (o *onceReaders) Securable(id ids.ID) (privilege.Securable, bool) {
	sec, ok := o.secs[id]
	if !ok {
		sec, _ = viewReader{o.view}.Securable(id) // the zero Securable has no ID
		o.secs[id] = sec
	}
	return sec, sec.ID != ids.Nil
}

func (o *onceReaders) GrantsOn(id ids.ID) []privilege.Grant {
	gs, ok := o.grants[id]
	if !ok {
		gs = viewReader{o.view}.GrantsOn(id)
		o.grants[id] = gs
	}
	return gs
}

// oracleRuns numbers the runs of the oracle test within one process, so
// that -count=N walks N different commit sequences, each reproducible.
var oracleRuns atomic.Int64

// TestAuthorizerMatchesReferenceEngine holds the service's one authorization
// path to its oracle, across versions. It starts from a namespace with group
// grants, ownership, USE gates (one principal holds SELECT without them), a
// grant and a revoke, and then commits a seeded random sequence of 500
// writes against one service, whose snapshot cache therefore follows the
// change log the whole way: grants and revokes on tables and containers,
// owner changes, comment edits, tags set and unset, creates, soft deletes,
// undeletes, purges, and the creation of an entity under an id that every
// snapshot has already looked up and memoized as missing. After every commit
// every decision of the service's authorizer over a request view equals the
// reference privilege.Engine's over the same view and that of a snapshot
// compiled from nothing on that view. Most principals look after every
// commit; two look rarely, one of them at a single table, so that snapshots
// are also patched across many commits and discarded for being smaller than
// the gap.
func TestAuthorizerMatchesReferenceEngine(t *testing.T) {
	seed := oracleRuns.Add(1)
	m := runAuthorizerOracle(t, seed, store.Options{}, 500)
	if m.Patches == 0 || m.MemoDropped == 0 || m.Invalidations == 0 {
		t.Fatalf("seed %d: the sequence never patched or never discarded a snapshot: %+v", seed, m)
	}
	if m.Builds != 9 {
		t.Fatalf("seed %d: %d snapshot compilations over 500 commits, want one for each of the 9 principals: %+v", seed, m.Builds, m)
	}
}

// TestAuthorizerOracleTrimmedChangeLog is the same sequence over a store
// whose change log holds 4 changes, fewer than one create writes. Snapshots
// that look rarely find the log trimmed and start over; those that look
// after every commit patch from it when the commit fits, and must be told it
// is trimmed when the commit's first changes — the entity row — have been
// pushed out by its last.
func TestAuthorizerOracleTrimmedChangeLog(t *testing.T) {
	if m := runAuthorizerOracle(t, 1, store.Options{ChangeLogSize: 4}, 200); m.Invalidations == 0 || m.Patches == 0 {
		t.Fatalf("the trimmed log caused no invalidation, or nothing was patched: %+v", m)
	}
}

// runAuthorizerOracle runs the scenario and then commits random writes, as
// TestAuthorizerMatchesReferenceEngine describes, and returns the service's
// snapshot-cache counters for the caller's non-vacuity assertions.
func runAuthorizerOracle(t *testing.T, seed int64, opts store.Options, commits int) privilege.SnapshotCacheMetrics {
	db, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	dir := NewDirectory(0)
	clk := clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	// The snapshot TTL is out of the way: a slow -race run must not turn
	// the sequence into one of recompilations.
	svc, err := New(Config{DB: db, Groups: dir, Clock: clk, SoftDeleteRetention: time.Hour, AuthzSnapshotTTL: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateMetastore("ms1", "main", "us-east-1", "admin", "s3://metastore-root/ms1"); err != nil {
		t.Fatal(err)
	}
	admin := Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
	seedNamespace(t, svc, admin)
	if _, err := svc.CreateTable(admin, "sales.raw", "refunds", TableSpec{Columns: cols("id")}, ""); err != nil {
		t.Fatal(err)
	}
	steward := privilege.Principal("steward")
	if _, err := svc.UpdateAsset(admin, "sales.raw.refunds", UpdateRequest{Owner: &steward}); err != nil {
		t.Fatal(err)
	}
	dir.AddMember("analysts", "dana")
	for _, g := range []struct {
		full string
		who  privilege.Principal
		priv privilege.Privilege
	}{
		{"sales", "reader", privilege.UseCatalog},
		{"sales.raw", "reader", privilege.UseSchema},
		{"sales.raw", "reader", privilege.Select},
		{"sales.raw.orders", "reader", privilege.Modify}, // revoked below
		{"sales", "analysts", privilege.UseCatalog},
		{"sales.raw", "analysts", privilege.UseSchema},
		{"sales.raw.orders", "analysts", privilege.Select},
		{"sales.raw.orders", "gateless", privilege.Select}, // no USE grants
		{"sales", "builder", privilege.AllPrivileges},
	} {
		if err := svc.Grant(admin, g.full, g.who, g.priv); err != nil {
			t.Fatal(err)
		}
	}

	ms, err := svc.meta("ms1")
	if err != nil {
		t.Fatal(err)
	}
	// secs is the ids decisions are asked about: these and the ten tables
	// created last, dead or alive, so purged ids are looked up while missing.
	unborn := ids.New()
	secs := []ids.ID{ms.info.EntityID, ids.ID("no-such-securable"), unborn}
	for _, full := range []string{"sales", "sales.raw", "sales.raw.orders", "sales.raw.refunds"} {
		e, err := svc.GetAsset(admin, full)
		if err != nil {
			t.Fatal(err)
		}
		secs = append(secs, e.ID)
	}
	schemaID, orders, fixedSecs := secs[4], secs[5], len(secs)
	privs := []privilege.Privilege{
		privilege.Select, privilege.Modify, privilege.UseCatalog, privilege.UseSchema,
		privilege.CreateTable, privilege.CreateSchema, privilege.Manage, privilege.AllPrivileges,
	}
	// every is how many commits pass between two looks of the principal.
	principals := []struct {
		p     privilege.Principal
		every int
	}{
		{"admin", 1}, {"steward", 1}, {"reader", 1}, {"dana", 1}, {"gateless", 1}, {"builder", 1}, {"stranger", 1},
		{"auditor", 7}, {"glance", 40},
	}

	step := 0
	compare := func(stage string) {
		t.Helper()
		stage = fmt.Sprintf("seed %d, commit %d (%s)", seed, step, stage)
		view, err := svc.view(admin)
		if err != nil {
			t.Fatal(err)
		}
		defer view.Close()
		once := newOnceReaders(view)
		oracle := privilege.NewEngine(once, once, dir)
		for _, pr := range principals {
			if step%pr.every != 0 {
				continue
			}
			over := secs
			if pr.p == "glance" {
				over = []ids.ID{orders} // a memo smaller than the gap it looks across
			}
			got := svc.authorizer(Ctx{Principal: pr.p, Metastore: "ms1"}, view)
			requireSameDecisions(t, stage, pr.p, got, oracle.For(pr.p), once, over, privs)
			fresh := privilege.NewSnapshot(pr.p, dir).Bind(view.Version(), viewReader{view}, viewReader{view})
			requireSameDecisions(t, stage+", against a fresh snapshot", pr.p, got, &fresh, once, over, privs)
		}
	}
	compare("granted")
	if err := svc.Revoke(admin, "sales.raw.orders", "reader", privilege.Modify); err != nil {
		t.Fatal(err)
	}
	compare("revoked")
	// From here on three privileges stand for the eight: the memo holds
	// privilege sets, which EffectiveSet compares whole, so the others only
	// repeat the walk — and the test runs twenty times under -race.
	privs = []privilege.Privilege{privilege.Select, privilege.UseSchema, privilege.Manage}

	// The scenario is not vacuous: the gates, the group and the revoke each
	// decide something.
	func() {
		view, err := svc.view(admin)
		if err != nil {
			t.Fatal(err)
		}
		defer view.Close()
		for _, c := range []struct {
			who   privilege.Principal
			priv  privilege.Privilege
			allow bool
		}{
			{"reader", privilege.Select, true},
			{"reader", privilege.Modify, false}, // revoked
			{"dana", privilege.Select, true},    // through the group
			{"gateless", privilege.Select, false},
			{"stranger", privilege.Select, false},
		} {
			if d := svc.authorizer(Ctx{Principal: c.who, Metastore: "ms1"}, view).Check(c.priv, orders); d.Allowed != c.allow {
				t.Fatalf("%s %s on orders: allowed=%v, want %v (%s)", c.who, c.priv, d.Allowed, c.allow, d.Reason)
			}
		}
		if !svc.authorizer(Ctx{Principal: "gateless", Metastore: "ms1"}, view).CheckNoGate(privilege.Select, orders).Allowed {
			t.Fatal("gateless holds SELECT on orders when gates are not applied")
		}
	}()

	// The random sequence. An operation that the catalog refuses (a revoke
	// of a grant already gone, an undelete whose name was taken) commits
	// nothing and is not counted.
	rng := rand.New(rand.NewSource(seed))
	grantees := []privilege.Principal{"reader", "analysts", "gateless", "builder", "stranger", "auditor", "glance"}
	owners := []privilege.Principal{"admin", "steward", "builder", "analysts"}
	tables := []string{"sales.raw.orders", "sales.raw.refunds"}
	var deleted []ids.ID
	type grant struct {
		full string
		who  privilege.Principal
		priv privilege.Privilege
	}
	var grants []grant
	pick := func(n int) int { return rng.Intn(n) }
	target := func() (string, []privilege.Privilege) {
		switch pick(6) {
		case 0:
			return "sales", []privilege.Privilege{privilege.UseCatalog, privilege.Select, privilege.CreateSchema, privilege.Manage}
		case 1:
			return "sales.raw", []privilege.Privilege{privilege.UseSchema, privilege.Select, privilege.CreateTable, privilege.Manage}
		}
		return tables[pick(len(tables))], []privilege.Privilege{privilege.Select, privilege.Modify, privilege.Manage, privilege.AllPrivileges}
	}
	for created := 0; step < commits; {
		before, _ := svc.MetastoreVersion("ms1")
		var op string
		switch pick(12) {
		case 0, 1:
			full, ps := target()
			g := grant{full, grantees[pick(len(grantees))], ps[pick(len(ps))]}
			op = fmt.Sprintf("grant %s on %s to %s", g.priv, g.full, g.who)
			if svc.Grant(admin, g.full, g.who, g.priv) == nil {
				grants = append(grants, g)
			}
		case 2, 3:
			if len(grants) == 0 {
				continue
			}
			i := pick(len(grants))
			g := grants[i]
			grants = append(grants[:i], grants[i+1:]...)
			op = fmt.Sprintf("revoke %s on %s from %s", g.priv, g.full, g.who)
			_ = svc.Revoke(admin, g.full, g.who, g.priv)
		case 4:
			full, _ := target()
			owner := owners[pick(len(owners))]
			op = fmt.Sprintf("owner of %s to %s", full, owner)
			_, _ = svc.UpdateAsset(admin, full, UpdateRequest{Owner: &owner})
		case 5:
			full, _ := target()
			comment := fmt.Sprintf("c%d", step)
			op = "comment on " + full
			_, _ = svc.UpdateAsset(admin, full, UpdateRequest{Comment: &comment})
		case 6:
			full, _ := target()
			op = "tag " + full
			if pick(2) == 0 {
				_ = svc.SetTag(admin, full, "", "tier", fmt.Sprint(step))
			} else {
				_ = svc.UnsetTag(admin, full, "", "tier")
			}
		case 7:
			creator := admin
			if pick(2) == 0 {
				creator = Ctx{Principal: "builder", Metastore: "ms1"} // ALL PRIVILEGES on the catalog; becomes the owner
			}
			created++
			name := fmt.Sprintf("t%d", created)
			op = fmt.Sprintf("create %s as %s", name, creator.Principal)
			if e, err := svc.CreateTable(creator, "sales.raw", name, TableSpec{Columns: cols("id")}, ""); err == nil {
				tables = append(tables, e.FullName)
				if secs = append(secs, e.ID); len(secs) > fixedSecs+10 {
					secs = append(secs[:fixedSecs], secs[fixedSecs+1:]...) // ask about the ten newest
				}
			}
		case 8:
			if len(tables) <= 2 {
				continue
			}
			i := 2 + pick(len(tables)-2) // orders and refunds stay
			op = "delete " + tables[i]
			if e, err := svc.GetAsset(admin, tables[i]); err == nil && svc.DeleteAsset(admin, tables[i], false) == nil {
				deleted = append(deleted, e.ID)
				tables = append(tables[:i], tables[i+1:]...)
			}
		case 9:
			if len(deleted) == 0 {
				continue
			}
			i := pick(len(deleted))
			op = "undelete " + deleted[i].Short()
			if e, err := svc.Undelete(admin, deleted[i]); err == nil {
				tables = append(tables, e.FullName)
				deleted = append(deleted[:i], deleted[i+1:]...)
			}
		case 10:
			if len(deleted) == 0 {
				continue
			}
			op = "purge"
			clk.Advance(2 * time.Hour)
			if _, err := svc.RunGC("ms1"); err != nil {
				t.Fatal(err)
			}
			deleted = nil
		case 11:
			// An entity appears under an id every snapshot that looked has
			// memoized as missing (another node's create, seen first as a
			// dangling reference).
			if unborn == ids.Nil {
				continue
			}
			op = "create under a probed id"
			e := &erm.Entity{
				ID: unborn, Type: erm.TypeTable, Name: "probed", FullName: "sales.raw.probed", ParentID: schemaID,
				Owner: "steward", State: erm.StateActive, CreatedAt: clk.Now(), UpdatedAt: clk.Now(),
			}
			if _, err := svc.cache.Update("ms1", func(tx *store.Tx) error {
				return erm.PutEntity(tx, e)
			}); err != nil {
				t.Fatal(err)
			}
			tables = append(tables, e.FullName)
			unborn = ids.Nil
		}
		if after, _ := svc.MetastoreVersion("ms1"); after == before {
			continue
		}
		step++
		compare(op)
	}
	return svc.AuthzMetrics()
}

// TestAuthzListMatchesPerAssetChecks cross-checks the batched list filter
// against per-asset service checks for a mixed-visibility schema.
func TestAuthzListMatchesPerAssetChecks(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	for i := 0; i < 8; i++ {
		if _, err := svc.CreateTable(admin, "sales.raw", fmt.Sprintf("t%d", i), TableSpec{Columns: cols("id")}, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Grant(admin, "sales", "reader", privilege.UseCatalog); err != nil {
		t.Fatal(err)
	}
	if err := svc.Grant(admin, "sales.raw", "reader", privilege.UseSchema); err != nil {
		t.Fatal(err)
	}
	// Visibility on a strict subset of tables.
	for _, name := range []string{"t1", "t4", "t6"} {
		if err := svc.Grant(admin, "sales.raw."+name, "reader", privilege.Select); err != nil {
			t.Fatal(err)
		}
	}
	reader := Ctx{Principal: "reader", Metastore: "ms1"}
	listed, err := svc.ListAssets(reader, "sales.raw", erm.TypeTable)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	var idsList []ids.ID
	for _, e := range listed {
		got[e.Name] = true
		idsList = append(idsList, e.ID)
	}
	want := map[string]bool{"t1": true, "t4": true, "t6": true}
	if len(got) != len(want) {
		t.Fatalf("listed %v, want %v", got, want)
	}
	for name := range want {
		if !got[name] {
			t.Fatalf("listed %v, want %v", got, want)
		}
	}
	// AuthorizeBatch agrees with the listing.
	oks, err := svc.AuthorizeBatch(reader, idsList, privilege.Select)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range oks {
		if !ok {
			t.Fatalf("AuthorizeBatch denied listed asset %s", listed[i].FullName)
		}
	}
}

// TestAuthzConcurrentStress runs concurrent reads (list, get, batch) across
// several principals interleaved with grant/revoke writes that bump the
// metastore version. Run under -race via the Makefile race gate, it checks
// the snapshot cache and compiled engines for data races and ensures
// decisions keep flowing while snapshots are patched under them.
func TestAuthzConcurrentStress(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	for i := 0; i < 16; i++ {
		if _, err := svc.CreateTable(admin, "sales.raw", fmt.Sprintf("t%d", i), TableSpec{Columns: cols("id")}, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []privilege.Principal{"r0", "r1", "r2"} {
		if err := svc.Grant(admin, "sales", p, privilege.UseCatalog); err != nil {
			t.Fatal(err)
		}
		if err := svc.Grant(admin, "sales.raw", p, privilege.UseSchema); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := Ctx{Principal: privilege.Principal(fmt.Sprintf("r%d", w%3)), Metastore: "ms1"}
			for i := 0; i < 60; i++ {
				if _, err := svc.ListAssets(ctx, "sales.raw", erm.TypeTable); err != nil {
					t.Error(err)
					return
				}
				svc.GetAsset(ctx, "sales.raw.t3")
				svc.EffectivePrivileges(ctx, "sales.raw.t3")
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			tbl := fmt.Sprintf("sales.raw.t%d", i%16)
			p := privilege.Principal(fmt.Sprintf("r%d", i%3))
			if err := svc.Grant(admin, tbl, p, privilege.Select); err != nil {
				t.Error(err)
				return
			}
			if err := svc.Revoke(admin, tbl, p, privilege.Select); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	m := svc.AuthzMetrics()
	if m.Misses == 0 || m.Patches == 0 || m.MemoDropped == 0 {
		t.Fatalf("stress produced no snapshot churn: %+v", m)
	}
}

// TestPatchPassesPrunedNameRow: a reader's snapshot behind a window that holds
// a name row's change, whose source version has since been pruned, is patched
// along the window's entity and grant changes, not rebuilt. The snapshot holds
// nothing a name row feeds, so the authorizer neither derives that row nor
// fails on it.
func TestPatchPassesPrunedNameRow(t *testing.T) {
	db, err := store.Open(store.Options{MaxVersionsPerRecord: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := New(Config{DB: db, AuthzSnapshotTTL: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateMetastore("ms1", "main", "us-east-1", "admin", "s3://metastore-root/ms1"); err != nil {
		t.Fatal(err)
	}
	admin := Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
	seedNamespace(t, svc, admin)
	for on, priv := range map[string]privilege.Privilege{"sales": privilege.UseCatalog, "sales.raw": privilege.UseSchema, "sales.raw.orders": privilege.Select} {
		if err := svc.Grant(admin, on, "reader", priv); err != nil {
			t.Fatal(err)
		}
	}
	reader := Ctx{Principal: "reader", Metastore: "ms1"}
	if _, err := svc.GetAsset(reader, "sales.raw.orders"); err != nil {
		t.Fatal(err)
	}
	behind, err := svc.MetastoreVersion("ms1")
	if err != nil {
		t.Fatal(err)
	}
	// A create puts a name row live; two updates of its record prune the
	// version that row's change names.
	if _, err := svc.CreateTable(admin, "sales.raw", "late", TableSpec{Columns: cols("id")}, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		comment := fmt.Sprint("update ", i)
		if _, err := svc.UpdateAsset(admin, "sales.raw.late", UpdateRequest{Comment: &comment}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.ChangesSince("ms1", behind); err != store.ErrChangeLogTrimmed {
		t.Fatalf("the whole window reads with %v, want ErrChangeLogTrimmed: the name row's source version was not pruned", err)
	}
	before := svc.AuthzMetrics()
	if _, err := svc.GetAsset(reader, "sales.raw.orders"); err != nil {
		t.Fatal(err)
	}
	after := svc.AuthzMetrics()
	if after.Patches != before.Patches+1 || after.Invalidations != before.Invalidations || after.Builds != before.Builds {
		t.Fatalf("the reader's snapshot was not patched across the window: patches +%d, invalidations +%d, builds +%d",
			after.Patches-before.Patches, after.Invalidations-before.Invalidations, after.Builds-before.Builds)
	}
}

// TestTouchedSecurablesAllocs: a snapshot's advance over k changes hands its
// memo each securable a change wrote, a grant's by its securable, in one walk
// of the change log that allocates nothing, whatever k.
func TestTouchedSecurablesAllocs(t *testing.T) {
	svc, admin := testService(t)
	tbl := seedNamespace(t, svc, admin)
	from, err := svc.db.Version("ms1")
	if err != nil {
		t.Fatal(err)
	}
	want := map[ids.ID]bool{tbl.ID: true}
	for i := 0; i < 8; i++ {
		e, err := svc.CreateTable(admin, "sales.raw", fmt.Sprint("t", i), TableSpec{Columns: cols("id")}, "")
		if err != nil {
			t.Fatal(err)
		}
		want[e.ID] = true
	}
	if err := svc.Grant(admin, "sales.raw.orders", "reader", privilege.Select); err != nil {
		t.Fatal(err)
	}
	to, err := svc.db.Version("ms1")
	if err != nil {
		t.Fatal(err)
	}
	got := dropSet{}
	if !svc.touchedSecurables("ms1", from, to, got) {
		t.Fatal("the change log was trimmed")
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("touched %v, missing %s", got, id)
		}
	}
	allocs := testing.AllocsPerRun(100, func() { svc.touchedSecurables("ms1", from, to, got) })
	t.Logf("an authz snapshot's advance over %d securables: %.0f allocations", len(got), allocs)
	if allocs != 0 {
		t.Errorf("an advance over %d securables: %.0f allocations, want none", len(got), allocs)
	}
	if !svc.touchedSecurables("ms1", to, to, dropSet{}) {
		t.Error("an advance over no change failed")
	}
}

// dropSet is a privilege.Dropper that records what it is handed.
type dropSet map[ids.ID]bool

func (d dropSet) Drop(id ids.ID) bool { d[id] = true; return true }
