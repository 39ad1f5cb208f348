package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"unitycatalog/internal/cache"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// multiNode builds n plain services over one database, each with its own
// cache, authorization snapshots and event bus, all serving ms1 with the
// namespace c.s.t in it. Nothing connects them but the database: no bus
// wiring, no Sync, no sleep. It is the whole of what multi-node serving is.
func multiNode(t *testing.T, n int) (*store.DB, []*Service, Ctx) {
	t.Helper()
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cloud := cloudsim.New()
	nodes := make([]*Service, n)
	for i := range nodes {
		if nodes[i], err = New(Config{DB: db, Cloud: cloud}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			_, err = nodes[i].CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1")
		} else {
			_, err = nodes[i].OpenMetastore("ms1")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	admin := Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
	if _, err := nodes[0].CreateCatalog(admin, "c", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].CreateSchema(admin, "c", "s", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].CreateTable(admin, "c.s", "t", TableSpec{Columns: cols("x")}, ""); err != nil {
		t.Fatal(err)
	}
	return db, nodes, admin
}

// TestMultiNodeWarmFreshness: a node with c.s.t cached serves another node's
// update of it at its very next request, by one selective reconcile at view
// open that keeps what the commit did not touch.
func TestMultiNodeWarmFreshness(t *testing.T) {
	_, nodes, admin := multiNode(t, 2)
	node1, node2 := nodes[0], nodes[1]
	if _, err := node2.GetAsset(admin, "c.s.t"); err != nil {
		t.Fatal(err)
	}
	warm := node2.Cache().EntryCount("ms1")
	if warm == 0 {
		t.Fatal("node 2 did not warm")
	}
	before := node2.CacheMetrics()

	comment := "updated on node 1"
	if _, err := node1.UpdateAsset(admin, "c.s.t", UpdateRequest{Comment: &comment}); err != nil {
		t.Fatal(err)
	}
	e, err := node2.GetAsset(admin, "c.s.t")
	if err != nil {
		t.Fatal(err)
	}
	if e.Comment != comment {
		t.Fatalf("stale read on warm node 2: comment = %q", e.Comment)
	}
	after := node2.CacheMetrics()
	if sel, full := after.SelectiveReconciles-before.SelectiveReconciles, after.FullReconciles-before.FullReconciles; sel != 1 || full != 0 {
		t.Fatalf("node 2 caught up by %d selective and %d full reconciles, want 1 and 0", sel, full)
	}
	if n := node2.Cache().EntryCount("ms1"); n == 0 {
		t.Fatalf("node 2's cache was emptied (%d entries before) by a one-row commit", warm)
	}
}

// TestMultiNodeAuthorization: a grant or revoke committed on one node decides
// a non-admin principal's next request on another, warm node, whose compiled
// snapshot follows the change log over commits the node did not make.
func TestMultiNodeAuthorization(t *testing.T) {
	_, nodes, admin := multiNode(t, 2)
	node1, node2 := nodes[0], nodes[1]
	reader := Ctx{Principal: "reader", Metastore: "ms1"}
	if err := node1.Grant(admin, "c", "reader", privilege.UseCatalog); err != nil {
		t.Fatal(err)
	}
	if err := node1.Grant(admin, "c.s", "reader", privilege.UseSchema); err != nil {
		t.Fatal(err)
	}
	// Warm node 2's metadata cache and reader's snapshot on a denial.
	if _, err := node2.GetAsset(reader, "c.s.t"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("reader without SELECT: %v, want permission denied", err)
	}
	builds := node2.AuthzMetrics().Builds

	if err := node1.Grant(admin, "c.s.t", "reader", privilege.Select); err != nil {
		t.Fatal(err)
	}
	if _, err := node2.GetAsset(reader, "c.s.t"); err != nil {
		t.Fatalf("node 2 after node 1's grant: %v", err)
	}
	if err := node1.Revoke(admin, "c.s.t", "reader", privilege.Select); err != nil {
		t.Fatal(err)
	}
	if _, err := node2.GetAsset(reader, "c.s.t"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("node 2 after node 1's revoke: %v, want permission denied", err)
	}

	if m := node2.AuthzMetrics(); m.Builds != builds || m.Patches != 2 {
		t.Fatalf("reader's snapshot on node 2 should have been patched twice and never recompiled: %+v", m)
	}
	if m := node2.CacheMetrics(); m.FullReconciles != 0 {
		t.Fatalf("node 2 evicted in full: %+v", m)
	}
}

// multiNodeRuns numbers the runs of the differential within one process, so
// that -count=N walks N different sequences, each reproducible.
var multiNodeRuns atomic.Int64

// TestMultiNodeDifferential holds three nodes to the store's current
// snapshot: after each of a seeded sequence of creates, deletes, undeletes,
// comment and owner edits, grants, revokes and tag writes, each on a random
// node, every node answers GetAsset, ListAssets and Tags for the admin and for
// a principal living on those grants exactly as a node that caches nothing —
// every read from the database, every authorization snapshot compiled from
// scratch — answers them.
func TestMultiNodeDifferential(t *testing.T) {
	seed := multiNodeRuns.Add(1)
	db, nodes, admin := multiNode(t, 3)
	oracle, err := New(Config{DB: db, CacheOpts: cache.Options{Disabled: true}, AuthzSnapshotTTL: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.OpenMetastore("ms1"); err != nil {
		t.Fatal(err)
	}
	reader := Ctx{Principal: "reader", Metastore: "ms1"}
	if err := nodes[0].Grant(admin, "c", "reader", privilege.UseCatalog); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Grant(admin, "c.s", "reader", privilege.UseSchema); err != nil {
		t.Fatal(err)
	}
	// reader starts out allowed on t and denied on t1.
	if err := nodes[1].Grant(admin, "c.s.t", "reader", privilege.Select); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[2].CreateTable(admin, "c.s", "t1", TableSpec{Columns: cols("x")}, ""); err != nil {
		t.Fatal(err)
	}

	tables := []string{"t", "t1", "t2", "t3", "t4", "t5"}
	answers := func(svc *Service) []string {
		var out []string
		add := func(what string, v any, err error) {
			if err != nil {
				out = append(out, what+": "+err.Error())
				return
			}
			b, _ := json.Marshal(v)
			out = append(out, what+": "+string(b))
		}
		for _, ctx := range []Ctx{admin, reader} {
			who := string(ctx.Principal)
			for _, name := range tables {
				e, err := svc.GetAsset(ctx, "c.s."+name)
				add(who+" get "+name, e, err)
				tags, err := svc.Tags(ctx, "c.s."+name)
				add(who+" tags "+name, tags, err)
			}
			list, err := svc.ListAssets(ctx, "c.s", erm.TypeTable)
			add(who+" list", list, err)
		}
		return out
	}

	var allowed, denied int
	compare := func(stage string) {
		t.Helper()
		want := answers(oracle)
		for i, n := range nodes {
			got := answers(n)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("seed %d, %s: node %d answers\n  %s\nthe store's current snapshot says\n  %s", seed, stage, i+1, got[j], want[j])
				}
			}
		}
		for _, w := range want {
			switch {
			case !strings.HasPrefix(w, "reader get"), strings.Contains(w, ErrNotFound.Error()):
			case strings.Contains(w, ErrPermissionDenied.Error()):
				denied++
			default:
				allowed++
			}
		}
	}
	compare("setup")
	if allowed == 0 || denied == 0 {
		t.Fatalf("after setup reader is allowed on %d tables and denied on %d, want both", allowed, denied)
	}

	rng := rand.New(rand.NewSource(seed))
	deleted := map[string]ids.ID{}
	owners := []privilege.Principal{"admin", "reader", "steward"}
	for step := 0; step < 80; step++ {
		node := nodes[rng.Intn(len(nodes))]
		name := tables[rng.Intn(len(tables))]
		full := "c.s." + name
		target := full // grants land on the table or, one time in four, its schema
		if rng.Intn(4) == 0 {
			target = "c.s"
		}
		// An operation the catalog refuses (a create of a live name, a revoke
		// of nothing) commits nothing; the nodes must agree on that too.
		var op string
		switch rng.Intn(10) {
		case 0, 1:
			op = "create " + name
			_, _ = node.CreateTable(admin, "c.s", name, TableSpec{Columns: cols("x")}, "")
		case 2:
			op = "delete " + name
			if e, err := node.GetAsset(admin, full); err == nil && node.DeleteAsset(admin, full, false) == nil {
				deleted[name] = e.ID
			}
		case 3:
			op = "undelete " + name
			if id, ok := deleted[name]; ok {
				_, _ = node.Undelete(admin, id)
				delete(deleted, name)
			}
		case 4:
			op = "comment on " + name
			comment := fmt.Sprintf("c%d", step)
			_, _ = node.UpdateAsset(admin, full, UpdateRequest{Comment: &comment})
		case 5:
			owner := owners[rng.Intn(len(owners))]
			op = fmt.Sprintf("owner of %s to %s", name, owner)
			_, _ = node.UpdateAsset(admin, full, UpdateRequest{Owner: &owner})
		case 6, 7:
			priv := []privilege.Privilege{privilege.Select, privilege.UseSchema, privilege.Modify}[rng.Intn(3)]
			op = fmt.Sprintf("grant %s on %s", priv, target)
			_ = node.Grant(admin, target, "reader", priv)
		case 8:
			priv := []privilege.Privilege{privilege.Select, privilege.UseSchema, privilege.Modify}[rng.Intn(3)]
			op = fmt.Sprintf("revoke %s on %s", priv, target)
			_ = node.Revoke(admin, target, "reader", priv)
		case 9:
			op = "tag " + name
			if rng.Intn(3) == 0 {
				_ = node.UnsetTag(admin, full, "", "tier")
			} else {
				_ = node.SetTag(admin, full, "", "tier", fmt.Sprint(step))
			}
		}
		compare(fmt.Sprintf("step %d (%s)", step, op))
	}
	for i, n := range nodes {
		if m := n.CacheMetrics(); m.SelectiveReconciles == 0 || m.FullReconciles != 0 || m.Hits == 0 {
			t.Fatalf("seed %d: node %d never reconciled selectively, evicted in full, or served nothing from cache: %+v", seed, i+1, m)
		}
		if m := n.AuthzMetrics(); m.Patches == 0 {
			t.Fatalf("seed %d: node %d never moved a snapshot along the change log: %+v", seed, i+1, m)
		}
		// Every request above was answered from entities the node's cache
		// shares between requests; none of them may have written to one.
		assertSharedPristine(t, n, "ms1", fmt.Sprintf("seed %d, node %d after the sequence", seed, i+1))
	}
}

// TestTwoServiceNodesShareOneMetastore exercises the paper's non-exclusive
// metastore ownership: two service nodes (each with its own cache and trie)
// over the same database must stay correct under interleaved writes —
// optimistic version checks detect the other node's commits and reconcile.
func TestTwoServiceNodesShareOneMetastore(t *testing.T) {
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cloud := cloudsim.New()

	node1, _ := New(Config{DB: db, Cloud: cloud})
	if _, err := node1.CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1"); err != nil {
		t.Fatal(err)
	}
	node2, _ := New(Config{DB: db, Cloud: cloud})
	if _, err := node2.OpenMetastore("ms1"); err != nil {
		t.Fatal(err)
	}
	admin := Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}

	// Interleaved writes from both nodes.
	if _, err := node1.CreateCatalog(admin, "c", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := node2.CreateSchema(admin, "c", "s1", ""); err != nil {
		t.Fatalf("node2 write after node1: %v", err)
	}
	if _, err := node1.CreateSchema(admin, "c", "s2", ""); err != nil {
		t.Fatalf("node1 write after node2: %v", err)
	}
	t1, err := node2.CreateTable(admin, "c.s1", "t", TableSpec{Columns: cols("x")}, "")
	if err != nil {
		t.Fatal(err)
	}
	// Both nodes see everything (reads reconcile on version mismatch).
	for i, node := range []*Service{node1, node2} {
		got, err := node.GetAsset(admin, "c.s1.t")
		if err != nil || got.ID != t1.ID {
			t.Fatalf("node%d read: %v", i+1, err)
		}
		schemas, err := node.ListAssets(admin, "c", erm.TypeSchema)
		if err != nil || len(schemas) != 2 {
			t.Fatalf("node%d schemas = %v, %v", i+1, schemas, err)
		}
	}
	// One-asset-per-path holds across nodes: node1 cannot take a path
	// node2 registered, even though node1's trie never saw the insert.
	if _, err := node1.CreateTable(admin, "c.s2", "clash", TableSpec{Columns: cols("x")}, t1.StoragePath); !errors.Is(err, ErrPathOverlap) {
		t.Fatalf("cross-node path overlap: %v", err)
	}
	// Path-based vending works from the node that did not create the asset
	// (authoritative prefix-walk fallback covers a stale trie).
	if _, err := node1.TempCredentialForPath(admin, t1.StoragePath+"/f", cloudsim.AccessRead); err != nil {
		t.Fatalf("cross-node path vend: %v", err)
	}
}

// TestConcurrentWritersTwoNodes hammers both nodes with concurrent creates
// and verifies no duplicates and no lost writes.
func TestConcurrentWritersTwoNodes(t *testing.T) {
	db, _ := store.Open(store.Options{})
	defer db.Close()
	cloud := cloudsim.New()
	node1, _ := New(Config{DB: db, Cloud: cloud})
	node1.CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1")
	node2, _ := New(Config{DB: db, Cloud: cloud})
	node2.OpenMetastore("ms1")
	admin := Ctx{Principal: "admin", Metastore: "ms1"}
	node1.CreateCatalog(admin, "c", "")
	node1.CreateSchema(admin, "c", "s", "")

	const each = 30
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for n, node := range []*Service{node1, node2} {
		wg.Add(1)
		go func(n int, node *Service) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := node.CreateTable(admin, "c.s", fmt.Sprintf("n%d_t%03d", n, i), TableSpec{Columns: cols("x")}, ""); err != nil {
					errs[n] = err
					return
				}
			}
		}(n, node)
	}
	wg.Wait()
	for n, err := range errs {
		if err != nil {
			t.Fatalf("node%d: %v", n+1, err)
		}
	}
	// No lost writes: a node with no prior cache state sees every create.
	node3, _ := New(Config{DB: db, Cloud: cloud})
	node3.OpenMetastore("ms1")
	tables, err := node3.ListAssets(admin, "c.s", erm.TypeTable)
	if err != nil || len(tables) != 2*each {
		t.Fatalf("tables = %d, %v", len(tables), err)
	}
	// Nor does a warm one whose last operation predates node2's last writes:
	// its next view opens at the database's current version.
	tables, err = node1.ListAssets(admin, "c.s", erm.TypeTable)
	if err != nil || len(tables) != 2*each {
		t.Fatalf("node1 tables = %d, %v", len(tables), err)
	}
}

// TestQuickOneAssetPerPathInvariant property-tests the one-asset-per-path
// invariant under random create/delete sequences: at every step, no two
// live assets have overlapping storage paths, and every accepted create was
// genuinely non-overlapping.
func TestQuickOneAssetPerPathInvariant(t *testing.T) {
	segs := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		db, _ := store.Open(store.Options{})
		defer db.Close()
		svc, _ := New(Config{DB: db})
		svc.CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1")
		admin := Ctx{Principal: "admin", Metastore: "ms1"}
		svc.CreateCatalog(admin, "c", "")
		svc.CreateSchema(admin, "c", "s", "")

		rng := rand.New(rand.NewSource(seed))
		live := map[string]string{} // table name -> path
		for i := 0; i < 40; i++ {
			if rng.Float64() < 0.3 && len(live) > 0 {
				// Delete a random live asset.
				for name := range live {
					if err := svc.DeleteAsset(admin, "c.s."+name, false); err != nil {
						return false
					}
					delete(live, name)
					break
				}
				continue
			}
			depth := rng.Intn(3) + 1
			path := "s3://bkt"
			for d := 0; d < depth; d++ {
				path += "/" + segs[rng.Intn(len(segs))]
			}
			name := fmt.Sprintf("t%03d", i)
			_, err := svc.CreateTable(admin, "c.s", name, TableSpec{Columns: cols("x")}, path)
			overlaps := false
			for _, p := range live {
				if p == path || hasPrefixSeg(path, p) || hasPrefixSeg(p, path) {
					overlaps = true
					break
				}
			}
			switch {
			case err == nil && overlaps:
				return false // accepted an overlapping path
			case err == nil:
				live[name] = path
			case errors.Is(err, ErrPathOverlap) && !overlaps:
				return false // rejected a non-overlapping path
			case errors.Is(err, ErrPathOverlap):
				// correctly rejected
			default:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func hasPrefixSeg(longer, shorter string) bool {
	return len(longer) > len(shorter) && longer[:len(shorter)] == shorter && longer[len(shorter)] == '/'
}
