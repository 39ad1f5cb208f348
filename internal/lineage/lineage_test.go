package lineage

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

func setup(t *testing.T) (*catalog.Service, *Service, catalog.Ctx) {
	t.Helper()
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := catalog.New(catalog.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	svc.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1")
	return svc, New(svc), catalog.Ctx{Principal: "admin", Metastore: "ms1"}
}

func mkTable(t *testing.T, svc *catalog.Service, admin catalog.Ctx, schema, name string) ids.ID {
	t.Helper()
	e, err := svc.CreateTable(admin, schema, name, catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "x", Type: "BIGINT"}}}, "")
	if err != nil {
		t.Fatal(err)
	}
	return e.ID
}

func mustSubmit(t *testing.T, lin *Service, ctx catalog.Ctx, edges ...Edge) {
	t.Helper()
	if err := lin.Submit(ctx, edges); err != nil {
		t.Fatal(err)
	}
}

func TestLineageGraphTraversal(t *testing.T) {
	svc, lin, admin := setup(t)
	svc.CreateCatalog(admin, "c", "")
	svc.CreateSchema(admin, "c", "s", "")
	a := mkTable(t, svc, admin, "c.s", "a")
	b := mkTable(t, svc, admin, "c.s", "b")
	c := mkTable(t, svc, admin, "c.s", "c")
	d := mkTable(t, svc, admin, "c.s", "d")

	// a -> b -> c, a -> d
	mustSubmit(t, lin, admin,
		Edge{Upstream: a, Downstream: b, JobName: "etl1"},
		Edge{Upstream: b, Downstream: c, JobName: "etl2"},
		Edge{Upstream: a, Downstream: d, JobName: "etl3"},
	)
	// A resubmitted edge is the one already recorded: nothing commits, so
	// the version and with it every ETag stand still.
	before, _ := svc.MetastoreVersion("ms1")
	mustSubmit(t, lin, admin, Edge{Upstream: a, Downstream: b, JobName: "etl1", QueryText: "again"})
	if after, _ := svc.MetastoreVersion("ms1"); after != before {
		t.Fatalf("resubmitting an edge moved the version %d -> %d", before, after)
	}

	down, err := lin.Downstream(admin, a, 0)
	if err != nil || len(down) != 3 {
		t.Fatalf("downstream = %v, %v", down, err)
	}
	if down[0].Depth != 1 || down[2].Depth != 2 || down[2].Asset != c || down[2].Via.JobName != "etl2" {
		t.Fatalf("depths = %+v", down)
	}
	if down[0].Via.Principal != "admin" || down[0].Via.QueryText != "" || down[0].Via.Time.IsZero() {
		t.Fatalf("edge = %+v", down[0].Via)
	}
	up, err := lin.Upstream(admin, c, 0)
	if err != nil || len(up) != 2 || up[0].Asset != b || up[1].Asset != a || up[1].Via.JobName != "etl1" {
		t.Fatalf("upstream = %+v, %v", up, err)
	}
	// Depth limit.
	down, _ = lin.Downstream(admin, a, 1)
	if len(down) != 2 {
		t.Fatalf("depth-1 downstream = %v", down)
	}
	if down, err := lin.Downstream(admin, c, 1); err != nil || len(down) != 0 {
		t.Fatalf("c has downstream %v, %v", down, err)
	}
}

func TestLineageAuthorizationFiltering(t *testing.T) {
	svc, lin, admin := setup(t)
	svc.CreateCatalog(admin, "c", "")
	svc.CreateSchema(admin, "c", "s", "")
	a := mkTable(t, svc, admin, "c.s", "a")
	b := mkTable(t, svc, admin, "c.s", "b")
	secret := mkTable(t, svc, admin, "c.s", "secret")
	mustSubmit(t, lin, admin, Edge{Upstream: a, Downstream: b}, Edge{Upstream: a, Downstream: secret})
	// alice can see a and b but not secret.
	svc.Grant(admin, "c", "alice", privilege.UseCatalog)
	svc.Grant(admin, "c.s", "alice", privilege.UseSchema)
	svc.Grant(admin, "c.s.a", "alice", privilege.Select)
	svc.Grant(admin, "c.s.b", "alice", privilege.Select)
	alice := catalog.Ctx{Principal: "alice", Metastore: "ms1"}
	down, err := lin.Downstream(alice, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(down) != 1 || down[0].Asset != b {
		t.Fatalf("alice sees %v", down)
	}
	// An asset alice cannot see is one that does not exist, to walk from or
	// to link.
	if _, err := lin.Upstream(alice, secret, 0); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("alice walks from secret: %v", err)
	}
	if err := lin.Submit(alice, []Edge{{Upstream: secret, Downstream: b}}); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("alice links secret: %v", err)
	}
}

// TestDeleteEventRetiresNodes: the commit that deletes an asset deletes its
// edges, so a reader at the version before it sees them and one at its
// version does not.
func TestDeleteEventRetiresNodes(t *testing.T) {
	svc, lin, admin := setup(t)
	svc.CreateCatalog(admin, "c", "")
	svc.CreateSchema(admin, "c", "s", "")
	a := mkTable(t, svc, admin, "c.s", "a")
	b := mkTable(t, svc, admin, "c.s", "b")
	mustSubmit(t, lin, admin, Edge{Upstream: a, Downstream: b})

	before, err := svc.DB().Snapshot("ms1")
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()
	if err := svc.DeleteAsset(admin, "c.s.b", false); err != nil {
		t.Fatal(err)
	}
	v, _ := svc.MetastoreVersion("ms1")
	if before.Version != v-1 {
		t.Fatalf("the delete committed at %d, the reader before it is at %d", v, before.Version)
	}
	if got := erm.Edges(before, a, true); len(got) != 1 || got[0].Downstream != b {
		t.Fatalf("at version %d, a's edges are %+v", before.Version, got)
	}
	at, err := svc.DB().SnapshotAt("ms1", v)
	if err != nil {
		t.Fatal(err)
	}
	defer at.Close()
	if n := len(at.Scan(erm.TableLineage, "")) + len(at.Scan(erm.TableLineageUp, "")); n != 0 {
		t.Fatalf("at version %d, %d lineage rows remain", v, n)
	}
	down, err := lin.Downstream(admin, a, 0)
	if err != nil || len(down) != 0 {
		t.Fatalf("downstream after delete = %v, %v", down, err)
	}
}

// TestLineageSeenByEveryNode: an edge submitted on one node is a row of the
// database, which a second node over it reads at its next request.
func TestLineageSeenByEveryNode(t *testing.T) {
	svc, lin, admin := setup(t)
	svc.CreateCatalog(admin, "c", "")
	svc.CreateSchema(admin, "c", "s", "")
	a := mkTable(t, svc, admin, "c.s", "a")
	b := mkTable(t, svc, admin, "c.s", "b")
	node2, err := catalog.New(catalog.Config{DB: svc.DB()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node2.OpenMetastore("ms1"); err != nil {
		t.Fatal(err)
	}
	lin2 := New(node2)
	if down, err := lin2.Downstream(admin, a, 0); err != nil || len(down) != 0 {
		t.Fatalf("node 2 before the submit: %v, %v", down, err)
	}
	mustSubmit(t, lin, admin, Edge{Upstream: a, Downstream: b, JobName: "etl"})
	if down, err := lin2.Downstream(admin, a, 0); err != nil || len(down) != 1 || down[0].Asset != b || down[0].Via.JobName != "etl" {
		t.Fatalf("node 2 after the submit: %+v, %v", down, err)
	}
}

// TestGCPurgeOfOrphanDropsEdges: RunGC's purge of a live entity whose parent
// record is gone deletes its edges with it.
func TestGCPurgeOfOrphanDropsEdges(t *testing.T) {
	svc, lin, admin := setup(t)
	svc.CreateCatalog(admin, "c", "")
	schema, _ := svc.CreateSchema(admin, "c", "s", "")
	svc.CreateSchema(admin, "c", "kept", "")
	a := mkTable(t, svc, admin, "c.kept", "a")
	orphan := mkTable(t, svc, admin, "c.s", "orphan")
	mustSubmit(t, lin, admin, Edge{Upstream: a, Downstream: orphan}, Edge{Upstream: orphan, Downstream: a, JobName: "back"})
	if _, err := svc.DB().Update("ms1", func(tx *store.Tx) error {
		tx.Delete(erm.TableEntity, string(schema.ID))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	res, err := svc.RunGC("ms1")
	if err != nil || res.PurgedEntities != 1 {
		t.Fatalf("gc = %+v, %v", res, err)
	}
	snap, err := svc.DB().Snapshot("ms1")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if n := len(snap.Scan(erm.TableLineage, "")) + len(snap.Scan(erm.TableLineageUp, "")); n != 0 {
		t.Fatalf("%d lineage rows outlived the purge", n)
	}
}

// TestCrossMetastoreEdgeRejected: an edge whose ends are in two metastores is
// refused, since a walk reads the request's metastore only and could never
// return it.
func TestCrossMetastoreEdgeRejected(t *testing.T) {
	svc, lin, admin := setup(t)
	svc.CreateMetastore("ms2", "other", "r", "admin", "s3://lake/ms2")
	admin2 := catalog.Ctx{Principal: "admin", Metastore: "ms2"}
	for _, ctx := range []catalog.Ctx{admin, admin2} {
		svc.CreateCatalog(ctx, "c", "")
		svc.CreateSchema(ctx, "c", "s", "")
	}
	here := mkTable(t, svc, admin, "c.s", "here")
	there := mkTable(t, svc, admin2, "c.s", "there")
	for _, e := range []Edge{{Upstream: here, Downstream: there}, {Upstream: there, Downstream: here}} {
		if err := lin.Submit(admin, []Edge{e}); !errors.Is(err, catalog.ErrInvalidArgument) {
			t.Fatalf("cross-metastore edge %s -> %s: %v", e.Upstream.Short(), e.Downstream.Short(), err)
		}
	}
	if err := lin.Submit(admin, []Edge{{Upstream: here, Downstream: ids.New()}}); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("edge to no entity: %v", err)
	}
}

// checkEdges is the store's lineage invariant at r's version: every edge has
// both its rows, and both its ends are live entities. It returns the number
// of edges.
func checkEdges(r erm.Reader) (int, error) {
	live := func(id string) bool {
		e, ok := erm.GetEntity(r, ids.ID(id))
		return ok && e.State != erm.StateSoftDeleted
	}
	for _, tables := range [][2]string{{erm.TableLineageUp, erm.TableLineage}, {erm.TableLineage, erm.TableLineageUp}} {
		for _, kv := range r.Scan(tables[0], "") {
			f := strings.SplitN(kv.Key, "\x00", 3)
			if _, ok := r.Get(tables[1], f[1]+"\x00"+f[0]+"\x00"+f[2]); !ok {
				return 0, fmt.Errorf("%s row %q has no %s row", tables[0], kv.Key, tables[1])
			}
			if !live(f[0]) || !live(f[1]) {
				return 0, fmt.Errorf("edge %q outlived an end", kv.Key)
			}
		}
	}
	return len(r.Scan(erm.TableLineage, "")), nil
}

// TestNoEdgeOutlivesItsAssets holds the store to its lineage invariant
// (checkEdges) at every version a commit makes, read from the commit hook.
// The test deletes fifty tables of its own while a writer creates, links,
// deletes and restores tables of its chain, and a submitter keeps linking the
// test's tables — on the test's node, or on a second node over the same
// database, where the node's write lock does not order a submit against a
// delete and the submit's transaction must.
func TestNoEdgeOutlivesItsAssets(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			db, err := store.Open(store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			var commits atomic.Uint64
			var failed atomic.Bool
			db.AddCommitHook(func(msID string, v uint64, _ []any) {
				commits.Add(1)
				snap, err := db.SnapshotAt(msID, v)
				if err == nil {
					_, err = checkEdges(snap)
					snap.Close()
				}
				if err != nil && failed.CompareAndSwap(false, true) {
					t.Errorf("version %d: %v", v, err) // the first; later versions may inherit it
				}
			})
			svc, err := catalog.New(catalog.Config{DB: db})
			if err != nil {
				t.Fatal(err)
			}
			svc.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1")
			admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
			svc.CreateCatalog(admin, "c", "")
			svc.CreateSchema(admin, "c", "s", "")
			other := svc
			if nodes == 2 {
				if other, err = catalog.New(catalog.Config{DB: db}); err != nil {
					t.Fatal(err)
				}
				if _, err := other.OpenMetastore("ms1"); err != nil {
					t.Fatal(err)
				}
			}
			lin, lin2 := New(svc), New(other)

			const n = 50
			doomed := make([]ids.ID, n)
			for i := range doomed {
				doomed[i] = mkTable(t, svc, admin, "c.s", fmt.Sprintf("doomed%d", i))
			}
			keep := mkTable(t, svc, admin, "c.s", "keep")
			for i, id := range doomed {
				mustSubmit(t, lin, admin, Edge{Upstream: keep, Downstream: id}, Edge{Upstream: id, Downstream: doomed[(i+1)%n]})
			}

			var wg sync.WaitGroup
			wg.Add(2)
			// The writer: its own chain of tables, each linked to the one
			// before and to keep; every third is deleted, every sixth
			// restored (which does not bring its edges back).
			go func() {
				defer wg.Done()
				prev := keep
				for i := 0; i < 30; i++ {
					e, err := other.CreateTable(admin, "c.s", fmt.Sprintf("chain%d", i), catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "x", Type: "BIGINT"}}}, "")
					if err == nil {
						err = lin2.Submit(admin, []Edge{{Upstream: prev, Downstream: e.ID}, {Upstream: keep, Downstream: e.ID, JobName: "fanout"}})
					}
					if err == nil && i%3 == 2 {
						if err = other.DeleteAsset(admin, e.FullName, false); err == nil && i%6 == 5 {
							_, err = other.Undelete(admin, e.ID)
						}
					} else if err == nil {
						prev = e.ID
					}
					if err != nil {
						t.Errorf("writer: %v", err)
						return
					}
				}
			}()
			// The submitter: links the tables being deleted, until a submit
			// finds an end gone, which is the answer it must get from then on.
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					err := lin2.Submit(admin, []Edge{{Upstream: doomed[i], Downstream: doomed[(i+n/2)%n], JobName: "late"}})
					if err != nil && !errors.Is(err, catalog.ErrNotFound) {
						t.Errorf("submitter: %v", err)
						return
					}
				}
			}()
			for i := 0; i < n; i++ {
				if err := svc.DeleteAsset(admin, fmt.Sprintf("c.s.doomed%d", i), false); err != nil {
					t.Error(err)
					break
				}
			}
			wg.Wait()

			snap, err := db.Snapshot("ms1")
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			if commits.Load() != snap.Version {
				t.Fatalf("%d versions checked of %d", commits.Load(), snap.Version)
			}
			edges, err := checkEdges(snap)
			if err != nil || edges == 0 {
				t.Fatalf("%d edges at the end (%v): the writer's live chain should have some", edges, err)
			}
			for _, id := range doomed {
				if len(erm.Edges(snap, id, true))+len(erm.Edges(snap, id, false)) != 0 {
					t.Fatalf("deleted table %s still has lineage", id.Short())
				}
			}
		})
	}
}
