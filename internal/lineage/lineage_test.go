package lineage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/events"
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
	lin := New(svc)
	t.Cleanup(lin.Close)
	return svc, lin, catalog.Ctx{Principal: "admin", Metastore: "ms1"}
}

func mkTable(t *testing.T, svc *catalog.Service, admin catalog.Ctx, schema, name string) ids.ID {
	t.Helper()
	e, err := svc.CreateTable(admin, schema, name, catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "x", Type: "BIGINT"}}}, "")
	if err != nil {
		t.Fatal(err)
	}
	return e.ID
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
	lin.Submit([]Edge{
		{Upstream: a, Downstream: b, JobName: "etl1"},
		{Upstream: b, Downstream: c, JobName: "etl2"},
		{Upstream: a, Downstream: d, JobName: "etl3"},
	})
	// Duplicate submissions are deduplicated.
	lin.Submit([]Edge{{Upstream: a, Downstream: b, JobName: "etl1"}})
	if lin.EdgeCount() != 3 {
		t.Fatalf("edges = %d", lin.EdgeCount())
	}

	down, err := lin.Downstream(admin, a, 0)
	if err != nil || len(down) != 3 {
		t.Fatalf("downstream = %v, %v", down, err)
	}
	if down[0].Depth != 1 || down[2].Depth != 2 {
		t.Fatalf("depths = %+v", down)
	}
	up, err := lin.Upstream(admin, c, 0)
	if err != nil || len(up) != 2 {
		t.Fatalf("upstream = %v, %v", up, err)
	}
	// Depth limit.
	down, _ = lin.Downstream(admin, a, 1)
	if len(down) != 2 {
		t.Fatalf("depth-1 downstream = %v", down)
	}
	has, err := lin.HasDownstream(admin, a)
	if err != nil || !has {
		t.Fatalf("HasDownstream(a) = %v, %v", has, err)
	}
	if has, _ := lin.HasDownstream(admin, c); has {
		t.Fatal("c should have no downstream")
	}
}

func TestLineageAuthorizationFiltering(t *testing.T) {
	svc, lin, admin := setup(t)
	svc.CreateCatalog(admin, "c", "")
	svc.CreateSchema(admin, "c", "s", "")
	a := mkTable(t, svc, admin, "c.s", "a")
	b := mkTable(t, svc, admin, "c.s", "b")
	secret := mkTable(t, svc, admin, "c.s", "secret")
	lin.Submit([]Edge{
		{Upstream: a, Downstream: b},
		{Upstream: a, Downstream: secret},
	})
	// alice can see b but not secret.
	svc.Grant(admin, "c", "alice", privilege.UseCatalog)
	svc.Grant(admin, "c.s", "alice", privilege.UseSchema)
	svc.Grant(admin, "c.s.b", "alice", privilege.Select)
	alice := catalog.Ctx{Principal: "alice", Metastore: "ms1"}
	down, err := lin.Downstream(alice, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(down) != 1 || down[0].Asset != b {
		t.Fatalf("alice sees %v", down)
	}
}

func TestDeleteEventRetiresNodes(t *testing.T) {
	svc, lin, admin := setup(t)
	svc.CreateCatalog(admin, "c", "")
	svc.CreateSchema(admin, "c", "s", "")
	a := mkTable(t, svc, admin, "c.s", "a")
	b := mkTable(t, svc, admin, "c.s", "b")
	lin.Submit([]Edge{{Upstream: a, Downstream: b}})

	if err := svc.DeleteAsset(admin, "c.s.b", false); err != nil {
		t.Fatal(err)
	}
	lin.Sync() // event consumption is async
	if lin.EdgeCount() != 0 {
		t.Fatalf("edges after delete = %d", lin.EdgeCount())
	}
	down, _ := lin.Downstream(admin, a, 0)
	if len(down) != 0 {
		t.Fatalf("downstream after delete = %v", down)
	}
}

// TestNoEdgeOutlivesItsAssets: whatever the follower saw of it — every
// delete as an event, or only the resync after the ring overran it — once
// Sync returns no edge has an endpoint that is not a live entity. Tables are
// created, linked, deleted and restored by a concurrent writer while the
// test deletes a hundred of its own.
func TestNoEdgeOutlivesItsAssets(t *testing.T) {
	for _, tc := range []struct {
		name        string
		ring        int
		wantResyncs int64
	}{{"keeps up", 0, 0}, {"forced gap", 8, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := store.Open(store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			svc, err := catalog.New(catalog.Config{DB: db, Bus: events.NewBus(0, tc.ring)})
			if err != nil {
				t.Fatal(err)
			}
			svc.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1")
			admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
			svc.CreateCatalog(admin, "c", "")
			svc.CreateSchema(admin, "c", "s", "")

			// A lineage service wired the way New wires it, except that the
			// test can hold its follower inside handle.
			var holding atomic.Bool
			entered, gate := make(chan struct{}), make(chan struct{})
			lin := &Service{core: svc, down: map[ids.ID][]Edge{}, up: map[ids.ID][]Edge{}}
			lin.follower = svc.Bus().Follow("lineage", func(e events.Event) {
				if holding.CompareAndSwap(true, false) {
					entered <- struct{}{}
					<-gate
				}
				lin.handle(e)
			}, lin.prune)
			defer lin.Close()

			const n = 100
			doomed := make([]ids.ID, n)
			for i := range doomed {
				doomed[i] = mkTable(t, svc, admin, "c.s", fmt.Sprintf("doomed%d", i))
			}
			keep := mkTable(t, svc, admin, "c.s", "keep")
			for i, id := range doomed {
				lin.Submit([]Edge{{Upstream: keep, Downstream: id}, {Upstream: id, Downstream: doomed[(i+1)%n]}})
			}
			lin.Sync()
			base := lin.follower.Resyncs() // populating through a ring of 8 may have overrun it already
			if tc.ring > 0 {
				holding.Store(true)
			}
			if err := svc.DeleteAsset(admin, "c.s.doomed0", false); err != nil {
				t.Fatal(err)
			}
			if tc.ring > 0 {
				<-entered // the follower now sits on that delete while the ring wraps
			}

			// The concurrent writer: its own chain of tables, each linked to
			// the one before and to keep; every third is deleted, every
			// sixth restored (which does not bring its edges back).
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				prev := keep
				for i := 0; i < 60; i++ {
					e, err := svc.CreateTable(admin, "c.s", fmt.Sprintf("chain%d", i), catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "x", Type: "BIGINT"}}}, "")
					if err != nil {
						t.Errorf("writer: %v", err)
						return
					}
					lin.Submit([]Edge{{Upstream: prev, Downstream: e.ID}, {Upstream: keep, Downstream: e.ID, JobName: "fanout"}})
					if i%3 == 2 {
						if err := svc.DeleteAsset(admin, e.FullName, false); err != nil {
							t.Errorf("writer: %v", err)
							return
						}
						if i%6 == 5 {
							if _, err := svc.Undelete(admin, e.ID); err != nil {
								t.Errorf("writer: %v", err)
								return
							}
						}
						continue
					}
					prev = e.ID
				}
			}()
			for i := 1; i < n; i++ {
				if err := svc.DeleteAsset(admin, fmt.Sprintf("c.s.doomed%d", i), false); err != nil {
					t.Error(err)
					break
				}
			}
			wg.Wait()
			if tc.ring > 0 {
				gate <- struct{}{}
			}
			lin.Sync()

			if got := lin.follower.Resyncs() - base; got != tc.wantResyncs {
				t.Fatalf("%d resyncs, want %d", got, tc.wantResyncs)
			}
			snap, err := db.Snapshot("ms1")
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			live := func(id ids.ID) bool {
				e, ok := erm.GetEntity(snap, id)
				return ok && e.State != erm.StateSoftDeleted
			}
			edges := 0
			for _, adjacency := range []map[ids.ID][]Edge{lin.down, lin.up} {
				for _, es := range adjacency {
					for _, e := range es {
						edges++
						if !live(e.Upstream) || !live(e.Downstream) {
							t.Errorf("edge %s -> %s (%s) outlived an endpoint", e.Upstream.Short(), e.Downstream.Short(), e.JobName)
						}
					}
				}
			}
			if edges == 0 {
				t.Fatal("no edge survived: the writer's live chain should have")
			}
			for _, id := range doomed {
				if len(lin.down[id]) != 0 || len(lin.up[id]) != 0 {
					t.Fatalf("deleted table %s still has lineage", id.Short())
				}
			}
		})
	}
}
