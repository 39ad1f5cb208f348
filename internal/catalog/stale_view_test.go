package catalog

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"unitycatalog/internal/audit"
	"unitycatalog/internal/cache"
	"unitycatalog/internal/clock"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// These tests hold a write to the rule that what it depends on is checked in
// its transaction, not on the view it authorized against: another node may
// commit between the two. The seam is a clock whose first reading after arm
// runs another node's write; every write reads its clock (or its audit log's)
// after its view and before its commit.

// hookClock is a clock whose first reading after arm runs the armed function
// before it answers.
type hookClock struct {
	clock.Clock
	hook atomic.Pointer[func()]
}

func newHookClock(base clock.Clock) *hookClock { return &hookClock{Clock: base} }

func (c *hookClock) Now() time.Time {
	if f := c.hook.Swap(nil); f != nil {
		(*f)()
	}
	return c.Clock.Now()
}

func (c *hookClock) arm(f func()) { c.hook.Store(&f) }

// joinNode builds a service from cfg over db and opens ms1 on it.
func joinNode(t *testing.T, db *store.DB, cfg Config) *Service {
	t.Helper()
	cfg.DB = db
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenMetastore("ms1"); err != nil {
		t.Fatal(err)
	}
	return s
}

// storedEntity reads id at the store's current version.
func storedEntity(t *testing.T, db *store.DB, id ids.ID) *erm.Entity {
	t.Helper()
	snap, err := db.Snapshot("ms1")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	e, ok := erm.GetEntity(snap, id)
	if !ok {
		t.Fatalf("entity %s is not in the store", id.Short())
	}
	return e
}

// must fails the test on err; a hook runs on the writer's goroutine, so it
// reports with Errorf.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Error(err)
	}
}

// TestRenameCreateRace: a rename and a create in the renamed container, on
// two nodes, each checked on a view taken before the other committed. One of
// them must fail, whichever commits second.
func TestRenameCreateRace(t *testing.T) {
	t.Run("create commits first", func(t *testing.T) {
		db, nodes, admin := multiNode(t, 1)
		a, clk := nodes[0], newHookClock(clock.Real{})
		b := joinNode(t, db, Config{Clock: clk})
		if _, err := a.CreateSchema(admin, "c", "e", ""); err != nil {
			t.Fatal(err)
		}
		clk.arm(func() {
			_, err := a.CreateTable(admin, "c.e", "t", TableSpec{Columns: cols("x")}, "")
			must(t, err)
		})
		if _, err := b.RenameAsset(admin, "c.e", "e2"); !errors.Is(err, ErrNotEmpty) {
			t.Fatalf("rename of a schema given a table after its view: %v, want not empty", err)
		}
		if _, err := a.GetAsset(admin, "c.e.t"); err != nil {
			t.Fatalf("the table is not where it was created: %v", err)
		}
	})
	t.Run("rename commits first", func(t *testing.T) {
		db, nodes, admin := multiNode(t, 1)
		a, clk := nodes[0], newHookClock(clock.Real{})
		b := joinNode(t, db, Config{Clock: clk})
		if _, err := a.CreateSchema(admin, "c", "f", ""); err != nil {
			t.Fatal(err)
		}
		clk.arm(func() {
			_, err := a.RenameAsset(admin, "c.f", "f2")
			must(t, err)
		})
		if _, err := b.CreateTable(admin, "c.f", "t", TableSpec{Columns: cols("x")}, ""); !errors.Is(err, ErrNotFound) {
			t.Fatalf("create under a schema renamed after its view: %v, want not found", err)
		}
		if list, err := a.ListAssets(admin, "c.f2", erm.TypeTable); err != nil || len(list) != 0 {
			t.Fatalf("renamed schema holds %d tables (%v), want none", len(list), err)
		}
	})
}

// TestConcurrentUpdatesBothSurvive: node A changes an entity after node B's
// view and before B's commit; B's write applies to the entity as its
// transaction reads it, so A's change survives B's.
func TestConcurrentUpdatesBothSurvive(t *testing.T) {
	setX := func(t *testing.T, a *Service, admin Ctx, full string) func() {
		return func() {
			_, err := a.UpdateAsset(admin, full, UpdateRequest{Properties: map[string]string{"x": "1"}})
			must(t, err)
		}
	}
	hasX := func(t *testing.T, e *erm.Entity) {
		t.Helper()
		if e.Properties["x"] != "1" {
			t.Fatalf("%s lost the other node's property: %v", e.FullName, e.Properties)
		}
	}
	t.Run("update", func(t *testing.T) {
		db, nodes, admin := multiNode(t, 1)
		a, clk := nodes[0], newHookClock(clock.Real{})
		b := joinNode(t, db, Config{Clock: clk})
		clk.arm(setX(t, a, admin, "c.s.t"))
		e, err := b.UpdateAsset(admin, "c.s.t", UpdateRequest{Properties: map[string]string{"y": "2"}})
		if err != nil {
			t.Fatal(err)
		}
		got := storedEntity(t, db, e.ID)
		hasX(t, got)
		if got.Properties["y"] != "2" {
			t.Fatalf("own property missing: %v", got.Properties)
		}
	})
	t.Run("rename", func(t *testing.T) {
		db, nodes, admin := multiNode(t, 1)
		a, clk := nodes[0], newHookClock(clock.Real{})
		b := joinNode(t, db, Config{Clock: clk})
		clk.arm(setX(t, a, admin, "c.s.t"))
		e, err := b.RenameAsset(admin, "c.s.t", "t2")
		if err != nil {
			t.Fatal(err)
		}
		got := storedEntity(t, db, e.ID)
		hasX(t, got)
		if got.FullName != "c.s.t2" {
			t.Fatalf("renamed to %q, want c.s.t2", got.FullName)
		}
	})
	t.Run("workspace bindings", func(t *testing.T) {
		db, nodes, admin := multiNode(t, 1)
		a, clk := nodes[0], newHookClock(clock.Real{})
		b := joinNode(t, db, Config{Clock: clk})
		cat, err := a.GetAsset(admin, "c")
		if err != nil {
			t.Fatal(err)
		}
		clk.arm(setX(t, a, admin, "c"))
		if err := b.SetWorkspaceBindings(admin, "c", []string{"w1"}); err != nil {
			t.Fatal(err)
		}
		got := storedEntity(t, db, cat.ID)
		hasX(t, got)
		var spec CatalogSpec
		if err := got.DecodeSpec(&spec); err != nil || len(spec.WorkspaceBindings) != 1 || spec.WorkspaceBindings[0] != "w1" {
			t.Fatalf("bindings = %v (%v), want [w1]", spec.WorkspaceBindings, err)
		}
	})
	t.Run("undelete", func(t *testing.T) {
		db, nodes, admin := multiNode(t, 1)
		a, clk := nodes[0], newHookClock(clock.Real{})
		b := joinNode(t, db, Config{Clock: clk})
		tbl, err := a.GetAsset(admin, "c.s.t")
		if err != nil {
			t.Fatal(err)
		}
		if err := a.DeleteAsset(admin, "c.s.t", false); err != nil {
			t.Fatal(err)
		}
		// Restored, changed and deleted again: still deleted, but not as B's
		// view has it.
		clk.arm(func() {
			_, err := a.Undelete(admin, tbl.ID)
			must(t, err)
			setX(t, a, admin, "c.s.t")()
			must(t, a.DeleteAsset(admin, "c.s.t", false))
		})
		if _, err := b.Undelete(admin, tbl.ID); err != nil {
			t.Fatal(err)
		}
		got := storedEntity(t, db, tbl.ID)
		hasX(t, got)
		if got.State != erm.StateActive {
			t.Fatalf("state = %s, want active", got.State)
		}
	})
}

// TestNoWriteFromStaleView: a grant, a tag or a purge decided on a view that
// another node's commit has since made wrong commits nothing.
func TestNoWriteFromStaleView(t *testing.T) {
	deleted := func(t *testing.T, write func(b *Service, admin Ctx) error) {
		db, nodes, admin := multiNode(t, 1)
		a, clk := nodes[0], newHookClock(clock.Real{})
		// Grants and tags read no service clock before they commit; their
		// ownership check's audit record is the seam.
		log := audit.NewLog(0)
		log.SetClock(clk)
		b := joinNode(t, db, Config{Audit: log})
		tbl, err := a.GetAsset(admin, "c.s.t")
		if err != nil {
			t.Fatal(err)
		}
		before, _ := db.Version("ms1")
		clk.arm(func() { must(t, a.DeleteAsset(admin, "c.s.t", false)) })
		if err := write(b, admin); !errors.Is(err, ErrNotFound) {
			t.Fatalf("write to a table deleted after its view: %v, want not found", err)
		}
		if after, _ := db.Version("ms1"); after != before+1 {
			t.Fatalf("version %d -> %d: want the delete's commit only", before, after)
		}
		snap, err := db.Snapshot("ms1")
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		if kvs := snap.Scan(erm.TableGrant, erm.GrantPrefix(tbl.ID)); len(kvs) != 0 {
			t.Fatalf("grants on the deleted table: %v", kvs)
		}
		if kvs := snap.Scan(erm.TableTag, erm.TagPrefix(tbl.ID)); len(kvs) != 0 {
			t.Fatalf("tags on the deleted table: %v", kvs)
		}
	}
	t.Run("grant", func(t *testing.T) {
		deleted(t, func(b *Service, admin Ctx) error { return b.Grant(admin, "c.s.t", "reader", privilege.Select) })
	})
	t.Run("tag", func(t *testing.T) {
		deleted(t, func(b *Service, admin Ctx) error { return b.SetTag(admin, "c.s.t", "", "pii", "yes") })
	})
	t.Run("gc", func(t *testing.T) {
		db, nodes, admin := multiNode(t, 1)
		a := nodes[0]
		// A month on, everything deleted now is past the week's retention.
		// With its cache off, GC's view is the store's snapshot at open.
		clk := newHookClock(clock.NewFake(time.Now().Add(30 * 24 * time.Hour)))
		b := joinNode(t, db, Config{Clock: clk, CacheOpts: cache.Options{Disabled: true}})
		tbl, err := a.GetAsset(admin, "c.s.t")
		if err != nil {
			t.Fatal(err)
		}
		if err := a.DeleteAsset(admin, "c.s.t", false); err != nil {
			t.Fatal(err)
		}
		clk.arm(func() {
			_, err := a.Undelete(admin, tbl.ID)
			must(t, err)
		})
		res, err := b.RunGC("ms1")
		if err != nil {
			t.Fatal(err)
		}
		if res.PurgedEntities != 0 {
			t.Fatalf("GC purged %d entities, want none", res.PurgedEntities)
		}
		if _, err := a.GetAsset(admin, "c.s.t"); err != nil {
			t.Fatalf("undeleted table after GC: %v", err)
		}
	})
}
