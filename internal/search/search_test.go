package search

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/events"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// maxIndexBytesPerEntity bounds TestIndexRetainsOnlyWhatItKeeps: 1,125-1,129 B
// at the commit before the shared backing string (three runs), 1,122-1,125 B
// with it and the clone in indexEntity, 1,247 B with it and without the clone.
// Most of the figure is the metadata cache the rebuild reads through, the
// same on both sides.
const maxIndexBytesPerEntity = 1140

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
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	svc.CreateCatalog(admin, "sales", "revenue data")
	svc.CreateSchema(admin, "sales", "raw", "")
	svc.CreateTable(admin, "sales.raw", "orders", catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}, {Name: "ssn", Type: "STRING"}}}, "")
	svc.CreateTable(admin, "sales.raw", "customers", catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, "")
	s := New(svc)
	t.Cleanup(s.Close)
	return svc, s, admin
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !cond() {
		t.Fatal("condition not reached")
	}
}

func TestInitialIndexAndSearch(t *testing.T) {
	_, s, admin := setup(t)
	if s.DocCount() < 4 {
		t.Fatalf("docs = %d", s.DocCount())
	}
	res, err := s.Search(admin, "orders", 0)
	if err != nil || len(res) != 1 || res[0].FullName != "sales.raw.orders" {
		t.Fatalf("search = %v, %v", res, err)
	}
	// Multi-term AND.
	res, _ = s.Search(admin, "sales customers", 0)
	if len(res) != 1 || res[0].FullName != "sales.raw.customers" {
		t.Fatalf("multi-term = %v", res)
	}
	// Comment tokens match the catalog.
	res, _ = s.Search(admin, "revenue", 0)
	if len(res) != 1 || res[0].FullName != "sales" {
		t.Fatalf("comment search = %v", res)
	}
	if res, _ := s.Search(admin, "", 0); res != nil {
		t.Fatalf("empty query = %v", res)
	}
}

func TestEventDrivenIndexUpdates(t *testing.T) {
	svc, s, admin := setup(t)
	svc.CreateTable(admin, "sales.raw", "refunds", catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, "")
	waitFor(t, func() bool {
		res, _ := s.Search(admin, "refunds", 0)
		return len(res) == 1
	})
	// Deletion removes from the index.
	svc.DeleteAsset(admin, "sales.raw.refunds", false)
	waitFor(t, func() bool {
		res, _ := s.Search(admin, "refunds", 0)
		return len(res) == 0
	})
}

func TestTagSearch(t *testing.T) {
	svc, s, admin := setup(t)
	if err := svc.SetTag(admin, "sales.raw.orders", "ssn", "classification", "pii"); err != nil {
		t.Fatal(err)
	}
	// The paper's canonical discovery query: find all assets tagged PII.
	waitFor(t, func() bool {
		res, _ := s.Search(admin, "pii", 0)
		return len(res) == 1 && res[0].FullName == "sales.raw.orders"
	})
	// key:value search.
	res, _ := s.Search(admin, "classification:pii", 0)
	if len(res) != 1 {
		t.Fatalf("kv search = %v", res)
	}
}

func TestSearchAuthorizationFiltering(t *testing.T) {
	svc, s, admin := setup(t)
	svc.Grant(admin, "sales", "alice", privilege.UseCatalog)
	svc.Grant(admin, "sales.raw", "alice", privilege.UseSchema)
	svc.Grant(admin, "sales.raw.customers", "alice", privilege.Select)
	alice := catalog.Ctx{Principal: "alice", Metastore: "ms1"}
	res, err := s.Search(alice, "raw", 0)
	if err != nil {
		t.Fatal(err)
	}
	// alice sees the schema (usage) and customers, but not orders.
	for _, r := range res {
		if r.FullName == "sales.raw.orders" {
			t.Fatalf("alice sees %v", res)
		}
	}
	// Nobody principal sees nothing.
	res, _ = s.Search(catalog.Ctx{Principal: "nobody", Metastore: "ms1"}, "orders", 0)
	if len(res) != 0 {
		t.Fatalf("nobody sees %v", res)
	}
}

func TestTokenize(t *testing.T) {
	toks := Tokenize("Sales.raw.Order_Items (PII)")
	want := map[string]bool{"sales": true, "raw": true, "order": true, "items": true, "pii": true}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for _, tok := range toks {
		if !want[tok] {
			t.Fatalf("unexpected token %q", tok)
		}
	}
}

// TestOneReindexPerDropEpisode drives the follower by hand against a
// subscriber that is deliberately slow — nobody consumes while the publisher
// overflows its buffer. Dropped() is cumulative: the follower must rebuild
// once per rise, not on every event after the first loss.
func TestOneReindexPerDropEpisode(t *testing.T) {
	const buf = 8
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	bus := events.NewBus(buf, 0)
	svc, err := catalog.New(catalog.Config{DB: db, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	svc.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1")
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	svc.CreateCatalog(admin, "sales", "")
	svc.CreateSchema(admin, "sales", "raw", "")

	s := newService(svc) // subscribed, but no consume goroutine: the test is the follower
	defer s.sub.Cancel()
	s.Reindex()
	create := func(n int, prefix string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := svc.CreateTable(admin, "sales.raw", fmt.Sprintf("%s%d", prefix, i),
				catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain := func() {
		for len(s.sub.C) > 0 {
			s.handle(<-s.sub.C)
		}
	}
	found := func(q string) int {
		t.Helper()
		res, err := s.Search(admin, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		return len(res)
	}

	for episode := 1; episode <= 2; episode++ {
		// Fall behind: 3x the buffer published, nothing consumed.
		create(3*buf, fmt.Sprintf("lost%d_", episode))
		if s.sub.Dropped() == 0 {
			t.Fatal("publisher did not overflow the subscription")
		}
		drain()
		if want := 1 + episode; s.Reindexed != want {
			t.Fatalf("episode %d: %d rebuilds after draining %d buffered events, want %d", episode, s.Reindexed, buf, want)
		}
		if got := found(fmt.Sprintf("lost%d", episode)); got != 3*buf {
			t.Fatalf("episode %d: rebuild indexed %d of the %d tables created while behind", episode, got, 3*buf)
		}
		// Keeping up again: events apply one by one, no rebuild.
		create(buf, fmt.Sprintf("kept%d_", episode))
		drain()
		if want := 1 + episode; s.Reindexed != want {
			t.Fatalf("episode %d: %d rebuilds while keeping up, want %d", episode, s.Reindexed, want)
		}
		if got := found(fmt.Sprintf("kept%d", episode)); got != buf {
			t.Fatalf("episode %d: %d of %d tables indexed from events", episode, got, buf)
		}
	}
}

// TestIndexRetainsOnlyWhatItKeeps is the retention gate of the entity
// codec's backing string (erm/codec.go): a document keeps an entity's ID and
// full name for the life of the process, and must not keep the rest of the
// decoded record alive through them. Heap growth per indexed entity is held
// to the figure measured before entities shared a backing string.
func TestIndexRetainsOnlyWhatItKeeps(t *testing.T) {
	const n = 2000
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	svc, err := catalog.New(catalog.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	svc.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1")
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	svc.CreateCatalog(admin, "sales", "")
	svc.CreateSchema(admin, "sales", "raw", "")
	for i := 0; i < n; i++ {
		if _, err := svc.CreateTable(admin, "sales.raw", fmt.Sprintf("t_%04d", i),
			catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, ""); err != nil {
			t.Fatal(err)
		}
	}
	s := newService(svc)
	defer s.sub.Cancel()

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	s.Reindex() // decodes every entity and indexes it
	perEntity := float64(heap()-before) / float64(s.DocCount())
	runtime.KeepAlive(s)
	t.Logf("heap growth per indexed entity: %.1f B", perEntity)
	if perEntity > maxIndexBytesPerEntity {
		t.Fatalf("index retains %.1f B per entity, want <= %d: a document is pinning more of the decoded record than it keeps", perEntity, maxIndexBytesPerEntity)
	}
}
