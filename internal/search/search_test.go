package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/events"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// maxIndexBytesPerEntity bounds TestIndexRetainsOnlyWhatItKeeps: 243.4 B in
// two runs of three with sorted postings and documents that keep no name, and
// 259.4 B under -race, which `make race` runs it with (444.5 and 456.6 B with
// map postings and the full name and type in each document). It
// is heap growth across the rebuild, so it counts anything the rebuild leaves
// resident; the index's own share is what uc.TestResidentBudget attributes to
// this package.
const maxIndexBytesPerEntity = 263

func setup(t *testing.T) (*catalog.Service, *Service, catalog.Ctx) {
	t.Helper()
	svc, admin := newCore(t)
	s := New(svc)
	t.Cleanup(s.Close)
	return svc, s, admin
}

// newCore returns a catalog holding a catalog "sales" with a comment, a
// schema sales.raw and two tables, orders and customers.
func newCore(t *testing.T) (*catalog.Service, catalog.Ctx) {
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
	return svc, admin
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

// TestResultsReadNamesWhenTheQueryRuns: a document keeps no name, so a query
// answers with the asset as it is when the query runs. With no follower to
// re-index them, a renamed table comes back under its new full name and a
// soft-deleted one does not come back.
func TestResultsReadNamesWhenTheQueryRuns(t *testing.T) {
	svc, admin := newCore(t)
	s := &Service{core: svc, ix: newIndex()}
	s.Reindex()
	if _, err := svc.RenameAsset(admin, "sales.raw.orders", "purchases"); err != nil {
		t.Fatal(err)
	}
	if err := svc.DeleteAsset(admin, "sales.raw.customers", false); err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(admin, "orders", 0) // the index still has the old name's tokens
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].FullName != "sales.raw.purchases" || res[0].Type != string(erm.TypeTable) {
		t.Fatalf("search for a renamed table's old name = %+v, want it under its new name", res)
	}
	if res, _ := s.Search(admin, "customers", 0); len(res) != 0 {
		t.Fatalf("search for a soft-deleted table = %+v", res)
	}
}

func TestEventDrivenIndexUpdates(t *testing.T) {
	svc, s, admin := setup(t)
	svc.CreateTable(admin, "sales.raw", "refunds", catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, "")
	s.Sync()
	if res, _ := s.Search(admin, "refunds", 0); len(res) != 1 {
		t.Fatalf("created table not indexed: %v", res)
	}
	// Deletion removes from the index.
	svc.DeleteAsset(admin, "sales.raw.refunds", false)
	s.Sync()
	if res, _ := s.Search(admin, "refunds", 0); len(res) != 0 {
		t.Fatalf("deleted table still indexed: %v", res)
	}
}

// TestChurnLeavesNoTokensBehind: tables created and deleted take their tokens
// with them. An empty posting kept under its key grew the index by a token
// per table ever created (ddl_write's w<client>_<seq> names).
func TestChurnLeavesNoTokensBehind(t *testing.T) {
	svc, s, admin := setup(t)
	s.Sync()
	size := func() (tokens, numbers, slots int) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return len(s.ix.tokID), len(s.ix.toks), len(s.ix.docs)
	}
	tokens0, _, _ := size()
	const n = 1000
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("churn%d_%04d", round, i)
			if _, err := svc.CreateTable(admin, "sales.raw", name, catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, ""); err != nil {
				t.Fatal(err)
			}
		}
		s.Sync()
		if tokens, _, _ := size(); tokens < tokens0+n {
			t.Fatalf("round %d: %d tokens after creating %d tables over %d", round, tokens, n, tokens0)
		}
		for i := 0; i < n; i++ {
			if err := svc.DeleteAsset(admin, fmt.Sprintf("sales.raw.churn%d_%04d", round, i), false); err != nil {
				t.Fatal(err)
			}
		}
		s.Sync()
		if tokens, _, _ := size(); tokens != tokens0 {
			t.Fatalf("round %d: %d tokens after deleting what was created, %d before", round, tokens, tokens0)
		}
	}
	// The second round ran in the numbers the first one freed.
	if _, numbers, slots := size(); numbers > tokens0+n+2 || slots > s.DocCount()+n {
		t.Fatalf("two rounds of %d tables left %d token numbers and %d document slots: freed numbers are not reused", n, numbers, slots)
	}
	view(t, s)
}

// TestTagSearch was a one-in-two flake under -race until followers stopped
// reading through the cache: the TAG event reaches the follower from inside
// SetTag's commit, before this node's cache has advanced to the commit's
// version, and a view opened then shows the asset without its tag.
func TestTagSearch(t *testing.T) {
	svc, s, admin := setup(t)
	if err := svc.SetTag(admin, "sales.raw.orders", "ssn", "classification", "pii"); err != nil {
		t.Fatal(err)
	}
	s.Sync()
	// The paper's canonical discovery query: find all assets tagged PII.
	res, _ := s.Search(admin, "pii", 0)
	if len(res) != 1 || res[0].FullName != "sales.raw.orders" {
		t.Fatalf("tag search = %v", res)
	}
	// key:value search.
	res, _ = s.Search(admin, "classification:pii", 0)
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

// gate lets a test hold a follower inside handle.
type gate struct {
	armed         atomic.Bool
	entered, open chan struct{}
}

// hold returns once the follower is inside handle with the one event that
// publishOne publishes, where it stays until release. The follower must be
// idle (Sync) when hold is called.
func (g *gate) hold(publishOne func()) {
	g.armed.Store(true)
	publishOne()
	<-g.entered
}

func (g *gate) release() { g.open <- struct{}{} }

// newGated starts a search service wired the way New wires it, except that
// its follower passes through the returned gate on every event.
func newGated(core *catalog.Service) (*Service, *gate) {
	g := &gate{entered: make(chan struct{}), open: make(chan struct{})}
	s := &Service{core: core, ix: newIndex()}
	s.follower = core.Bus().Follow("search", func(e events.Event) {
		if g.armed.CompareAndSwap(true, false) {
			g.entered <- struct{}{}
			<-g.open
		}
		s.handle(e)
	}, s.Reindex)
	return s, g
}

// TestOneReindexPerDropEpisode: a follower that fell off the event ring
// rebuilds once per episode — not once per event after the first loss, the
// cumulative-counter bug the channel fan-out invited — and indexes from
// events again as soon as it keeps up.
func TestOneReindexPerDropEpisode(t *testing.T) {
	const ring = 8
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	svc, err := catalog.New(catalog.Config{DB: db, Bus: events.NewBus(0, ring)})
	if err != nil {
		t.Fatal(err)
	}
	svc.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1")
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	svc.CreateCatalog(admin, "sales", "")
	svc.CreateSchema(admin, "sales", "raw", "")

	s, g := newGated(svc)
	defer s.Close()
	create := func(n int, prefix string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := svc.CreateTable(admin, "sales.raw", fmt.Sprintf("%s%d", prefix, i),
				catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, ""); err != nil {
				t.Fatal(err)
			}
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
		// Fall behind: 3x the ring published with the follower held on the
		// first of them.
		g.hold(func() { create(1, fmt.Sprintf("lost%d_first", episode)) })
		create(3*ring-1, fmt.Sprintf("lost%d_", episode))
		if lag := s.follower.Lag(); lag != 3*ring {
			t.Fatalf("episode %d: held follower lags %d, want %d", episode, lag, 3*ring)
		}
		g.release()
		s.Sync()
		if got := s.follower.Resyncs(); got != int64(episode) {
			t.Fatalf("episode %d: %d rebuilds, want %d", episode, got, episode)
		}
		if got := found(fmt.Sprintf("lost%d", episode)); got != 3*ring {
			t.Fatalf("episode %d: rebuild indexed %d of the %d tables created while behind", episode, got, 3*ring)
		}
		// Keeping up again: events apply one by one, no rebuild.
		for i := 0; i < ring; i++ {
			create(1, fmt.Sprintf("kept%d_%d_", episode, i))
			s.Sync()
		}
		if got := s.follower.Resyncs(); got != int64(episode) {
			t.Fatalf("episode %d: %d rebuilds while keeping up, want %d", episode, got, episode)
		}
		if got := found(fmt.Sprintf("kept%d", episode)); got != ring {
			t.Fatalf("episode %d: %d of %d tables indexed from events", episode, got, ring)
		}
	}
}

// docView is a document as a query can tell it apart from another: the
// tokens it answers to, with no document or token number. What it answers
// with is read from the catalog when the query runs.
type docView struct {
	Tokens []string // ascending
}

// indexView is an index with its numbering taken out, for comparison: two
// indexes that number documents and tokens differently but answer every query
// alike have equal views.
type indexView struct {
	Docs     map[ids.ID]docView
	Postings map[string][]ids.ID // token -> IDs of the documents it finds, ascending
}

// view copies the index out through its numbering, checking on the way that
// the numbering is whole: every live slot is in byID and every token in tokID.
func view(t *testing.T, s *Service) indexView {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	ix := s.ix
	v := indexView{Docs: map[ids.ID]docView{}, Postings: map[string][]ids.ID{}}
	for id, n := range ix.byID {
		d := ix.docs[n]
		if d.id != id {
			t.Errorf("byID[%s] = %d, a slot holding %q", id, n, d.id)
		}
		var dv docView
		for _, tok := range d.toks {
			dv.Tokens = append(dv.Tokens, ix.toks[tok].text)
		}
		sort.Strings(dv.Tokens)
		v.Docs[id] = dv
	}
	if live := len(ix.docs) - len(ix.freeDocs); live != len(ix.byID) {
		t.Errorf("%d live document slots, %d IDs", live, len(ix.byID))
	}
	for text, tok := range ix.tokID {
		if ix.toks[tok].text != text {
			t.Errorf("tokID[%q] = %d, a number holding %q", text, tok, ix.toks[tok].text)
		}
		var found []ids.ID
		posting := ix.toks[tok].docs
		for i, n := range posting {
			if i > 0 && posting[i-1] >= n {
				t.Errorf("posting of %q is not strictly ascending at %d: %v", text, i, posting)
			}
			if d := ix.docs[n]; d.id == ids.Nil {
				t.Errorf("posting of %q holds free document slot %d", text, n)
			} else if _, has := slices.BinarySearch(d.toks, tok); !has {
				t.Errorf("posting of %q holds %s, which does not list it", text, d.id)
			}
			found = append(found, ix.docs[n].id)
		}
		if len(found) == 0 {
			t.Errorf("token %q is kept with an empty posting", text)
		}
		sort.Slice(found, func(i, j int) bool { return found[i] < found[j] })
		v.Postings[text] = found
	}
	if live := len(ix.toks) - len(ix.freeToks); live != len(ix.tokID) {
		t.Errorf("%d live token numbers, %d tokens", live, len(ix.tokID))
	}
	return v
}

// refIndex is the reference the numbered index is held to: the index as it
// was with a map of document numbers per token, a set where the index keeps a
// sorted run.
type refIndex struct {
	docs     []refDoc
	freeDocs []uint32
	byID     map[ids.ID]uint32

	toks     []refToken
	freeToks []uint32
	tokID    map[string]uint32
}

type refDoc struct {
	id   ids.ID
	toks []uint32 // ascending
}

type refToken struct {
	text string
	docs map[uint32]struct{} // nil when the token number is free
}

func newRefIndex() *refIndex {
	return &refIndex{byID: map[ids.ID]uint32{}, tokID: map[string]uint32{}}
}

func (ix *refIndex) add(p parsed) {
	n, ok := ix.byID[p.id]
	if !ok {
		n = number(&ix.freeDocs, &ix.docs)
		ix.byID[p.id] = n
	}
	toks := make([]uint32, len(p.tokens))
	for i, text := range p.tokens {
		t, ok := ix.tokID[text]
		if !ok {
			t = number(&ix.freeToks, &ix.toks)
			ix.tokID[text] = t
			ix.toks[t] = refToken{text: text, docs: map[uint32]struct{}{}}
		}
		ix.toks[t].docs[n] = struct{}{}
		toks[i] = t
	}
	slices.Sort(toks)
	for _, t := range ix.docs[n].toks {
		if _, kept := slices.BinarySearch(toks, t); !kept {
			ix.unpost(t, n)
		}
	}
	ix.docs[n] = refDoc{id: p.id, toks: toks}
}

func (ix *refIndex) remove(id ids.ID) {
	n, ok := ix.byID[id]
	if !ok {
		return
	}
	for _, t := range ix.docs[n].toks {
		ix.unpost(t, n)
	}
	delete(ix.byID, id)
	ix.docs[n] = refDoc{}
	ix.freeDocs = append(ix.freeDocs, n)
}

func (ix *refIndex) unpost(t, n uint32) {
	tok := &ix.toks[t]
	delete(tok.docs, n)
	if len(tok.docs) == 0 {
		delete(ix.tokID, tok.text)
		*tok = refToken{}
		ix.freeToks = append(ix.freeToks, t)
	}
}

// find answers a query the way Search did over map postings: walk the rarest
// term's set and probe the others.
func (ix *refIndex) find(terms []string) []ids.ID {
	postings := make([]map[uint32]struct{}, len(terms))
	for i, text := range terms {
		if t, ok := ix.tokID[text]; ok {
			postings[i] = ix.toks[t].docs
		}
	}
	sort.Slice(postings, func(i, j int) bool { return len(postings[i]) < len(postings[j]) })
	var out []ids.ID
	for n := range postings[0] {
		match := true
		for _, p := range postings[1:] {
			if _, match = p[n]; !match {
				break
			}
		}
		if match {
			out = append(out, ix.docs[n].id)
		}
	}
	return out
}

func (ix *refIndex) view() indexView {
	v := indexView{Docs: map[ids.ID]docView{}, Postings: map[string][]ids.ID{}}
	for id, n := range ix.byID {
		var dv docView
		for _, tok := range ix.docs[n].toks {
			dv.Tokens = append(dv.Tokens, ix.toks[tok].text)
		}
		sort.Strings(dv.Tokens)
		v.Docs[id] = dv
	}
	for text, tok := range ix.tokID {
		var found []ids.ID
		for n := range ix.toks[tok].docs {
			found = append(found, ix.docs[n].id)
		}
		sort.Slice(found, func(i, j int) bool { return found[i] < found[j] })
		v.Postings[text] = found
	}
	return v
}

// TestIndexMatchesReference drives the index and the map-posting reference
// with one seeded mix of adds, re-indexes that gain and lose tokens, and
// removes, over few enough IDs and terms that document and token numbers are
// freed and reused throughout. After every step the two must hold equal
// postings and give equal answers to random multi-term queries. A new seed
// each run.
func TestIndexMatchesReference(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	r := rand.New(rand.NewSource(seed))
	const nIDs, nTerms, steps = 40, 30, 3000
	term := func(i int) string { return fmt.Sprintf("term%d", i) }
	s, ref := &Service{ix: newIndex()}, newRefIndex()
	for step := 0; step < steps; step++ {
		id := ids.ID(fmt.Sprintf("id%02d", r.Intn(nIDs)))
		_, indexed := ref.byID[id]
		if indexed && r.Intn(3) == 0 {
			s.ix.remove(id)
			ref.remove(id)
		} else {
			// Up to eight terms, skewed towards the low numbers so that some
			// postings are long; an add of an indexed ID re-indexes it.
			var tokens []string
			for k := 1 + r.Intn(8); k > 0; k-- {
				tokens = append(tokens, term(r.Intn(1+r.Intn(nTerms))))
			}
			p := parsed{id: id, tokens: distinct(tokens)}
			s.ix.add(p)
			ref.add(p)
		}
		got, want := view(t, s), ref.view()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: index %+v, reference %+v", step, got, want)
		}
		for q := 0; q < 4; q++ {
			var terms []string
			for k := 1 + r.Intn(3); k > 0; k-- {
				terms = append(terms, term(r.Intn(nTerms+2))) // now and then one nobody holds
			}
			terms = distinct(terms)
			// The two walk documents in different orders: compare the sets.
			got, want := s.ix.find(terms), ref.find(terms)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: query %v found %v, reference %v", step, terms, got, want)
			}
		}
	}
}

// TestEventToVisibleDifferential: after a seeded mix of create, update, tag,
// untag, delete and undelete from two concurrent writers, once Sync returns
// the index built from events must equal an index built from scratch — both
// when the follower kept up and when it was overrun mid-stream and had to
// rebuild while the writers went on.
func TestEventToVisibleDifferential(t *testing.T) {
	for _, tc := range []struct {
		name string
		ring int
	}{{"keeps up", 0}, {"forced gap", 16}} {
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
			svc.CreateCatalog(admin, "sales", "")
			svc.CreateSchema(admin, "sales", "raw", "")
			s, g := newGated(svc)
			defer s.Close()

			// Each writer owns the tables it created; it deletes, restores
			// and retags only those, so every operation is valid.
			type table struct {
				id              ids.ID
				full            string
				deleted, tiered bool
			}
			var owned [2][]*table
			writer := func(w, ops int) {
				r := rand.New(rand.NewSource(int64(42 + w + len(owned[w]))))
				for i := 0; i < ops; i++ {
					var err error
					var tb *table
					if len(owned[w]) > 0 {
						tb = owned[w][r.Intn(len(owned[w]))]
					}
					switch op := r.Intn(6); {
					case tb == nil || op == 0:
						name := fmt.Sprintf("w%d_t%d", w, len(owned[w]))
						var e *erm.Entity
						if e, err = svc.CreateTable(admin, "sales.raw", name, catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, ""); err == nil {
							owned[w] = append(owned[w], &table{id: e.ID, full: "sales.raw." + name})
						}
					case tb.deleted:
						if _, err = svc.Undelete(admin, tb.id); err == nil {
							tb.deleted = false
						}
					case op == 1:
						comment := fmt.Sprintf("note%d by writer%d", i, w)
						_, err = svc.UpdateAsset(admin, tb.full, catalog.UpdateRequest{Comment: &comment})
					case op == 2 && tb.tiered:
						if err = svc.UnsetTag(admin, tb.full, "", "tier"); err == nil {
							tb.tiered = false
						}
					case op == 2 || op == 3:
						if err = svc.SetTag(admin, tb.full, "", "tier", fmt.Sprintf("t%d", r.Intn(3))); err == nil {
							tb.tiered = true
						}
					case op == 4:
						err = svc.SetTag(admin, tb.full, "id", "classification", "pii")
					default:
						if err = svc.DeleteAsset(admin, tb.full, false); err == nil {
							tb.deleted = true
						}
					}
					if err != nil {
						t.Errorf("writer %d op %d: %v", w, i, err)
						return
					}
				}
			}
			run := func(ops int) {
				var wg sync.WaitGroup
				for w := range owned {
					wg.Add(1)
					go func(w int) { defer wg.Done(); writer(w, ops) }(w)
				}
				wg.Wait()
			}

			if tc.ring > 0 {
				g.hold(func() { svc.CreateSchema(admin, "sales", "staging", "") })
				run(40) // far more events than the ring holds
				g.release()
			}
			run(40) // with a gap, the rebuild races these
			s.Sync()
			if got := s.follower.Resyncs(); (got > 0) != (tc.ring > 0) {
				t.Fatalf("%d rebuilds with a ring of %d", got, tc.ring)
			}

			oracle := &Service{core: svc, ix: newIndex()}
			oracle.Reindex()
			got, want := view(t, s), view(t, oracle)
			if len(want.Docs) < 10 {
				t.Fatalf("oracle indexed only %d assets: the mix did not run", len(want.Docs))
			}
			for id, w := range want.Docs {
				if g, ok := got.Docs[id]; !ok || !reflect.DeepEqual(g, w) {
					t.Errorf("%s: followed index has %+v (present %v), rebuilt index has %+v", id, g, ok, w)
				}
			}
			for id := range got.Docs {
				if _, ok := want.Docs[id]; !ok {
					t.Errorf("%s: in the followed index only", id)
				}
			}
			for tok, w := range want.Postings {
				if g := got.Postings[tok]; !reflect.DeepEqual(g, w) {
					t.Errorf("postings of %q: %d ids followed, %d rebuilt", tok, len(g), len(w))
				}
			}
			for tok, g := range got.Postings {
				if _, ok := want.Postings[tok]; !ok {
					t.Errorf("postings of %q exist in the followed index only (%d ids)", tok, len(g))
				}
			}
		})
	}
}

// TestIndexRetainsOnlyWhatItKeeps is the retention gate of the entity
// codec's backing string (erm/codec.go): a document keeps an entity's ID and
// the tokens cut from its text for the life of the process, and must not keep
// the rest of the decoded record alive through them. Heap growth per indexed
// entity is held to what the index itself measures.
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
	s := &Service{core: svc, ix: newIndex()}

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

// TestSearchDuringReindexIsNeverPartial: a gap resync rebuilds the index
// while queries keep arriving, and a query for an asset nobody has touched
// must find it throughout: the old index answers until the new one is whole.
func TestSearchDuringReindexIsNeverPartial(t *testing.T) {
	svc, s, admin := setup(t)
	for i := 0; i < 3000; i++ {
		if _, err := svc.CreateTable(admin, "sales.raw", fmt.Sprintf("t_%04d", i),
			catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, ""); err != nil {
			t.Fatal(err)
		}
	}
	s.Sync() // the follower is idle from here on: Reindex below has its goroutine's role

	var searches, empty atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := s.Search(admin, "orders", 0)
			if err != nil {
				t.Errorf("search: %v", err)
				return
			}
			searches.Add(1)
			if len(res) != 1 {
				empty.Add(1)
			}
		}
	}()
	// Rebuild until the searcher has looked a few hundred times, so that on
	// one CPU some of its looks fall inside a rebuild.
	for rebuilds := 0; rebuilds < 200 && (rebuilds < 10 || searches.Load() < 500); rebuilds++ {
		s.Reindex()
	}
	close(stop)
	<-done
	if n := searches.Load(); n == 0 {
		t.Fatal("the searcher never ran")
	}
	if n := empty.Load(); n != 0 {
		t.Fatalf("%d of %d searches for an unchanged asset did not find it while the index was being rebuilt", n, searches.Load())
	}
}

// refParse is parse as it was before tokens were cut from one buffer: the
// text lowered and split whole, and the tags read through
// catalog.EntityTags' maps.
func refParse(r erm.Reader, e *erm.Entity) []string {
	tokens := strings.FieldsFunc(strings.ToLower(e.Name+" "+e.FullName+" "+e.Comment), func(r rune) bool {
		switch r {
		case ' ', '\t', '\n', '.', '/', '-', '_', ',', '(', ')':
			return true
		}
		return false
	})
	tagTokens := func(tags map[string]string) {
		for k, v := range tags {
			tokens = append(tokens, strings.ToLower(k), strings.ToLower(v), strings.ToLower(k+":"+v))
		}
	}
	tags, colTags := catalog.EntityTags(r, e.ID)
	tagTokens(tags)
	for _, ct := range colTags {
		tagTokens(ct)
	}
	return distinct(tokens)
}

// TestParseMatchesReference: over seeded comments and tags — upper case,
// non-ASCII text that lowers to other bytes, invalid UTF-8, separators, empty
// values, entity and column tags — one tokenizer, reused from document to
// document, cuts from a record read in place what the reference cuts from the
// decoded entity.
func TestParseMatchesReference(t *testing.T) {
	svc, admin := newCore(t)
	texts := []string{"", "Plain", "UPPER_case-Mixed.dots", "Ünïcödé ÀÉÎ", "İstanbul ΣΊΣΥΦΟΣ", "bad\xffutf8 \xc3", "a,b(c)d/e\tf\ng",
		"  lead and trail  ", "x:y", "K€Y", "ß𝄞"}
	rng := rand.New(rand.NewSource(13))
	pick := func() string { return texts[rng.Intn(len(texts))] }
	fulls := []string{"sales", "sales.raw", "sales.raw.orders", "sales.raw.customers"}
	for i := 0; i < 60; i++ {
		full := fulls[rng.Intn(len(fulls))]
		comment := pick() + " " + pick()
		if _, err := svc.UpdateAsset(admin, full, catalog.UpdateRequest{Comment: &comment}); err != nil {
			t.Fatal(err)
		}
		column := ""
		if full == "sales.raw.orders" && rng.Intn(2) == 0 {
			column = [...]string{"id", "ssn"}[rng.Intn(2)]
		}
		if key := pick(); key != "" {
			if err := svc.SetTag(admin, full, column, key, pick()); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap, err := svc.DB().Snapshot("ms1")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	var tk tokenizer
	for round := 0; round < 2; round++ {
		for _, e := range catalog.LiveEntities(snap) {
			rec, _ := snap.Get(erm.TableEntity, string(e.ID))
			txt, ok := erm.ReadText(rec)
			if !ok {
				t.Fatalf("%s: its record does not read", e.FullName)
			}
			got, want := tk.parse(snap, e.ID, txt).tokens, refParse(snap, e)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: parse cuts %q, the reference %q", e.FullName, got, want)
			}
		}
	}
}

// Follower allocations per indexed event on a warm index, when they last
// changed on purpose; TestFollowerIndexAllocs fails at 10 % over. A PATCH or a
// tag that brings no token the index lacks allocates nothing: the follower
// reads the record and its tag rows where the store holds them. A create
// allocates what the index keeps for a new document: its token list, the
// clone and posting of the one token its name brings, and its share of the
// index's growth. Before the record was read in place, each of the three made
// about nine objects more.
const (
	patchIndexAllocs  = 0
	tagIndexAllocs    = 0
	createIndexAllocs = 3.4
)

// TestFollowerIndexAllocs gates what the search follower allocates to index
// a PATCH of a comment, a set-tag and a create-table, each write made first
// and not counted.
func TestFollowerIndexAllocs(t *testing.T) {
	svc, admin := newCore(t)
	s := &Service{core: svc, ix: newIndex()}
	// Another table holds every token the PATCHes and tags bring.
	both := "alpha beta"
	if _, err := svc.UpdateAsset(admin, "sales.raw.customers", catalog.UpdateRequest{Comment: &both}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"v1", "v2"} {
		if err := svc.SetTag(admin, "sales.raw.customers", "", "k"+v, v); err != nil {
			t.Fatal(err)
		}
	}
	for full, v := range map[string]string{"sales.raw.customers": "v1", "sales": "v2"} {
		if err := svc.SetTag(admin, full, "", "k", v); err != nil {
			t.Fatal(err)
		}
	}
	s.Reindex()
	orders, err := svc.GetAsset(admin, "sales.raw.orders")
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	// perIndex is the mean allocations of indexing what write(i) wrote.
	perIndex := func(write func(i int) ids.ID) float64 {
		var ms runtime.MemStats
		var total uint64
		const warm = 2 // each value once: the tokenizer's buffers and the postings grow
		for i := 0; i < warm+runs; i++ {
			id := write(i)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			s.indexAsset("ms1", id)
			runtime.ReadMemStats(&ms)
			if i >= warm {
				total += ms.Mallocs - before
			}
		}
		return float64(total) / runs
	}
	for _, c := range []struct {
		name     string
		write    func(i int) ids.ID
		recorded float64
	}{
		{"patch", func(i int) ids.ID {
			comment := [...]string{"alpha", "beta"}[i%2]
			if _, err := svc.UpdateAsset(admin, "sales.raw.orders", catalog.UpdateRequest{Comment: &comment}); err != nil {
				t.Fatal(err)
			}
			return orders.ID
		}, patchIndexAllocs},
		{"tag", func(i int) ids.ID {
			if err := svc.SetTag(admin, "sales.raw.orders", "", "k", fmt.Sprint("v", 1+i%2)); err != nil {
				t.Fatal(err)
			}
			return orders.ID
		}, tagIndexAllocs},
		{"create", func(i int) ids.ID {
			e, err := svc.CreateTable(admin, "sales.raw", fmt.Sprint("w_", i), catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "id", Type: "BIGINT"}}}, "")
			if err != nil {
				t.Fatal(err)
			}
			return e.ID
		}, createIndexAllocs},
	} {
		got := perIndex(c.write)
		t.Logf("indexing a %s: %.2f allocations (recorded %.1f)", c.name, got, c.recorded)
		if got > 1.10*c.recorded {
			t.Errorf("indexing a %s: %.2f allocations, more than 10 %% over the recorded %.1f", c.name, got, c.recorded)
		}
	}
	if res, err := s.Search(admin, "w_101", 0); err != nil || len(res) != 1 {
		t.Fatalf("search for the last create: %v, %v", res, err)
	}
}
