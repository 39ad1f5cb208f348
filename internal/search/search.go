// Package search implements the discovery-catalog search service (paper
// §4.4): an inverted index over asset names, comments, and tags, kept fresh
// by consuming the core service's change-event stream rather than polling,
// with query-time authorization filtering through the core authorization
// API.
package search

import (
	"sort"
	"strings"
	"sync"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/events"
	"unitycatalog/internal/ids"
)

// doc is one indexed asset.
type doc struct {
	ID       ids.ID
	FullName string
	Type     string
	Tokens   map[string]bool
}

// Service is the search index.
type Service struct {
	core *catalog.Service

	mu    sync.RWMutex
	docs  map[ids.ID]*doc
	index map[string]map[ids.ID]bool // token -> posting set

	sub         *events.Subscription
	lastDropped int64 // sub.Dropped() at the last rebuild; consume goroutine only
	stopped     chan struct{}

	// Reindexed counts full rebuilds (after event loss).
	Reindexed int
}

// New starts a search service subscribed to the core's change events and
// primes the index from the current catalog state.
func New(core *catalog.Service) *Service {
	s := newService(core)
	s.Reindex()
	go s.consume()
	return s
}

// newService subscribes to the core's events without indexing or consuming
// anything yet.
func newService(core *catalog.Service) *Service {
	return &Service{
		core:    core,
		docs:    map[ids.ID]*doc{},
		index:   map[string]map[ids.ID]bool{},
		sub:     core.Bus().Subscribe(),
		stopped: make(chan struct{}),
	}
}

// Close stops event consumption.
func (s *Service) Close() {
	s.sub.Cancel()
	<-s.stopped
}

func (s *Service) consume() {
	defer close(s.stopped)
	for e := range s.sub.C {
		s.handle(e)
	}
}

// handle applies one event. Dropped() is cumulative, so loss is a rise since
// the last rebuild, not a non-zero count: one rebuild per drop episode, as
// in cache.Coherer. The rebuild reads current state, which covers the event
// in hand.
func (s *Service) handle(e events.Event) {
	if d := s.sub.Dropped(); d > s.lastDropped {
		s.lastDropped = d
		s.Reindex()
		return
	}
	switch e.Op {
	case events.OpCreate, events.OpUpdate, events.OpTag:
		s.indexAsset(e.Metastore, e.EntityID)
	case events.OpDelete:
		s.remove(e.EntityID)
	}
}

// Reindex rebuilds the index from every attached metastore.
func (s *Service) Reindex() {
	s.mu.Lock()
	s.docs = map[ids.ID]*doc{}
	s.index = map[string]map[ids.ID]bool{}
	s.Reindexed++
	s.mu.Unlock()
	for _, msID := range s.core.Metastores() {
		for _, e := range s.core.AllEntities(msID) {
			s.indexEntity(msID, e)
		}
	}
}

func (s *Service) indexAsset(msID string, id ids.ID) {
	if id == ids.Nil {
		return
	}
	e, err := s.core.GetEntityByID(msID, id)
	if err != nil {
		return
	}
	s.indexEntity(msID, e)
}

func (s *Service) indexEntity(msID string, e *erm.Entity) {
	if e.State == erm.StateSoftDeleted {
		s.remove(e.ID)
		return
	}
	tokens := map[string]bool{}
	for _, tok := range Tokenize(e.Name + " " + e.FullName + " " + e.Comment) {
		tokens[tok] = true
	}
	tags, colTags := s.core.TagsByID(msID, e.ID)
	for k, v := range tags {
		tokens[strings.ToLower(k)] = true
		tokens[strings.ToLower(v)] = true
		tokens[strings.ToLower(k+":"+v)] = true
	}
	for _, ct := range colTags {
		for k, v := range ct {
			tokens[strings.ToLower(k)] = true
			tokens[strings.ToLower(v)] = true
			tokens[strings.ToLower(k+":"+v)] = true
		}
	}
	// The document outlives the decoded entity: copy what it keeps of it (see
	// the ownership rule in erm/codec.go; e.ID and e.Type pin nothing).
	d := &doc{ID: e.ID, FullName: strings.Clone(e.FullName), Type: string(e.Type), Tokens: tokens}

	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.docs[e.ID]; ok {
		for tok := range old.Tokens {
			delete(s.index[tok], e.ID)
		}
	}
	s.docs[e.ID] = d
	for tok := range tokens {
		set, ok := s.index[tok]
		if !ok {
			set = map[ids.ID]bool{}
			s.index[tok] = set
		}
		set[e.ID] = true
	}
}

func (s *Service) remove(id ids.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.docs[id]
	if !ok {
		return
	}
	for tok := range old.Tokens {
		delete(s.index[tok], id)
	}
	delete(s.docs, id)
}

// Tokenize lowercases and splits text into index tokens, including dotted
// name components.
func Tokenize(text string) []string {
	fields := strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		switch r {
		case ' ', '\t', '\n', '.', '/', '-', '_', ',', '(', ')':
			return true
		}
		return false
	})
	seen := map[string]bool{}
	var out []string
	for _, f := range fields {
		if f == "" || seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	return out
}

// Result is one search hit.
type Result struct {
	ID       ids.ID `json:"id"`
	FullName string `json:"full_name"`
	Type     string `json:"type"`
	Score    int    `json:"score"` // matched terms
}

// Search finds assets matching all query terms (AND semantics; a term also
// matches tag key:value pairs), filtered to assets the principal may see,
// returning up to limit results (0 = 50).
func (s *Service) Search(ctx catalog.Ctx, query string, limit int) ([]Result, error) {
	if limit <= 0 {
		limit = 50
	}
	terms := Tokenize(query)
	if len(terms) == 0 {
		return nil, nil
	}
	s.mu.RLock()
	// Intersect postings, starting from the rarest term.
	sort.Slice(terms, func(i, j int) bool { return len(s.index[terms[i]]) < len(s.index[terms[j]]) })
	var candidates []ids.ID
	for id := range s.index[terms[0]] {
		match := true
		for _, t := range terms[1:] {
			if !s.index[t][id] {
				match = false
				break
			}
		}
		if match {
			candidates = append(candidates, id)
		}
	}
	results := make([]Result, 0, len(candidates))
	for _, id := range candidates {
		d := s.docs[id]
		results = append(results, Result{ID: id, FullName: d.FullName, Type: d.Type, Score: len(terms)})
	}
	s.mu.RUnlock()

	// Authorization filtering via the core's batch API.
	idList := make([]ids.ID, len(results))
	for i, r := range results {
		idList[i] = r.ID
	}
	allowed, err := s.core.AuthorizeBatch(ctx, idList, "")
	if err != nil {
		return nil, err
	}
	out := results[:0]
	for i, r := range results {
		if allowed[i] {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName < out[j].FullName })
	if len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// DocCount reports how many assets are indexed.
func (s *Service) DocCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}
