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

	follower *events.Follower
}

// New starts a search service following the core's change events; the
// follower's first resync primes the index from the current catalog state.
func New(core *catalog.Service) *Service {
	s := &Service{core: core, docs: map[ids.ID]*doc{}, index: map[string]map[ids.ID]bool{}}
	s.follower = core.Bus().Follow("search", s.handle, s.Reindex)
	return s
}

// Close stops event consumption.
func (s *Service) Close() { s.follower.Close() }

// Sync blocks until every event published so far is reflected in the index.
func (s *Service) Sync() { s.follower.Sync() }

func (s *Service) handle(e events.Event) {
	switch e.Op {
	case events.OpCreate, events.OpUpdate, events.OpTag:
		s.indexAsset(e.Metastore, e.EntityID)
	case events.OpDelete:
		s.remove(e.EntityID)
	}
}

// Reindex rebuilds the index from every attached metastore. The new index
// is built aside and swapped in whole, so queries are answered from the old
// one — stale by what the follower missed, never partial — for as long as the
// rebuild takes. An event handled during a rebuild would be lost with the old
// index: handle and Reindex both belong to the follower's one goroutine.
func (s *Service) Reindex() {
	docs := map[ids.ID]*doc{}
	index := map[string]map[ids.ID]bool{}
	for _, msID := range s.core.Metastores() {
		snap, err := s.core.DB().Snapshot(msID)
		if err != nil {
			continue
		}
		for _, e := range catalog.LiveEntities(snap) {
			d := buildDoc(snap, e)
			docs[d.ID] = d
			post(index, d)
		}
		snap.Close()
	}
	s.mu.Lock()
	s.docs, s.index = docs, index
	s.mu.Unlock()
}

// indexAsset indexes the asset as it is now, which is never older than the
// event that named it (see catalog.LiveEntities): one snapshot serves the
// entity and its tags.
func (s *Service) indexAsset(msID string, id ids.ID) {
	if id == ids.Nil {
		return
	}
	snap, err := s.core.DB().Snapshot(msID)
	if err != nil {
		return
	}
	defer snap.Close()
	if e, ok := erm.GetEntity(snap, id); ok {
		s.indexEntity(snap, e)
	}
}

func (s *Service) indexEntity(r erm.Reader, e *erm.Entity) {
	if e.State == erm.StateSoftDeleted {
		s.remove(e.ID)
		return
	}
	d := buildDoc(r, e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.docs[d.ID]; ok {
		for tok := range old.Tokens {
			delete(s.index[tok], d.ID)
		}
	}
	s.docs[d.ID] = d
	post(s.index, d)
}

// buildDoc tokenizes e and its tags, read through r, and touches no index.
func buildDoc(r erm.Reader, e *erm.Entity) *doc {
	tokens := map[string]bool{}
	for _, tok := range Tokenize(e.Name + " " + e.FullName + " " + e.Comment) {
		tokens[tok] = true
	}
	tags, colTags := catalog.EntityTags(r, e.ID)
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
	return &doc{ID: e.ID, FullName: strings.Clone(e.FullName), Type: string(e.Type), Tokens: tokens}
}

// post adds d to the posting set of each of its tokens.
func post(index map[string]map[ids.ID]bool, d *doc) {
	for tok := range d.Tokens {
		set, ok := index[tok]
		if !ok {
			set = map[ids.ID]bool{}
			index[tok] = set
		}
		set[d.ID] = true
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
