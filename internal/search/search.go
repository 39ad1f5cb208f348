// Package search implements the discovery-catalog search service (paper
// §4.4): an inverted index over asset names, comments, and tags, kept fresh
// by consuming the core service's change-event stream rather than polling,
// with query-time authorization filtering through the core authorization
// API.
package search

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/events"
	"unitycatalog/internal/ids"
)

// doc is one indexed asset. Its tokens are numbers (see index).
type doc struct {
	id       ids.ID
	fullName string
	typ      string
	toks     []uint32 // ascending
}

// parsed is a document before it is numbered, built from a snapshot with no
// index lock held. Its tokens may be substrings of a longer lowered text: the
// index clones the ones it has not seen before.
type parsed struct {
	id       ids.ID
	fullName string
	typ      string
	tokens   []string // sorted, distinct
}

// token is one distinct index term and the documents that contain it.
type token struct {
	text string              // the tokID key
	docs map[uint32]struct{} // document numbers; nil when the token number is free
}

// index is the inverted index in numbered form: documents and tokens are
// known by small integers, so a posting holds 4-byte document numbers rather
// than 32-byte IDs, and a document lists its tokens as numbers rather than in
// a map of strings. Numbers are recycled — a removed document's slot, and a
// token whose last document left, go on a free list — so create/delete churn
// does not grow the index.
type index struct {
	docs     []doc // by document number; a free slot has id == ids.Nil
	freeDocs []uint32
	byID     map[ids.ID]uint32

	toks     []token // by token number
	freeToks []uint32
	tokID    map[string]uint32 // keys are cloned once, on first sight
}

func newIndex() *index {
	return &index{byID: map[ids.ID]uint32{}, tokID: map[string]uint32{}}
}

// number returns a slot of *slots for a new entry: one recycled off free, or
// a new one appended.
func number[T any](free *[]uint32, slots *[]T) uint32 {
	if k := len(*free); k > 0 {
		n := (*free)[k-1]
		*free = (*free)[:k-1]
		return n
	}
	var zero T
	*slots = append(*slots, zero)
	return uint32(len(*slots) - 1)
}

// add indexes p. A document already indexed under the same ID keeps its
// number and the postings of the tokens it still has, so re-indexing after
// an edit touches only the tokens that came or went.
func (ix *index) add(p parsed) {
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
			text = strings.Clone(text)
			ix.tokID[text] = t
			ix.toks[t] = token{text: text, docs: map[uint32]struct{}{}}
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
	ix.docs[n] = doc{id: p.id, fullName: p.fullName, typ: p.typ, toks: toks}
}

// remove drops the document with the given ID.
func (ix *index) remove(id ids.ID) {
	n, ok := ix.byID[id]
	if !ok {
		return
	}
	for _, t := range ix.docs[n].toks {
		ix.unpost(t, n)
	}
	delete(ix.byID, id)
	ix.docs[n] = doc{}
	ix.freeDocs = append(ix.freeDocs, n)
}

// unpost takes document n out of token t's posting. A token whose last
// document left is forgotten and its number recycled: an empty posting kept
// under its key is how table churn used to grow the index without bound.
func (ix *index) unpost(t, n uint32) {
	tok := &ix.toks[t]
	delete(tok.docs, n)
	if len(tok.docs) == 0 {
		delete(ix.tokID, tok.text)
		*tok = token{}
		ix.freeToks = append(ix.freeToks, t)
	}
}

// posting returns the documents containing text; nil if none do.
func (ix *index) posting(text string) map[uint32]struct{} {
	if t, ok := ix.tokID[text]; ok {
		return ix.toks[t].docs
	}
	return nil
}

// Service is the search index.
type Service struct {
	core *catalog.Service

	mu sync.RWMutex
	ix *index

	follower *events.Follower
}

// New starts a search service following the core's change events; the
// follower's first resync primes the index from the current catalog state.
func New(core *catalog.Service) *Service {
	s := &Service{core: core, ix: newIndex()}
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
	ix := newIndex()
	for _, msID := range s.core.Metastores() {
		snap, err := s.core.DB().Snapshot(msID)
		if err != nil {
			continue
		}
		for _, e := range catalog.LiveEntities(snap) {
			ix.add(parse(snap, e))
		}
		snap.Close()
	}
	s.mu.Lock()
	s.ix = ix
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
	p := parse(r, e)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ix.add(p)
}

// parse tokenizes e and its tags, read through r, and touches no index.
func parse(r erm.Reader, e *erm.Entity) parsed {
	tokens := split(e.Name + " " + e.FullName + " " + e.Comment)
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
	// The document outlives the decoded entity: copy what it keeps of it (see
	// the ownership rule in erm/codec.go; e.ID and e.Type pin nothing).
	return parsed{id: e.ID, fullName: strings.Clone(e.FullName), typ: string(e.Type), tokens: distinct(tokens)}
}

func (s *Service) remove(id ids.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ix.remove(id)
}

// split lowercases text and cuts it into index tokens, including dotted name
// components; a token may repeat.
func split(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		switch r {
		case ' ', '\t', '\n', '.', '/', '-', '_', ',', '(', ')':
			return true
		}
		return false
	})
}

// distinct sorts tokens and drops repeats, in place.
func distinct(tokens []string) []string {
	slices.Sort(tokens)
	return slices.Compact(tokens)
}

// Tokenize lowercases and splits text into its distinct index tokens,
// including dotted name components.
func Tokenize(text string) []string { return distinct(split(text)) }

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
	ix := s.ix
	// Intersect postings, starting from the rarest term.
	postings := make([]map[uint32]struct{}, len(terms))
	for i, t := range terms {
		postings[i] = ix.posting(t)
	}
	sort.Slice(postings, func(i, j int) bool { return len(postings[i]) < len(postings[j]) })
	results := make([]Result, 0, len(postings[0]))
	for n := range postings[0] {
		match := true
		for _, p := range postings[1:] {
			if _, match = p[n]; !match {
				break
			}
		}
		if match {
			d := &ix.docs[n]
			results = append(results, Result{ID: d.id, FullName: d.fullName, Type: d.typ, Score: len(terms)})
		}
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
	return len(s.ix.byID)
}
