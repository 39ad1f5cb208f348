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
	"unicode/utf8"
	"unsafe"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/events"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/obs"
	"unitycatalog/internal/store"
)

// doc is one indexed asset: its ID and its tokens, as numbers (see index).
// What a result answers with, the asset's full name and type, is read when
// the query runs, from the entity record that already holds it.
type doc struct {
	id   ids.ID
	toks []uint32 // ascending
}

// parsed is a document before it is numbered, built from a snapshot with no
// index lock held. Its tokens may be substrings of a longer lowered text: the
// index clones the ones it has not seen before.
type parsed struct {
	id     ids.ID
	tokens []string // sorted, distinct
}

// token is one distinct index term and the documents that contain it.
type token struct {
	text string   // the tokID key
	docs []uint32 // ascending document numbers; nil when the token number is free
}

// index is the inverted index in numbered form: documents and tokens are
// known by small integers, so a posting is a sorted run of 4-byte document
// numbers rather than a set of 32-byte IDs, and a document lists its tokens
// as numbers rather than in a map of strings. Numbers are recycled — a
// removed document's slot, and a token whose last document left, go on a
// free list — so create/delete churn does not grow the index.
type index struct {
	docs     []doc // by document number; a free slot has id == ids.Nil
	freeDocs []uint32
	byID     map[ids.ID]uint32

	toks     []token // by token number
	freeToks []uint32
	tokID    map[string]uint32 // keys are cloned once, on first sight

	scratch []uint32 // add's token numbers before they are a document's
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
	toks := slices.Grow(ix.scratch[:0], len(p.tokens))[:len(p.tokens)]
	ix.scratch = toks
	for i, text := range p.tokens {
		t, ok := ix.tokID[text]
		if !ok {
			t = number(&ix.freeToks, &ix.toks)
			text = strings.Clone(text)
			ix.tokID[text] = t
			ix.toks[t].text = text
		}
		tok := &ix.toks[t]
		if j, found := slices.BinarySearch(tok.docs, n); !found {
			tok.docs = slices.Insert(tok.docs, j, n)
		}
		toks[i] = t
	}
	slices.Sort(toks)
	old := ix.docs[n].toks
	for _, t := range old {
		if _, kept := slices.BinarySearch(toks, t); !kept {
			ix.unpost(t, n)
		}
	}
	// A document's list is exactly sized: a re-index with as many tokens as
	// before, as an edited comment or tag value mostly is, writes over it.
	if len(old) != len(toks) {
		old = make([]uint32, len(toks))
	}
	copy(old, toks)
	ix.docs[n] = doc{id: p.id, toks: old}
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
	if i, found := slices.BinarySearch(tok.docs, n); found {
		tok.docs = slices.Delete(tok.docs, i, i+1)
	}
	if len(tok.docs) == 0 {
		delete(ix.tokID, tok.text)
		*tok = token{}
		ix.freeToks = append(ix.freeToks, t)
	}
}

// find returns the IDs of the documents that contain every term, in document
// number order. It walks the shortest posting and looks each of its numbers
// up in the others by galloping on from where the last one was found, so a
// query costs about the rarest term's length times the log of the gaps.
func (ix *index) find(terms []string) []ids.ID {
	postings := make([][]uint32, len(terms))
	for i, text := range terms {
		t, ok := ix.tokID[text]
		if !ok {
			return nil
		}
		postings[i] = ix.toks[t].docs
	}
	slices.SortFunc(postings, func(a, b []uint32) int { return len(a) - len(b) })
	at := make([]int, len(postings)-1)
	var out []ids.ID
next:
	for _, n := range postings[0] {
		for i, p := range postings[1:] {
			j := seek(p, at[i], n)
			if j == len(p) {
				break next
			}
			if at[i] = j; p[j] != n {
				continue next
			}
		}
		out = append(out, ix.docs[n].id)
	}
	return out
}

// seek returns the first position at or after i where ascending p holds a
// number ≥ n, or len(p); every number before i must be < n. It doubles its
// step until it passes n, then binary-searches the last step.
func seek(p []uint32, i int, n uint32) int {
	step := 1
	for i+step < len(p) && p[i+step] < n {
		i += step
		step *= 2
	}
	j, _ := slices.BinarySearch(p[i:min(i+step, len(p))], n)
	return i + j
}

// size counts the index's documents, distinct tokens and posting entries
// (one per token a document holds).
func (ix *index) size() (docs, tokens, postings int) {
	for _, d := range ix.docs {
		postings += len(d.toks)
	}
	return len(ix.byID), len(ix.tokID), postings
}

// Service is the search index.
type Service struct {
	core *catalog.Service

	mu sync.RWMutex
	ix *index

	follower *events.Follower
	// The follower's: indexAsset runs on its goroutine alone.
	tk   tokenizer
	snap store.Snapshot
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
	var tk tokenizer
	for _, msID := range s.core.Metastores() {
		snap, err := s.core.DB().Snapshot(msID)
		if err != nil {
			continue
		}
		for _, e := range catalog.LiveEntities(snap) {
			ix.add(tk.parse(snap, e.ID, erm.Text{Name: e.Name, FullName: e.FullName, Comment: e.Comment}))
		}
		snap.Close()
	}
	s.mu.Lock()
	s.ix = ix
	s.mu.Unlock()
}

// indexAsset indexes the asset as it is now, which is never older than the
// event that named it (see catalog.LiveEntities): one snapshot serves the
// entity and its tags. It reads the entity's record and its tag rows where
// the store holds them, and allocates what the index keeps.
func (s *Service) indexAsset(msID string, id ids.ID) {
	if id == ids.Nil {
		return
	}
	snap := &s.snap
	if err := s.core.DB().OpenSnapshot(snap, msID); err != nil {
		return
	}
	defer snap.Close()
	rec, ok := snap.Get(erm.TableEntity, string(id))
	if !ok {
		return
	}
	text, ok := erm.ReadText(rec)
	switch {
	case !ok:
	case text.SoftDeleted:
		s.remove(id)
	default:
		p := s.tk.parse(snap, id, text)
		s.mu.Lock()
		s.ix.add(p)
		s.mu.Unlock()
	}
}

// tokenizer cuts documents into tokens, reusing its buffers from one
// document to the next: a document's text (its name, full name and comment,
// then each tag's key, value and key:value) is lowered into one buffer, and
// its tokens are substrings of that buffer.
type tokenizer struct {
	text   []byte
	spans  [][2]int // the tag tokens' [start, end) in text
	tokens []string
	key    []byte // the tag rows' prefix
}

// parse tokenizes the document of entity id, whose text is txt, and its
// tags, read in place through snap, and touches no index. What it returns is
// valid until the next parse, whose text overwrites its tokens' bytes: the
// index clones the tokens it keeps. The tokens are Tokenize's of the name,
// full name and comment, and each tag's lowered key, value and key:value,
// sorted and distinct.
func (t *tokenizer) parse(snap *store.Snapshot, id ids.ID, txt erm.Text) parsed {
	b := appendLower(t.text[:0], txt.Name)
	b = append(b, ' ')
	b = appendLower(b, txt.FullName)
	b = append(b, ' ')
	b = appendLower(b, txt.Comment)
	words := len(b)
	spans := t.spans[:0]
	t.key = erm.AppendPrefix(t.key[:0], id)
	snap.Each(erm.TableTag, unsafe.String(unsafe.SliceData(t.key), len(t.key)), func(row string, val []byte) bool {
		if _, _, key, ok := erm.TagParts(row); ok {
			k := len(b)
			b = appendLower(b, key)
			v := len(b)
			b = appendLower(b, val)
			end := len(b)
			b = append(b, b[k:v]...)
			b = append(b, ':')
			b = append(b, b[v:end]...)
			spans = append(spans, [2]int{k, v}, [2]int{v, end}, [2]int{end, len(b)})
		}
		return true
	})
	text := unsafe.String(unsafe.SliceData(b), len(b))
	tokens := splitInto(t.tokens[:0], text[:words])
	for _, sp := range spans {
		tokens = append(tokens, text[sp[0]:sp[1]])
	}
	t.text, t.spans, t.tokens = b, spans, tokens
	return parsed{id: id, tokens: distinct(tokens)}
}

// appendLower appends strings.ToLower(s): lowering the parts of a text one by
// one lowers the text, as a part ends and starts no multi-byte rune.
func appendLower[S string | []byte](dst []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return append(dst, strings.ToLower(string(s))...)
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

func (s *Service) remove(id ids.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ix.remove(id)
}

// splitInto appends the index tokens of lowered text to dst: its runs
// between separators, including dotted name components; a token may repeat.
// Every separator is ASCII, so no byte of a multi-byte rune is one.
func splitInto(dst []string, text string) []string {
	start := -1
	for i := 0; i <= len(text); i++ {
		sep := i == len(text)
		if !sep {
			switch text[i] {
			case ' ', '\t', '\n', '.', '/', '-', '_', ',', '(', ')':
				sep = true
			}
		}
		switch {
		case sep && start >= 0:
			dst, start = append(dst, text[start:i]), -1
		case !sep && start < 0:
			start = i
		}
	}
	return dst
}

// distinct sorts tokens and drops repeats, in place.
func distinct(tokens []string) []string {
	slices.Sort(tokens)
	return slices.Compact(tokens)
}

// Tokenize lowercases and splits text into its distinct index tokens,
// including dotted name components.
func Tokenize(text string) []string { return distinct(splitInto(nil, strings.ToLower(text))) }

// Result is one search hit.
type Result struct {
	ID       ids.ID `json:"id"`
	FullName string `json:"full_name"`
	Type     string `json:"type"`
	Score    int    `json:"score"` // matched terms
}

// Search finds assets matching all query terms (AND semantics; a term also
// matches tag key:value pairs), filtered to assets the principal may see,
// returning up to limit results (0 = 50) sorted by full name. A result's full
// name and type are read at one view when the query runs, and an asset that
// is no longer live there is not returned.
func (s *Service) Search(ctx catalog.Ctx, query string, limit int) ([]Result, error) {
	if limit <= 0 {
		limit = 50
	}
	terms := Tokenize(query)
	if len(terms) == 0 {
		return nil, nil
	}
	s.mu.RLock()
	found := s.ix.find(terms)
	s.mu.RUnlock()

	// One batched read through the core's authorization filter.
	ents, err := s.core.VisibleEntities(ctx, found)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(ents))
	for _, e := range ents {
		if e != nil {
			out = append(out, Result{ID: e.ID, FullName: e.FullName, Type: string(e.Type), Score: len(terms)})
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

// RegisterMetrics exposes what the index holds on r: documents, distinct
// tokens and posting entries. Call once per registry.
func (s *Service) RegisterMetrics(r *obs.Registry) {
	size := func() (docs, tokens, postings int) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.ix.size()
	}
	r.RegisterGaugeFunc("uc_search_documents", "Assets in the search index.", func() float64 { d, _, _ := size(); return float64(d) })
	r.RegisterGaugeFunc("uc_search_tokens", "Distinct terms in the search index.", func() float64 { _, t, _ := size(); return float64(t) })
	r.RegisterGaugeFunc("uc_search_postings", "Search posting entries: one per term an indexed asset holds.", func() float64 { _, _, p := size(); return float64(p) })
}
