package catalog

// Keyset pagination for listings and metadata queries (the tentpole of the
// catalog-cardinality work). A page token pins the snapshot version and the
// last index key consumed; a continuation reopens a store snapshot at that
// version and resumes the range scan after the key, so every page is
//
//   - O(log n + page) against the store's ordered indexes, never O(catalog);
//   - consistent: all pages of one cursor observe the same snapshot version,
//     so concurrent writers cause neither duplicates nor gaps;
//   - authorized per page: the principal's compiled privilege snapshot is
//     keyed by the pinned version, so visibility filtering streams with the
//     scan instead of materializing the full result first.
//
// Page order is index order — (type, id) for child listings, key order for
// the other indexes — not the name order of the unpaged APIs; stable cursors
// require iterating exactly the way the index does. Tokens are opaque
// base64url(JSON). Continuations read history the store retains
// (MaxVersionsPerRecord beyond live snapshots, and a deleted key's for as long
// as its delete is in the change log); a cursor held across heavy rewrites of
// the same keys, or past a change log's worth of commits after a purge, may
// observe pruned history and should be restarted, like any long-lived
// database cursor.

import (
	"encoding/base64"
	"encoding/json"
	"fmt"

	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/store"
)

// maxPageSize caps maxResults; larger requests are clamped, matching the
// behavior of public catalog APIs.
const maxPageSize = 1000

// Page is one page of a keyset-paginated listing or query. An empty
// NextPageToken means the result set is exhausted.
type Page struct {
	Assets        []*erm.Entity
	NextPageToken string
}

// pageCursor is the decoded page token.
type pageCursor struct {
	V  uint64 `json:"v"`            // pinned snapshot version
	S  string `json:"s"`            // plan tag; the continuation must select the same plan
	K  string `json:"k"`            // last index key consumed
	K2 string `json:"k2,omitempty"` // inner key for nested walks (catalog scope)
	G  int    `json:"g,omitempty"`  // stage for multi-stage walks
}

func encodeCursor(c pageCursor) string {
	b, _ := json.Marshal(c)
	return base64.RawURLEncoding.EncodeToString(b)
}

func decodeCursor(tok string) (*pageCursor, error) {
	b, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return nil, fmt.Errorf("%w: malformed page token", ErrInvalidArgument)
	}
	var c pageCursor
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%w: malformed page token", ErrInvalidArgument)
	}
	return &c, nil
}

// pagedReader is what a page executes against: versioned (to key the
// compiled-authz cache and the cursor), range-capable, batch-capable.
type pagedReader interface {
	erm.RangeReader
	erm.BatchReader
	Version() uint64
}

// snapReader adapts a pinned store snapshot to pagedReader. Snapshot carries
// its version as a field; the method shadows it for the interface.
type snapReader struct{ *store.Snapshot }

func (r snapReader) Version() uint64 { return r.Snapshot.Version }

// pageReader opens the reader for one page: a fresh cache view for the first
// page (pinning at the latest version), or a store snapshot at the cursor's
// version for continuations — cache views cannot rewind, but the store can.
func (s *Service) pageReader(ctx Ctx, cur *pageCursor) (pagedReader, func(), error) {
	if cur == nil {
		v, err := s.view(ctx)
		if err != nil {
			return nil, nil, err
		}
		return v, v.Close, nil
	}
	snap, err := s.db.SnapshotAt(ctx.Metastore, cur.V)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: stale page token: %v", ErrInvalidArgument, err)
	}
	return snapReader{snap}, snap.Close, nil
}

func clampPageSize(n int) int {
	if n <= 0 || n > maxPageSize {
		return maxPageSize
	}
	return n
}

// decodeAligned batch-reads the entity records stored under keys and decodes
// them into one slab, aligned with the input (nil where missing or
// undecodable).
func decodeAligned(r pagedReader, keys []string) []*erm.Entity {
	recs := r.GetBatch(erm.TableEntity, keys)
	return erm.DecodeEntities(len(keys), func(i int) (ids.ID, []byte) { return ids.ID(keys[i]), recs[i] })
}

// indexedEntities reads the entities a batch of index pairs points at
// (erm.IndexedID), aligned with the batch.
func indexedEntities(r pagedReader, batch []store.KV) []*erm.Entity {
	keys := make([]string, len(batch))
	for i, kv := range batch {
		keys[i] = string(erm.IndexedID(kv))
	}
	return decodeAligned(r, keys)
}

// pageCollector drives one page while tracking the last index key consumed,
// which becomes the continuation point. Admitted entities are handed to emit
// as the scan produces them — the caller decides whether to buffer them into
// a Page or stream them straight into a response body. stage/outer carry the
// extra cursor state of nested (catalog-scope) walks.
type pageCollector struct {
	emit    func(*erm.Entity)
	n       int
	lastKey string
	limit   int
	stage   int
	outer   string
}

func (p *pageCollector) add(e *erm.Entity) { p.n++; p.emit(e) }
func (p *pageCollector) full() bool        { return p.n >= p.limit }
func (p *pageCollector) room() int         { return p.limit - p.n }

// ListAssetsPage lists the children of parentFull having the given type in
// child-index order — (type, id) — returning at most maxResults visible
// assets and a token to continue from. It is the paginated sibling of
// ListAssets: same authorization, different order, bounded cost per call.
func (s *Service) ListAssetsPage(ctx Ctx, parentFull string, t erm.SecurableType, maxResults int, pageToken string) (*Page, error) {
	page := &Page{}
	next, err := s.ListAssetsPageFunc(ctx, parentFull, t, maxResults, pageToken, func(e *erm.Entity) {
		page.Assets = append(page.Assets, e)
	})
	if err != nil {
		return nil, err
	}
	page.NextPageToken = next
	return page, nil
}

// ListAssetsPageFunc is the streaming core of ListAssetsPage: each visible
// asset is passed to emit in index order as the scan produces it, and the
// continuation token (empty when exhausted) is returned. Every error path
// fires before the first emit, so callers may stream emissions directly into
// an HTTP response without a partial-write hazard.
func (s *Service) ListAssetsPageFunc(ctx Ctx, parentFull string, t erm.SecurableType, maxResults int, pageToken string, emit func(*erm.Entity)) (next string, err error) {
	var parent *erm.Entity
	defer func() { s.apiAudit(ctx, "ListAssets", entityID(parent), true, err) }()
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return "", err
	}
	var cur *pageCursor
	if pageToken != "" {
		if cur, err = decodeCursor(pageToken); err != nil {
			return "", err
		}
		if cur.S != "list" {
			return "", fmt.Errorf("%w: page token from a different request", ErrInvalidArgument)
		}
	}
	r, release, err := s.pageReader(ctx, cur)
	if err != nil {
		return "", err
	}
	defer release()

	chain, err := s.resolveParentChain(r, ms, parentFull)
	if err != nil {
		return "", err
	}
	if parent = leaf(chain); parentFull != "" {
		// Listing inside a container requires its usage privilege — checked
		// on every page, against the page's pinned version.
		if err := s.authorizeRead(ctx, r, chain); err != nil {
			return "", err
		}
	}
	auth := s.authorizer(ctx, r)

	prefix := erm.ChildPrefix(parent.ID, t)
	end := store.PrefixEnd(prefix)
	start := prefix
	if cur != nil {
		start = cur.K + "\x00"
	}
	pc := &pageCollector{limit: clampPageSize(maxResults), emit: emit}
	for !pc.full() {
		batch := r.ScanRange(erm.TableChild, start, end, pc.room())
		if len(batch) == 0 {
			break
		}
		ents := indexedEntities(r, batch)
		for i, kv := range batch {
			pc.lastKey = kv.Key
			e := ents[i]
			if e == nil || e.State == erm.StateSoftDeleted || !s.visible(ctx, auth, r, e) {
				continue
			}
			pc.add(e)
			if pc.full() {
				break
			}
		}
		start = pc.lastKey + "\x00"
	}

	if pc.lastKey != "" && len(r.ScanRange(erm.TableChild, pc.lastKey+"\x00", end, 1)) > 0 {
		next = encodeCursor(pageCursor{V: r.Version(), S: "list", K: pc.lastKey})
	}
	return next, nil
}

// nameIndexed reports whether f's candidates inside a schema can come from
// the schema's name-index range instead of its whole child range. The name
// index is keyed by name-uniqueness group, so it needs a type, and schemas
// are not children of schemas; soft deletion frees an entity's name key
// (softDeleteTree), so a query that includes soft-deleted assets must walk
// the child index, which keeps them.
func nameIndexed(f Filter) bool {
	return f.NamePrefix != "" && f.Type != "" && f.Type != erm.TypeSchema && !f.IncludeSoft
}

// queryPlan selects the index a paged query runs over. Deterministic in the
// filter, so continuations recompute the same plan.
func queryPlan(f Filter) string {
	switch {
	case f.CatalogName != "" && f.SchemaName != "":
		if nameIndexed(f) {
			return "name" // schema scope: one name-index range
		}
		return "child" // schema scope: one child range
	case f.CatalogName != "":
		if nameIndexed(f) {
			return "catname" // catalog scope: schema-by-schema name-index ranges
		}
		return "cat" // catalog scope: schema-by-schema child ranges
	case f.TagKey != "":
		return "tag" // inverted tag index
	default:
		return "scan" // entity-table range
	}
}

// schemaRange returns the index range holding a schema's candidates for f:
// the names starting with f.NamePrefix in the type's name group when byName,
// else the schema's children of f.Type. Values are entity IDs either way.
func (s *Service) schemaRange(f Filter, schema ids.ID, byName bool) (table, prefix string) {
	if byName {
		return erm.TableName, erm.NameKey(groupFor(s.reg, f.Type), schema, f.NamePrefix)
	}
	return erm.TableChild, erm.ChildPrefix(schema, f.Type)
}

// QueryAssetsPage evaluates the filter with keyset pagination, returning at
// most f.MaxResults entities per call in index order plus a continuation
// token in f.PageToken's format. The plan pushes the most selective filter
// into an ordered index range; residual predicates and per-entity visibility
// stream over the scan.
func (s *Service) QueryAssetsPage(ctx Ctx, f Filter) (*Page, error) {
	page := &Page{}
	next, err := s.QueryAssetsPageFunc(ctx, f, func(e *erm.Entity) {
		page.Assets = append(page.Assets, e)
	})
	if err != nil {
		return nil, err
	}
	page.NextPageToken = next
	return page, nil
}

// QueryAssetsPageFunc is the streaming core of QueryAssetsPage: each matching
// entity is passed to emit in index order as the plan's scan produces it, and
// the continuation token (empty when exhausted) is returned. Every error path
// fires before the first emit, so callers may stream emissions directly into
// an HTTP response without a partial-write hazard.
func (s *Service) QueryAssetsPageFunc(ctx Ctx, f Filter, emit func(*erm.Entity)) (next string, err error) {
	var scope *erm.Entity
	defer func() { s.apiAudit(ctx, "QueryAssets", entityID(scope), true, err) }()
	plan := queryPlan(f)
	var cur *pageCursor
	if f.PageToken != "" {
		if cur, err = decodeCursor(f.PageToken); err != nil {
			return "", err
		}
		if cur.S != plan {
			return "", fmt.Errorf("%w: page token from a different query", ErrInvalidArgument)
		}
	}
	r, release, err := s.pageReader(ctx, cur)
	if err != nil {
		return "", err
	}
	defer release()
	auth := s.authorizer(ctx, r)
	pc := &pageCollector{limit: clampPageSize(f.MaxResults), emit: emit}

	// admit applies residual filters and visibility; returns true when the
	// page is full.
	admit := func(key string, e *erm.Entity) bool {
		pc.lastKey = key
		if e != nil && matchesFilter(r, f, e) && s.visible(ctx, auth, r, e) {
			pc.add(e)
		}
		return pc.full()
	}
	// walkIDRange pages an index whose values are entity IDs until the page
	// is full or the range is exhausted; more reports keys left in the range.
	walkIDRange := func(table, start, end string) (more bool) {
		for !pc.full() {
			asked := pc.room()
			batch := r.ScanRange(table, start, end, asked)
			ents := indexedEntities(r, batch)
			for i, kv := range batch {
				if admit(kv.Key, ents[i]) {
					break
				}
			}
			if len(batch) < asked {
				return false // a short batch is the end of the range
			}
			start = pc.lastKey + "\x00"
		}
		return len(r.ScanRange(table, pc.lastKey+"\x00", end, 1)) > 0
	}

	more := false
	switch plan {
	case "child", "name":
		ms, merr := s.meta(ctx.Metastore)
		if merr != nil {
			return "", merr
		}
		schema, rerr := s.resolveEntity(r, ms, f.CatalogName+"."+f.SchemaName)
		if rerr != nil {
			return "", rerr
		}
		scope = schema
		table, prefix := s.schemaRange(f, schema.ID, plan == "name")
		start := prefix
		if cur != nil {
			start = cur.K + "\x00"
		}
		more = walkIDRange(table, start, store.PrefixEnd(prefix))

	case "tag":
		prefix := erm.TagIdxPrefix(f.TagKey)
		start := prefix
		if cur != nil {
			start = cur.K + "\x00"
		}
		end := store.PrefixEnd(prefix)
		// The inverted index repeats a securable once per tagged column;
		// adjacent rows share the ID, so dedup needs only the previous one.
		// Residual value/visibility checks run against the forward table.
		var prevID ids.ID
		if cur != nil {
			if id, ok := erm.TagIdxSecurable(cur.K); ok {
				prevID = id
			}
		}
		for !pc.full() {
			batch := r.ScanRange(erm.TableTagIdx, start, end, pc.room()+1)
			if len(batch) == 0 {
				break
			}
			// cand[j] indexes keys for the rows that name a new securable.
			cand := make([]int, len(batch))
			keys := make([]string, 0, len(batch))
			for j, kv := range batch {
				cand[j] = -1
				if id, ok := erm.TagIdxSecurable(kv.Key); ok && id != prevID {
					prevID = id
					cand[j] = len(keys)
					keys = append(keys, string(id))
				}
			}
			ents := decodeAligned(r, keys)
			for j, kv := range batch {
				if cand[j] < 0 {
					pc.lastKey = kv.Key
				} else if admit(kv.Key, ents[cand[j]]) {
					break
				}
			}
			start = pc.lastKey + "\x00"
		}
		more = len(r.ScanRange(erm.TableTagIdx, pc.lastKey+"\x00", end, 1)) > 0

	case "cat", "catname":
		ms, merr := s.meta(ctx.Metastore)
		if merr != nil {
			return "", merr
		}
		cat, rerr := s.resolveEntity(r, ms, f.CatalogName)
		if rerr != nil {
			return "", rerr
		}
		scope = cat
		more = s.walkCatalogPage(r, f, cur, pc, walkIDRange, cat, plan == "catname")

	default: // "scan": entity-table range
		start := ""
		if cur != nil {
			start = cur.K + "\x00"
		}
		for !pc.full() {
			batch := r.ScanRange(erm.TableEntity, start, "", pc.room())
			if len(batch) == 0 {
				break
			}
			ents := erm.DecodeEntityRows(batch)
			for i, kv := range batch {
				if admit(kv.Key, ents[i]) {
					break
				}
			}
			start = pc.lastKey + "\x00"
		}
		more = len(r.ScanRange(erm.TableEntity, pc.lastKey+"\x00", "", 1)) > 0
	}

	if more && pc.lastKey != "" {
		next = encodeCursor(pageCursor{V: r.Version(), S: plan, K: pc.lastKey, K2: pc.outer, G: pc.stage})
	}
	return next, nil
}

// walkCatalogPage pages a catalog-scoped query: each schema's candidates in
// index order (stage 0) — its name-index range when byName, else its child
// range — then, for the child walk, the schemas themselves when the type
// filter admits them (stage 1). The cursor records the outer schema child
// key in K2 and the inner (name or child) key in K. Every candidate passes
// through walk's per-entity filter and visibility check: visibility is per
// entity (a direct grant shows a table inside a schema the principal cannot
// use), so no schema is skipped on the principal's account.
func (s *Service) walkCatalogPage(r pagedReader, f Filter, cur *pageCursor, pc *pageCollector, walk func(table, start, end string) bool, cat *erm.Entity, byName bool) (more bool) {
	schemaPrefix := erm.ChildPrefix(cat.ID, erm.TypeSchema)
	schemaEnd := store.PrefixEnd(schemaPrefix)
	withSchemas := !byName && (f.Type == "" || f.Type == erm.TypeSchema)

	stage, outer, inner := 0, "", ""
	if cur != nil {
		stage, outer, inner = cur.G, cur.K2, cur.K
	}
	pc.stage, pc.outer = stage, outer

	if stage == 0 {
		outerStart := schemaPrefix
		if outer != "" {
			outerStart = outer // resume at the same schema
		}
		for _, skv := range r.ScanRange(erm.TableChild, outerStart, schemaEnd, 0) {
			pc.outer = skv.Key
			table, prefix := s.schemaRange(f, ids.ID(skv.Value), byName)
			start := prefix
			if inner != "" {
				start, inner = inner+"\x00", ""
			}
			if walk(table, start, store.PrefixEnd(prefix)) {
				return true
			}
			if pc.full() {
				// This schema is exhausted; more work remains if another
				// schema (or the schema stage) follows.
				return withSchemas || len(r.ScanRange(erm.TableChild, skv.Key+"\x00", schemaEnd, 1)) > 0
			}
		}
		if !withSchemas {
			return false
		}
		// Fall through to the schema stage with a fresh inner cursor.
		pc.stage, pc.lastKey, inner = 1, "", ""
	}

	// Stage 1: the schemas themselves, in child-index order.
	start := schemaPrefix
	if inner != "" {
		start = inner + "\x00"
	}
	return walk(erm.TableChild, start, schemaEnd)
}
