package catalog

// The listing engine: every "what is in this container" and "what matches
// this filter" — ListAssets, ListAssetsPage(Func), QueryAssets,
// QueryAssetsPage(Func) — is a plan walked by one loop.
//
// A plan is one or more ordered index ranges (a table and a key prefix) whose
// rows name entities: a row of the child or the name table, which the store
// derives from the entity records, comes with its entity's record, the entity
// table holds the entities, and a row of the inverted tag index, derived from
// the tag records, holds a securable's ID in its key once per tagged column
// and comes with its tag's record. listing.walk is
// the loop: read rows, turn them into entities, admit those that pass the
// filter and the principal's visibility, remember the last key consumed, stop
// when the page is full or a short batch says the range has ended.
//
// A paged call bounds the walk and returns a token that pins the snapshot
// version and the last key consumed; a continuation reopens a store snapshot
// at that version and resumes after the key, so every page is
//
//   - O(log n + page) against the store's ordered indexes, never O(catalog);
//   - consistent: all pages of one cursor observe the same snapshot version,
//     so concurrent writers cause neither duplicates nor gaps;
//   - authorized per page: the principal's compiled privilege snapshot is
//     keyed by the pinned version, so visibility filtering streams with the
//     scan instead of materializing the full result first.
//
// An unpaged call is the same walk with no bound, on the one view it opened:
// it reads each range whole and sorts what the walk emitted (ListAssets by
// Name, QueryAssets by FullName).
//
// Page order is index order — (type, id) for child listings, key order for
// the other indexes; stable cursors require iterating exactly the way the
// index does. Tokens are opaque base64url(JSON). Continuations read history
// the store retains (MaxVersionsPerRecord beyond live snapshots, and a deleted
// key's for as long as its delete is in the change log); a cursor held across
// heavy rewrites of the same keys, or past a change log's worth of commits
// after a purge, may observe pruned history and should be restarted, like any
// long-lived database cursor.

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/jsonstr"
	"unitycatalog/internal/privilege"
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

// after is the key a walk resumes after: "" without a cursor.
func (c *pageCursor) after() string {
	if c == nil {
		return ""
	}
	return c.K
}

// encodeCursor mints c's token: base64 over json.Marshal's bytes for c,
// appended by hand (cursor_test.go holds the two together), so a token minted
// by a node that still marshals decodes here and one minted here there.
func encodeCursor(c pageCursor) string {
	var js [256]byte
	b := append(js[:0], `{"v":`...)
	b = strconv.AppendUint(b, c.V, 10)
	b = append(b, `,"s":`...)
	b = jsonstr.Append(b, c.S)
	b = append(b, `,"k":`...)
	b = jsonstr.Append(b, c.K)
	if c.K2 != "" {
		b = append(b, `,"k2":`...)
		b = jsonstr.Append(b, c.K2)
	}
	if c.G != 0 {
		b = append(b, `,"g":`...)
		b = strconv.AppendInt(b, int64(c.G), 10)
	}
	b = append(b, '}')
	var tok [512]byte
	return string(base64.RawURLEncoding.AppendEncode(tok[:0], b))
}

// decodeCursor decodes the token of a request that selected plan; "" (a
// first page, or an unpaged call) is no cursor. Only the server mints tokens,
// so one that is not what encodeCursor writes is malformed.
func decodeCursor(tok, plan string) (*pageCursor, error) {
	if tok == "" {
		return nil, nil
	}
	b, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return nil, fmt.Errorf("%w: malformed page token", ErrInvalidArgument)
	}
	c := new(pageCursor)
	if !c.parse(b, plan) {
		return nil, fmt.Errorf("%w: malformed page token", ErrInvalidArgument)
	}
	if c.S != plan {
		return nil, fmt.Errorf("%w: page token from a different request", ErrInvalidArgument)
	}
	return c, nil
}

// parse reads b into c when it is what encodeCursor writes: every member in
// its order, no space, integers as strconv writes them. S reads as plan when
// it spells it, so a continuation allocates its keys alone. On false c may
// hold part of b.
func (c *pageCursor) parse(b []byte, plan string) bool {
	var sc [256]byte
	var v []byte
	b, ok := bytes.CutPrefix(b, []byte(`{"v":`))
	if !ok {
		return false
	}
	if c.V, b, ok = leadingUint(b); !ok {
		return false
	}
	if b, ok = bytes.CutPrefix(b, []byte(`,"s":`)); !ok {
		return false
	}
	if v, b, ok = jsonstr.AppendUnquoted(sc[:0], b); !ok {
		return false
	}
	if c.S = plan; string(v) != plan {
		c.S = string(v)
	}
	if b, ok = bytes.CutPrefix(b, []byte(`,"k":`)); !ok {
		return false
	}
	if v, b, ok = jsonstr.AppendUnquoted(sc[:0], b); !ok {
		return false
	}
	c.K = string(v)
	if rest, found := bytes.CutPrefix(b, []byte(`,"k2":`)); found {
		if v, b, ok = jsonstr.AppendUnquoted(sc[:0], rest); !ok {
			return false
		}
		c.K2 = string(v)
	}
	if rest, found := bytes.CutPrefix(b, []byte(`,"g":`)); found {
		neg := len(rest) > 0 && rest[0] == '-'
		if neg {
			rest = rest[1:]
		}
		var u uint64
		if u, b, ok = leadingUint(rest); !ok || u > math.MaxInt {
			return false
		}
		if c.G = int(u); neg {
			c.G = -c.G
		}
	}
	return string(b) == "}"
}

// leadingUint reads the unsigned integer b starts with, written as strconv
// writes one (no leading zero), refusing one past math.MaxUint64.
func leadingUint(b []byte) (u uint64, rest []byte, ok bool) {
	i := 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if u > (math.MaxUint64-d)/10 {
			return 0, b, false
		}
		u = u*10 + d
	}
	if i == 0 || b[0] == '0' && i > 1 {
		return 0, b, false
	}
	return u, b[i:], true
}

// pagedReader is what a listing executes against: versioned (to key the
// compiled-authz cache and the cursor) and batch-capable.
type pagedReader interface {
	versionedReader
	erm.BatchReader
}

// snapReader adapts a pinned store snapshot to pagedReader. Snapshot carries
// its version as a field; the method shadows it for the interface.
type snapReader struct{ *store.Snapshot }

func (r snapReader) Version() uint64 { return r.Snapshot.Version }

// pageReader opens the reader of one call: a fresh cache view when there is
// no cursor (pinning at the latest version), or a store snapshot at the
// cursor's version for continuations — cache views cannot rewind, but the
// store can.
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

// tagEntities turns the rows of one batch of the tag index into the entities
// they name, aligned with the batch; nil where there is nothing to admit. The
// index holds a securable once per tagged column, its entity-level row
// (column "") first, and a row carries its tag's record, so the rows decide
// the tag: the entity-level row alone, else the first column row whose value
// matches admits the securable. Only admitted ones are read.
func (l *listing) tagEntities(rows []store.GroupRow) []*erm.Entity {
	at := make([]int, len(rows)) // index into keys, -1 for a row that admits nothing
	keys := make([]string, 0, len(rows))
	for i, row := range rows {
		at[i] = -1
		sec, column, _ := strings.Cut(row.Sort, "\x00")
		if id := ids.ID(sec); id != l.tagSec {
			l.tagSec, l.tagDone = id, false
		}
		if l.tagDone {
			continue
		}
		match := l.tagValue == "" || string(row.Value) == l.tagValue
		l.tagDone = match || column == ""
		if match {
			at[i] = len(keys)
			keys = append(keys, sec)
		}
	}
	named := decodeAligned(l.r, keys)
	ents := make([]*erm.Entity, len(rows))
	for i, k := range at {
		if k >= 0 {
			ents[i] = named[k]
		}
	}
	return ents
}

// listing is one run of the engine: the reader and authorizer of the call,
// the residual filter every candidate passes, where admitted entities go,
// and the cursor state the token is cut from. limit 0 walks to the end.
type listing struct {
	s     *Service
	ctx   Ctx
	r     pagedReader
	auth  privilege.Authorizer
	abac  lazyABAC
	f     Filter
	emit  func(*erm.Entity)
	limit int

	n int
	// The last index key consumed is lastGroup+lastKey: a child row is its
	// group and its entity's ID, a name row its group and the entity's
	// lowered name (store.GroupRow), joined only when a cursor or the next
	// batch needs the key; any other row has no group.
	lastGroup, lastKey string
	stage              int // catalog scope: 0 inside the schemas, 1 the schemas themselves
	// catalog scope: the child key of the schema being walked, outerGroup+outer.
	outerGroup, outer string
	// The tag plan's value to match ("" any), the securable whose index rows
	// the walk is in, and whether they have decided its tag yet (tagEntities).
	tagValue string
	tagSec   ids.ID
	tagDone  bool
}

// full reports a bounded page with no room left.
func (l *listing) full() bool { return l.limit > 0 && l.n >= l.limit }

func (s *Service) newListing(ctx Ctx, r pagedReader, f Filter, limit int, emit func(*erm.Entity)) *listing {
	return &listing{s: s, ctx: ctx, r: r, auth: s.authorizer(ctx, r), f: f, limit: limit, emit: emit}
}

// read returns up to n rows (0: all) of the keys of table under prefix, from
// start on: one range of the store's ordered index.
func (l *listing) read(table, prefix, start string, n int) []store.KV {
	return l.r.ScanRange(table, start, store.PrefixEnd(prefix), n)
}

// readGroupRows is read for a derived table: its rows with their entities'
// records.
func (l *listing) readGroupRows(table, prefix, start string, n int) []store.GroupRow {
	return l.r.GroupRows(table, start, store.PrefixEnd(prefix), n)
}

// last is the last index key consumed.
func (l *listing) last() string { return l.lastGroup + l.lastKey }

// walk is the engine's page loop, the only one: it runs the keys of table
// under prefix that follow after ("" for all of them) through the filter and
// the principal's visibility, emitting what passes, until the page is full or
// the range ends. more reports keys left in the range. A bounded batch asks
// for one row past the page's room, so a short batch is the end of the range
// and no second read is needed to know whether a token is due. The caller
// guarantees room on the page.
func (l *listing) walk(table, prefix, after string) (more bool) {
	if table == erm.TableTagIdx && after != "" {
		// A page ends on a row that admitted its securable.
		sec, _, _ := strings.Cut(strings.TrimPrefix(after, prefix), "\x00")
		l.tagSec, l.tagDone = ids.ID(sec), true
	}
	start := prefix
	for {
		if after != "" {
			start = after + "\x00"
		}
		ask := 0
		if l.limit > 0 {
			ask = l.limit - l.n + 1
		}
		// A child or name row is its group and its entity's ID and record, a
		// tag-index row its group and its tag's record, and an entity-table
		// row the entity's.
		grouped := table != erm.TableEntity
		var (
			rows    []store.KV
			derived []store.GroupRow
			ents    []*erm.Entity
			n       int
		)
		if grouped {
			derived = l.readGroupRows(table, prefix, start, ask)
			n = len(derived)
		} else {
			rows = l.read(table, prefix, start, ask)
			n = len(rows)
		}
		goesOn := ask > 0 && n == ask
		if goesOn {
			n--
		}
		switch table {
		case erm.TableEntity:
			ents = erm.DecodeEntityRows(rows[:n])
		case erm.TableTagIdx:
			ents = l.tagEntities(derived[:n])
		default:
			ents = erm.DecodeEntities(n, func(i int) (ids.ID, []byte) { return ids.ID(derived[i].Key), derived[i].Value })
		}
		for i, e := range ents {
			if grouped {
				l.lastGroup, l.lastKey = derived[i].Group, derived[i].Sort
			} else {
				l.lastGroup, l.lastKey = "", rows[i].Key
			}
			if e != nil && matchesFilter(l.r, &l.f, e) && l.s.visible(l.ctx, l.auth, l.r, &l.abac, e) {
				l.n++
				l.emit(e)
				if l.full() {
					return goesOn || i < n-1
				}
			}
		}
		if !goesOn {
			return false
		}
		after = l.last()
	}
}

// walkCatalog walks a catalog-scoped query: each schema's candidates in
// index order (stage 0) — its name-index range when byName, else its child
// range — then, for the child walk, the schemas themselves when the type
// filter admits them (stage 1). The cursor records the outer schema child
// key in K2 and the inner (name or child) key in K. Every candidate passes
// through walk's filter and visibility check: visibility is per entity (a
// direct grant shows a table inside a schema the principal cannot use), so
// no schema is skipped on the principal's account.
func (l *listing) walkCatalog(cat ids.ID, cur *pageCursor, byName bool) (more bool) {
	schemaPrefix := erm.ChildPrefix(cat, erm.TypeSchema)
	withSchemas := !byName && (l.f.Type == "" || l.f.Type == erm.TypeSchema)

	inner := ""
	if cur != nil {
		l.stage, l.outer, inner = cur.G, cur.K2, cur.K
	}
	if l.stage == 0 {
		outerStart := schemaPrefix
		if l.outer != "" {
			outerStart = l.outer // resume at the same schema
		}
		schemas := l.readGroupRows(erm.TableChild, schemaPrefix, outerStart, 0)
		for i, schema := range schemas {
			l.outerGroup, l.outer = schema.Group, schema.Key
			table, prefix := l.s.schemaRange(l.f, ids.ID(schema.Key), byName)
			if l.walk(table, prefix, inner) {
				return true
			}
			inner = ""
			if l.full() {
				// This schema is exhausted; more work remains if another
				// schema (or the schema stage) follows.
				return withSchemas || i < len(schemas)-1
			}
		}
		if !withSchemas {
			return false
		}
		// Fall through to the schema stage with a fresh inner cursor.
		l.stage, l.lastGroup, l.lastKey = 1, "", ""
	}
	return l.walk(erm.TableChild, schemaPrefix, inner)
}

// token is the continuation of a walk that left more behind.
func (l *listing) token(plan string, more bool) string {
	last := l.last()
	if !more || last == "" {
		return ""
	}
	return encodeCursor(pageCursor{V: l.r.Version(), S: plan, K: last, K2: l.outerGroup + l.outer, G: l.stage})
}

// ListAssets lists the children of parentFull having the given type that the
// principal is allowed to see (owners always see their assets), sorted by
// name. An empty type lists all children.
func (s *Service) ListAssets(ctx Ctx, parentFull string, t erm.SecurableType) ([]*erm.Entity, error) {
	out := make([]*erm.Entity, 0, 64) // most containers fit; never nil, an empty listing encodes as []
	if _, err := s.listAssets(ctx, parentFull, t, 0, "", func(e *erm.Entity) { out = append(out, e) }); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ListAssetsPage is ListAssets a page at a time: at most maxResults visible
// assets in child-index order — (type, id) — and a token to continue from.
// Same authorization, bounded cost per call.
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

// ListAssetsPageFunc is the streaming form of ListAssetsPage: each visible
// asset is passed to emit in index order as the scan produces it, and the
// continuation token (empty when exhausted) is returned. Every error path
// fires before the first emit, so callers may stream emissions directly into
// an HTTP response without a partial-write hazard.
func (s *Service) ListAssetsPageFunc(ctx Ctx, parentFull string, t erm.SecurableType, maxResults int, pageToken string, emit func(*erm.Entity)) (next string, err error) {
	return s.listAssets(ctx, parentFull, t, clampPageSize(maxResults), pageToken, emit)
}

// listAssets is the list plan — one child-index range of the parent — behind
// ListAssets (limit 0) and ListAssetsPageFunc.
func (s *Service) listAssets(ctx Ctx, parentFull string, t erm.SecurableType, limit int, pageToken string, emit func(*erm.Entity)) (next string, err error) {
	var parent *erm.Entity
	defer func() { s.apiAudit(ctx, "ListAssets", entityID(parent), true, err) }()
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return "", err
	}
	cur, err := decodeCursor(pageToken, "list")
	if err != nil {
		return "", err
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
	l := s.newListing(ctx, r, Filter{Type: t}, limit, emit)
	return l.token("list", l.walk(erm.TableChild, erm.ChildPrefix(parent.ID, t), cur.after())), nil
}

// nameIndexed reports whether f's candidates inside a schema can come from
// the schema's name-index range instead of its whole child range. The name
// index is keyed by name-uniqueness group, so it needs a type, and schemas
// are not children of schemas; a soft-deleted entity derives no name row
// (softDeleteTree), so a query that includes soft-deleted assets must walk
// the child index, which keeps them.
func nameIndexed(f Filter) bool {
	return f.NamePrefix != "" && f.Type != "" && f.Type != erm.TypeSchema && !f.IncludeSoft
}

// queryPlan selects the index a query runs over. Deterministic in the
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
// else the schema's children of f.Type. Either table's rows come with their
// entities' records (GroupRows).
func (s *Service) schemaRange(f Filter, schema ids.ID, byName bool) (table, prefix string) {
	if byName {
		return erm.TableName, erm.NameKey(erm.NameGroupOf(f.Type), schema, f.NamePrefix)
	}
	return erm.TableChild, erm.ChildPrefix(schema, f.Type)
}

// QueryAssets evaluates the filter over one consistent snapshot — the paper's
// metadata query API with filter pushdown (§4.2.2): the plan pushes the most
// selective filter into an ordered index range; residual predicates and
// per-entity visibility stream over the scan. It returns every match the
// principal may see sorted by full name, the first f.Limit of them when
// f.Limit is set.
func (s *Service) QueryAssets(ctx Ctx, f Filter) (out []*erm.Entity, err error) {
	f.PageToken = ""
	if _, err := s.queryAssets(ctx, f, 0, func(e *erm.Entity) { out = append(out, e) }); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName < out[j].FullName })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out, nil
}

// QueryAssetsPage is QueryAssets a page at a time: at most f.MaxResults
// entities per call in index order plus a continuation token in
// f.PageToken's format.
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

// QueryAssetsPageFunc is the streaming form of QueryAssetsPage: each matching
// entity is passed to emit in index order as the plan's scan produces it, and
// the continuation token (empty when exhausted) is returned. Every error path
// fires before the first emit, so callers may stream emissions directly into
// an HTTP response without a partial-write hazard.
func (s *Service) QueryAssetsPageFunc(ctx Ctx, f Filter, emit func(*erm.Entity)) (next string, err error) {
	return s.queryAssets(ctx, f, clampPageSize(f.MaxResults), emit)
}

// queryAssets runs f's plan behind QueryAssets (limit 0) and
// QueryAssetsPageFunc.
func (s *Service) queryAssets(ctx Ctx, f Filter, limit int, emit func(*erm.Entity)) (next string, err error) {
	var scope *erm.Entity // resolved catalog/schema scope, for the audit entry
	defer func() { s.apiAudit(ctx, "QueryAssets", entityID(scope), true, err) }()
	plan := queryPlan(f)
	cur, err := decodeCursor(f.PageToken, plan)
	if err != nil {
		return "", err
	}
	r, release, err := s.pageReader(ctx, cur)
	if err != nil {
		return "", err
	}
	defer release()
	l := s.newListing(ctx, r, f, limit, emit)
	if f.CatalogName != "" {
		ms, err := s.meta(ctx.Metastore)
		if err != nil {
			return "", err
		}
		full := f.CatalogName
		if f.SchemaName != "" {
			full += "." + f.SchemaName
		}
		if scope, err = s.resolveEntity(r, ms, full); err != nil {
			return "", err
		}
	}

	more := false
	switch plan {
	case "child", "name":
		table, prefix := s.schemaRange(f, scope.ID, plan == "name")
		more = l.walk(table, prefix, cur.after())
	case "cat", "catname":
		more = l.walkCatalog(scope.ID, cur, plan == "catname")
	case "tag":
		// The index rows decide the tag, so it leaves the residual filter.
		l.tagValue, l.f.TagKey, l.f.TagValue = f.TagValue, "", ""
		more = l.walk(erm.TableTagIdx, erm.TagIdxPrefix(f.TagKey), cur.after())
	default: // "scan"
		more = l.walk(erm.TableEntity, "", cur.after())
	}
	return l.token(plan, more), nil
}
