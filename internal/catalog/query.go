package catalog

import (
	"sort"
	"strings"

	"unitycatalog/internal/cache"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/store"
)

// This file implements the metadata query API with filter pushdown that
// backs information-schema functionality (paper §4.2.2) and aggregate
// statistics used by the evaluation harness.

// Filter selects entities in a metadata query. Zero values match everything.
type Filter struct {
	Type         erm.SecurableType
	CatalogName  string
	SchemaName   string
	NameContains string
	NamePrefix   string // case-insensitive name prefix; pushed to the name index when scoped
	Owner        string
	TagKey       string
	TagValue     string // only with TagKey; "" matches any value
	IncludeSoft  bool   // include soft-deleted entities
	Limit        int    // 0 means unlimited

	// MaxResults/PageToken select keyset pagination (QueryAssetsPage).
	MaxResults int
	PageToken  string
}

// QueryAssets evaluates the filter over one consistent snapshot, applying
// the filters during the scan (pushdown) and returning only entities the
// principal may see.
func (s *Service) QueryAssets(ctx Ctx, f Filter) (out []*erm.Entity, err error) {
	var scope *erm.Entity // resolved catalog/schema scope, for the audit entry
	defer func() { s.apiAudit(ctx, "QueryAssets", entityID(scope), true, err) }()
	v, err := s.view(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	auth := s.authorizer(ctx, v)

	// Push catalog/schema filters down to the child index when possible
	// instead of scanning every entity.
	var candidates []*erm.Entity
	switch {
	case f.CatalogName != "" && f.SchemaName != "":
		ms, merr := s.meta(ctx.Metastore)
		if merr != nil {
			return nil, merr
		}
		schema, rerr := s.resolveEntity(v, ms, f.CatalogName+"."+f.SchemaName)
		if rerr != nil {
			return nil, rerr
		}
		scope = schema
		candidates = s.schemaCandidates(v, f, schema.ID)
	case f.CatalogName != "":
		ms, merr := s.meta(ctx.Metastore)
		if merr != nil {
			return nil, merr
		}
		cat, rerr := s.resolveEntity(v, ms, f.CatalogName)
		if rerr != nil {
			return nil, rerr
		}
		scope = cat
		for _, schema := range erm.ListChildren(v, cat.ID, erm.TypeSchema) {
			candidates = append(candidates, s.schemaCandidates(v, f, schema.ID)...)
		}
		if f.Type == "" || f.Type == erm.TypeSchema {
			candidates = append(candidates, erm.ListChildren(v, cat.ID, erm.TypeSchema)...)
		}
	case f.TagKey != "":
		// No container scope but a tag filter: the inverted tag index turns the
		// full entity scan into one prefix scan over the tagged securables.
		seen := map[ids.ID]bool{}
		var list []ids.ID
		for _, kv := range v.Scan(erm.TableTagIdx, erm.TagIdxPrefix(f.TagKey)) {
			if f.TagValue != "" && string(kv.Value) != f.TagValue {
				continue
			}
			if id, ok := erm.TagIdxSecurable(kv.Key); ok && !seen[id] {
				seen[id] = true
				list = append(list, id)
			}
		}
		candidates = erm.GetEntities(v, list)
	default:
		candidates = erm.DecodeEntityRows(v.Scan(erm.TableEntity, ""))
	}

	seen := map[ids.ID]bool{}
	for _, e := range candidates {
		if e == nil || seen[e.ID] {
			continue
		}
		seen[e.ID] = true
		if !matchesFilter(v, f, e) {
			continue
		}
		if !s.visible(ctx, auth, v, e) {
			continue
		}
		out = append(out, e)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName < out[j].FullName })
	return out, nil
}

// schemaCandidates returns the entities of one schema that f can match: the
// schema's name-index range when the filter allows it (the paged plans'
// rule, nameIndexed), else all its children of f.Type. The range scan is
// not cached — its prefix is the caller's, and the scan cache is keyed by
// prefix.
func (s *Service) schemaCandidates(v *cache.View, f Filter, schema ids.ID) []*erm.Entity {
	if !nameIndexed(f) {
		return erm.ListChildren(v, schema, f.Type)
	}
	table, prefix := s.schemaRange(f, schema, true)
	kvs := v.ScanRange(table, prefix, store.PrefixEnd(prefix), 0)
	list := make([]ids.ID, len(kvs))
	for i, kv := range kvs {
		list[i] = erm.IndexedID(kv)
	}
	return erm.GetEntities(v, list)
}

// matchesFilter applies the residual (non-pushdown) predicates to one
// entity. Shared by the sorted and the paged query paths.
func matchesFilter(r erm.Reader, f Filter, e *erm.Entity) bool {
	if f.Type != "" && e.Type != f.Type {
		return false
	}
	if !f.IncludeSoft && e.State == erm.StateSoftDeleted {
		return false
	}
	if f.NameContains != "" && !strings.Contains(strings.ToLower(e.Name), strings.ToLower(f.NameContains)) {
		return false
	}
	if f.NamePrefix != "" && !strings.HasPrefix(strings.ToLower(e.Name), strings.ToLower(f.NamePrefix)) {
		return false
	}
	if f.Owner != "" && string(e.Owner) != f.Owner {
		return false
	}
	if f.TagKey != "" && !hasTag(r, e.ID, f.TagKey, f.TagValue) {
		return false
	}
	return true
}

// hasTag reports whether the securable carries tag key — with that value,
// unless value is "" — reading the forward table as EntityTags does but
// building none of its maps. An entity-level tag decides alone; without one,
// any column's does.
func hasTag(r erm.Reader, id ids.ID, key, value string) bool {
	onColumn := false
	for _, kv := range r.Scan(erm.TableTag, erm.TagPrefix(id)) {
		rest := kv.Key[len(id)+1:]
		match := value == "" || string(kv.Value) == value
		if col, ok := strings.CutPrefix(rest, "col\x00"); !ok {
			if rest == key {
				return match
			}
		} else if _, k, found := strings.Cut(col, "\x00"); found && k == key && match {
			onColumn = true
		}
	}
	return onColumn
}

// LiveEntities returns every live entity r can see, without authorization:
// it and EntityTags serve trusted second-tier services that filter at query
// time via AuthorizeBatch. Event followers pass the store's current snapshot
// (DB().Snapshot), not a cache view: commit hooks fire after the store's
// version has advanced, so the snapshot is never older than the event in
// hand, while this node's cache advances only when the publishing write
// returns.
func LiveEntities(r erm.Reader) []*erm.Entity {
	ents := erm.DecodeEntityRows(r.Scan(erm.TableEntity, ""))
	out := ents[:0]
	for _, e := range ents {
		if e != nil && e.State != erm.StateSoftDeleted {
			out = append(out, e)
		}
	}
	return out
}

// TypeCounts tallies live entities per securable type across a metastore.
// Used by the usage-statistics experiments.
func (s *Service) TypeCounts(msID string) (map[erm.SecurableType]int, error) {
	v, err := s.viewMS(msID)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	out := map[erm.SecurableType]int{}
	for _, e := range LiveEntities(v) {
		out[e.Type]++
	}
	return out, nil
}

// WorkingSetBytes measures the serialized size of all metadata records of a
// metastore — the per-metastore "working set" of Figure 4.
func (s *Service) WorkingSetBytes(msID string) (int64, error) {
	v, err := s.viewMS(msID)
	if err != nil {
		return 0, err
	}
	defer v.Close()
	var total int64
	for _, table := range []string{erm.TableEntity, erm.TableName, erm.TablePath, erm.TableChild, erm.TableGrant, erm.TableTag, erm.TableABAC} {
		for _, kv := range v.Scan(table, "") {
			total += int64(len(kv.Key) + len(kv.Value))
		}
	}
	return total, nil
}
