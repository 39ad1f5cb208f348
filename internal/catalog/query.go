package catalog

import (
	"strings"

	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
)

// This file holds the filter of the metadata query API that backs
// information-schema functionality (paper §4.2.2) and its residual
// predicates — the plans it is pushed down into and the walk are the listing
// engine's, page.go — and the aggregate statistics the evaluation harness
// uses.

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
	Limit        int    // QueryAssets keeps the first Limit by full name; 0 means unlimited

	// MaxResults/PageToken select keyset pagination (QueryAssetsPage);
	// QueryAssets ignores them.
	MaxResults int
	PageToken  string
}

// matchesFilter applies the residual (non-pushdown) predicates to one
// entity.
func matchesFilter(r erm.Reader, f *Filter, e *erm.Entity) bool {
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
