package catalog

import (
	"cmp"
	"fmt"
	"slices"

	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// LineageNode is one asset a walk of the lineage graph (paper §4.4, erm.Edge)
// reached, by the first edge to it.
type LineageNode struct {
	Asset ids.ID   `json:"asset"`
	Depth int      `json:"depth"`
	Via   erm.Edge `json:"via"`
}

// SubmitLineage records the edges an engine reports. Both ends of each must
// pass lineageEnd; the principal is ctx's and the time the catalog clock's.
// An edge already recorded with the same upstream, downstream and job is not
// written again, so a call that adds nothing commits nothing.
func (s *Service) SubmitLineage(ctx Ctx, edges []erm.Edge) (err error) {
	defer func() { s.apiAudit(ctx, "SubmitLineage", ids.Nil, false, err) }()
	if _, err := s.meta(ctx.Metastore); err != nil {
		return err
	}
	v, err := s.view(ctx)
	if err != nil {
		return err
	}
	defer v.Close()
	auth, abac := s.authorizer(ctx, v), &lazyABAC{}
	for _, e := range edges {
		if err := cmp.Or(s.lineageEnd(ctx, auth, abac, v, e.Upstream), s.lineageEnd(ctx, auth, abac, v, e.Downstream)); err != nil {
			return err
		}
	}
	now := s.clk.Now()
	_, err = s.cache.UpdateT(ctx.Trace, ctx.Metastore, func(tx *store.Tx) error {
		for _, e := range edges {
			for _, id := range [2]ids.ID{e.Upstream, e.Downstream} { // another node may have deleted it since v
				if cur, ok := erm.GetEntity(tx, id); !ok || cur.State == erm.StateSoftDeleted {
					return fmt.Errorf("%w: entity %s", ErrNotFound, id.Short())
				}
			}
			e.Principal, e.Time = string(ctx.Principal), now
			erm.PutEdge(tx, &e)
		}
		return nil
	})
	return err
}

// lineageEnd checks that id, an edge's end or a walk's start, is a live
// entity of ctx's metastore that ctx may see, as everything a walk returns is.
// One ctx may not see is not found, as everywhere in the catalog; one of
// another metastore is an invalid argument, since a walk reads ctx's only.
// auth is bound to r and abac holds r's rules.
func (s *Service) lineageEnd(ctx Ctx, auth privilege.Authorizer, abac *lazyABAC, r versionedReader, id ids.ID) error {
	e, here := erm.GetEntity(r, id)
	if here && e.State != erm.StateSoftDeleted && s.visible(ctx, auth, r, abac, e) {
		return nil
	} else if err := backendErr(r); !here && err != nil {
		return err
	}
	for _, other := range s.Metastores() {
		if here || other == ctx.Metastore {
			continue
		}
		if ov, err := s.viewMS(other); err == nil {
			_, found := erm.GetEntity(ov, id)
			ov.Close()
			if found {
				return fmt.Errorf("%w: %s is in metastore %s", ErrInvalidArgument, id.Short(), other)
			}
		}
	}
	return fmt.Errorf("%w: entity %s", ErrNotFound, id.Short())
}

// LineageWalk walks the lineage graph breadth first from id, downstream or
// upstream, to maxDepth (<= 0: no limit) on one view, and returns the live
// entities it reached that ctx may see, by depth and then ID. The walk passes
// through entities it does not return.
func (s *Service) LineageWalk(ctx Ctx, id ids.ID, maxDepth int, downstream bool) (out []LineageNode, err error) {
	defer func() { s.apiAudit(ctx, "GetLineage", id, true, err) }()
	if _, err := s.meta(ctx.Metastore); err != nil {
		return nil, err
	}
	v, err := s.view(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	auth, abac := s.authorizer(ctx, v), &lazyABAC{}
	if err := s.lineageEnd(ctx, auth, abac, v, id); err != nil {
		return nil, err
	}
	seen := map[ids.ID]bool{id: true}
	for queue := []LineageNode{{Asset: id}}; len(queue) > 0; queue = queue[1:] {
		if maxDepth > 0 && queue[0].Depth == maxDepth {
			continue
		}
		for _, e := range erm.Edges(v, queue[0].Asset, downstream) {
			n := LineageNode{Asset: e.Upstream, Depth: queue[0].Depth + 1, Via: e}
			if downstream {
				n.Asset = e.Downstream
			}
			if seen[n.Asset] {
				continue
			}
			seen[n.Asset] = true
			queue = append(queue, n)
			if ent, ok := erm.GetEntity(v, n.Asset); ok && ent.State != erm.StateSoftDeleted && s.visible(ctx, auth, v, abac, ent) {
				out = append(out, n)
			}
		}
	}
	slices.SortFunc(out, func(a, b LineageNode) int { return cmp.Or(a.Depth-b.Depth, cmp.Compare(a.Asset, b.Asset)) })
	return out, backendErr(v)
}
