// Package lineage is the lineage service of the paper's discovery catalog
// tier (§4.4): engines submit edges while running queries (catalog-engine
// collaboration), and users walk the graph, seeing only assets they can
// access. The graph is rows of the core service's store, so it survives a
// restart, every node over one database sees it, and deleting an asset
// deletes its edges in the same commit.
package lineage

import (
	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
)

// Edge is one lineage relationship: downstream was produced from upstream.
type Edge = erm.Edge

// Node is one asset in a lineage traversal result.
type Node = catalog.LineageNode

// Service is the lineage API over the core service.
type Service struct{ core *catalog.Service }

// New returns the lineage service of core.
func New(core *catalog.Service) *Service { return &Service{core: core} }

// Close releases nothing: the graph lives in the store.
func (s *Service) Close() {}

// Submit records lineage edges reported by an engine (the lineage API).
func (s *Service) Submit(ctx catalog.Ctx, edges []Edge) error {
	return s.core.SubmitLineage(ctx, edges)
}

// Downstream returns assets reachable downstream of id up to maxDepth,
// filtered to those ctx may see. maxDepth <= 0 means unlimited.
func (s *Service) Downstream(ctx catalog.Ctx, id ids.ID, maxDepth int) ([]Node, error) {
	return s.core.LineageWalk(ctx, id, maxDepth, true)
}

// Upstream returns the assets id was derived from, filtered by access.
func (s *Service) Upstream(ctx catalog.Ctx, id ids.ID, maxDepth int) ([]Node, error) {
	return s.core.LineageWalk(ctx, id, maxDepth, false)
}
