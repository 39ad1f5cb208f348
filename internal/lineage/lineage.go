// Package lineage implements the lineage service of the paper's discovery
// catalog tier (§4.4). Engines submit lineage edges through the lineage API
// while running queries (catalog-engine collaboration); the service also
// consumes the core service's change events to retire nodes when assets are
// deleted. Query-time results are filtered through the core service's
// authorization API so users only see lineage for assets they can access.
package lineage

import (
	"sort"
	"sync"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/events"
	"unitycatalog/internal/ids"
)

// Edge is one lineage relationship: downstream was produced from upstream.
type Edge struct {
	Upstream   ids.ID `json:"upstream"`
	Downstream ids.ID `json:"downstream"`
	// JobName and QueryText identify the producing workload.
	JobName   string    `json:"job_name,omitempty"`
	QueryText string    `json:"query_text,omitempty"`
	Principal string    `json:"principal,omitempty"`
	Time      time.Time `json:"time"`
}

// Service is the lineage graph service.
type Service struct {
	core *catalog.Service

	mu sync.RWMutex
	// adjacency in both directions: asset -> edges
	down map[ids.ID][]Edge // edges where asset is upstream
	up   map[ids.ID][]Edge // edges where asset is downstream

	follower *events.Follower
}

// New starts a lineage service consuming the core service's change events.
func New(core *catalog.Service) *Service {
	s := &Service{core: core, down: map[ids.ID][]Edge{}, up: map[ids.ID][]Edge{}}
	s.follower = core.Bus().Follow("lineage", s.handle, s.prune)
	return s
}

// Close stops event consumption.
func (s *Service) Close() { s.follower.Close() }

// Sync blocks until every event published so far is reflected in the graph.
func (s *Service) Sync() { s.follower.Sync() }

func (s *Service) handle(e events.Event) {
	if e.Op == events.OpDelete && e.EntityID != ids.Nil {
		s.removeAsset(e.EntityID)
	}
}

// prune is the follower's resync: the deletes it missed are the nodes that
// are no longer live entities of any attached metastore (store's current
// snapshot, see catalog.LiveEntities). If a metastore cannot be read nothing
// is pruned: a dangling edge is filtered at query time, a dropped one is gone.
func (s *Service) prune() {
	dead := map[ids.ID]bool{}
	s.mu.RLock()
	for id := range s.down {
		dead[id] = true
	}
	for id := range s.up {
		dead[id] = true
	}
	s.mu.RUnlock()
	for _, msID := range s.core.Metastores() {
		snap, err := s.core.DB().Snapshot(msID)
		if err != nil {
			return
		}
		for id := range dead {
			if e, ok := erm.GetEntity(snap, id); ok && e.State != erm.StateSoftDeleted {
				delete(dead, id)
			}
		}
		snap.Close()
	}
	for id := range dead {
		s.removeAsset(id)
	}
}

func (s *Service) removeAsset(id ids.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.down[id] {
		s.up[e.Downstream] = dropEdges(s.up[e.Downstream], id, true)
	}
	for _, e := range s.up[id] {
		s.down[e.Upstream] = dropEdges(s.down[e.Upstream], id, false)
	}
	delete(s.down, id)
	delete(s.up, id)
}

func dropEdges(es []Edge, id ids.ID, matchUpstream bool) []Edge {
	out := es[:0]
	for _, e := range es {
		if matchUpstream && e.Upstream == id {
			continue
		}
		if !matchUpstream && e.Downstream == id {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Submit records lineage edges reported by an engine (the lineage API).
func (s *Service) Submit(edges []Edge) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range edges {
		if e.Time.IsZero() {
			e.Time = now
		}
		if s.hasEdge(e) {
			continue
		}
		s.down[e.Upstream] = append(s.down[e.Upstream], e)
		s.up[e.Downstream] = append(s.up[e.Downstream], e)
	}
}

func (s *Service) hasEdge(e Edge) bool {
	for _, have := range s.down[e.Upstream] {
		if have.Downstream == e.Downstream && have.JobName == e.JobName {
			return true
		}
	}
	return false
}

// Node is one asset in a lineage traversal result.
type Node struct {
	Asset ids.ID `json:"asset"`
	Depth int    `json:"depth"`
	Via   Edge   `json:"via"`
}

// Downstream returns assets reachable downstream of id up to maxDepth,
// filtered to those ctx may see. maxDepth <= 0 means unlimited.
func (s *Service) Downstream(ctx catalog.Ctx, id ids.ID, maxDepth int) ([]Node, error) {
	return s.traverse(ctx, id, maxDepth, true)
}

// Upstream returns the assets id was derived from, filtered by access.
func (s *Service) Upstream(ctx catalog.Ctx, id ids.ID, maxDepth int) ([]Node, error) {
	return s.traverse(ctx, id, maxDepth, false)
}

func (s *Service) traverse(ctx catalog.Ctx, id ids.ID, maxDepth int, downstream bool) ([]Node, error) {
	s.mu.RLock()
	var nodes []Node
	visited := map[ids.ID]bool{id: true}
	type qe struct {
		id    ids.ID
		depth int
	}
	queue := []qe{{id, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if maxDepth > 0 && cur.depth >= maxDepth {
			continue
		}
		var edges []Edge
		if downstream {
			edges = s.down[cur.id]
		} else {
			edges = s.up[cur.id]
		}
		for _, e := range edges {
			next := e.Downstream
			if !downstream {
				next = e.Upstream
			}
			if visited[next] {
				continue
			}
			visited[next] = true
			nodes = append(nodes, Node{Asset: next, Depth: cur.depth + 1, Via: e})
			queue = append(queue, qe{next, cur.depth + 1})
		}
	}
	s.mu.RUnlock()

	// Authorization filtering through the core service's batch API.
	idsList := make([]ids.ID, len(nodes))
	for i, n := range nodes {
		idsList[i] = n.Asset
	}
	allowed, err := s.core.AuthorizeBatch(ctx, idsList, "")
	if err != nil {
		return nil, err
	}
	out := nodes[:0]
	for i, n := range nodes {
		if allowed[i] {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Depth != out[j].Depth {
			return out[i].Depth < out[j].Depth
		}
		return out[i].Asset < out[j].Asset
	})
	return out, nil
}

// HasDownstream reports whether any visible downstream dependency exists —
// the paper's "verify an asset has no downstream dependencies prior to
// deletion" use case.
func (s *Service) HasDownstream(ctx catalog.Ctx, id ids.ID) (bool, error) {
	nodes, err := s.Downstream(ctx, id, 1)
	if err != nil {
		return false, err
	}
	return len(nodes) > 0, nil
}

// EdgeCount reports the total number of edges (for stats/tests).
func (s *Service) EdgeCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, es := range s.down {
		n += len(es)
	}
	return n
}
