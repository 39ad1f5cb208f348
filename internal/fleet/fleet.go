// Package fleet is the paper's production topology (§4.5): N stateless
// catalog service nodes over one shared metadata database, each node with
// its own write-through cache and compiled-authz snapshot cache, kept
// coherent by the change-event stream rather than read-time version checks.
//
// A consistent-hash ring assigns each metastore an owning node; the Router
// front end (Do) sends requests to the owner for cache affinity, counting
// and forwarding misroutes. Ownership is affinity, not exclusivity — any
// node can serve any metastore correctly (the store is the source of
// truth), which is what makes rebalancing on node add/remove safe: the new
// owner attaches lazily on its first request while the old owner's cache
// stays coherent via events until it cools off.
package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"unitycatalog/internal/cache"
	"unitycatalog/internal/catalog"
	"unitycatalog/internal/clock"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/events"
	"unitycatalog/internal/obs"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// Options tunes a fleet.
type Options struct {
	// Nodes is the initial node count (default 1).
	Nodes int
	// VNodesPerNode is the virtual-point count per node on the hash ring
	// (default 64).
	VNodesPerNode int
	// CacheOpts configures each node's metadata cache.
	CacheOpts cache.Options
	// Capacity bounds concurrent requests per node (0 = unlimited). With
	// ServiceTime it models a node's request-handling capacity, so the
	// benchmark's aggregate throughput scales with node count instead of
	// raw CPU parallelism.
	Capacity int
	// ServiceTime is the simulated per-request handler cost (0 = none).
	ServiceTime time.Duration
	// LocalServeEvery makes every Nth misrouted request serve at the entry
	// node instead of forwarding (0 = always forward). This models load
	// balancers with stale ring views and rebalance windows; it is what
	// spreads a hot metastore across several caches, exercising
	// invalidation fan-out.
	LocalServeEvery int
	// Clock supplies time to the services (nil = real time).
	Clock clock.Clock
	// TraceSampleEvery/TraceSlowThreshold give every node a tracer with the
	// given retention policy (both zero = no per-node tracers; forwarded
	// requests then serve without starting remote trace segments). All node
	// tracers share one TraceStore so cross-node traces stitch into one
	// tree.
	TraceSampleEvery   int
	TraceSlowThreshold time.Duration
	// TraceKeep bounds the shared retained-trace ring (0 = 32).
	TraceKeep int
	// Usage, when set, is the shared per-tenant meter every node's catalog
	// service feeds, so forwarded operations are attributed on the node
	// that executes them.
	Usage *obs.UsageMeter
}

// Node is one catalog service instance in the fleet.
type Node struct {
	ID      int
	Service *catalog.Service

	f        *Fleet
	coherer  *cache.Coherer
	tracer   *obs.Tracer   // nil unless Options enabled tracing
	sem      chan struct{} // nil = unlimited
	requests obs.Counter
	attachMu sync.Mutex
}

// Name returns the node's attribution label in stitched traces.
func (n *Node) Name() string { return fmt.Sprintf("node-%d", n.ID) }

// Tracer returns the node's tracer (nil when fleet tracing is off).
func (n *Node) Tracer() *obs.Tracer { return n.tracer }

// Coherence returns the node's coherence-loop counters.
func (n *Node) Coherence() cache.CohererMetrics { return n.coherer.Metrics() }

// Requests returns how many requests this node has served.
func (n *Node) Requests() int64 { return n.requests.Load() }

// Serve runs fn against this node's service for msID, paying the node's
// admission and service-time costs and attaching the metastore on first
// use. The Router calls it; tests and the benchmark may target a specific
// node directly to model cross-node traffic.
func (n *Node) Serve(msID string, fn func(*catalog.Service) error) error {
	return n.ServeTraced(obs.SpanContext{}, msID, func(svc *catalog.Service, _ obs.SpanContext) error {
		return fn(svc)
	})
}

// ServeTraced is Serve with a trace context threaded through: fn receives
// the SpanContext its catalog.Ctx should carry, so spans and audit records
// land on the right trace whether the request is local or forwarded.
func (n *Node) ServeTraced(sc obs.SpanContext, msID string, fn func(*catalog.Service, obs.SpanContext) error) error {
	if n.sem != nil {
		n.sem <- struct{}{}
		defer func() { <-n.sem }()
	}
	if st := n.f.opts.ServiceTime; st > 0 {
		time.Sleep(st)
	}
	n.requests.Inc()
	if err := n.ensureAttached(msID); err != nil {
		return err
	}
	return fn(n.Service, sc)
}

// serveRemote is the receiving half of a cross-node hop: start a remote
// trace segment continuing the propagated context (adopting the origin's
// trace ID and sampling decision), serve, then finish the segment so it
// lands in the shared store for stitching.
func (n *Node) serveRemote(pc obs.PropagationContext, msID, op string, fn func(*catalog.Service, obs.SpanContext) error) error {
	t := n.tracer.StartRemote(pc)
	err := n.ServeTraced(n.tracer.Root(t), msID, fn)
	n.tracer.Finish(t, op)
	return err
}

// ensureAttached opens the metastore on this node on first contact — the
// lazy attach that makes rebalancing work without a coordinator.
func (n *Node) ensureAttached(msID string) error {
	if _, err := n.Service.Metastore(msID); err == nil {
		return nil
	}
	n.attachMu.Lock()
	defer n.attachMu.Unlock()
	if _, err := n.Service.Metastore(msID); err == nil {
		return nil
	}
	_, err := n.Service.OpenMetastore(msID)
	return err
}

// lag returns how many committed versions this node's cache of msID is
// behind the database (0 when current or when the node has no cache for it).
func (n *Node) lag(msID string, dbV uint64) uint64 {
	known, err := n.Service.Cache().KnownVersion(msID)
	if err != nil || known >= dbV {
		return 0
	}
	return dbV - known
}

// Fleet is a set of catalog service nodes over one shared database plus the
// consistent-hash router in front of them.
type Fleet struct {
	opts  Options
	db    *store.DB
	cloud *cloudsim.Store
	reg   *erm.Registry
	clk   clock.Clock

	mu     sync.RWMutex
	nodes  []*Node
	ring   ring
	metas  map[string]bool
	nextID int

	rr        atomic.Uint64 // round-robin entry-node pick (the "load balancer")
	misroutes atomic.Uint64 // misroute counter driving LocalServeEvery

	routed      obs.Counter
	forwarded   obs.Counter
	localServes obs.Counter
	// propagated counts cross-node hops that carried a trace context.
	propagated obs.Counter

	// staleness aggregates publish→apply latency across all nodes' coherers
	// (the fleet-wide staleness window).
	staleness *obs.Histogram
	// traces is the shared retention store all node tracers write to, so a
	// forwarded request's origin and remote segments stitch into one tree.
	traces *obs.TraceStore
}

// New builds a fleet of opts.Nodes nodes over db. The nodes share the
// database, a cloud store, and an asset-type registry; each has its own
// cache, bus, and coherence loop.
func New(db *store.DB, opts Options) (*Fleet, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 1
	}
	if opts.VNodesPerNode <= 0 {
		opts.VNodesPerNode = 64
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	f := &Fleet{
		opts:      opts,
		db:        db,
		cloud:     cloudsim.New(),
		reg:       erm.NewRegistry(),
		clk:       opts.Clock,
		metas:     map[string]bool{},
		staleness: obs.NewLatencyHistogram(),
		traces:    obs.NewTraceStore(opts.TraceKeep),
	}
	for i := 0; i < opts.Nodes; i++ {
		if _, err := f.AddNode(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// AddNode brings up one more node and rebalances ownership onto it. The
// node starts cold; it warms its cache as the router sends it traffic.
func (f *Fleet) AddNode() (*Node, error) {
	bus := events.NewBus(0, 0)
	svc, err := catalog.New(catalog.Config{
		DB:        f.db,
		Cloud:     f.cloud,
		Clock:     f.clk,
		Bus:       bus,
		Registry:  f.reg,
		CacheOpts: f.opts.CacheOpts,
		Usage:     f.opts.Usage,
	})
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := &Node{ID: f.nextID, Service: svc, f: f}
	f.nextID++
	if f.opts.TraceSampleEvery != 0 || f.opts.TraceSlowThreshold != 0 {
		n.tracer = obs.NewTracer(f.opts.TraceSampleEvery, f.opts.TraceSlowThreshold)
		n.tracer.Node = n.Name()
		n.tracer.Store = f.traces
	}
	if f.opts.Capacity > 0 {
		n.sem = make(chan struct{}, f.opts.Capacity)
	}
	n.coherer = cache.StartCoherer(svc.Cache(), bus, cache.CohererOptions{
		Staleness: f.staleness,
	})
	f.nodes = append(f.nodes, n)
	f.ring = buildRing(f.nodes, f.opts.VNodesPerNode)
	return n, nil
}

// RemoveNode drains one node: it leaves the ring (its metastores re-route
// to their next owners, which attach lazily) and its coherence loop stops.
func (f *Fleet) RemoveNode(id int) error {
	f.mu.Lock()
	var victim *Node
	for i, n := range f.nodes {
		if n.ID == id {
			victim = n
			f.nodes = append(f.nodes[:i], f.nodes[i+1:]...)
			break
		}
	}
	if victim == nil {
		f.mu.Unlock()
		return fmt.Errorf("fleet: no node %d", id)
	}
	if len(f.nodes) == 0 {
		f.nodes = append(f.nodes, victim)
		f.mu.Unlock()
		return fmt.Errorf("fleet: cannot remove the last node")
	}
	f.ring = buildRing(f.nodes, f.opts.VNodesPerNode)
	f.mu.Unlock()
	victim.coherer.Close()
	return nil
}

// Close stops every node's coherence loop.
func (f *Fleet) Close() {
	f.mu.RLock()
	nodes := append([]*Node(nil), f.nodes...)
	f.mu.RUnlock()
	for _, n := range nodes {
		n.coherer.Close()
	}
}

// Nodes returns the live nodes in ID order.
func (f *Fleet) Nodes() []*Node {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]*Node(nil), f.nodes...)
}

// Owner returns the node currently owning msID on the ring.
func (f *Fleet) Owner(msID string) *Node {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.ring.owner(msID)
}

// CreateMetastore creates a metastore through its owning node and registers
// it with the fleet.
func (f *Fleet) CreateMetastore(id, name, region string, owner privilege.Principal, rootPath string) (catalog.MetastoreInfo, *Node, error) {
	n := f.Owner(id)
	if n == nil {
		return catalog.MetastoreInfo{}, nil, fmt.Errorf("fleet: no nodes")
	}
	info, err := n.Service.CreateMetastore(id, name, region, owner, rootPath)
	if err != nil {
		return catalog.MetastoreInfo{}, n, err
	}
	f.mu.Lock()
	f.metas[id] = true
	f.mu.Unlock()
	return info, n, nil
}

// Do routes one request for msID: a round-robin entry node (the load
// balancer's pick) forwards to the ring owner, except every
// LocalServeEvery-th misroute, which the entry node serves itself.
func (f *Fleet) Do(msID string, fn func(*catalog.Service) error) error {
	return f.DoTraced(obs.SpanContext{}, msID, func(svc *catalog.Service, _ obs.SpanContext) error {
		return fn(svc)
	})
}

// DoTraced is Do with cross-node trace propagation: sc is the originating
// request's span context (from the entry node's HTTP server). A hop to
// another node opens a "fleet.forward" span under sc, carries the context
// in wire form, and the target node records the work as a remote trace
// segment that adopted the origin's trace ID — so /debug/traces shows one
// stitched tree and audit records on the executing node carry the
// originating request's trace ID, not a fresh one minted at the hop.
//
// fn receives the SpanContext to thread into its catalog.Ctx: sc itself on
// a local serve, the remote segment's root after a hop.
func (f *Fleet) DoTraced(sc obs.SpanContext, msID string, fn func(*catalog.Service, obs.SpanContext) error) error {
	f.mu.RLock()
	if len(f.nodes) == 0 {
		f.mu.RUnlock()
		return fmt.Errorf("fleet: no nodes")
	}
	entry := f.nodes[f.rr.Add(1)%uint64(len(f.nodes))]
	owner := f.ring.owner(msID)
	f.mu.RUnlock()

	f.routed.Inc()
	target := owner
	if entry != owner {
		if k := f.opts.LocalServeEvery; k > 0 && f.misroutes.Add(1)%uint64(k) == 0 {
			target = entry
			f.localServes.Inc()
		} else {
			f.forwarded.Inc()
		}
	}
	if target == entry || target.tracer == nil {
		// No node boundary crossed (or tracing off): the caller's context
		// flows straight through.
		return target.ServeTraced(sc, msID, fn)
	}
	fsc, span := sc.StartDetail("fleet.forward", target.Name())
	defer span.End()
	pc, ok := fsc.Propagation()
	if ok {
		f.propagated.Inc()
	}
	return target.serveRemote(pc, msID, "forwarded "+msID, fn)
}

// Forwarded returns how many requests were forwarded entry→owner.
func (f *Fleet) Forwarded() int64 { return f.forwarded.Load() }

// Propagated returns how many cross-node hops carried a trace context.
func (f *Fleet) Propagated() int64 { return f.propagated.Load() }

// TraceStore returns the shared retention store node tracers write to.
// An HTTP front end sets its own tracer's Store to this so origin and
// remote segments stitch; /debug/traces renders TraceStore.Stitched.
func (f *Fleet) TraceStore() *obs.TraceStore { return f.traces }

// StalenessCheck returns a flight-recorder watchdog check that trips when
// the fleet's version lag exceeds maxLag (a staleness spike: some node's
// cache has fallen behind the shared store by more than the budget).
func (f *Fleet) StalenessCheck(maxLag uint64) func() (bool, string) {
	return func() (bool, string) {
		if lag := f.MaxVersionLag(); lag > maxLag {
			return true, fmt.Sprintf("fleet staleness: version lag %d exceeds budget %d", lag, maxLag)
		}
		return false, ""
	}
}

// Routed returns how many requests the router has dispatched.
func (f *Fleet) Routed() int64 { return f.routed.Load() }

// LocalServes returns how many misrouted requests were served at the entry
// node instead of being forwarded.
func (f *Fleet) LocalServes() int64 { return f.localServes.Load() }

// Staleness returns the fleet-wide staleness-window histogram: for every
// coherence event applied on any node, the time between the commit's
// publish and the node's invalidation (native units: nanoseconds).
func (f *Fleet) Staleness() *obs.Histogram { return f.staleness }

// Coherence sums every node's coherence-loop counters.
func (f *Fleet) Coherence() cache.CohererMetrics {
	var out cache.CohererMetrics
	for _, n := range f.Nodes() {
		m := n.Coherence()
		out.EventsApplied += m.EventsApplied
		out.EventsStale += m.EventsStale
		out.EventsSkipped += m.EventsSkipped
		out.Invalidated += m.Invalidated
		out.FullEvictEquivalent += m.FullEvictEquivalent
		out.GapReconciles += m.GapReconciles
	}
	return out
}

// CacheMetrics sums every node's cache counters.
func (f *Fleet) CacheMetrics() cache.Metrics {
	var out cache.Metrics
	for _, n := range f.Nodes() {
		m := n.Service.CacheMetrics()
		out.Hits += m.Hits
		out.Misses += m.Misses
		out.ScanHits += m.ScanHits
		out.ScanMisses += m.ScanMisses
		out.CoalescedMisses += m.CoalescedMisses
		out.FullReconciles += m.FullReconciles
		out.SelectiveReconciles += m.SelectiveReconciles
		out.EventApplies += m.EventApplies
		out.EventInvalidations += m.EventInvalidations
		out.Evictions += m.Evictions
		out.WriteConflicts += m.WriteConflicts
	}
	return out
}

// MaxVersionLag reports the fleet's current staleness in versions: the
// largest (store version − cache known version) over every node × attached
// metastore. Zero means every cache is current.
func (f *Fleet) MaxVersionLag() uint64 {
	f.mu.RLock()
	metas := make([]string, 0, len(f.metas))
	for id := range f.metas {
		metas = append(metas, id)
	}
	nodes := append([]*Node(nil), f.nodes...)
	f.mu.RUnlock()
	var max uint64
	for _, ms := range metas {
		dbV, err := f.db.Version(ms)
		if err != nil {
			continue
		}
		for _, n := range nodes {
			if lag := n.lag(ms, dbV); lag > max {
				max = lag
			}
		}
	}
	return max
}

// RegisterMetrics exposes the fleet counters as uc_fleet_* families.
func (f *Fleet) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("uc_fleet_requests_forwarded_total", "Requests forwarded from the entry node to the metastore's ring owner.", &f.forwarded)
	r.RegisterCounter("uc_fleet_requests_local_total", "Misrouted requests served at the entry node (stale LB view model).", &f.localServes)
	r.RegisterCounter("uc_fleet_requests_total", "Requests dispatched by the fleet router.", &f.routed)
	r.RegisterCounter("uc_fleet_trace_propagated_total", "Cross-node hops that carried a trace context.", &f.propagated)
	r.RegisterGaugeFunc("uc_fleet_nodes", "Live service nodes in the fleet.", func() float64 {
		f.mu.RLock()
		defer f.mu.RUnlock()
		return float64(len(f.nodes))
	})
	r.RegisterCounterFunc("uc_fleet_events_applied_total", "Coherence events applied across all nodes.", func() int64 {
		return f.Coherence().EventsApplied
	})
	r.RegisterCounterFunc("uc_fleet_invalidations_total", "Cache entries invalidated by coherence events across all nodes.", func() int64 {
		return f.Coherence().Invalidated
	})
	r.RegisterCounterFunc("uc_fleet_full_reconciles_total", "Gap-triggered reconciles (event-ring overruns and skipped versions) across all nodes.", func() int64 {
		return f.Coherence().GapReconciles
	})
	r.RegisterGaugeFunc("uc_fleet_staleness_versions", "Largest store-vs-cache version lag over nodes × metastores.", func() float64 {
		return float64(f.MaxVersionLag())
	})
	r.RegisterHistogram("uc_fleet_staleness_seconds", "Publish-to-invalidate latency of applied coherence events.", f.staleness)
}
