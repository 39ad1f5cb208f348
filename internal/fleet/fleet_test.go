package fleet

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"unitycatalog/internal/audit"
	"unitycatalog/internal/catalog"
	"unitycatalog/internal/obs"
	"unitycatalog/internal/store"
)

func cols(names ...string) []catalog.ColumnInfo {
	out := make([]catalog.ColumnInfo, len(names))
	for i, n := range names {
		out[i] = catalog.ColumnInfo{Name: n, Type: "STRING", Nullable: true, Position: i}
	}
	return out
}

func adminCtx(ms string) catalog.Ctx {
	return catalog.Ctx{Principal: "admin", Metastore: ms, TrustedEngine: true}
}

func newFleet(t *testing.T, opts Options) (*Fleet, *store.DB) {
	t.Helper()
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	f, err := New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, db
}

// syncCoherence waits for every node's coherer to apply what has been
// published; every cache must then be current.
func syncCoherence(t *testing.T, f *Fleet) {
	t.Helper()
	for _, n := range f.Nodes() {
		n.coherer.Sync()
	}
	if lag := f.MaxVersionLag(); lag != 0 {
		t.Fatalf("fleet is %d versions stale with every coherer caught up", lag)
	}
}

// TestFleetCrossNodeCoherence: a write through the owner must invalidate
// exactly the touched entries on every other node caching the metastore,
// with no database round trip and no full evict.
func TestFleetCrossNodeCoherence(t *testing.T) {
	f, _ := newFleet(t, Options{Nodes: 3})
	admin := adminCtx("ms1")
	if _, _, err := f.CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1"); err != nil {
		t.Fatal(err)
	}
	err := f.Do("ms1", func(svc *catalog.Service) error {
		if _, err := svc.CreateCatalog(admin, "c", ""); err != nil {
			return err
		}
		if _, err := svc.CreateSchema(admin, "c", "s", ""); err != nil {
			return err
		}
		_, err := svc.CreateTable(admin, "c.s", "t", catalog.TableSpec{Columns: cols("x")}, "")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	owner := f.Owner("ms1")

	// Warm every non-owner node by serving a read there (a misrouted
	// request served locally), so multiple caches hold c.s.t.
	var others []*Node
	for _, n := range f.Nodes() {
		if n != owner {
			others = append(others, n)
		}
	}
	if len(others) != 2 {
		t.Fatalf("want 2 non-owner nodes, got %d", len(others))
	}
	for _, n := range others {
		if err := n.Serve("ms1", func(svc *catalog.Service) error {
			_, err := svc.GetAsset(admin, "c.s.t")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	syncCoherence(t, f)
	entriesBefore := others[0].Service.Cache().EntryCount("ms1")
	if entriesBefore == 0 {
		t.Fatal("non-owner cache did not warm")
	}

	// Write through the router (routes to the owner).
	comment := "updated-by-owner"
	if err := f.Do("ms1", func(svc *catalog.Service) error {
		_, err := svc.UpdateAsset(admin, "c.s.t", catalog.UpdateRequest{Comment: &comment})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	syncCoherence(t, f)

	for i, n := range others {
		// The event must have been applied, not fully evicted: most warmed
		// entries survive.
		m := n.Coherence()
		if m.EventsApplied == 0 {
			t.Fatalf("node %d applied no coherence events", i)
		}
		if m.GapReconciles != 0 {
			t.Fatalf("node %d fell back to a reconcile", i)
		}
		if after := n.Service.Cache().EntryCount("ms1"); after == 0 {
			t.Fatalf("node %d cache emptied by selective invalidation", i)
		}
		// And the read must be fresh without consulting the owner.
		if err := n.Serve("ms1", func(svc *catalog.Service) error {
			e, err := svc.GetAsset(admin, "c.s.t")
			if err != nil {
				return err
			}
			if e.Comment != comment {
				return fmt.Errorf("stale read on node %d: comment = %q", i, e.Comment)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetRoutingAndRebalance: requests reach every metastore through the
// router before and after node add/remove; ownership moves, service stays up.
func TestFleetRoutingAndRebalance(t *testing.T) {
	f, _ := newFleet(t, Options{Nodes: 4})
	const metastores = 8
	for i := 0; i < metastores; i++ {
		id := fmt.Sprintf("ms%d", i)
		if _, _, err := f.CreateMetastore(id, id, "r", "admin", "s3://root/"+id); err != nil {
			t.Fatal(err)
		}
		if err := f.Do(id, func(svc *catalog.Service) error {
			_, err := svc.CreateCatalog(adminCtx(id), "c", "")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		t.Helper()
		for i := 0; i < metastores; i++ {
			id := fmt.Sprintf("ms%d", i)
			if err := f.Do(id, func(svc *catalog.Service) error {
				_, err := svc.GetAsset(adminCtx(id), "c")
				return err
			}); err != nil {
				t.Fatalf("read %s: %v", id, err)
			}
		}
	}
	read()

	// Snapshot ownership over a large key space so the movement assertions
	// are statistical facts about the ring, not luck with 8 metastores.
	const keys = 1024
	ownersBefore := map[string]int{}
	for i := 0; i < keys; i++ {
		id := fmt.Sprintf("ms%d", i)
		ownersBefore[id] = f.Owner(id).ID
	}
	added, err := f.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for id, prev := range ownersBefore {
		if f.Owner(id).ID != prev {
			moved++
			if f.Owner(id).ID != added.ID {
				t.Errorf("%s moved to node %d, not the new node", id, f.Owner(id).ID)
			}
		}
	}
	// Consistent hashing moves ~1/5 of keys to the fifth node — and only
	// to it. Anywhere near 1/2 would mean we rehash like modulo.
	if moved == 0 || moved > keys/2 {
		t.Errorf("adding a node moved %d/%d keys; want roughly %d", moved, keys, keys/5)
	}
	read() // new owners attach lazily and serve

	if err := f.RemoveNode(added.ID); err != nil {
		t.Fatal(err)
	}
	for id, prev := range ownersBefore {
		if f.Owner(id).ID != prev {
			t.Errorf("%s did not return to node %d after removal", id, prev)
		}
	}
	read()

	if err := f.RemoveNode(999); err == nil {
		t.Error("removing an unknown node must fail")
	}
}

// TestFleetForwardingAndMetrics: misroutes are forwarded (and counted), the
// LocalServeEvery valve serves some locally, and the uc_fleet_* families
// show up on a registry.
func TestFleetForwardingAndMetrics(t *testing.T) {
	f, _ := newFleet(t, Options{Nodes: 4, LocalServeEvery: 4})
	if _, _, err := f.CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1"); err != nil {
		t.Fatal(err)
	}
	admin := adminCtx("ms1")
	if err := f.Do("ms1", func(svc *catalog.Service) error {
		_, err := svc.CreateCatalog(admin, "c", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := f.Do("ms1", func(svc *catalog.Service) error {
			_, err := svc.GetAsset(admin, "c")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if f.Routed() < 64 {
		t.Fatalf("routed = %d, want >= 64", f.Routed())
	}
	// With 4 nodes round-robin, ~3/4 of requests misroute; 1/4 of those
	// serve locally.
	if f.Forwarded() == 0 {
		t.Fatal("no requests forwarded")
	}
	if f.LocalServes() == 0 {
		t.Fatal("no misroutes served locally despite LocalServeEvery")
	}

	reg := obs.NewRegistry()
	f.RegisterMetrics(reg)
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, family := range []string{
		"uc_fleet_requests_total",
		"uc_fleet_requests_forwarded_total",
		"uc_fleet_requests_local_total",
		"uc_fleet_nodes",
		"uc_fleet_events_applied_total",
		"uc_fleet_invalidations_total",
		"uc_fleet_full_reconciles_total",
		"uc_fleet_staleness_versions",
		"uc_fleet_staleness_seconds",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}

// TestRingDistribution: virtual nodes spread many metastores roughly evenly
// and deterministically.
func TestRingDistribution(t *testing.T) {
	f, _ := newFleet(t, Options{Nodes: 8})
	counts := map[int]int{}
	const n = 4096
	for i := 0; i < n; i++ {
		counts[f.Owner(fmt.Sprintf("metastore-%d", i)).ID]++
	}
	if len(counts) != 8 {
		t.Fatalf("only %d of 8 nodes own anything", len(counts))
	}
	for id, c := range counts {
		if c < n/8/3 || c > n/8*3 {
			t.Errorf("node %d owns %d of %d (badly skewed)", id, c, n)
		}
	}
	// Determinism: same key always maps to the same node.
	if f.Owner("metastore-7") != f.Owner("metastore-7") {
		t.Error("ownership not deterministic")
	}
}

// TestFleetTracePropagation: a request forwarded entry→owner must produce
// ONE stitched trace tree — origin spans plus the remote segment with node
// attribution — and audit records written on the executing node must carry
// the ORIGINATING request's trace ID, not one minted at the hop.
func TestFleetTracePropagation(t *testing.T) {
	f, _ := newFleet(t, Options{Nodes: 2, TraceSampleEvery: 1})
	if _, _, err := f.CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1"); err != nil {
		t.Fatal(err)
	}
	// The "entry node's HTTP server": a tracer sharing the fleet's store.
	origin := obs.NewTracer(1, 0)
	origin.Node = "origin"
	origin.Store = f.TraceStore()
	admin := adminCtx("ms1")

	var traceID string
	var execSvc *catalog.Service
	for i := 0; i < 64 && traceID == ""; i++ {
		before := f.Forwarded()
		ot := origin.StartTrace()
		sc, sp := origin.Root(ot).Start("http")
		var remoteSC obs.SpanContext
		err := f.DoTraced(sc, "ms1", func(svc *catalog.Service, rsc obs.SpanContext) error {
			remoteSC = rsc
			execSvc = svc
			ctx := admin
			ctx.Trace = rsc
			_, err := svc.CreateCatalog(ctx, fmt.Sprintf("cat%02d", i), "")
			return err
		})
		sp.End()
		origin.Finish(ot, "POST /catalogs")
		if err != nil {
			t.Fatal(err)
		}
		if f.Forwarded() > before {
			traceID = ot.ID()
			// The satellite fix, asserted at the seam: the span context the
			// forwarded handler runs under carries the ORIGIN trace ID.
			if remoteSC.TraceID() != traceID {
				t.Fatalf("forwarded handler trace = %s, want origin %s", remoteSC.TraceID(), traceID)
			}
		}
	}
	if traceID == "" {
		t.Fatal("no request was forwarded in 64 attempts")
	}
	if got := f.Propagated(); got == 0 {
		t.Fatal("propagated counter did not move")
	}

	// The executing node (the ring owner for this hop) wrote the audit
	// records; they must carry the originating trace ID end-to-end.
	recs := execSvc.Audit().Filter(func(r audit.Record) bool { return r.TraceID == traceID })
	if len(recs) == 0 {
		t.Fatalf("no audit records on executing node carry origin trace %s", traceID)
	}
	sawWrite := false
	for _, r := range recs {
		if !r.ReadOnly {
			sawWrite = true
		}
	}
	if !sawWrite {
		t.Fatalf("audit records for %s are all read-only; want the forwarded write", traceID)
	}

	// One stitched tree in the shared store: the origin trace with the
	// remote segment grafted under fleet.forward, attributed to its node.
	var execNode *Node
	for _, n := range f.Nodes() {
		if n.Service == execSvc {
			execNode = n
		}
	}
	if execNode == nil {
		t.Fatal("executing service not found among nodes")
	}
	var tree *obs.TraceSummary
	for _, s := range f.TraceStore().Stitched() {
		if s.ID == traceID {
			if s.Remote {
				t.Fatalf("trace %s surfaced as unstitched remote segment", traceID)
			}
			if tree != nil {
				t.Fatalf("trace %s appears twice in stitched output", traceID)
			}
			tree = s
		}
	}
	if tree == nil {
		t.Fatalf("trace %s not in stitched store", traceID)
	}
	var remote *obs.SpanView
	var under string
	var walk func(spans []obs.SpanView, parent string)
	walk = func(spans []obs.SpanView, parent string) {
		for i := range spans {
			if spans[i].Name == "remote" {
				remote = &spans[i]
				under = parent
			}
			walk(spans[i].Children, spans[i].Name)
		}
	}
	walk(tree.Spans, "")
	if remote == nil {
		t.Fatalf("no remote span in stitched tree: %+v", tree.Spans)
	}
	if under != "fleet.forward" {
		t.Fatalf("remote segment grafted under %q, want fleet.forward", under)
	}
	if remote.Node != execNode.Name() {
		t.Fatalf("remote span node = %q, want %q", remote.Node, execNode.Name())
	}
	if len(remote.Children) == 0 {
		t.Fatal("remote segment carried no spans from the executing node")
	}
}

// TestFleetTracePropagationConcurrent hammers DoTraced from many goroutines
// while the stitched view is read, for the race detector.
func TestFleetTracePropagationConcurrent(t *testing.T) {
	f, _ := newFleet(t, Options{Nodes: 3, TraceSampleEvery: 4})
	if _, _, err := f.CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1"); err != nil {
		t.Fatal(err)
	}
	admin := adminCtx("ms1")
	if err := f.Do("ms1", func(svc *catalog.Service) error {
		_, err := svc.CreateCatalog(admin, "c", "")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	origin := obs.NewTracer(4, 0)
	origin.Store = f.TraceStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ot := origin.StartTrace()
				sc := origin.Root(ot)
				err := f.DoTraced(sc, "ms1", func(svc *catalog.Service, rsc obs.SpanContext) error {
					ctx := admin
					ctx.Trace = rsc
					_, err := svc.GetAsset(ctx, "c")
					return err
				})
				origin.Finish(ot, "GET /assets")
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				f.TraceStore().Stitched()
			}
		}
	}()
	wg.Wait()
	close(done)
	if f.Propagated() == 0 {
		t.Fatal("no hops propagated a trace")
	}
}
