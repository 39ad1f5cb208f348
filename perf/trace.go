package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"unitycatalog/internal/audit"
	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/events"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/jsonenc"
	"unitycatalog/internal/pathtrie"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
	"unitycatalog/perf/gen"
	"unitycatalog/perf/stats"
)

// scrape reads the program's own /metrics over the socket.
func scrape(addr string) (stats.Metrics, error) {
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	resp, err := hc.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return stats.ParseMetrics(resp.Body)
}

// boundaryOf spreads operations over the three boundaries evenly and without
// a period: a plain i mod 3 would line up with trace_read's three-request
// visits and send every catalog GET through the same boundary.
func boundaryOf(i int) int { return int(((uint64(i) * 0x9E3779B97F4A7C15) >> 33) % 3) }

// tracedRun is the per-layer pass. On the stack the timed window just used,
// one client continues its stream for a fixed number of operations, each
// executed exactly once at one of the three boundaries, so state evolves as
// in the timed run. Counters are read before and after; probes follow. All
// timing is taken here, around calls into the program's public functions.
func tracedRun(o options, st *stack, c *client, tcp *conn, res *result) error {
	bounds := [3]boundary{tcp, newServerBoundary(st.srv), &catalogBoundary{svc: st.svc, pop: st.pop}}

	// One subscriber of the harness's own, to see delivery lag and drops.
	sub := st.svc.Bus().Subscribe()
	var lags []float64
	var lagWG sync.WaitGroup
	lagWG.Add(1)
	go func() {
		defer lagWG.Done()
		for e := range sub.C {
			lags = append(lags, float64(time.Since(e.Time)))
		}
	}()

	before, err := scrape(st.addr)
	if err != nil {
		return err
	}
	published0, wal0 := st.svc.Bus().Published(), fileSize(st.walPath)
	failed0 := c.failed
	c.tracing, c.origin, c.opID = true, time.Now(), 0
	c.spans = make([]span, 0, o.traceOps*2)
	// A fixed number of operations, not a stretch of time, so that counts
	// repeat from run to run.
	for i := 0; i < o.traceOps; i++ {
		c.step(bounds[boundaryOf(i)])
	}
	c.tracing = false
	after, err := scrape(st.addr)
	if err != nil {
		return err
	}
	published, walBytes := st.svc.Bus().Published()-published0, fileSize(st.walPath)-wal0
	sub.Cancel()
	lagWG.Wait()

	L := res.layers
	res.facts["traced_ops"] = c.opID
	res.facts["traced_requests"] = len(c.spans)
	res.facts["traced_failed"] = c.failed - failed0

	// Spans: medians per route and boundary, and what lies between them.
	type key struct {
		route string
		b     string
	}
	durs, mallocs := map[key][]float64{}, map[string][]float64{}
	served, bytesOut, notModified, writes := 0, 0, 0, 0
	for _, s := range c.spans {
		if s.kind.Mutating() && s.status < 300 {
			writes++
		}
		durs[key{s.Route, s.Boundary}] = append(durs[key{s.Route, s.Boundary}], float64(s.End-s.Start))
		if s.Boundary == "server" {
			mallocs[s.Route] = append(mallocs[s.Route], float64(s.mallocs))
		}
		if s.Boundary != "catalog" {
			served++
			bytesOut += s.bytesOut
			if s.status == http.StatusNotModified {
				notModified++
			}
		}
	}
	for k := gen.Kind(0); k < gen.NumKinds; k++ {
		r := k.String()
		tcpUs, srvUs, catUs := stats.Median(durs[key{r, "tcp"}])/1e3, stats.Median(durs[key{r, "server"}])/1e3, stats.Median(durs[key{r, "catalog"}])/1e3
		L["tcp.p50_us."+r] = tcpUs
		L["net.self_us."+r] = tcpUs - srvUs
		L["server.self_us."+r] = srvUs - catUs
		L["catalog.incl_us."+r] = catUs
		L["server.allocs_per_req."+r] = stats.Median(mallocs[r])
	}

	// Counts, from the program's own counters.
	reqs := float64(len(c.spans))
	d := func(series string) float64 { return after.Delta(before, series) }
	commits := d("uc_store_commits_total")
	L["cache.hit_rate"] = stats.Ratio(d("uc_cache_hits_total"), d("uc_cache_hits_total")+d("uc_cache_misses_total"))
	L["cache.scan_hit_rate"] = stats.Ratio(d("uc_cache_scan_hits_total"), d("uc_cache_scan_hits_total")+d("uc_cache_scan_misses_total"))
	L["cache.misses_per_kreq"] = 1000 * stats.Ratio(d("uc_cache_misses_total")+d("uc_cache_scan_misses_total"), reqs)
	L["cache.evictions_per_kreq"] = 1000 * stats.Ratio(d("uc_cache_evictions_total"), reqs)
	L["cache.full_reconciles_per_kwrite"] = 1000 * stats.Ratio(d("uc_cache_full_reconciles_total"), float64(writes))
	L["privilege.snapshot_hit_rate"] = stats.Ratio(d("uc_authz_snapshot_hits_total"), d("uc_authz_snapshot_hits_total")+d("uc_authz_snapshot_misses_total"))
	L["privilege.builds_per_kreq"] = 1000 * stats.Ratio(d("uc_authz_snapshot_builds_total"), reqs)
	L["privilege.invalidations_per_kwrite"] = 1000 * stats.Ratio(d("uc_authz_snapshot_invalidations_total"), float64(writes))
	L["store.reads_per_req"] = stats.Ratio(d("uc_store_reads_total"), reqs)
	L["store.index_scans_per_req"] = stats.Ratio(d("uc_store_index_scans_total"), reqs)
	L["store.index_fallback_scans"] = d("uc_store_index_fallback_scans_total")
	L["store.commits_per_write"] = stats.Ratio(commits, float64(writes))
	L["store.conflicts"] = d("uc_store_commit_conflicts_total")
	L["store.wal_entries_per_batch"] = stats.Ratio(d("uc_store_wal_entries_total"), d("uc_store_wal_batches_total"))
	L["store.wal_syncs_per_commit"] = stats.Ratio(d("uc_store_wal_syncs_total"), commits)
	L["store.wal_bytes_per_commit"] = stats.Ratio(float64(walBytes), commits)
	L["store.wal_max_batch"] = after["uc_store_wal_max_batch"]
	L["store.wal_fsync_p50_us"] = 1e6 * after.HistogramQuantile(before, "uc_store_wal_fsync_seconds", 0.5)
	L["events.published_per_commit"] = stats.Ratio(float64(published), commits)
	L["events.sub_dropped"] = float64(sub.Dropped())
	sort.Float64s(lags)
	L["events.deliver_lag_p99_us"] = stats.Percentile(lags, 99) / 1e3
	L["audit.records_per_req"] = stats.Ratio(d("uc_audit_records_total"), reqs)
	L["server.status_304_frac"] = stats.Ratio(after.SumDelta(before, "uc_http_requests_total{", `code="304"`), after.SumDelta(before, "uc_http_requests_total{"))
	L["server.bytes_out_per_req"] = stats.Ratio(float64(bytesOut), float64(served))
	L["cloudsim.token_reuse_frac"] = 0
	if c.creds > 0 {
		L["cloudsim.token_reuse_frac"] = 1 - float64(len(c.tokens))/float64(c.creds)
	}
	res.facts["traced_304_seen"] = stats.Ratio(float64(notModified), float64(served))

	if err := probes(st, bounds[2].(*catalogBoundary), L); err != nil {
		return err
	}
	return writeSpans(o.traceOut, c.spans)
}

func writeSpans(path string, spans []span) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeTargets is how many sampled assets each probe visits.
const probeTargets = 2000

// perCall times n calls of f and returns the mean in nanoseconds. The probes
// run alone in the process, after the counted pass, so a mean over thousands
// of calls is steady.
func perCall(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// medianCall times each of n calls of f and returns the median in
// nanoseconds: for calls slow and uneven enough (a commit, a snapshot build)
// that one stall would move a mean.
func medianCall(n int, f func(i int)) float64 {
	d := make([]float64, n)
	for i := range d {
		start := time.Now()
		f(i)
		d[i] = float64(time.Since(start))
	}
	return stats.Median(d)
}

// probes times single layers through their public entry points, on sampled
// targets of the run's own population.
func probes(st *stack, cb *catalogBoundary, L map[string]float64) error {
	pop, svc, db := st.pop, st.svc, st.db
	n := min(probeTargets, len(pop.Tables))
	step := len(pop.Tables) / n
	leaf := func(i int) *gen.Leaf { return &pop.Leaves[pop.Tables[(i%n)*step]] }
	schema := func(i int) *gen.Schema { return &pop.Schemas[i%len(pop.Schemas)] }
	childRange := func(i int) (string, string) {
		p := erm.ChildPrefix(ids.ID(schema(i).ID), erm.TypeTable)
		return p, store.PrefixEnd(p)
	}

	// cache: open a view, hit, range scan, then evict everything and miss.
	c := svc.Cache()
	L["cache.view_open_ns"] = perCall(n, func(int) {
		if v, err := c.NewView(gen.Metastore); err == nil {
			v.Close()
		}
	})
	v, err := c.NewView(gen.Metastore)
	if err != nil {
		return err
	}
	get := func(i int) { v.Get(erm.TableEntity, leaf(i).ID) }
	scan := func(i int) {
		lo, hi := childRange(i)
		v.ScanRange(erm.TableChild, lo, hi, gen.PageSize)
	}
	perCall(n, get) // bring them in
	L["cache.get_hit_ns"] = perCall(n, get)
	perCall(len(pop.Schemas), scan)
	L["cache.scan_range_us"] = perCall(n/4, scan) / 1e3
	v.Close()
	if err := c.ReconcileFull(gen.Metastore); err != nil {
		return err
	}
	if v, err = c.NewView(gen.Metastore); err != nil {
		return err
	}
	L["cache.get_miss_us"] = perCall(n, get) / 1e3
	v.Close()

	// store: snapshot point read, range scan per row, one-key commit.
	snap, err := db.Snapshot(gen.Metastore)
	if err != nil {
		return err
	}
	L["store.snapshot_get_ns"] = perCall(n, func(i int) { snap.Get(erm.TableEntity, leaf(i).ID) })
	rows := 0
	scanNs := perCall(n/4, func(i int) {
		lo, hi := childRange(i)
		rows += len(snap.ScanRange(erm.TableChild, lo, hi, gen.PageSize))
	})
	L["store.scan_range_ns_per_row"] = stats.Ratio(scanNs*float64(n/4), float64(rows))
	encoded := make([][]byte, n)
	for i := range encoded {
		encoded[i], _ = snap.Get(erm.TableEntity, leaf(i).ID)
	}
	snap.Close()
	L["erm.decode_entity_ns"] = perCall(n, func(i int) { erm.DecodeEntity(encoded[i]) })
	const probeMS = "perf_probe"
	if err := db.CreateMetastore(probeMS); err != nil {
		return err
	}
	var commitErr error
	L["store.commit_us"] = medianCall(200, func(i int) {
		if _, err := db.Update(probeMS, func(tx *store.Tx) error {
			tx.Put("probe", "k", []byte{byte(i)})
			return nil
		}); err != nil {
			commitErr = err
		}
	}) / 1e3
	if commitErr != nil {
		return commitErr
	}

	// privilege: a warm check, and the first check after a version bump.
	reader := func(i int) catalog.Ctx {
		return catalog.Ctx{Principal: privilege.Principal(gen.User(pop.Schemas[leaf(i).Schema].Readers[0])), Metastore: gen.Metastore}
	}
	one := func(i int) {
		svc.AuthorizeBatch(reader(i), []ids.ID{ids.ID(leaf(i).ID)}, privilege.Select)
	}
	perCall(n, one)
	L["privilege.check_ns"] = perCall(n, one)
	var bumpErr error
	builds := make([]float64, 50)
	for i := range builds {
		if err := svc.SetTag(adminCtx(), pop.Catalogs[0].Name, "", "perf_probe", fmt.Sprint(i)); err != nil {
			bumpErr = err
		}
		start := time.Now()
		one(0)
		builds[i] = float64(time.Since(start))
	}
	if bumpErr != nil {
		return bumpErr
	}
	L["privilege.build_us"] = stats.Median(builds) / 1e3

	// jsonenc: the objects the catalog boundary was handed.
	if cb.lastEntity == nil {
		if cb.lastEntity, err = svc.GetAsset(adminCtx(), leaf(0).Full); err != nil {
			return err
		}
	}
	if cb.lastResolve == nil {
		if cb.lastResolve, err = svc.Resolve(adminCtx(), catalog.ResolveRequest{Names: []string{leaf(0).Full, leaf(1).Full, leaf(2).Full}}); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, 64<<10)
	L["jsonenc.entity_ns"] = perCall(20000, func(int) { buf = jsonenc.AppendEntity(buf[:0], cb.lastEntity) })
	L["jsonenc.resolve_ns"] = perCall(5000, func(int) { buf = jsonenc.AppendResolveResponse(buf[:0], cb.lastResolve) })

	// events: publish on a bus of the harness's own, history already full,
	// three subscribers that keep up.
	bus := events.NewBus(0, 0)
	var drained sync.WaitGroup
	subs := make([]*events.Subscription, 3)
	for i := range subs {
		subs[i] = bus.Subscribe()
		drained.Add(1)
		go func(s *events.Subscription) {
			defer drained.Done()
			for range s.C {
			}
		}(subs[i])
	}
	ev := events.Event{Metastore: gen.Metastore, Op: events.OpUpdate, EntityID: ids.ID(leaf(0).ID), Type: "TABLE", FullName: leaf(0).Full,
		Principal: gen.Admin, Time: time.Now(), Changes: []events.Change{{Table: erm.TableEntity, Key: leaf(0).ID}}}
	for i := 0; i < 8192+64; i++ {
		ev.Version = uint64(i)
		bus.Publish(ev)
	}
	L["events.publish_ns"] = medianCall(200, func(i int) {
		ev.Version++
		bus.Publish(ev)
	})
	for _, s := range subs {
		s.Cancel()
	}
	drained.Wait()

	// cloudsim, audit and pathtrie, each on an instance of the harness's own
	// so that the program's rings and tries are not disturbed.
	cloud := cloudsim.New()
	L["cloudsim.mint_us"] = perCall(2000, func(i int) { cloud.Mint(leaf(i).Path, cloudsim.AccessRead, 15*time.Minute) }) / 1e3
	log := audit.NewLog(0)
	rec := audit.Record{Kind: audit.KindAuthz, Metastore: gen.Metastore, Principal: gen.User(0), Operation: "GetTABLE", Securable: ids.ID(leaf(0).ID), Allowed: true, ReadOnly: true, Detail: "ok"}
	perCall(100000, func(int) { log.Append(rec) }) // fill the ring
	L["audit.append_ns"] = perCall(100000, func(int) { log.Append(rec) })
	trie := pathtrie.New()
	for i := 0; i < n; i++ {
		trie.Insert(leaf(i).Path, ids.ID(leaf(i).ID))
	}
	paths := make([]string, n)
	for i := range paths {
		paths[i] = leaf(i).Path + "/part-00000.parquet"
	}
	perCall(n, func(i int) { trie.Resolve(paths[i]) })
	L["pathtrie.resolve_ns"] = perCall(n, func(i int) { trie.Resolve(paths[i]) })
	return nil
}
