package bench

// Fleet grid: the §4.5 serving topology measured end to end. Each cell
// brings up N catalog service nodes over one shared database (fleet
// package), populates a fixed set of metastores, and replays the paper's
// trace mix (workload.GenerateTrace: Zipf popularity, 98.2% reads, the
// container re-access pattern) through the consistent-hash router with a
// closed-loop worker pool. Nodes are latency-bound — a per-node admission
// semaphore plus a simulated per-request service time — so aggregate
// throughput scales with node count rather than host parallelism, which is
// the production regime the paper describes (the database, not the CPU, is
// the shared resource). Shared by the `fleet` experiment and
// `make bench-fleet`, which emits BENCH_fleet.json.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/fleet"
	"unitycatalog/internal/store"
	"unitycatalog/internal/workload"
)

// FleetCell is one measured cell of the fleet grid (one node count).
type FleetCell struct {
	Nodes      int     `json:"nodes"`
	Metastores int     `json:"metastores"`
	Ops        int     `json:"ops"`
	Reads      int     `json:"reads"`
	Writes     int     `json:"writes"`
	Errors     int     `json:"errors"`
	Secs       float64 `json:"secs"`
	QPS        float64 `json:"qps"`
	ReadQPS    float64 `json:"read_qps"`
	ReadP50us  float64 `json:"read_p50_us"`
	ReadP99us  float64 `json:"read_p99_us"`
	WriteP50us float64 `json:"write_p50_us"`
	WriteP99us float64 `json:"write_p99_us"`
	// StaleP50us/StaleP99us are the staleness window: publish→invalidate
	// latency of coherence events applied on remote caches.
	StaleP50us float64 `json:"staleness_p50_us"`
	StaleP99us float64 `json:"staleness_p99_us"`
	// EventsApplied / Invalidated / FullEvictEquivalent measure selective
	// invalidation: Invalidated entries were dropped where a version-check
	// strategy would have dropped FullEvictEquivalent.
	EventsApplied    int64   `json:"events_applied"`
	Invalidated      int64   `json:"invalidated"`
	FullEvictEquiv   int64   `json:"full_evict_equivalent"`
	SelectiveEvictPc float64 `json:"selective_evict_pct"`
	// FanOut is coherence events applied per write commit — how many remote
	// caches each write had to invalidate.
	FanOut    float64 `json:"fanout"`
	Forwarded int64   `json:"forwarded"`
	Local     int64   `json:"local"`
	HitRate   float64 `json:"hit_rate"`
	// DrainMs is how long after the last request until every cache caught
	// up to the store (MaxVersionLag == 0).
	DrainMs float64 `json:"drain_ms"`
}

// FleetCellRows shapes the fleet grid for WriteAligned.
func FleetCellRows(cells []FleetCell) ([]string, [][]string) {
	header := []string{"nodes", "ms", "ops", "errs", "secs", "qps", "read_qps",
		"rd_p50_us", "rd_p99_us", "wr_p99_us", "stale_p50_us", "stale_p99_us",
		"events", "invalidated", "full_equiv", "sel_evict", "fanout", "fwd", "hit_rate"}
	rows := make([][]string, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, []string{
			fi(c.Nodes), fi(c.Metastores), fi(c.Ops), fi(c.Errors), f(c.Secs),
			fmt.Sprintf("%.0f", c.QPS), fmt.Sprintf("%.0f", c.ReadQPS),
			f(c.ReadP50us), f(c.ReadP99us), f(c.WriteP99us),
			f(c.StaleP50us), f(c.StaleP99us),
			f64(c.EventsApplied), f64(c.Invalidated), f64(c.FullEvictEquiv),
			fmt.Sprintf("%.2f%%", c.SelectiveEvictPc), f(c.FanOut),
			f64(c.Forwarded), pc(c.HitRate),
		})
	}
	return header, rows
}

// fleetTenant is one metastore's replay stream: its trace plus the contexts
// needed to drive it through the router.
type fleetTenant struct {
	ms    string
	admin catalog.Ctx
	ops   []workload.TraceOp
}

// fleetWorld populates msCount metastores through their owning nodes (in
// parallel — population writes pay the store's commit latency, so the
// sleeps overlap) and generates each tenant's trace.
func fleetWorld(f *fleet.Fleet, seed int64, msCount, opsPerMS int, popSpec workload.PopulationSpec) ([]fleetTenant, error) {
	tenants := make([]fleetTenant, msCount)
	errs := make([]error, msCount)
	var wg sync.WaitGroup
	for i := 0; i < msCount; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msID := fmt.Sprintf("ms%02d", i)
			admin := catalog.Ctx{Principal: "admin", Metastore: msID, TrustedEngine: true}
			_, owner, err := f.CreateMetastore(msID, msID, "region-1", "admin", "s3://root/"+msID)
			if err != nil {
				errs[i] = err
				return
			}
			spec := popSpec
			spec.Seed = seed + int64(i)
			pop, err := workload.Generate(owner.Service, admin, spec)
			if err != nil {
				errs[i] = fmt.Errorf("populate %s: %w", msID, err)
				return
			}
			tenants[i] = fleetTenant{
				ms:    msID,
				admin: admin,
				ops:   workload.GenerateTrace(pop, workload.TraceSpec{Seed: seed + int64(i), Ops: opsPerMS}),
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return tenants, nil
}

// execFleetOp runs one trace operation against a node's service, mirroring
// workload.Replay's dispatch.
func execFleetOp(svc *catalog.Service, admin catalog.Ctx, op workload.TraceOp, grant bool) error {
	switch op.Kind {
	case workload.OpGetAsset:
		_, err := svc.GetAsset(admin, op.Asset.FullName)
		return err
	case workload.OpResolve:
		_, err := svc.Resolve(admin, catalog.ResolveRequest{Names: []string{op.Asset.FullName}})
		return err
	case workload.OpList:
		parent := op.Asset.FullName
		if i := strings.LastIndexByte(parent, '.'); i >= 0 {
			parent = parent[:i]
		}
		_, err := svc.ListAssets(admin, parent, "")
		return err
	case workload.OpCredByName:
		_, err := svc.TempCredentialForAsset(admin, op.Asset.FullName, cloudsim.AccessRead)
		return err
	case workload.OpCredByPath:
		_, err := svc.TempCredentialForPath(admin, op.Asset.StoragePath+"/part-0", cloudsim.AccessRead)
		return err
	case workload.OpUpdateMeta:
		comment := "updated by trace"
		_, err := svc.UpdateAsset(admin, op.Asset.FullName, catalog.UpdateRequest{Comment: &comment})
		return err
	case workload.OpGrantOp:
		if grant {
			return svc.Grant(admin, op.Asset.FullName, "trace_user", "SELECT")
		}
		return svc.Revoke(admin, op.Asset.FullName, "trace_user", "SELECT")
	}
	return nil
}

// runFleetCell measures one node count: build the fleet, populate, warm the
// caches with one untimed read pass, then replay the merged trace through
// the router with a closed-loop worker pool sized to oversubscribe every
// node's admission semaphore.
func runFleetCell(seed int64, nodes, msCount, opsPerMS int, popSpec workload.PopulationSpec,
	serviceTime time.Duration, capacity int) (FleetCell, error) {
	cell := FleetCell{Nodes: nodes, Metastores: msCount}
	db, err := store.Open(store.Options{
		ReadLatency:   450 * time.Microsecond,
		CommitLatency: 900 * time.Microsecond,
	})
	if err != nil {
		return cell, err
	}
	defer db.Close()
	f, err := fleet.New(db, fleet.Options{
		Nodes:           nodes,
		Capacity:        capacity,
		ServiceTime:     serviceTime,
		LocalServeEvery: 8,
	})
	if err != nil {
		return cell, err
	}
	defer f.Close()

	tenants, err := fleetWorld(f, seed, msCount, opsPerMS, popSpec)
	if err != nil {
		return cell, err
	}
	totalOps := 0
	for _, tn := range tenants {
		totalOps += len(tn.ops)
	}

	// Warm pass (untimed, parallel per tenant): every asset the trace will
	// touch gets read once through the router, so the measured phase starts
	// from the steady state, with misroutes having seeded secondary caches.
	var warmWG sync.WaitGroup
	for _, tn := range tenants {
		warmWG.Add(1)
		go func(tn fleetTenant) {
			defer warmWG.Done()
			warmed := map[string]bool{}
			for _, op := range tn.ops {
				if warmed[op.Asset.FullName] || op.Kind == workload.OpUpdateMeta || op.Kind == workload.OpGrantOp {
					continue
				}
				warmed[op.Asset.FullName] = true
				full := op.Asset.FullName
				_ = f.Do(tn.ms, func(svc *catalog.Service) error {
					_, err := svc.GetAsset(tn.admin, full)
					return err
				})
			}
		}(tn)
	}
	warmWG.Wait()

	cohBefore := f.Coherence()
	cacheBefore := f.CacheMetrics()
	fwdBefore, localBefore := f.Forwarded(), f.LocalServes()

	// Closed loop with dedicated per-tenant workers: the total client count
	// is fixed across node scales, and a saturated node only queues its own
	// tenants' clients — the rest of the fleet keeps serving (the router
	// never head-of-line blocks tenants on an unrelated owner).
	const workersPerTenant = 3
	workers := msCount * workersPerTenant
	readLats := make([][]float64, workers)
	writeLats := make([][]float64, workers)
	var errCount, grantToggle atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for ti, tn := range tenants {
		for s := 0; s < workersPerTenant; s++ {
			w := ti*workersPerTenant + s
			wg.Add(1)
			go func(tn fleetTenant, w, s int) {
				defer wg.Done()
				for i := s; i < len(tn.ops); i += workersPerTenant {
					op := tn.ops[i]
					write := op.Kind == workload.OpUpdateMeta || op.Kind == workload.OpGrantOp
					grant := op.Kind == workload.OpGrantOp && grantToggle.Add(1)%2 == 1
					t0 := time.Now()
					err := f.Do(tn.ms, func(svc *catalog.Service) error {
						return execFleetOp(svc, tn.admin, op, grant)
					})
					lat := float64(time.Since(t0).Microseconds())
					if write {
						writeLats[w] = append(writeLats[w], lat)
					} else {
						readLats[w] = append(readLats[w], lat)
					}
					if err != nil {
						errCount.Add(1)
					}
				}
			}(tn, w, s)
		}
	}
	wg.Wait()
	secs := time.Since(start).Seconds()

	drainStart := time.Now()
	for f.MaxVersionLag() != 0 && time.Since(drainStart) < 10*time.Second {
		time.Sleep(time.Millisecond)
	}
	cell.DrainMs = float64(time.Since(drainStart).Microseconds()) / 1000

	var reads, writes []float64
	for w := 0; w < workers; w++ {
		reads = append(reads, readLats[w]...)
		writes = append(writes, writeLats[w]...)
	}
	coh := f.Coherence()
	cm := f.CacheMetrics()
	cell.Ops = totalOps
	cell.Reads = len(reads)
	cell.Writes = len(writes)
	cell.Errors = int(errCount.Load())
	cell.Secs = secs
	cell.QPS = float64(totalOps) / secs
	cell.ReadQPS = float64(len(reads)) / secs
	sr, sw := sortFloats(reads), sortFloats(writes)
	cell.ReadP50us, cell.ReadP99us = percentile(sr, 50), percentile(sr, 99)
	cell.WriteP50us, cell.WriteP99us = percentile(sw, 50), percentile(sw, 99)
	cell.StaleP50us = f.Staleness().Quantile(0.50) / 1e3
	cell.StaleP99us = f.Staleness().Quantile(0.99) / 1e3
	cell.EventsApplied = coh.EventsApplied - cohBefore.EventsApplied
	cell.Invalidated = coh.Invalidated - cohBefore.Invalidated
	cell.FullEvictEquiv = coh.FullEvictEquivalent - cohBefore.FullEvictEquivalent
	if cell.FullEvictEquiv > 0 {
		cell.SelectiveEvictPc = 100 * float64(cell.Invalidated) / float64(cell.FullEvictEquiv)
	}
	if cell.Writes > 0 {
		cell.FanOut = float64(cell.EventsApplied) / float64(cell.Writes)
	}
	cell.Forwarded = f.Forwarded() - fwdBefore
	cell.Local = f.LocalServes() - localBefore
	hits := cm.Hits - cacheBefore.Hits
	misses := cm.Misses - cacheBefore.Misses
	if hits+misses > 0 {
		cell.HitRate = float64(hits) / float64(hits+misses)
	}
	return cell, nil
}

// RunFleetGrid measures the fleet at increasing node counts over a fixed
// metastore set (strong scaling: same data, same offered mix, more nodes).
func RunFleetGrid(quick bool) ([]FleetCell, error) {
	seed := int64(1)
	nodeScales := []int{1, 2, 4, 8, 16}
	// Enough tenants that consistent-hash ownership spreads smoothly even
	// at 16 nodes; with too few, one node owns most tenants and its
	// admission queue throttles the whole closed loop.
	msCount := 64
	opsPerNode := 2500
	// Large relative to this box's ~150µs sleep overshoot so the admission
	// gate, not timer slop, sets each node's ceiling.
	serviceTime := 4 * time.Millisecond
	capacity := 8
	popSpec := workload.PopulationSpec{Catalogs: 2, MeanSchemasPerCatalog: 2, TableScale: 0.15}
	if quick {
		nodeScales = []int{1, 2, 4}
		msCount = 12
		opsPerNode = 400
		serviceTime = time.Millisecond
	}
	var cells []FleetCell
	for _, n := range nodeScales {
		// Total offered load scales with capacity so each cell runs ~the
		// same wall time; per-metastore share grows with the fleet.
		opsPerMS := opsPerNode * n / msCount
		if opsPerMS < 40 {
			opsPerMS = 40
		}
		cell, err := runFleetCell(seed, n, msCount, opsPerMS, popSpec, serviceTime, capacity)
		if err != nil {
			return nil, fmt.Errorf("fleet %d nodes: %w", n, err)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// FleetExperiment renders the grid.
func FleetExperiment(o Options) (*Table, error) {
	cells, err := RunFleetGrid(o.Quick)
	if err != nil {
		return nil, err
	}
	header, rows := FleetCellRows(cells)
	t := &Table{
		ID:     "fleet",
		Title:  "Serving fleet: event-driven selective cache coherence at 1-16 nodes",
		Paper:  "stateless service fleet over one shared database, per-node caches kept coherent by the change-event stream (§4.5)",
		Header: header,
		Rows:   rows,
	}
	var one, eight *FleetCell
	for i := range cells {
		if cells[i].Nodes == 1 {
			one = &cells[i]
		}
		if cells[i].Nodes == 8 || (eight == nil && i == len(cells)-1) {
			eight = &cells[i]
		}
	}
	if one != nil && eight != nil && one.ReadQPS > 0 {
		t.Finding = fmt.Sprintf(
			"read QPS %d→%d nodes: %.0f → %.0f (%.1fx); selective invalidation evicted %.2f%% of full-evict; staleness p99 %.1fms at %d nodes",
			one.Nodes, eight.Nodes, one.ReadQPS, eight.ReadQPS, eight.ReadQPS/one.ReadQPS,
			eight.SelectiveEvictPc, eight.StaleP99us/1000, eight.Nodes)
	}
	return t, nil
}
