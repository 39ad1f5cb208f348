package workload

import (
	"math"
	"reflect"
	"testing"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/store"
)

func newService(t *testing.T) (*catalog.Service, catalog.Ctx) {
	t.Helper()
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := catalog.New(catalog.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	svc.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1")
	return svc, catalog.Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
}

func TestGeneratePopulationShape(t *testing.T) {
	svc, admin := newService(t)
	pop, err := Generate(svc, admin, PopulationSpec{Seed: 7, Catalogs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(pop.Catalogs) != 10 || len(pop.Schemas) == 0 {
		t.Fatalf("catalogs=%d schemas=%d", len(pop.Catalogs), len(pop.Schemas))
	}
	counts := pop.CountByType()
	if counts[erm.TypeTable] == 0 {
		t.Fatal("no tables generated")
	}
	// Everything the manifest lists resolves through the real catalog API —
	// every entry: a single phantom, drawn hot by a Zipf trace, is a steady
	// stream of 404s.
	if counts[erm.TypeFunction] == 0 {
		t.Fatal("no functions generated")
	}
	for _, a := range pop.Assets {
		e, err := svc.GetAsset(admin, a.FullName)
		if err != nil {
			t.Fatalf("asset %s missing from catalog: %v", a.FullName, err)
		}
		if e.Type != a.Type {
			t.Fatalf("asset %s is a %s, the manifest says %s", a.FullName, e.Type, a.Type)
		}
	}
	// Schema composition should be dominated by tables-only schemas.
	kinds := map[SchemaKind]int{}
	for _, k := range pop.SchemaKinds {
		kinds[k]++
	}
	if kinds[SchemaTablesOnly] <= kinds[SchemaVolumesOnly] {
		t.Fatalf("composition off: %v", kinds)
	}
	// Table type mix: managed should dominate.
	byType := map[catalog.TableType]int{}
	for _, a := range pop.Tables() {
		byType[a.TableType]++
	}
	if byType[catalog.TableManaged] < byType[catalog.TableForeign] {
		t.Fatalf("table mix off: %v", byType)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	svc1, admin1 := newService(t)
	svc2, admin2 := newService(t)
	p1, err := Generate(svc1, admin1, PopulationSpec{Seed: 42, Catalogs: 3})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Generate(svc2, admin2, PopulationSpec{Seed: 42, Catalogs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Assets) != len(p2.Assets) {
		t.Fatalf("non-deterministic: %d vs %d assets", len(p1.Assets), len(p2.Assets))
	}
	for i := range p1.Assets {
		if p1.Assets[i].FullName != p2.Assets[i].FullName {
			t.Fatalf("asset %d differs: %s vs %s", i, p1.Assets[i].FullName, p2.Assets[i].FullName)
		}
	}
}

func TestTraceGenerationAndReplay(t *testing.T) {
	svc, admin := newService(t)
	pop, err := Generate(svc, admin, PopulationSpec{Seed: 7, Catalogs: 4})
	if err != nil {
		t.Fatal(err)
	}
	ops := GenerateTrace(pop, TraceSpec{Seed: 9, Ops: 2000})
	if len(ops) != 2000 {
		t.Fatalf("ops = %d", len(ops))
	}
	// Virtual time is monotonic.
	for i := 1; i < len(ops); i++ {
		if ops[i].At < ops[i-1].At {
			t.Fatal("trace time not monotonic")
		}
	}
	stats := Replay(svc, admin, ops)
	if stats.Errors != 0 {
		t.Fatalf("replay errors: %d / %d", stats.Errors, stats.Ops)
	}
	// Temporal locality: container inter-arrivals should be shorter than
	// leaf-table inter-arrivals (Figure 5's shape).
	med := func(ds []int64) int64 {
		if len(ds) == 0 {
			return 0
		}
		cp := append([]int64(nil), ds...)
		for i := 1; i < len(cp); i++ {
			for j := i; j > 0 && cp[j-1] > cp[j]; j-- {
				cp[j-1], cp[j] = cp[j], cp[j-1]
			}
		}
		return cp[len(cp)/2]
	}
	toInt := func(k erm.SecurableType) []int64 {
		var out []int64
		for _, d := range stats.InterArrivals[k] {
			out = append(out, int64(d))
		}
		return out
	}
	catMed := med(toInt(erm.TypeCatalog))
	tblMed := med(toInt(erm.TypeTable))
	if catMed == 0 || tblMed == 0 {
		t.Fatalf("missing inter-arrivals: cat=%d tbl=%d", catMed, tblMed)
	}
	if catMed >= tblMed {
		t.Fatalf("containers should be re-accessed sooner: cat=%d tbl=%d", catMed, tblMed)
	}
	// Access methods: some tables should be path-accessed, most name-only.
	nameOnly, pathOnly, both := stats.AccessMethodCounts()
	if nameOnly == 0 || nameOnly < both+pathOnly {
		t.Fatalf("access mix off: name=%d path=%d both=%d", nameOnly, pathOnly, both)
	}
}

func TestReadFractionMatchesSpec(t *testing.T) {
	svc, admin := newService(t)
	pop, _ := Generate(svc, admin, PopulationSpec{Seed: 3, Catalogs: 3})
	ops := GenerateTrace(pop, TraceSpec{Seed: 5, Ops: 5000})
	writes := 0
	for _, op := range ops {
		if op.Kind == OpUpdateMeta || op.Kind == OpGrantOp {
			writes++
		}
	}
	frac := 1 - float64(writes)/float64(len(ops))
	if math.Abs(frac-0.982) > 0.02 {
		t.Fatalf("read fraction = %.4f, want ~0.982", frac)
	}
}

func TestTPCSetupAndFootprints(t *testing.T) {
	svc, admin := newService(t)
	if err := SetupTPC(svc, admin, "tpch", "sf1", TPCHTables, 0.01, true, 1); err != nil {
		t.Fatal(err)
	}
	// All 22 query footprints resolve through the catalog.
	for qi, fp := range TPCHQueryFootprints {
		names := QueryNames("tpch", "sf1", fp)
		if _, err := svc.Resolve(admin, catalog.ResolveRequest{Names: names, WithCredentials: true}); err != nil {
			t.Fatalf("Q%d resolve: %v", qi+1, err)
		}
	}
	if len(TPCHQueryFootprints) != 22 {
		t.Fatalf("TPC-H has %d footprints", len(TPCHQueryFootprints))
	}
	if len(TPCDSTables) < 10 || len(TPCDSQueryFootprints) < 10 {
		t.Fatalf("TPC-DS subset too small: %d tables, %d queries", len(TPCDSTables), len(TPCDSQueryFootprints))
	}
}

func TestFleetMatrix(t *testing.T) {
	uc := GenerateFleet("UC", ClientFleetSpec{Seed: 1, ClientTypes: 334, OpTypes: 90, Events: 20000})
	hms := GenerateFleet("HMS", ClientFleetSpec{Seed: 2, ClientTypes: 95, OpTypes: 30, Events: 20000})
	if uc.ClientTypes != 334 || hms.ClientTypes != 95 {
		t.Fatalf("client types: %d vs %d", uc.ClientTypes, hms.ClientTypes)
	}
	if uc.DistinctPairs <= hms.DistinctPairs {
		t.Fatalf("UC should show more diversity: %d vs %d", uc.DistinctPairs, hms.DistinctPairs)
	}
	// Heavy tail: the top cell should be much bigger than the median cell.
	if uc.Cells[0].Count < 10 {
		t.Fatalf("top cell = %d", uc.Cells[0].Count)
	}
}

func TestGrowthCurves(t *testing.T) {
	curves := GenerateGrowth(1)
	if again := GenerateGrowth(1); !reflect.DeepEqual(curves, again) {
		t.Fatal("two runs at one seed drew different curves")
	}
	vols := curves["volumes"]
	if len(vols) != 24 {
		t.Fatalf("periods = %d", len(vols))
	}
	// Acceleration: second-half creations exceed first-half creations.
	firstHalf, secondHalf := 0, 0
	for i, p := range vols {
		if i < 12 {
			firstHalf += p.Created
		} else {
			secondHalf += p.Created
		}
	}
	if secondHalf <= firstHalf {
		t.Fatalf("volume growth not accelerating: %d then %d", firstHalf, secondHalf)
	}
	// Cumulative counts are monotone.
	for i := 1; i < len(vols); i++ {
		if vols[i].Cumulative < vols[i-1].Cumulative {
			t.Fatal("cumulative not monotone")
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
