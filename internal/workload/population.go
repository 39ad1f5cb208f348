// Package workload generates synthetic catalog populations, access traces,
// TPC-H/TPC-DS schemas, and client fleets used to regenerate the paper's
// evaluation (Section 6). Real production telemetry is proprietary, so the
// generators are calibrated to the statistics the paper reports — heavy-
// tailed assets per catalog, the §6.1 asset mix, the 98.2% read ratio, the
// ~7% path-access share — and every generated operation is executed against
// the live Unity Catalog code paths, so measured distributions come from
// actual system behaviour.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
)

// PopulationSpec parameterizes a synthetic metastore population.
type PopulationSpec struct {
	Seed int64
	// Catalogs is the number of catalogs to create.
	Catalogs int
	// TableScale scales the heavy-tailed tables-per-catalog distribution
	// (default 1.0). The paper's mode is ~30 tables per catalog with a tail
	// to 500K; we keep the mode and a (scaled) tail.
	TableScale float64
}

func (s *PopulationSpec) defaults() {
	if s.TableScale == 0 {
		s.TableScale = 1.0
	}
}

// SchemaKind is the composition class of a schema (Figure 6(a)).
type SchemaKind string

// Schema composition classes.
const (
	SchemaTablesOnly  SchemaKind = "tables_only"
	SchemaVolumesOnly SchemaKind = "volumes_only"
	SchemaBoth        SchemaKind = "tables_and_volumes"
	SchemaOther       SchemaKind = "other" // includes models
)

// Asset is one generated asset reference.
type Asset struct {
	FullName string
	Type     erm.SecurableType
	// TableType/Format for tables.
	TableType catalog.TableType
	Format    catalog.DataFormat
	// Container marks catalogs and schemas.
	Container bool
	// StoragePath for storage-backed assets.
	StoragePath string
}

// Population is the manifest of everything generated.
type Population struct {
	Catalogs []string
	Schemas  []string
	Assets   []Asset
	// SchemaKinds maps schema full name to its composition class.
	SchemaKinds map[string]SchemaKind
}

// TableTypeMix is the Figure 6(b) distribution. Fractions sum to 1.
var TableTypeMix = []struct {
	Type catalog.TableType
	Frac float64
}{
	{catalog.TableManaged, 0.53},
	{catalog.TableExternal, 0.17},
	{catalog.TableForeign, 0.16},
	{"VIEW", 0.12}, // views are modelled as a table-kind slot in the mix
	{catalog.TableShallowClone, 0.02},
}

// FormatMix is the Figure 8(a) distribution over non-foreign tables.
var FormatMix = []struct {
	Format catalog.DataFormat
	Frac   float64
}{
	{catalog.FormatDelta, 0.78},
	{catalog.FormatParquet, 0.10},
	{catalog.FormatIceberg, 0.06},
	{catalog.FormatCSV, 0.04},
	{catalog.FormatJSON, 0.01},
	{catalog.FormatAvro, 0.01},
}

// ForeignSources lists foreign table source systems; the paper reports 26
// foreign table types with a dominant top five (three of them cloud
// warehouses). Fractions are the shares among foreign tables.
var ForeignSources = []struct {
	Source string
	Frac   float64
}{
	{"snowstore", 0.30}, {"bigwarehouse", 0.22}, {"redshelf", 0.15},
	{"hive_metastore", 0.12}, {"postgres", 0.08},
	// long tail of 21 more types sharing the rest
	{"mysql", 0.03}, {"sqlserver", 0.02}, {"oracle", 0.02}, {"teradata", 0.01},
	{"sap", 0.01}, {"mongo", 0.01}, {"dynamo", 0.005}, {"cassandra", 0.005},
	{"salesforce", 0.004}, {"netsuite", 0.004}, {"workday", 0.004},
	{"looker", 0.003}, {"glue", 0.003}, {"presto", 0.003}, {"druid", 0.002},
	{"pinot", 0.002}, {"clickhouse", 0.002}, {"duckpond", 0.001},
	{"sqlite", 0.001}, {"access", 0.001}, {"excel", 0.001},
}

// schemaKindMix is the Figure 6(a) distribution.
var schemaKindMix = []struct {
	Kind SchemaKind
	Frac float64
}{
	{SchemaTablesOnly, 0.89},
	{SchemaVolumesOnly, 0.03},
	{SchemaBoth, 0.03},
	{SchemaOther, 0.05},
}

func pickSchemaKind(r *rand.Rand) SchemaKind {
	x := r.Float64()
	acc := 0.0
	for _, e := range schemaKindMix {
		acc += e.Frac
		if x < acc {
			return e.Kind
		}
	}
	return schemaKindMix[len(schemaKindMix)-1].Kind
}

// pickTableType samples the Figure 6(b) mix.
func pickTableType(r *rand.Rand) catalog.TableType {
	x := r.Float64()
	acc := 0.0
	for _, e := range TableTypeMix {
		acc += e.Frac
		if x < acc {
			return e.Type
		}
	}
	return catalog.TableManaged
}

func pickFormat(r *rand.Rand) catalog.DataFormat {
	x := r.Float64()
	acc := 0.0
	for _, e := range FormatMix {
		acc += e.Frac
		if x < acc {
			return e.Format
		}
	}
	return catalog.FormatDelta
}

// PickForeignSource samples the foreign-source mix.
func PickForeignSource(r *rand.Rand) string {
	x := r.Float64()
	acc := 0.0
	for _, e := range ForeignSources {
		acc += e.Frac
		if x < acc {
			return e.Source
		}
	}
	return ForeignSources[len(ForeignSources)-1].Source
}

// logNormalCount samples a heavy-tailed count with the given mode.
func logNormalCount(r *rand.Rand, mode float64, sigma float64) int {
	// For LogNormal(mu, sigma), mode = exp(mu - sigma^2).
	mu := math.Log(mode) + sigma*sigma
	n := int(math.Exp(r.NormFloat64()*sigma + mu))
	if n < 1 {
		n = 1
	}
	return n
}

// Generate builds a population inside the metastore by driving the real
// catalog APIs as the given admin principal.
func Generate(svc *catalog.Service, admin catalog.Ctx, spec PopulationSpec) (*Population, error) {
	spec.defaults()
	const meanSchemasPerCatalog = 4
	r := rand.New(rand.NewSource(spec.Seed))
	pop := &Population{SchemaKinds: map[string]SchemaKind{}}

	columns := []catalog.ColumnInfo{
		{Name: "id", Type: "BIGINT", Position: 0},
		{Name: "value", Type: "DOUBLE", Position: 1},
		{Name: "label", Type: "STRING", Position: 2},
	}

	for ci := 0; ci < spec.Catalogs; ci++ {
		catName := fmt.Sprintf("cat%03d", ci)
		if _, err := svc.CreateCatalog(admin, catName, ""); err != nil {
			return nil, err
		}
		pop.Catalogs = append(pop.Catalogs, catName)
		pop.Assets = append(pop.Assets, Asset{FullName: catName, Type: erm.TypeCatalog, Container: true})

		// Heavy-tailed table budget for the catalog, split over schemas.
		tableBudget := int(float64(logNormalCount(r, 30, 1.1)) * spec.TableScale)
		nSchemas := 1 + r.Intn(meanSchemasPerCatalog*2-1)
		for si := 0; si < nSchemas; si++ {
			schemaName := fmt.Sprintf("sch%02d", si)
			full := catName + "." + schemaName
			if _, err := svc.CreateSchema(admin, catName, schemaName, ""); err != nil {
				return nil, err
			}
			pop.Schemas = append(pop.Schemas, full)
			pop.Assets = append(pop.Assets, Asset{FullName: full, Type: erm.TypeSchema, Container: true})

			kind := pickSchemaKind(r)
			pop.SchemaKinds[full] = kind

			nTables := tableBudget / nSchemas
			if nTables < 1 {
				nTables = 1
			}
			switch kind {
			case SchemaTablesOnly:
				if err := genTables(svc, admin, r, pop, full, nTables, columns); err != nil {
					return nil, err
				}
			case SchemaVolumesOnly:
				if err := genVolumes(svc, admin, r, pop, full, 1+r.Intn(5)); err != nil {
					return nil, err
				}
			case SchemaBoth:
				if err := genTables(svc, admin, r, pop, full, nTables, columns); err != nil {
					return nil, err
				}
				if err := genVolumes(svc, admin, r, pop, full, 1+r.Intn(5)); err != nil {
					return nil, err
				}
			case SchemaOther:
				// Mixed: models, functions, and some tables/volumes.
				if err := genModels(svc, admin, r, pop, full, 1+r.Intn(3)); err != nil {
					return nil, err
				}
				if r.Float64() < 0.6 {
					if err := genTables(svc, admin, r, pop, full, nTables/2+1, columns); err != nil {
						return nil, err
					}
				}
				if r.Float64() < 0.4 {
					if err := genVolumes(svc, admin, r, pop, full, 1+r.Intn(3)); err != nil {
						return nil, err
					}
				}
				if fn, err := svc.CreateFunction(admin, full, fmt.Sprintf("fn%02d", r.Intn(100)), catalog.FunctionSpec{Language: "SQL", Body: "1"}); err == nil {
					pop.Assets = append(pop.Assets, Asset{FullName: fn.FullName, Type: erm.TypeFunction})
				}
			}
		}
	}
	return pop, nil
}

func genTables(svc *catalog.Service, admin catalog.Ctx, r *rand.Rand, pop *Population, schemaFull string, n int, columns []catalog.ColumnInfo) error {
	var lastTable string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%04d", i)
		tt := pickTableType(r)
		switch tt {
		case "VIEW":
			if lastTable == "" {
				tt = catalog.TableManaged
			} else {
				if _, err := svc.CreateView(admin, schemaFull, name, catalog.ViewSpec{
					Definition:   "SELECT id, value, label FROM " + lastTable,
					Dependencies: []string{lastTable},
				}); err != nil {
					return err
				}
				pop.Assets = append(pop.Assets, Asset{FullName: schemaFull + "." + name, Type: erm.TypeView})
				continue
			}
		}
		spec := catalog.TableSpec{TableType: tt, Format: pickFormat(r), Columns: columns}
		storagePath := ""
		switch tt {
		case catalog.TableExternal:
			storagePath = fmt.Sprintf("s3://external-%s/%s/%s", pop.Catalogs[len(pop.Catalogs)-1], schemaFull, name)
		case catalog.TableForeign:
			spec.Format = catalog.FormatParquet
			spec.ForeignSourceType = PickForeignSource(r)
			spec.ForeignConnection = spec.ForeignSourceType + "_conn"
			storagePath = fmt.Sprintf("s3://foreign-%s/%s/%s", spec.ForeignSourceType, schemaFull, name)
		case catalog.TableShallowClone:
			if lastTable == "" {
				spec.TableType = catalog.TableManaged
			}
		}
		e, err := svc.CreateTable(admin, schemaFull, name, spec, storagePath)
		if err != nil {
			return err
		}
		full := schemaFull + "." + name
		lastTable = full
		pop.Assets = append(pop.Assets, Asset{
			FullName: full, Type: erm.TypeTable, TableType: spec.TableType,
			Format: spec.Format, StoragePath: e.StoragePath,
		})
	}
	return nil
}

func genVolumes(svc *catalog.Service, admin catalog.Ctx, r *rand.Rand, pop *Population, schemaFull string, n int) error {
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("vol%02d", i)
		e, err := svc.CreateVolume(admin, schemaFull, name, "")
		if err != nil {
			return err
		}
		pop.Assets = append(pop.Assets, Asset{FullName: schemaFull + "." + name, Type: erm.TypeVolume, StoragePath: e.StoragePath})
	}
	return nil
}

func genModels(svc *catalog.Service, admin catalog.Ctx, r *rand.Rand, pop *Population, schemaFull string, n int) error {
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("model%02d", i)
		e, err := svc.CreateAsset(admin, catalog.CreateRequest{
			Type: erm.TypeRegisteredModel, Name: name, ParentFull: schemaFull,
			Spec: &catalog.ModelSpec{NextVersion: 1},
		})
		if err != nil {
			return err
		}
		pop.Assets = append(pop.Assets, Asset{FullName: schemaFull + "." + name, Type: erm.TypeRegisteredModel, StoragePath: e.StoragePath})
	}
	return nil
}

// Tables returns the table assets of the population.
func (p *Population) Tables() []Asset {
	var out []Asset
	for _, a := range p.Assets {
		if a.Type == erm.TypeTable {
			out = append(out, a)
		}
	}
	return out
}

// CountByType tallies generated assets per securable type.
func (p *Population) CountByType() map[erm.SecurableType]int {
	out := map[erm.SecurableType]int{}
	for _, a := range p.Assets {
		out[a.Type]++
	}
	return out
}
