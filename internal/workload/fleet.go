package workload

import (
	"fmt"
	"math/rand"
	"sort"
)

// This file models the external-client diversity of Figure 9 and the
// growth curves of Figures 7 and 8(b)/8(c).

// ClientFleetSpec parameterizes the Figure 9 simulation.
type ClientFleetSpec struct {
	Seed int64
	// ClientTypes is the number of distinct external client types
	// (the paper reports 334 for UC vs 95 for HMS).
	ClientTypes int
	// OpTypes is the number of distinct operation types exposed
	// (90 for UC vs 30 for HMS).
	OpTypes int
	// Events is the number of (client, op) invocations to sample.
	Events int
}

// fleetZipfS skews both dimensions of the fleet matrix (real fleets are
// heavy-tailed).
const fleetZipfS = 1.3

// FleetCell is one bubble of Figure 9: a (client type, op type) pair with
// its invocation count.
type FleetCell struct {
	Client string
	Op     string
	Count  int
}

// FleetMatrix is the Figure 9 dataset for one catalog system.
type FleetMatrix struct {
	System        string
	Cells         []FleetCell
	ClientTypes   int
	OpTypes       int
	DistinctPairs int
}

// ucOpNames generates stable operation names; the first 30 mirror the
// HMS-compatible surface, the rest are UC-only operations (grants, tags,
// credentials, models, shares, lineage, search, ...).
func opNames(n int) []string {
	base := []string{
		"GetTable", "GetDatabase", "GetAllDatabases", "GetTables", "CreateTable",
		"DropTable", "AlterTable", "CreateDatabase", "DropDatabase", "GetPartitions",
		"GetSchema", "ListSchemas", "GetCatalog", "ListCatalogs", "CreateSchema",
		"DropSchema", "GetTableStats", "UpdateTableStats", "GetFunctions", "CreateFunction",
		"DropFunction", "GetViews", "CreateView", "DropView", "RenameTable",
		"GetColumns", "CheckTableExists", "GetTableTypes", "GetPrimaryKeys", "GetForeignKeys",
	}
	ucOnly := []string{
		"Grant", "Revoke", "GetEffectivePermissions", "SetTag", "UnsetTag",
		"GetTemporaryTableCredentials", "GetTemporaryPathCredentials", "GetTemporaryVolumeCredentials",
		"CreateVolume", "ListVolumes", "ReadVolume", "CreateRegisteredModel", "CreateModelVersion",
		"ListModelVersions", "FinalizeModelVersion", "GetModelVersionDownloadURI", "SetModelAlias",
		"CreateShare", "UpdateShare", "ListShares", "CreateRecipient", "RotateRecipientToken",
		"QuerySharedTable", "ListSharedTables", "CreateConnection", "ListConnections",
		"CreateExternalLocation", "ListExternalLocations", "CreateStorageCredential",
		"ValidateStorageCredential", "SubmitLineage", "GetLineage", "SearchAssets",
		"QueryAssets", "GetAuditEvents", "CreateABACRule", "ListABACRules", "DeleteABACRule",
		"ResolveBatch", "GetMetastoreSummary", "AssignWorkspace", "UnassignWorkspace",
		"CreateCleanRoom", "ListCleanRooms", "GetInformationSchema", "RefreshForeignTable",
		"CreateMonitor", "GetMonitor", "EnablePredictiveOptimization", "GetCommitCoordinator",
		"CommitMultiTable", "GetTableSnapshot", "RestoreTable", "CloneTable",
		"SetRowFilter", "SetColumnMask", "GetVendedIcebergMetadata", "SyncUniform",
		"GetOnlineTable", "CreateServingEndpoint",
	}
	all := append(append([]string{}, base...), ucOnly...)
	for len(all) < n {
		all = append(all, fmt.Sprintf("ExtensionOp%03d", len(all)))
	}
	return all[:n]
}

func clientNames(n int, r *rand.Rand) []string {
	families := []string{
		"spark", "trino", "presto", "flink", "duck", "polars", "pandas", "ray",
		"powerbi", "tableau", "looker", "qlik", "metabase", "superset", "mode",
		"dbt", "airflow", "dagster", "prefect", "fivetran", "airbyte", "datahub",
		"collibra", "alation", "atlan", "immuta", "privacera", "greatexpectations",
		"jupyter", "rstudio", "vscode", "terraform", "pulumi", "cli", "sdk-python",
		"sdk-go", "sdk-java", "sdk-rust", "rest-curl", "browser-ui",
	}
	versionsPerFamily := n/len(families) + 1
	var out []string
	for _, f := range families {
		for v := 0; v < versionsPerFamily; v++ {
			out = append(out, fmt.Sprintf("%s/%d.%d", f, 1+v, r.Intn(10)))
		}
	}
	sort.Strings(out)
	return out[:n]
}

// GenerateFleet samples the (client, op) activity matrix.
func GenerateFleet(system string, spec ClientFleetSpec) *FleetMatrix {
	r := rand.New(rand.NewSource(spec.Seed))
	clients := clientNames(spec.ClientTypes, r)
	ops := opNames(spec.OpTypes)
	zc := rand.NewZipf(r, fleetZipfS, 1, uint64(len(clients)-1))
	zo := rand.NewZipf(r, fleetZipfS, 1, uint64(len(ops)-1))

	counts := map[[2]int]int{}
	for i := 0; i < spec.Events; i++ {
		c := int(zc.Uint64())
		o := int(zo.Uint64())
		// Shuffle op index per client so different clients favor
		// different operations, as in reality.
		o = (o + c*7) % len(ops)
		counts[[2]int{c, o}]++
	}
	m := &FleetMatrix{System: system, ClientTypes: spec.ClientTypes, OpTypes: spec.OpTypes}
	for k, n := range counts {
		m.Cells = append(m.Cells, FleetCell{Client: clients[k[0]], Op: ops[k[1]], Count: n})
	}
	sort.Slice(m.Cells, func(i, j int) bool { return m.Cells[i].Count > m.Cells[j].Count })
	m.DistinctPairs = len(m.Cells)
	return m
}

// GrowthParams shapes one series.
type GrowthParams struct {
	Initial float64
	Rate    float64 // per-period multiplicative growth, e.g. 1.15
}

// GrowthPoint is one (period, cumulative count) sample.
type GrowthPoint struct {
	Period     int
	Created    int
	Cumulative int
}

// GenerateGrowth produces cumulative-creation curves with noise.
func GenerateGrowth(seed int64) map[string][]GrowthPoint {
	const periods = 24 // time steps (months)
	r := rand.New(rand.NewSource(seed))
	series := DefaultGrowthSeries()
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names) // one generator feeds every series: draw in a fixed order
	out := map[string][]GrowthPoint{}
	for _, name := range names {
		p := series[name]
		rate := p.Initial
		cum := 0
		var pts []GrowthPoint
		for t := 0; t < periods; t++ {
			noise := 0.85 + r.Float64()*0.3
			created := int(rate * noise)
			cum += created
			pts = append(pts, GrowthPoint{Period: t, Created: created, Cumulative: cum})
			rate *= p.Rate
		}
		out[name] = pts
	}
	return out
}

// DefaultGrowthSeries matches the paper's qualitative curves: volumes
// accelerate fastest (Figure 7), managed tables dominate but all types grow
// (Figure 8(b)), and the top-5 foreign types all rise (Figure 8(c)).
func DefaultGrowthSeries() map[string]GrowthParams {
	return map[string]GrowthParams{
		"volumes":               {Initial: 40, Rate: 1.22},
		"tables_managed":        {Initial: 900, Rate: 1.08},
		"tables_external":       {Initial: 300, Rate: 1.07},
		"tables_foreign":        {Initial: 120, Rate: 1.12},
		"views":                 {Initial: 220, Rate: 1.08},
		"tables_shallow_clone":  {Initial: 25, Rate: 1.10},
		"foreign_snowstore":     {Initial: 40, Rate: 1.13},
		"foreign_bigwarehouse":  {Initial: 30, Rate: 1.12},
		"foreign_redshelf":      {Initial: 20, Rate: 1.11},
		"foreign_hivemetastore": {Initial: 18, Rate: 1.09},
		"foreign_postgres":      {Initial: 12, Rate: 1.10},
	}
}
