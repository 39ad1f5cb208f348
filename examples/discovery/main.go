// Discovery catalog (paper §4.4): the event-driven search index, tag-based
// PII discovery, engine-reported lineage, and the "safe to delete?" check —
// all filtered through the core service's authorization API.
package main

import (
	"fmt"
	"log"

	"unitycatalog/uc"
)

func main() {
	cat, err := uc.Open(uc.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer cat.Close()
	cat.CreateMetastore("ms1", "main", "us-east-1", "admin", "s3://acme/ms1")
	admin := cat.Session("admin", "ms1")
	adminCtx := admin.Ctx()

	// A small pipeline: raw -> cleaned -> report.
	admin.CreateCatalog("analytics", "")
	admin.CreateSchema("analytics", "pipeline", "")
	cols := []uc.ColumnInfo{{Name: "id", Type: "BIGINT"}, {Name: "email", Type: "STRING"}, {Name: "v", Type: "DOUBLE"}}
	var paths []string
	for _, name := range []string{"raw_events", "clean_events", "daily_report"} {
		tbl, err := admin.CreateTable("analytics.pipeline", name, uc.TableSpec{Columns: cols}, "")
		if err != nil {
			log.Fatal(err)
		}
		if err := cat.BootstrapDeltaTable(tbl.StoragePath, cols); err != nil {
			log.Fatal(err)
		}
		paths = append(paths, tbl.StoragePath)
	}
	_ = paths

	// The engine reports lineage as it moves data (catalog-engine
	// collaboration, §4.1).
	eng := cat.NewEngine("nightly-etl", true)
	mustRun := func(sql string) {
		if _, err := eng.Execute(adminCtx, sql); err != nil {
			log.Fatalf("%s: %v", sql, err)
		}
	}
	mustRun("INSERT INTO analytics.pipeline.raw_events VALUES (1, 'a@x.com', 1.0), (2, 'b@y.com', 2.0)")
	mustRun("INSERT INTO analytics.pipeline.clean_events SELECT id, email, v FROM analytics.pipeline.raw_events")
	mustRun("INSERT INTO analytics.pipeline.daily_report SELECT id, email, v FROM analytics.pipeline.clean_events WHERE v >= 2")

	// Tag PII and find it via discovery search (the paper's canonical
	// example: locate all assets tagged 'PII').
	admin.SetTag("analytics.pipeline.raw_events", "email", "classification", "PII")
	admin.SetTag("analytics.pipeline.clean_events", "email", "classification", "PII")
	cat.Search.Sync() // the indexer follows the event stream asynchronously
	hits, err := cat.Search.Search(adminCtx, "PII", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assets tagged PII: %d\n", len(hits))
	for _, h := range hits {
		fmt.Printf("  %s (%s)\n", h.FullName, h.Type)
	}

	// Lineage: what feeds the report, and is raw_events safe to delete?
	report, _ := admin.Get("analytics.pipeline.daily_report")
	up, _ := cat.Lineage.Upstream(adminCtx, report.ID, 0)
	fmt.Printf("daily_report has %d upstream dependencies\n", len(up))
	raw, _ := admin.Get("analytics.pipeline.raw_events")
	if next, _ := cat.Lineage.Downstream(adminCtx, raw.ID, 1); len(next) > 0 {
		fmt.Println("raw_events has downstream consumers — deletion would break the pipeline ✓")
	}

	// Authorization filters discovery: an intern who can only see the
	// report gets no PII hits and no lineage beyond their access.
	admin.Grant("analytics", "intern", uc.UseCatalog)
	admin.Grant("analytics.pipeline", "intern", uc.UseSchema)
	admin.Grant("analytics.pipeline.daily_report", "intern", uc.Select)
	intern := uc.Ctx{Principal: "intern", Metastore: "ms1"}
	hits, _ = cat.Search.Search(intern, "PII", 0)
	upIntern, _ := cat.Lineage.Upstream(intern, report.ID, 0)
	fmt.Printf("intern sees %d PII hits and %d upstream nodes (authorization-filtered discovery)\n", len(hits), len(upIntern))

	// Change events stream to external discovery platforms.
	fmt.Printf("change-event stream carried %d events for external indexers\n", cat.Events().Published())
}
