// Command ucserver runs the Unity Catalog service as an HTTP server,
// exposing the UC REST API, the Delta Sharing protocol endpoint, and the
// Iceberg REST catalog facade.
//
// Usage:
//
//	ucserver -addr :8080 -wal uc.wal -metastore ms1 -owner admin
//
// Identity is carried via "Authorization: Bearer <principal>" and
// "X-UC-Metastore: <id>" headers (see internal/server).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"unitycatalog/uc"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		wal       = flag.String("wal", "", "write-ahead log path for metadata durability (empty = in-memory)")
		walSync   = flag.String("wal-sync", "batch", "WAL fsync policy: batch (one fsync per group-commit batch), never, or always")
		metastore = flag.String("metastore", "ms1", "metastore id to create or open at startup")
		name      = flag.String("name", "main", "metastore name")
		region    = flag.String("region", "us-east-1", "metastore home region")
		owner     = flag.String("owner", "admin", "metastore owner principal")
		root      = flag.String("root", "", "managed-storage root path (default s3://uc-managed/<metastore>)")
		trusted   = flag.String("trusted-engines", "", "comma-separated machine identities treated as trusted engines")
		accessLog = flag.Bool("access-log", false, "log one structured line per API request to stderr")
		pprofFlag = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		sampleN   = flag.Int("trace-sample", 0, "retain every Nth trace for /debug/traces (0 = default 64, negative disables)")
		slowMs    = flag.Int("trace-slow-ms", 0, "always retain traces at least this slow (0 = default 100ms, negative disables)")
		etagAge   = flag.Duration("etag-max-age", 0, "conditional-GET validator lifetime (0 = default 30s, negative disables)")
		node      = flag.String("node", "", "node name attributing this process's spans in stitched cross-node traces")
		tenantK   = flag.Int("tenant-topk", 0, "track the top K tenants in /debug/tenants and uc_tenant_* metrics (0 = default 32, negative disables)")
		sloP99    = flag.Duration("slo-p99", 0, "per-route p99 latency budget arming the flight-recorder watchdog (0 = no SLO check)")
		flightInt = flag.Duration("flight-interval", 0, "background flight-recorder poll interval (0 = poll lazily on /debug/flightrecorder reads)")
	)
	flag.Parse()

	syncPolicy, err := uc.ParseSyncPolicy(*walSync)
	if err != nil {
		log.Fatalf("-wal-sync: %v", err)
	}
	cat, err := uc.Open(uc.Config{
		WALPath:            *wal,
		WALSync:            syncPolicy,
		AccessLog:          *accessLog,
		Pprof:              *pprofFlag,
		TraceSampleEvery:   *sampleN,
		TraceSlowThreshold: time.Duration(*slowMs) * time.Millisecond,
		Node:               *node,
		TenantTopK:         *tenantK,
		SLORouteP99:        *sloP99,
		FlightInterval:     *flightInt,
		ETagMaxAge:         *etagAge,
	})
	if err != nil {
		log.Fatalf("open catalog: %v", err)
	}
	defer cat.Close()

	rootPath := *root
	if rootPath == "" {
		rootPath = "s3://uc-managed/" + *metastore
	}
	if _, err := cat.CreateMetastore(*metastore, *name, *region, uc.Principal(*owner), rootPath); err != nil {
		// Try opening an existing metastore (WAL replay case).
		if _, err2 := cat.Service.OpenMetastore(*metastore); err2 != nil {
			log.Fatalf("create metastore: %v (open: %v)", err, err2)
		}
		log.Printf("opened existing metastore %s", *metastore)
	} else {
		log.Printf("created metastore %s (owner %s)", *metastore, *owner)
	}
	for _, t := range strings.Split(*trusted, ",") {
		if t = strings.TrimSpace(t); t != "" {
			cat.TrustEngine(uc.Principal(t))
			log.Printf("trusted engine identity: %s", t)
		}
	}

	fmt.Printf("Unity Catalog server listening on %s\n", *addr)
	fmt.Printf("  REST API:      http://localhost%s/api/2.1/unity-catalog/\n", *addr)
	fmt.Printf("  Delta Sharing: http://localhost%s/delta-sharing/\n", *addr)
	fmt.Printf("  Iceberg REST:  http://localhost%s/iceberg/%s/v1/\n", *addr, *metastore)
	fmt.Printf("  Metrics:       http://localhost%s/metrics\n", *addr)
	fmt.Printf("  Traces:        http://localhost%s/debug/traces\n", *addr)
	fmt.Printf("  Tenants:       http://localhost%s/debug/tenants\n", *addr)
	fmt.Printf("  FlightRec:     http://localhost%s/debug/flightrecorder\n", *addr)
	if *pprofFlag {
		fmt.Printf("  pprof:         http://localhost%s/debug/pprof/\n", *addr)
	}
	log.Fatal(http.ListenAndServe(*addr, cat.Handler()))
}
