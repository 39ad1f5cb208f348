// Command ucbench regenerates the paper's evaluation: every figure of
// Section 6 plus the design-choice ablations from DESIGN.md. Each experiment
// prints the paper's claim, the measured rows/series, and a one-line
// measured finding for EXPERIMENTS.md.
//
// Usage:
//
//	ucbench                  # run everything at full scale
//	ucbench -quick           # smaller workloads
//	ucbench -exp fig10b      # one experiment
//	ucbench -list            # list experiment IDs
//	ucbench -exp authz -out BENCH_authz.json   # a grid experiment's JSON report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"unitycatalog/internal/bench"
)

// report is the BENCH_<exp>.json layout. Cells is the experiment's grid
// (e.g. []bench.AuthzCell, []bench.CommitCell).
type report struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Cells      any    `json:"cells"`
}

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id or 'all'")
		quick = flag.Bool("quick", false, "run smaller workloads")
		seed  = flag.Int64("seed", 1, "deterministic seed")
		dbLat = flag.Duration("db-latency", 300*time.Microsecond, "injected metastore-DB latency")
		rtt   = flag.Duration("net-rtt", 500*time.Microsecond, "simulated engine-to-catalog network RTT")
		list  = flag.Bool("list", false, "list experiments and exit")
		out   = flag.String("out", "", "write the experiment's grid as JSON to this file (requires -exp naming a grid experiment)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("  %-18s %s\n", e.ID, e.Title)
		}
		return
	}
	opts := bench.Options{Seed: *seed, Quick: *quick, DBReadLatency: *dbLat, NetworkRTT: *rtt}

	if *out != "" {
		e, ok := bench.Find(*exp)
		if !ok || e.Grid == nil {
			log.Fatalf("-out needs -exp naming a grid experiment (the Makefile's bench-* targets list them), not %q", *exp)
		}
		cells, header, rows, err := e.Grid(*quick)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		rep := report{
			Generated:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Cells:      cells,
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		bench.WriteAligned(os.Stdout, header, rows)
		fmt.Printf("wrote %s (%d cells)\n", *out, len(rows))
		return
	}

	run := func(e bench.Experiment) {
		start := time.Now()
		tbl, err := e.Run(opts)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		tbl.Print(os.Stdout)
		fmt.Printf("   (%.1fs)\n", time.Since(start).Seconds())
	}

	if *exp == "all" {
		fmt.Printf("Unity Catalog reproduction — evaluation harness (quick=%v, seed=%d)\n", *quick, *seed)
		for _, e := range bench.All() {
			run(e)
		}
		return
	}
	e, ok := bench.Find(*exp)
	if !ok {
		log.Fatalf("unknown experiment %q; use -list", *exp)
	}
	run(e)
}
