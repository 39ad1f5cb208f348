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
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"unitycatalog/internal/bench"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id or 'all'")
		quick = flag.Bool("quick", false, "run smaller workloads")
		seed  = flag.Int64("seed", 1, "deterministic seed")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("  %-18s %s\n", e.ID, e.Title)
		}
		return
	}
	opts := bench.Options{Seed: *seed, Quick: *quick}

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
