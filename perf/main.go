// Command perf is the repository's benchmark: one real-socket, steady-state
// run of the whole request path (TCP, internal/server, catalog, cache,
// privilege, store, WAL) under one of four named workloads, with the outputs
// checked against a model. BENCHMARK.json at the root of the repository
// declares the workloads and metrics; perf/README.md explains them.
//
//	go run ./perf --workload trace_read --seed 1 --seconds 24 --trace 0
//	go run ./perf                  # all four workloads, traced, full report
//	go run ./perf -check-repeat    # all four twice; gaps against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"unitycatalog/perf/gen"
)

func main() {
	var (
		workload    = flag.String("workload", "", "trace_read, ddl_write, cold_scan or query_path (default: all four, traced)")
		seed        = flag.Int64("seed", 1, "seed of the population's popularity order and of the operation streams")
		seconds     = flag.Int("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
		trace       = flag.Int("trace", 0, "1 = after the window, run the traced pass and the probes and report per-layer metrics")
		dir         = flag.String("dir", filepath.Join(".bench_build", "perf-data"), "directory for WAL files")
		traceOut    = flag.String("trace-out", "", "file the traced run of one workload writes its spans to (default: <dir>/spans-<workload>.json)")
		checkRepeat = flag.Bool("check-repeat", false, "run every workload twice and compare each end-to-end metric's gap with its bound")
		quick       = flag.Bool("quick", false, "small population (smoke test)")
		specPath    = flag.String("spec", "BENCHMARK.json", "the benchmark's declaration")
	)
	flag.Parse()
	spec, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	base := options{
		seed: *seed, window: time.Duration(*seconds) * time.Second, warmup: warmUp, dir: *dir,
		clients: min(runtime.NumCPU(), 4), quick: *quick, trace: *trace == 1,
	}
	forWorkload := func(wl gen.Workload) options {
		o := base
		o.workload = wl
		o.traceOps = tracedOpsOf(wl)
		o.traceOut = filepath.Join(*dir, "spans-"+wl.String()+".json")
		return o
	}

	switch {
	case *checkRepeat:
		if !checkRepeatability(spec, forWorkload) {
			os.Exit(1)
		}
	case *workload == "":
		ok := true
		for _, wl := range gen.Workloads() {
			o := forWorkload(wl)
			o.trace = true
			res, err := runWorkload(o)
			if err != nil {
				fatal(err)
			}
			printReport(os.Stdout, spec, o, res, true)
			ok = ok && res.failed == 0
		}
		if !ok {
			os.Exit(1)
		}
	default:
		wl, found := gen.ParseWorkload(*workload)
		if !found {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		o := forWorkload(wl)
		if *traceOut != "" {
			o.traceOut = *traceOut
		}
		res, err := runWorkload(o)
		if err != nil {
			fatal(err)
		}
		printReport(os.Stdout, spec, o, res, o.trace)
		line, err := resultLine(spec, res, o.trace)
		if err != nil {
			fatal(err)
		}
		b, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", b)
		if !line.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perf:", err)
	os.Exit(2)
}

// checkRepeatability runs the full set twice on the same code and prints, for
// every workload and end-to-end metric, both values and their relative gap
// beside the bound BENCHMARK.json gives the metric. The two sets are the same
// code, so the gap is held against the bound whichever way it points: a
// second set 40 % better than the first repeats as badly as one 40 % worse.
func checkRepeatability(spec *benchSpec, forWorkload func(gen.Workload) options) bool {
	var sets [2]map[gen.Workload]*result
	for i := range sets {
		sets[i] = map[gen.Workload]*result{}
		for _, wl := range gen.Workloads() {
			o := forWorkload(wl)
			o.trace = false
			res, err := runWorkload(o)
			if err != nil {
				fatal(err)
			}
			if res.failed > 0 {
				printReport(os.Stdout, spec, o, res, false)
				return false
			}
			sets[i][wl] = res
			fmt.Printf("set %d: %s done\n", i+1, wl)
		}
	}
	ok := true
	fmt.Printf("%-12s %-22s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "gap", "bound")
	for _, wl := range gen.Workloads() {
		for _, d := range spec.EndToEnd {
			a, b := sets[0][wl].endToEnd[d.Name], sets[1][wl].endToEnd[d.Name]
			gap, missed := relativeGap(a, b, d.Bound)
			verdict := ""
			if missed {
				verdict, ok = "  MISS", false
			}
			fmt.Printf("%-12s %-22s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n", wl, d.Name, a, b, 100*gap, 100*d.Bound, verdict)
		}
		// The demoted window metrics have no bound to miss; their gaps show
		// what the box allowed this time.
		for _, name := range windowSide {
			if a, b := sets[0][wl].layers[name], sets[1][wl].layers[name]; a != 0 {
				fmt.Printf("%-12s %-22s %14.4f %14.4f %+7.1f%% %6s\n", wl, name, a, b, 100*(b-a)/a, "-")
			}
		}
	}
	return ok
}

// relativeGap is (b-a)/a, signed for printing, and whether its size misses
// the bound. A first value of 0 or a gap that is not a number is a miss: a
// metric that cannot be compared has not repeated.
func relativeGap(a, b, bound float64) (gap float64, missed bool) {
	gap = (b - a) / a
	return gap, a == 0 || math.IsNaN(gap) || math.Abs(gap) > bound
}
