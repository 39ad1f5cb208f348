package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"unitycatalog/perf/gen"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place that names the workloads and
// the metrics, with their units, directions and regression bounds. The
// harness reads it, so what it prints and what the file promises cannot
// drift apart.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line a run prints.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine selects the end-to-end metrics, or with traced the per-layer
// ones, exactly as BENCHMARK.json lists them.
func resultLine(spec *benchSpec, res *result, traced bool) (output, error) {
	defs, vals := spec.EndToEnd, res.endToEnd
	if traced {
		defs, vals = spec.PerLayer, res.layers
	}
	out := output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return out, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	for name := range vals {
		if _, ok := out.Metrics[name]; !ok {
			return out, fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
		}
	}
	return out, nil
}

func kernelRelease() string {
	var u syscall.Utsname
	if syscall.Uname(&u) != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

func fsName(dir string) string {
	var fs syscall.Statfs_t
	if err := syscall.Statfs(dir, &fs); err != nil {
		return "unknown"
	}
	switch uint32(fs.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(fs.Type))
}

func units(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.Name] = d.Unit
	}
	return m
}

// printReport writes the human-readable account of one run, starting with
// where the numbers were taken. fsync cost is this sandbox's, not a device's;
// on tmpfs it is free, and the run says so.
func printReport(w io.Writer, spec *benchSpec, o options, res *result, traced bool) {
	fs := fsName(o.dir)
	fmt.Fprintf(w, "\n== %s ==\n", res.workload)
	fmt.Fprintf(w, "host: %d cpus, GOMAXPROCS %d, %s, kernel %s; %d clients, seed %d, warm-up %.1fs, window %.1fs; WAL sync batch (store default) on %s (%s)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease(), o.clients, o.seed, o.warmup.Seconds(), o.window.Seconds(), fs, o.dir)
	if fs == "tmpfs" {
		fmt.Fprintln(w, "WARNING: WAL DIRECTORY IS ON TMPFS — fsync IS FREE HERE; write latencies are not comparable [tag: wal_on_tmpfs]")
	}
	fmt.Fprintln(w, "fsync and socket costs are this sandbox's, not a device's or a network's.")
	fmt.Fprintf(w, "population: %v assets, %v set-up commits; window: %v requests (%v reads, %v writes, %v commits) in %v sub-windows, tail over %v\n",
		res.facts["assets"], res.facts["setup_commits"], res.facts["requests"], res.facts["reads"], res.facts["writes"],
		res.facts["window_commits"], res.facts["sub_windows"], res.facts["read_p99_sub_windows"])
	fmt.Fprintf(w, "checks: %d attempted, %d failed, %d reads by a principal without grants refused with 403", res.attempted, res.failed, res.refused)
	if n, ok := res.facts["restart_checks"]; ok {
		fmt.Fprintf(w, "; %v facts verified after re-opening the store from the WAL (%v commits)", n, res.facts["wal_commits"])
	}
	fmt.Fprintln(w)
	for _, e := range res.errs {
		fmt.Fprintln(w, "  FAILED:", e)
	}

	fmt.Fprintln(w, "end-to-end (set-up and timed window, tracing off):")
	for _, d := range spec.EndToEnd {
		fmt.Fprintf(w, "  %-24s %14.4f %-6s (%s is better, bound %.2f)\n", d.Name, res.endToEnd[d.Name], d.Unit, d.Better, d.Bound)
	}
	unit := units(spec.PerLayer)
	fmt.Fprintln(w, "timed window, tracing off; demoted (no bound, reported with the per-layer metrics; the write ones are 0 where nothing writes):")
	for _, name := range windowSide {
		fmt.Fprintf(w, "  %-24s %14.4f %s\n", name, res.layers[name], unit[name])
	}
	if !traced {
		return
	}

	fmt.Fprintf(w, "per-layer (traced run: %v operations, %v requests, one client, each at one boundary):\n", res.facts["traced_ops"], res.facts["traced_requests"])
	fmt.Fprintf(w, "  %-16s %10s %10s %10s %12s %13s %8s\n", "route", "window p50", "tcp p50", "net.self", "server.self", "catalog.incl", "allocs")
	routes, _ := res.facts["window_route_p50_us"].(map[string]float64)
	for k := gen.Kind(0); k < gen.NumKinds; k++ {
		r := k.String()
		if res.layers["tcp.p50_us."+r] == 0 && res.layers["catalog.incl_us."+r] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-16s %10.1f %10.1f %10.1f %12.1f %13.1f %8.0f   us\n", r, routes[r], res.layers["tcp.p50_us."+r],
			res.layers["net.self_us."+r], res.layers["server.self_us."+r], res.layers["catalog.incl_us."+r], res.layers["server.allocs_per_req."+r])
	}
	fmt.Fprintln(w, "  (window p50 is two clients on the timed window; tcp p50 one client: the gap is the harness and the single client)")
	var names []string
	for name := range res.layers {
		if !isRouteMetric(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, res.layers[name], unit[name])
	}
}

func isRouteMetric(name string) bool {
	for _, p := range [...]string{"tcp.p50_us.", "net.self_us.", "server.self_us.", "catalog.incl_us.", "server.allocs_per_req."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// windowSide names the metrics ISSUE 12 lists as end-to-end that
// BENCHMARK.json lists with the per-layer ones. They are taken on the timed
// window (or right after it) with tracing off, on every run. The first four
// were demoted by the issue's rule: on this shared box their ten-run spread
// passes any bound the contract allows (perf/README.md, "Repeatability").
// The last four exist only on workloads that write and are 0 elsewhere, and
// the contract wants every end-to-end metric on every workload, never 0.
var windowSide = []string{
	"throughput_rps", "read_p50_us", "read_p99_us", "cpu_us_per_req",
	"write_p50_us", "write_p95_us", "wal_bytes_per_write", "recover_us_per_commit",
}
