package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"unitycatalog/perf/gen"
)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload on a small population, window, traced pass,
// probes and restart check included, and wants no failure and every metric
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	for _, wl := range gen.Workloads() {
		t.Run(wl.String(), func(t *testing.T) {
			dir := t.TempDir()
			o := options{
				workload: wl, seed: 7, window: 1500 * time.Millisecond, warmup: 200 * time.Millisecond,
				clients: 2, dir: dir, quick: true, trace: true, traceOps: 1500,
				traceOut: filepath.Join(dir, "spans.json"),
			}
			res, err := runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d requests failed: %v", res.failed, res.attempted, res.errs)
			}
			if wl == gen.TraceRead && res.refused == 0 {
				t.Error("no read by the principal without grants was refused: the 403 probes did not run")
			}
			for _, traced := range []bool{false, true} {
				line, err := resultLine(spec, res, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !line.Correct {
					t.Error("run reported incorrect")
				}
				if _, err := json.Marshal(line); err != nil {
					t.Errorf("result line does not encode: %v", err)
				}
			}
			for _, d := range spec.EndToEnd {
				if res.endToEnd[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v; it must never be 0", d.Name, res.endToEnd[d.Name])
				}
			}
			for _, name := range []string{"throughput_rps", "read_p50_us", "read_p99_us", "cpu_us_per_req"} {
				if res.layers[name] <= 0 {
					t.Errorf("window metric %s = %v", name, res.layers[name])
				}
			}
			var spans []span
			b, err := os.ReadFile(o.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &spans); err != nil || len(spans) < 100 {
				t.Fatalf("spans file holds %d spans (%v)", len(spans), err)
			}
			seen := map[string]bool{}
			for _, s := range spans {
				seen[s.Boundary] = true
				if s.End < s.Start {
					t.Fatalf("span ends before it starts: %+v", s)
				}
			}
			if len(seen) != 3 {
				t.Errorf("spans cover boundaries %v, want all three", seen)
			}
			if wl.Shape().HalfVisible == (res.layers["cache.evictions_per_kreq"] == 0) {
				t.Errorf("cache.evictions_per_kreq = %v: only cold_scan is larger than its cache", res.layers["cache.evictions_per_kreq"])
			}
			if wl == gen.QueryPath && res.layers["server.status_304_frac"] < 0.1 {
				t.Errorf("server.status_304_frac = %v: conditional resolves are not revalidating", res.layers["server.status_304_frac"])
			}
		})
	}
}

// TestBenchmarkJSONShape holds BENCHMARK.json to the limits of the contract
// it is checked against.
func TestBenchmarkJSONShape(t *testing.T) {
	spec := loadTestSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef, bounded bool) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("bad or repeated metric %+v", d)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	setup := false
	for _, d := range spec.EndToEnd {
		check(d, true)
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range spec.PerLayer {
		check(d, false)
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if len(spec.Workloads) != len(gen.Workloads()) {
		t.Fatalf("%d workloads declared, %d exist", len(spec.Workloads), len(gen.Workloads()))
	}
	for i, w := range spec.Workloads {
		if w.Name != gen.Workloads()[i].String() || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

// TestRelativeGap: the same-code check is blind to direction, and a metric
// that cannot be compared has not repeated.
func TestRelativeGap(t *testing.T) {
	for _, c := range []struct {
		a, b, bound float64
		missed      bool
	}{
		{100, 105, 0.10, false},
		{100, 95, 0.10, false},
		{100, 140, 0.10, true},
		{100, 60, 0.10, true}, // 40 % better is as unrepeatable as 40 % worse
		{0, 0, 0.10, true},
		{0, 5, 0.10, true},
	} {
		if _, missed := relativeGap(c.a, c.b, c.bound); missed != c.missed {
			t.Errorf("relativeGap(%v, %v, %v) missed = %v, want %v", c.a, c.b, c.bound, missed, c.missed)
		}
	}
}

func TestBoundaryRotationIsEven(t *testing.T) {
	var n [3]int
	for i := 0; i < 30000; i++ {
		n[boundaryOf(i)]++
	}
	for b, c := range n {
		if c < 9500 || c > 10500 {
			t.Errorf("boundary %d gets %d of 30000 operations", b, c)
		}
	}
}

func TestNextPageToken(t *testing.T) {
	if got := nextPageToken([]byte(`{"assets":[{"id":"a"}],"nextPageToken":"eyJ2IjoxfQ"}`)); got != "eyJ2IjoxfQ" {
		t.Errorf("token = %q", got)
	}
	if got := nextPageToken([]byte(`{"assets":[{"id":"a","comment":"nextPageToken"}]}`)); got != "" {
		t.Errorf("token = %q, want none", got)
	}
}
