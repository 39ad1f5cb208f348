package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"unitycatalog/perf/gen"
	"unitycatalog/perf/stats"
)

// options are the knobs of one run. Everything that shapes the traffic comes
// from workload and seed; the rest is where and how long.
type options struct {
	workload gen.Workload
	seed     int64
	window   time.Duration
	warmup   time.Duration
	clients  int
	dir      string // where WAL files live
	quick    bool   // small population, for the smoke test
	trace    bool   // after the window, run the traced pass and the probes
	traceOps int
	traceOut string
}

// result is everything one run measured.
type result struct {
	workload  gen.Workload
	endToEnd  map[string]float64
	layers    map[string]float64 // the windowSide metrics; a traced run adds the rest
	attempted int
	failed    int
	refused   int
	errs      []string
	facts     map[string]any
}

// subWindow is the length of the slices the window is cut into. Every
// end-to-end metric of the window is the median over its sub-windows, so one
// noisy-neighbour burst moves one sub-window and not the result.
const subWindow = 2 * time.Second

// warmUp and tracedOps are fixed: a run with another warm-up reaches another
// steady state, and per-layer counts are comparable only over the same number
// of operations. They are fields of options only so that the smoke test can
// shrink them.
const (
	warmUp    = 3 * time.Second
	tracedOps = 20000
	// ddl_write's traced pass is shorter: each of its operations waits for an
	// fsync, and 20,000 of them would take longer than the timed window.
	tracedOpsDDL = 5000
)

func tracedOpsOf(wl gen.Workload) int {
	if wl == gen.DDLWrite {
		return tracedOpsDDL
	}
	return tracedOps
}

// tick is the process's consumption at one sub-window boundary.
type tick struct {
	at      time.Duration // since the start of the window
	cpu     time.Duration
	mallocs uint64
}

func takeTick(origin time.Time) tick {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return tick{at: time.Since(origin), cpu: cpuTime(), mallocs: ms.Mallocs}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func fileSize(path string) int64 {
	if fi, err := os.Stat(path); err == nil {
		return fi.Size()
	}
	return 0
}

func runWorkload(o options) (*result, error) {
	res := &result{workload: o.workload, endToEnd: map[string]float64{}, layers: map[string]float64{}, facts: map[string]any{}}
	for _, name := range windowSide {
		res.layers[name] = 0
	}
	shape := o.workload.Shape()
	if o.quick {
		shape = shape.Quick()
	}
	dir := filepath.Join(o.dir, fmt.Sprintf("perf-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up is done once: a second build of a WAL population would cost the
	// seconds ddl_write's window needs to hold 8,192 commits.
	st, took, err := setUp(shape, o.seed, dir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.endToEnd["setup_s"] = took.Seconds()
	res.facts["assets"] = st.pop.Assets()
	res.facts["setup_commits"] = st.db.CommitStats().Commits

	clients, err := measure(o, st, res)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if st.walPath != "" {
		if err := reopenAndVerify(st, clients, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measure drives the stack: warm-up, the timed window and, if asked, the
// traced run. It returns the clients, whose models say what was written.
func measure(o options, st *stack, res *result) ([]*client, error) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.endToEnd["heap_bytes_per_asset"] = float64(ms.HeapAlloc) / float64(st.pop.Assets())

	clients := make([]*client, o.clients)
	conns := make([]*conn, o.clients)
	for i := range clients {
		clients[i] = newClient(st, o.workload, o.seed, i, o.clients)
		c, err := dial(st.addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		conns[i] = c
	}
	phase := func(d time.Duration, record bool) {
		origin := time.Now()
		var wg sync.WaitGroup
		for i, c := range clients {
			c.origin, c.record = origin, record
			wg.Add(1)
			go func(c *client, b boundary) {
				defer wg.Done()
				c.run(b, origin.Add(d))
			}(c, conns[i])
		}
		wg.Wait()
	}

	phase(o.warmup, false)
	for _, c := range clients {
		c.samples = make([]sample, 0, 1<<16)
	}

	// The timed window: tracing off, nothing else running in the process but
	// a sampler that reads CPU time and allocations at sub-window boundaries.
	commits0, wal0 := st.db.CommitStats().Commits, fileSize(st.walPath)
	began := time.Now()
	ticks := []tick{takeTick(began)}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(subWindow)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				ticks = append(ticks, takeTick(began))
			case <-stop:
				return
			}
		}
	}()
	phase(o.window, true)
	close(stop)
	<-sampled
	// The window's end closes the last sub-window; a sliver left over by the
	// ticker is folded into it.
	if end := takeTick(began); end.at-ticks[len(ticks)-1].at < subWindow/2 && len(ticks) > 1 {
		ticks[len(ticks)-1] = end
	} else {
		ticks = append(ticks, end)
	}
	commits, walBytes := st.db.CommitStats().Commits-commits0, fileSize(st.walPath)-wal0
	windowMetrics(res, clients, ticks, commits, walBytes)
	for _, c := range clients {
		c.record = false
	}

	if o.trace {
		if err := tracedRun(o, st, clients[0], conns[0], res); err != nil {
			return nil, err
		}
		searchMetrics(st, clients, res)
	}
	for _, c := range clients {
		res.attempted += c.attempted
		res.failed += c.failed
		res.refused += c.refused
		res.errs = append(res.errs, c.errs...)
	}
	return clients, nil
}

// windowMetrics turns the clients' samples and the sampler's ticks into the
// metrics of the timed window: each is taken per sub-window, and the median
// reported. Only allocs_per_req is an end-to-end metric of BENCHMARK.json;
// the wall-clock ones are windowSide (see there).
func windowMetrics(res *result, clients []*client, ticks []tick, commits, walBytes int64) {
	elapsed := ticks[len(ticks)-1].at
	subs := len(ticks) - 1
	var reads, writes []stats.Sample
	readDurs := make([][]float64, subs) // per sub-window
	served := make([]float64, subs)
	perKind := map[gen.Kind][]float64{}
	for _, c := range clients {
		for _, s := range c.samples {
			perKind[s.kind] = append(perKind[s.kind], float64(s.dur))
			k := sort.Search(subs-1, func(i int) bool { return time.Duration(s.end) <= ticks[i+1].at })
			served[k]++
			if s.kind.Mutating() {
				writes = append(writes, stats.Sample{End: s.end, Dur: s.dur})
			} else {
				reads = append(reads, stats.Sample{End: s.end, Dur: s.dur})
				readDurs[k] = append(readDurs[k], float64(s.dur))
			}
		}
	}
	var rps, p50, cpu, allocs []float64
	for k := 0; k < subs; k++ {
		a, b := ticks[k], ticks[k+1]
		rps = append(rps, served[k]/(b.at-a.at).Seconds())
		p50 = append(p50, stats.Median(readDurs[k])/1e3)
		cpu = append(cpu, stats.Ratio(float64((b.cpu-a.cpu).Microseconds()), served[k]))
		allocs = append(allocs, stats.Ratio(float64(b.mallocs-a.mallocs), served[k]))
	}
	res.endToEnd["allocs_per_req"] = stats.Median(allocs)
	L := res.layers
	L["throughput_rps"] = stats.Median(rps)
	L["read_p50_us"] = stats.Median(p50)
	var tailSubs int
	L["read_p99_us"], tailSubs = stats.SubWindowTail(reads, int64(elapsed), int64(subWindow), 99)
	L["cpu_us_per_req"] = stats.Median(cpu)
	res.facts["window_s"] = elapsed.Seconds()
	res.facts["sub_windows"] = subs
	res.facts["requests"] = len(reads) + len(writes)
	res.facts["reads"] = len(reads)
	res.facts["writes"] = len(writes)
	res.facts["read_p99_sub_windows"] = tailSubs
	res.facts["window_commits"] = commits

	if len(writes) > 0 {
		durs := make([]float64, len(writes))
		for i, s := range writes {
			durs[i] = float64(s.Dur)
		}
		L["write_p50_us"] = stats.Median(durs) / 1e3
		L["write_p95_us"], _ = stats.SubWindowTail(writes, int64(elapsed), int64(subWindow), 95)
		L["wal_bytes_per_write"] = stats.Ratio(float64(walBytes), float64(len(writes)))
	}
	routes := map[string]float64{}
	for k, d := range perKind {
		routes[k.String()] = stats.Median(d) / 1e3
	}
	res.facts["window_route_p50_us"] = routes
}
