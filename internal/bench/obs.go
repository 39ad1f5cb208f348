package bench

// Instrumentation-overhead grid: the telemetry acceptance budget says an
// enabled-but-unsampled trace must cost at most 5% on the hot paths. Each
// path runs twice — "off" (zero SpanContext, tracing disabled) and
// "traced" (a live tracer that starts a trace per operation, records every
// span, and discards the trace at Finish: the steady-state production
// configuration between retained samples). Shared by the `obs` experiment
// (human-readable table) and `make bench-obs`, which emits BENCH_obs.json.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/obs"
	"unitycatalog/internal/store"
)

// ObsCell is one measured cell of the instrumentation-overhead grid.
type ObsCell struct {
	// Path is the hot path: deep_check (authorized GetAsset on a
	// catalog.schema.table chain, cache hit) or commit_wal (single-key
	// store commit through the group-commit WAL).
	Path string `json:"path"`
	// Mode is "off" (zero SpanContext), "traced" (enabled, unsampled), or
	// "traced+metered" (tracing plus per-tenant usage metering).
	Mode        string  `json:"mode"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// OverheadPct is the overhead vs this path's "off" mode, computed as
	// the median of per-round paired ratios (each round times every mode
	// back-to-back, so both sides of a ratio see the same machine state).
	// Absent on "off" cells. This is the number the <=5% budget is judged
	// against; comparing the NsPerOp minima across cells instead folds in
	// whole-run clock drift, which on a shared box exceeds the signal.
	OverheadPct float64 `json:"overhead_pct,omitempty"`
}

// obsMode pairs a grid mode label with its per-op closure.
type obsMode struct {
	mode string
	fn   func()
}

// measureObsPath interleaves the modes round-robin over several rounds.
// Each cell reports its fastest round (NsPerOp) and, for non-off modes, the
// median of per-round ratios against the off mode measured back-to-back in
// the same round (OverheadPct). One-shot sequential cells let machine drift
// (GC pauses, noisy neighbors on a shared box) land entirely on whichever
// mode ran last, which swamps single-digit-percent overheads; paired rounds
// put both sides of every ratio in adjacent time windows, so the median
// ratio isolates the instrumentation cost itself. modes[0] must be "off".
func measureObsPath(path string, ops int, modes []obsMode) []ObsCell {
	const rounds = 7
	chunk := ops / rounds
	if chunk < 1 {
		chunk = 1
	}
	cells := make([]ObsCell, len(modes))
	for i, m := range modes {
		cells[i] = ObsCell{Path: path, Mode: m.mode, Ops: chunk * rounds}
		// Warm pass: map growth, pools, and branch history paid outside
		// the timed rounds.
		for j := 0; j < chunk/4+1; j++ {
			m.fn()
		}
	}
	// Each round brackets every mode between two off runs and divides by
	// their mean: linear drift across the bracket cancels exactly, leaving
	// spiky noise for the median over rounds to reject.
	ratios := make([][]float64, len(modes))
	keepMin := func(i int, ns, allocs float64) {
		if cells[i].NsPerOp == 0 || ns < cells[i].NsPerOp {
			cells[i].NsPerOp, cells[i].AllocsPerOp = ns, allocs
		}
	}
	for r := 0; r < rounds; r++ {
		offPrev, offAllocs := measureAuthz(chunk, modes[0].fn)
		keepMin(0, offPrev, offAllocs)
		for i := 1; i < len(modes); i++ {
			ns, allocs := measureAuthz(chunk, modes[i].fn)
			keepMin(i, ns, allocs)
			offNext, offA := measureAuthz(chunk, modes[0].fn)
			keepMin(0, offNext, offA)
			if base := (offPrev + offNext) / 2; base > 0 {
				ratios[i] = append(ratios[i], ns/base)
			}
			offPrev = offNext
		}
	}
	for i := range modes {
		if i == 0 || len(ratios[i]) == 0 {
			continue
		}
		sort.Float64s(ratios[i])
		cells[i].OverheadPct = (ratios[i][len(ratios[i])/2] - 1) * 100
	}
	return cells
}

// RunObsGrid measures the hot paths with tracing off and on.
func RunObsGrid(quick bool) ([]ObsCell, error) {
	// commitOps sized so each interleaved round's chunk is ~500 commits:
	// group-commit fsync latency is spiky, and smaller chunks let one slow
	// batch swing a whole round's ratio.
	checkOps, commitOps := 100_000, 3_500
	if quick {
		checkOps, commitOps = 20_000, 700
	}

	var cells []ObsCell

	// A tracer that retains nothing: every request pays the full span
	// bookkeeping but Finish recycles the trace (no sampling, no slow
	// threshold), matching steady state between retained samples.
	tracer := obs.NewTracer(0, 0)

	// Path 1: authorized read through the service (authz snapshot + cache).
	svc, reader, _, err := authzService(64)
	if err != nil {
		return nil, fmt.Errorf("obs deep_check service: %w", err)
	}
	get := func(ctx catalog.Ctx) error {
		_, err := svc.GetAsset(ctx, "cat.big.t00001")
		return err
	}
	if err := get(reader); err != nil {
		return nil, fmt.Errorf("obs deep_check: %w", err)
	}
	// Tenant metering rides the same hot path in production (one sketch
	// update per request plus one per catalog op), so its cost is measured
	// as a third mode stacked on tracing. 64 rotating tenants on a K=32
	// sketch keep the space-saving eviction path exercised, not just the
	// cheap increment-existing branch.
	meter := obs.NewUsageMeter(32)
	tenantNames := make([]string, 64)
	for i := range tenantNames {
		tenantNames[i] = fmt.Sprintf("tenant-%02d", i)
	}
	var seq int
	cells = append(cells, measureObsPath("deep_check", checkOps, []obsMode{
		{"off", func() { get(reader) }},
		{"traced", func() {
			t := tracer.StartTrace()
			ctx := reader
			ctx.Trace = tracer.Root(t)
			get(ctx)
			tracer.Finish(t, "bench.deep_check")
		}},
		{"traced+metered", func() {
			t := tracer.StartTrace()
			ctx := reader
			ctx.Trace = tracer.Root(t)
			get(ctx)
			tracer.Finish(t, "bench.deep_check")
			tn := tenantNames[seq&63]
			seq++
			meter.ObserveRequest(tn, 512, 40*time.Microsecond)
			meter.ObserveOp(tn)
		}},
	})...)

	// Path 2: WAL-backed commit, same shape as the commit grid's cells.
	dir, err := os.MkdirTemp("", "obsbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	db, err := store.Open(store.Options{WALPath: filepath.Join(dir, "bench.wal")})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := db.CreateMetastore("m"); err != nil {
		return nil, err
	}
	put := func(tx *store.Tx) error {
		tx.Put("t", "k", []byte("v"))
		return nil
	}
	cells = append(cells, measureObsPath("commit_wal", commitOps, []obsMode{
		{"off", func() { db.Update("m", put) }},
		{"traced", func() {
			t := tracer.StartTrace()
			db.UpdateT(tracer.Root(t), "m", put)
			tracer.Finish(t, "bench.commit_wal")
		}},
	})...)
	return cells, nil
}

// ObsExperiment renders the grid with per-path overhead percentages.
func ObsExperiment(o Options) (*Table, error) {
	cells, err := RunObsGrid(o.Quick)
	if err != nil {
		return nil, err
	}
	off := map[string]ObsCell{}
	for _, c := range cells {
		if c.Mode == "off" {
			off[c.Path] = c
		}
	}
	header, rows := ObsCellRows(cells)
	t := &Table{
		ID:     "obs",
		Title:  "Instrumentation overhead: request tracing on vs off",
		Paper:  "telemetry must not tax the hot paths: enabled-but-unsampled tracing budgeted at <=5% on deep-Check and group-commit",
		Header: append(header, "overhead"),
	}
	var findings []string
	for i, c := range cells {
		over := "-"
		if c.Mode != "off" {
			pct := c.OverheadPct
			if pct == 0 {
				if base, ok := off[c.Path]; ok && base.NsPerOp > 0 {
					pct = (c.NsPerOp - base.NsPerOp) / base.NsPerOp * 100
				}
			}
			over = fmt.Sprintf("%+.1f%%", pct)
			findings = append(findings, fmt.Sprintf("%s/%s %+.1f%%", c.Path, c.Mode, pct))
		}
		t.Rows = append(t.Rows, append(rows[i], over))
	}
	t.Finding = "traced vs off: " + strings.Join(findings, ", ")
	return t, nil
}
