// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 6). Each experiment builds its
// workload with the workload package, drives the live Unity Catalog code
// paths, and emits a Table of the same rows/series the paper plots, plus a
// one-line comparison against the paper's claim. Absolute numbers differ
// from the paper (simulated substrate, laptop scale); the *shape* — who
// wins, by what factor, where curves bend — is the reproduction target.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/store"
)

// Table is one experiment's printable result.
type Table struct {
	ID     string // e.g. "fig4"
	Title  string
	Paper  string // the paper's claim for this figure
	Header []string
	Rows   [][]string
	// Finding is the measured headline for EXPERIMENTS.md.
	Finding string
}

// Print renders the table: claim, finding, then the rows in aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "   paper:    %s\n", t.Paper)
	fmt.Fprintf(w, "   measured: %s\n", t.Finding)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, row := range append([][]string{t.Header}, t.Rows...) {
		fmt.Fprintln(tw, "  "+strings.Join(row, "\t"))
	}
	tw.Flush()
}

// Options tunes all experiments for runtime vs fidelity.
type Options struct {
	// Seed makes every experiment deterministic.
	Seed int64
	// Quick shrinks workloads for CI/benchmark runs.
	Quick bool
}

// Defaults fills zero fields.
func (o *Options) Defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Simulated: the metastore database's round trip, and the hop to UC as a separate service (§4.5).
const (
	dbReadLatency = 300 * time.Microsecond
	networkRTT    = 500 * time.Microsecond
)

// apiHop simulates one engine→catalog network round trip.
func apiHop() { time.Sleep(networkRTT) }

// Experiment is a runnable evaluation experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Table, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig4", Title: "Per-metastore working-set size CDF", Run: Fig4WorkingSet},
		{ID: "fig5", Title: "Inter-arrival CDF of same-asset re-accesses", Run: Fig5InterArrival},
		{ID: "fig6a", Title: "Schema composition by asset types", Run: Fig6aSchemaComposition},
		{ID: "fig6b", Title: "Table type distribution", Run: Fig6bTableTypes},
		{ID: "fig7", Title: "Volume creation growth", Run: Fig7VolumeGrowth},
		{ID: "fig8a", Title: "Table storage format distribution", Run: Fig8aFormats},
		{ID: "fig8b", Title: "Table type growth over time", Run: Fig8bTableGrowth},
		{ID: "fig8c", Title: "Top-5 foreign table type growth", Run: Fig8cForeignGrowth},
		{ID: "fig9", Title: "External client × operation diversity, UC vs HMS", Run: Fig9ClientDiversity},
		{ID: "fig10a", Title: "TPC-H/TPC-DS latency: UC vs HMS local", Run: Fig10aUCvsHMS},
		{ID: "fig10b", Title: "Latency vs throughput, cache on/off", Run: Fig10bCacheThroughput},
		{ID: "fig10c", Title: "Predictive optimization speedup", Run: Fig10cPredictiveOpt},
		{ID: "fig11", Title: "Table access method: name vs path", Run: Fig11AccessMethods},
		{ID: "stats", Title: "Aggregate usage statistics (§6.1)", Run: StatsAggregate},
		{ID: "ablate-batch", Title: "Ablation: batched vs per-object resolution", Run: AblationBatching},
		{ID: "ablate-reconcile", Title: "Ablation: full vs selective cache reconciliation", Run: AblationReconcile},
		{ID: "ablate-trie", Title: "Ablation: trie vs index-walk path resolution", Run: AblationPathIndex},
		{ID: "ablate-tokens", Title: "Ablation: credential token cache on/off", Run: AblationTokenCache},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared helpers ---

// newService builds a catalog service over a fresh DB with the configured
// latency and one metastore owned by "admin".
func newService(o Options, msID string, latency time.Duration) (*catalog.Service, catalog.Ctx, error) {
	db, err := store.Open(store.Options{ReadLatency: latency, CommitLatency: latency})
	if err != nil {
		return nil, catalog.Ctx{}, err
	}
	svc, err := catalog.New(catalog.Config{DB: db})
	if err != nil {
		return nil, catalog.Ctx{}, err
	}
	if _, err := svc.CreateMetastore(msID, msID, "region-1", "admin", "s3://root/"+msID); err != nil {
		return nil, catalog.Ctx{}, err
	}
	return svc, catalog.Ctx{Principal: "admin", Metastore: msID, TrustedEngine: true}, nil
}

// percentile returns the p-th percentile (0..100) of sorted data.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

func sortFloats(xs []float64) []float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp
}

// durationsMillis converts durations to float milliseconds.
func durationsMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func f(v float64) string  { return fmt.Sprintf("%.2f", v) }
func fi(v int) string     { return fmt.Sprintf("%d", v) }
func f64(v int64) string  { return fmt.Sprintf("%d", v) }
func pc(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
