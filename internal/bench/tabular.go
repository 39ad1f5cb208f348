package bench

// The one tabular writer for experiment output. Table.Print and the grid
// summaries of cmd/ucbench both render through WriteAligned, so everything
// prints the same shape: space-aligned columns with a header row.

import (
	"fmt"
	"io"
	"strings"
)

// WriteAligned renders header + rows as space-aligned columns.
func WriteAligned(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i < len(widths) {
				sb.WriteString(fmt.Sprintf("  %-*s", widths[i], c))
			}
		}
		fmt.Fprintln(w, sb.String())
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
}

// AuthzCellRows shapes the authz grid for WriteAligned.
func AuthzCellRows(cells []AuthzCell) ([]string, [][]string) {
	header := []string{"shape", "engine", "ops", "ns/op", "allocs/op"}
	rows := make([][]string, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, []string{c.Shape, c.Engine, fi(c.Ops), f(c.NsPerOp), f(c.AllocsPerOp)})
	}
	return header, rows
}

// CommitCellRows shapes the commit grid for WriteAligned.
func CommitCellRows(cells []CommitCell) ([]string, [][]string) {
	header := []string{"writers", "commit_lat", "wal", "ops/s", "p50(ms)", "p99(ms)", "avg_batch", "max_batch"}
	rows := make([][]string, 0, len(cells))
	for _, c := range cells {
		batch, maxb := "-", "-"
		if c.WAL {
			batch = fmt.Sprintf("%.1f", c.AvgBatch)
			maxb = fmt.Sprintf("%d", c.MaxBatch)
		}
		rows = append(rows, []string{
			fi(c.Writers), fmt.Sprintf("%.0fms", c.CommitLatMS), fmt.Sprintf("%v", c.WAL),
			fmt.Sprintf("%.0f", c.OpsPerSec), fmt.Sprintf("%.3f", c.P50MS), fmt.Sprintf("%.3f", c.P99MS),
			batch, maxb,
		})
	}
	return header, rows
}

// ObsCellRows shapes the instrumentation-overhead grid for WriteAligned.
func ObsCellRows(cells []ObsCell) ([]string, [][]string) {
	header := []string{"path", "mode", "ops", "ns/op", "allocs/op"}
	rows := make([][]string, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, []string{c.Path, c.Mode, fi(c.Ops), f(c.NsPerOp), f(c.AllocsPerOp)})
	}
	return header, rows
}

// TxnCellRows shapes the multi-table transaction grid for WriteAligned.
func TxnCellRows(cells []TxnCell) ([]string, [][]string) {
	header := []string{"shape", "txns", "conflicts", "secs", "per_sec", "p50_us", "p95_us", "p99_us"}
	rows := make([][]string, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, []string{
			c.Shape, fi(c.Txns), fi(c.Conflicts), f(c.Secs), f(c.PerSec), f(c.P50us), f(c.P95us), f(c.P99us),
		})
	}
	return header, rows
}

// ScaleCellRows shapes the catalog-cardinality grid for WriteAligned.
func ScaleCellRows(cells []ScaleCell) ([]string, [][]string) {
	header := []string{"assets", "pop_s", "assets/s", "heap_mb", "b/asset",
		"list_p50us", "list_p99us", "page_p50us", "page_p99us", "tag_p50us", "tag_p99us"}
	rows := make([][]string, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, []string{
			fi(c.Assets), f(c.PopulateSecs), fmt.Sprintf("%.0f", c.AssetsPerSec),
			f(c.HeapMB), f(c.BytesPerAsset),
			f(c.ListP50us), f(c.ListP99us), f(c.PageP50us), f(c.PageP99us), f(c.TagP50us), f(c.TagP99us),
		})
	}
	return header, rows
}
