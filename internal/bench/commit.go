package bench

// Commit-throughput grid for the group-commit write path. Shared by the
// `groupcommit` experiment (human-readable table) and `make bench-store`,
// which emits BENCH_store_commit.json for CI tracking.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"unitycatalog/internal/store"
)

// CommitCell is one measured cell of the commit-throughput grid.
type CommitCell struct {
	Writers       int     `json:"writers"`
	CommitLatMS   float64 `json:"commit_latency_ms"`
	WAL           bool    `json:"wal"`
	Ops           int     `json:"ops"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
	AvgBatch      float64 `json:"avg_batch,omitempty"`
	MaxBatch      int64   `json:"max_batch,omitempty"`
	SyncsPerBatch float64 `json:"syncs_per_batch,omitempty"`
}

// RunCommitGrid measures commit throughput and latency for every cell of
// writers × CommitLatency × WAL. Each cell opens a fresh database, fans out
// the writers, and has each commit a fixed number of single-key updates.
func RunCommitGrid(quick bool) ([]CommitCell, error) {
	opsPerWriter := 50
	if quick {
		opsPerWriter = 10
	}
	var cells []CommitCell
	for _, writers := range []int{1, 8, 64} {
		for _, lat := range []time.Duration{0, 2 * time.Millisecond} {
			for _, wal := range []bool{false, true} {
				cell, err := runCommitCell(writers, lat, wal, opsPerWriter)
				if err != nil {
					return nil, fmt.Errorf("writers=%d lat=%s wal=%v: %w", writers, lat, wal, err)
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

func runCommitCell(writers int, lat time.Duration, wal bool, opsPerWriter int) (CommitCell, error) {
	opts := store.Options{CommitLatency: lat}
	var dir string
	if wal {
		var err error
		dir, err = os.MkdirTemp("", "storebench")
		if err != nil {
			return CommitCell{}, err
		}
		defer os.RemoveAll(dir)
		opts.WALPath = filepath.Join(dir, "bench.wal")
	}
	db, err := store.Open(opts)
	if err != nil {
		return CommitCell{}, err
	}
	defer db.Close()
	if err := db.CreateMetastore("m"); err != nil {
		return CommitCell{}, err
	}

	lats := make([]time.Duration, writers*opsPerWriter)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				key := fmt.Sprintf("k%d", (w*opsPerWriter+i)%512)
				t0 := time.Now()
				_, err := db.Update("m", func(tx *store.Tx) error {
					tx.Put("t", key, []byte("v"))
					return nil
				})
				if err != nil {
					return // surfaces as a short lats tail; cell still reports
				}
				lats[w*opsPerWriter+i] = time.Since(t0)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sorted := sortFloats(durationsMillis(lats))
	cell := CommitCell{
		Writers:     writers,
		CommitLatMS: float64(lat) / float64(time.Millisecond),
		WAL:         wal,
		Ops:         len(lats),
		OpsPerSec:   float64(len(lats)) / elapsed.Seconds(),
		P50MS:       percentile(sorted, 50),
		P99MS:       percentile(sorted, 99),
	}
	if wal {
		st := db.WALStats()
		if st.Batches > 0 {
			cell.AvgBatch = float64(st.Entries) / float64(st.Batches)
			cell.SyncsPerBatch = float64(st.Syncs) / float64(st.Batches)
		}
		cell.MaxBatch = st.MaxBatch
	}
	return cell, nil
}

// GroupCommitExperiment renders the commit grid as an evaluation table. The
// paper motivates this path in §4.4/§5: the catalog's transactional metadata
// commits must scale with many concurrent engines writing through one
// metastore database.
func GroupCommitExperiment(o Options) (*Table, error) {
	cells, err := RunCommitGrid(o.Quick)
	if err != nil {
		return nil, err
	}
	header, rows := CommitCellRows(cells)
	t := &Table{
		ID:     "groupcommit",
		Title:  "Commit throughput: group-commit WAL + pipelined commits",
		Paper:  "catalog commits scale with concurrent writers; batching amortizes log flush and backend round trip",
		Header: header,
		Rows:   rows,
	}
	var best, single float64
	for _, c := range cells {
		if c.CommitLatMS > 0 && c.WAL {
			if c.Writers == 1 {
				single = c.OpsPerSec
			}
			if c.Writers == 64 {
				best = c.OpsPerSec
			}
		}
	}
	scale := 0.0
	if single > 0 {
		scale = best / single
	}
	t.Finding = fmt.Sprintf("64 writers / 2ms / WAL: %.0f ops/s (%.0fx one writer) — concurrent commits share one batch fsync and one round trip", best, scale)
	return t, nil
}
