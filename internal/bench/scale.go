package bench

// Catalog-cardinality grid: populate a metastore to N assets (100k / 1M /
// 10M full scale) through batched direct store commits, then measure the
// read paths the ordered secondary indexes are supposed to keep O(result
// size): listing a small (100-child) schema, fetching one keyset page out
// of a large schema, and querying by tag through the inverted index. The
// evidence is flatness: read latencies at 100× the assets stay where they
// were. Shared by the `scale` experiment (human-readable table) and
// `make bench-scale`, which emits BENCH_scale.json.

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/store"
)

// ScaleCell is one measured cell of the cardinality grid.
type ScaleCell struct {
	// Assets is the total asset count populated into the metastore.
	Assets int `json:"assets"`
	// Populate throughput via batched direct store commits.
	PopulateSecs float64 `json:"populate_secs"`
	AssetsPerSec float64 `json:"assets_per_sec"`
	// HeapMB is live heap after populate + GC; BytesPerAsset divides it.
	HeapMB        float64 `json:"heap_mb"`
	BytesPerAsset float64 `json:"bytes_per_asset"`
	// List: full paged walk of a 100-child schema.
	ListOps   int     `json:"list_ops"`
	ListP50us float64 `json:"list_p50_us"`
	ListP99us float64 `json:"list_p99_us"`
	// Page: one 100-row keyset continuation page out of a large schema
	// (re-opens the pinned snapshot from the cursor each op).
	PageP50us float64 `json:"page_p50_us"`
	PageP99us float64 `json:"page_p99_us"`
	// Tag: first page of a query-by-tag over the inverted tag index
	// (1000 tagged assets regardless of scale).
	TagP50us float64 `json:"tag_p50_us"`
	TagP99us float64 `json:"tag_p99_us"`
}

// scaleTagged is how many assets carry the benchmark tag, independent of
// scale: tag-query cost must track result size, not catalog size.
const scaleTagged = 1000

// scaleLayout fixes the namespace shape for a given total asset count.
type scaleLayout struct {
	total     int // total assets (tables) to populate
	hotSize   int // children of the "hot" schema (the listing target)
	bigSize   int // children of the "big" schema (the paging target)
	chunkSize int // filler schema size / commit batch size
}

func newScaleLayout(total int, quick bool) scaleLayout {
	l := scaleLayout{total: total, hotSize: 100, bigSize: 10_000, chunkSize: 10_000}
	if quick {
		l.bigSize, l.chunkSize = 2_000, 2_000
	}
	return l
}

// populateScale fills the metastore with l.total table entities using
// batched direct store commits (one commit per chunk), the same key layout
// PutEntity writes: entity record + name index + child index. The first
// scaleTagged tables of the "big" schema carry the pii tag in both the
// forward tag table and the inverted index.
func populateScale(db *store.DB, svc *catalog.Service, ctx catalog.Ctx, l scaleLayout) error {
	if _, err := svc.CreateCatalog(ctx, "cat", ""); err != nil {
		return err
	}
	now := time.Now().UTC()

	// One schema per chunk keeps schema fan-out realistic (10k-child
	// schemas) and gives the paging measurement a big schema to walk.
	fill := func(schema string, n int, tagged int) error {
		parent, err := svc.CreateSchema(ctx, "cat", schema, "")
		if err != nil {
			return err
		}
		for off := 0; off < n; off += l.chunkSize {
			lo, hi := off, off+l.chunkSize
			if hi > n {
				hi = n
			}
			_, err := db.Update(ctx.Metastore, func(tx *store.Tx) error {
				for i := lo; i < hi; i++ {
					e := &erm.Entity{
						ID:        ids.New(),
						Type:      erm.TypeTable,
						Name:      fmt.Sprintf("t%07d", i),
						ParentID:  parent.ID,
						FullName:  fmt.Sprintf("cat.%s.t%07d", schema, i),
						Owner:     "admin",
						State:     erm.StateActive,
						CreatedAt: now,
						UpdatedAt: now,
					}
					if err := erm.PutEntity(tx, e, relationGroupName); err != nil {
						return err
					}
					if i < tagged {
						tx.Put(erm.TableTag, erm.TagKey(e.ID, "pii"), []byte("high"))
						tx.Put(erm.TableTagIdx, erm.TagIdxKey("pii", e.ID, ""), []byte("high"))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}

	if err := fill("hot", l.hotSize, 0); err != nil {
		return err
	}
	if err := fill("big", l.bigSize, scaleTagged); err != nil {
		return err
	}
	remaining := l.total - l.hotSize - l.bigSize
	for i := 0; remaining > 0; i++ {
		n := l.chunkSize
		if n > remaining {
			n = remaining
		}
		if err := fill(fmt.Sprintf("s%04d", i), n, 0); err != nil {
			return err
		}
		remaining -= n
	}
	return nil
}

// relationGroupName mirrors the catalog layer's shared TABLE/VIEW
// name-uniqueness group (catalog.relationGroup is unexported).
const relationGroupName = "RELATION"

// measureScaleOp runs fn ops times and returns p50/p99 in microseconds.
func measureScaleOp(ops int, fn func() error) (p50, p99 float64, err error) {
	lat := make([]float64, 0, ops)
	for i := 0; i < ops; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
	}
	sort.Float64s(lat)
	return percentile(lat, 50), percentile(lat, 99), nil
}

// runScaleCell populates one cell and measures its read ops.
func runScaleCell(total int, quick bool) (ScaleCell, error) {
	cell := ScaleCell{Assets: total}

	db, err := store.Open(store.Options{})
	if err != nil {
		return cell, err
	}
	defer db.Close()
	svc, err := catalog.New(catalog.Config{DB: db})
	if err != nil {
		return cell, err
	}
	if _, err := svc.CreateMetastore("m", "m", "region-1", "admin", ""); err != nil {
		return cell, err
	}
	ctx := catalog.Ctx{Principal: "admin", Metastore: "m", TrustedEngine: true}

	l := newScaleLayout(total, quick)
	start := time.Now()
	if err := populateScale(db, svc, ctx, l); err != nil {
		return cell, fmt.Errorf("populate %d: %w", total, err)
	}
	cell.PopulateSecs = time.Since(start).Seconds()
	cell.AssetsPerSec = float64(total) / cell.PopulateSecs

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	cell.HeapMB = float64(ms.HeapAlloc) / (1 << 20)
	cell.BytesPerAsset = float64(ms.HeapAlloc) / float64(total)

	listOps, pageOps, tagOps := 300, 300, 200
	if quick {
		listOps, pageOps, tagOps = 50, 50, 30
	}
	cell.ListOps = listOps

	// List: walk the 100-child hot schema to exhaustion (one page).
	cell.ListP50us, cell.ListP99us, err = measureScaleOp(listOps, func() error {
		p, err := svc.ListAssetsPage(ctx, "cat.hot", erm.TypeTable, l.hotSize, "")
		if err != nil {
			return err
		}
		if len(p.Assets) != l.hotSize {
			return fmt.Errorf("hot listing returned %d assets, want %d", len(p.Assets), l.hotSize)
		}
		return nil
	})
	if err != nil {
		return cell, err
	}

	// Page: steady-state keyset continuation — fetch the second 100-row
	// page of the big schema from a fixed cursor, re-opening the pinned
	// snapshot each op exactly as an HTTP continuation would.
	first, err := svc.ListAssetsPage(ctx, "cat.big", erm.TypeTable, 100, "")
	if err != nil {
		return cell, err
	}
	if first.NextPageToken == "" {
		return cell, fmt.Errorf("big schema produced no continuation token")
	}
	cell.PageP50us, cell.PageP99us, err = measureScaleOp(pageOps, func() error {
		p, err := svc.ListAssetsPage(ctx, "cat.big", erm.TypeTable, 100, first.NextPageToken)
		if err != nil {
			return err
		}
		if len(p.Assets) != 100 {
			return fmt.Errorf("continuation page returned %d assets, want 100", len(p.Assets))
		}
		return nil
	})
	if err != nil {
		return cell, err
	}

	// Tag: first 100-row page of the inverted-index tag query.
	cell.TagP50us, cell.TagP99us, err = measureScaleOp(tagOps, func() error {
		p, err := svc.QueryAssetsPage(ctx, catalog.Filter{TagKey: "pii", MaxResults: 100})
		if err != nil {
			return err
		}
		if len(p.Assets) != 100 {
			return fmt.Errorf("tag page returned %d assets, want 100", len(p.Assets))
		}
		return nil
	})
	return cell, err
}

// RunScaleGrid measures every cell. Quick shrinks the asset counts for CI;
// full scale runs 100k/1M/10M.
func RunScaleGrid(quick bool) ([]ScaleCell, error) {
	scales := []int{100_000, 1_000_000, 10_000_000}
	if quick {
		scales = []int{20_000, 60_000}
	}
	var cells []ScaleCell
	for _, assets := range scales {
		c, err := runScaleCell(assets, quick)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// ScaleExperiment renders the grid; the finding is how little the read
// latencies move from the smallest catalog to the largest.
func ScaleExperiment(o Options) (*Table, error) {
	cells, err := RunScaleGrid(o.Quick)
	if err != nil {
		return nil, err
	}
	header, rows := ScaleCellRows(cells)
	t := &Table{
		ID:     "scale",
		Title:  "Catalog cardinality: ordered indexes + keyset pagination at scale",
		Paper:  "metastores reach millions of assets (§6.1); listings and queries must cost O(result size), not O(catalog size)",
		Header: header,
		Rows:   rows,
	}
	lo, hi := cells[0], cells[len(cells)-1]
	t.Finding = fmt.Sprintf("%dk → %dk assets (%.0fx): list p50 %.0f → %.0f us, page p50 %.0f → %.0f us, tag p50 %.0f → %.0f us",
		lo.Assets/1000, hi.Assets/1000, float64(hi.Assets)/float64(lo.Assets),
		lo.ListP50us, hi.ListP50us, lo.PageP50us, hi.PageP50us, lo.TagP50us, hi.TagP50us)
	return t, nil
}
