package bench

// Contended multi-table transaction grid: N writers transfer between the
// same two governed Delta tables through the two-phase coordinator,
// retrying on conflict, and one recovery cell measures the crash-sweep
// cost over a backlog of interrupted transactions. Shared by the `txn`
// experiment (human-readable table) and `make bench-txn`, which emits
// BENCH_txn.json.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/clock"
	"unitycatalog/internal/delta"
	"unitycatalog/internal/store"
	"unitycatalog/internal/txn"
)

// TxnCell is one measured cell of the transaction grid.
type TxnCell struct {
	// Shape is "commit_<W>w" (W contending writers over 2 tables) or
	// "recover_<N>" (sweep over N interrupted transactions).
	Shape string `json:"shape"`
	// Txns is committed transactions (commit cells) or recovered
	// transactions (recovery cells).
	Txns      int     `json:"txns"`
	Conflicts int     `json:"conflicts,omitempty"`
	Secs      float64 `json:"secs"`
	PerSec    float64 `json:"per_sec"`
	P50us     float64 `json:"p50_us"`
	P95us     float64 `json:"p95_us"`
	P99us     float64 `json:"p99_us"`
}

// txnBenchWorld builds a catalog with two empty governed Delta tables and
// returns the service, an admin context, and a controllable clock.
func txnBenchWorld() (*catalog.Service, catalog.Ctx, *clock.Fake, func(), error) {
	db, err := store.Open(store.Options{})
	if err != nil {
		return nil, catalog.Ctx{}, nil, nil, err
	}
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	svc, err := catalog.New(catalog.Config{DB: db, Clock: clk})
	if err != nil {
		db.Close()
		return nil, catalog.Ctx{}, nil, nil, err
	}
	svc.CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1")
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
	svc.CreateCatalog(admin, "bank", "")
	svc.CreateSchema(admin, "bank", "ledger", "")
	schema := delta.Schema{Fields: []delta.SchemaField{
		{Name: "account", Type: delta.TypeInt64}, {Name: "delta_amount", Type: delta.TypeFloat64},
	}}
	for _, name := range []string{"checking", "savings"} {
		e, err := svc.CreateTable(admin, "bank.ledger", name, catalog.TableSpec{Columns: []catalog.ColumnInfo{
			{Name: "account", Type: "BIGINT"}, {Name: "delta_amount", Type: "DOUBLE"},
		}}, "")
		if err != nil {
			db.Close()
			return nil, catalog.Ctx{}, nil, nil, err
		}
		if _, err := delta.Create(delta.ServiceBlobs{Store: svc.Cloud()}, e.StoragePath, name, schema, nil); err != nil {
			db.Close()
			return nil, catalog.Ctx{}, nil, nil, err
		}
	}
	return svc, admin, clk, func() { db.Close() }, nil
}

func txnTransferBatch() *delta.Batch {
	b := delta.NewBatch(delta.Schema{Fields: []delta.SchemaField{
		{Name: "account", Type: delta.TypeInt64}, {Name: "delta_amount", Type: delta.TypeFloat64},
	}})
	b.AppendRow(int64(1), 1.0)
	return b
}

// RunTxnGrid measures contended multi-writer commit latency and the
// recovery-sweep cost.
func RunTxnGrid(quick bool) ([]TxnCell, error) {
	perWriter, backlog := 24, 64
	if quick {
		perWriter, backlog = 8, 16
	}
	var cells []TxnCell

	pair := []string{"bank.ledger.checking", "bank.ledger.savings"}
	for _, writers := range []int{1, 2, 4, 8} {
		svc, admin, _, closeFn, err := txnBenchWorld()
		if err != nil {
			return nil, err
		}
		coord := txn.NewCoordinator(svc)

		var (
			mu        sync.Mutex
			lat       []float64
			conflicts int
		)
		start := time.Now()
		var wg sync.WaitGroup
		errCh := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					for {
						tx, err := coord.Begin(admin, pair)
						if err != nil {
							errCh <- err
							return
						}
						tx.StageAppend(pair[0], txnTransferBatch())
						tx.StageAppend(pair[1], txnTransferBatch())
						t0 := time.Now()
						err = tx.Commit()
						if err == nil {
							mu.Lock()
							lat = append(lat, float64(time.Since(t0).Microseconds()))
							mu.Unlock()
							break
						}
						if errors.Is(err, txn.ErrConflict) {
							mu.Lock()
							conflicts++
							mu.Unlock()
							continue
						}
						errCh <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		secs := time.Since(start).Seconds()
		close(errCh)
		for err := range errCh {
			closeFn()
			return nil, fmt.Errorf("txn bench %dw: %w", writers, err)
		}
		closeFn()
		total := writers * perWriter
		sorted := sortFloats(lat)
		cells = append(cells, TxnCell{
			Shape: fmt.Sprintf("commit_%dw", writers), Txns: total, Conflicts: conflicts,
			Secs: secs, PerSec: float64(total) / secs,
			P50us: percentile(sorted, 50), P95us: percentile(sorted, 95), P99us: percentile(sorted, 99),
		})
	}

	// Recovery cells: a backlog of transactions whose coordinator died right
	// after the durable intent (nothing published — every one pins the same
	// base versions, so the backlog accumulates without interference), then
	// one sweep rolls the whole backlog back.
	svc, admin, clk, closeFn, err := txnBenchWorld()
	if err != nil {
		return nil, err
	}
	defer closeFn()
	errCrash := errors.New("bench crash")
	victim := txn.NewCoordinator(svc)
	victim.Crash = func(p string) error {
		if p == "after_intent" {
			return errCrash
		}
		return nil
	}
	for i := 0; i < backlog; i++ {
		tx, err := victim.Begin(admin, pair)
		if err != nil {
			return nil, err
		}
		tx.StageAppend(pair[0], txnTransferBatch())
		tx.StageAppend(pair[1], txnTransferBatch())
		if err := tx.Commit(); !errors.Is(err, errCrash) {
			return nil, fmt.Errorf("txn bench backlog %d: %v", i, err)
		}
	}
	clk.Advance(time.Minute)
	sweeper := txn.NewCoordinator(svc)
	t0 := time.Now()
	st, err := sweeper.Recover("ms1")
	if err != nil {
		return nil, fmt.Errorf("txn bench recover: %w", err)
	}
	secs := time.Since(t0).Seconds()
	if st.Back != backlog {
		return nil, fmt.Errorf("txn bench recover: stats %+v, want %d back", st, backlog)
	}
	cells = append(cells, TxnCell{
		Shape: fmt.Sprintf("recover_back_%d", backlog), Txns: backlog,
		Secs: secs, PerSec: float64(backlog) / secs,
	})

	// Steady-state sweeps over the now-terminal backlog: the idle cost a
	// periodic sweeper pays when there is nothing to do.
	const reps = 16
	idle := make([]float64, 0, reps)
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		s0 := time.Now()
		if _, err := sweeper.Recover("ms1"); err != nil {
			return nil, err
		}
		idle = append(idle, float64(time.Since(s0).Microseconds()))
	}
	secs = time.Since(t0).Seconds()
	sorted := sortFloats(idle)
	cells = append(cells, TxnCell{
		Shape: fmt.Sprintf("sweep_idle_%d", backlog), Txns: backlog,
		Secs: secs, PerSec: float64(reps) / secs,
		P50us: percentile(sorted, 50), P95us: percentile(sorted, 95), P99us: percentile(sorted, 99),
	})
	return cells, nil
}

// TxnExperiment renders the grid.
func TxnExperiment(o Options) (*Table, error) {
	cells, err := RunTxnGrid(o.Quick)
	if err != nil {
		return nil, err
	}
	header, rows := TxnCellRows(cells)
	t := &Table{
		ID:     "txn",
		Title:  "Multi-table transactions: contended commit + recovery sweep",
		Paper:  "the catalog as commit coordinator (§6.3): two-phase intent records, idempotent publish, crash recovery",
		Header: header,
		Rows:   rows,
	}
	for _, c := range cells {
		if c.Shape == "commit_8w" {
			t.Finding = fmt.Sprintf("8 writers: %.0f txn/s, p99 %.0fµs, %d conflicts", c.PerSec, c.P99us, c.Conflicts)
		}
	}
	return t, nil
}
