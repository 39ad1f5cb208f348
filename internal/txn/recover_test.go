package txn

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"unitycatalog/internal/audit"
	"unitycatalog/internal/catalog"
	"unitycatalog/internal/clock"
	"unitycatalog/internal/delta"
	"unitycatalog/internal/faults"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/retry"
	"unitycatalog/internal/store"
)

// errCrash simulates the coordinator process dying at a protocol step.
var errCrash = errors.New("simulated coordinator crash")

// setupClock is setup with a controllable clock, for lease-expiry tests.
func setupClock(t *testing.T) (*Coordinator, catalog.Ctx, map[string]*delta.Table, *clock.Fake) {
	t.Helper()
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	fake := clock.NewFake(time.Unix(1_700_000_000, 0))
	svc, err := catalog.New(catalog.Config{DB: db, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	svc.CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1")
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
	svc.CreateCatalog(admin, "bank", "")
	svc.CreateSchema(admin, "bank", "ledger", "")
	schema := delta.Schema{Fields: []delta.SchemaField{
		{Name: "account", Type: delta.TypeInt64}, {Name: "delta_amount", Type: delta.TypeFloat64},
	}}
	tables := map[string]*delta.Table{}
	for _, name := range []string{"checking", "savings", "auditlog"} {
		e, err := svc.CreateTable(admin, "bank.ledger", name, catalog.TableSpec{Columns: []catalog.ColumnInfo{
			{Name: "account", Type: "BIGINT"}, {Name: "delta_amount", Type: "DOUBLE"},
		}}, "")
		if err != nil {
			t.Fatal(err)
		}
		dt, err := delta.Create(delta.ServiceBlobs{Store: svc.Cloud()}, e.StoragePath, name, schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		tables["bank.ledger."+name] = dt
	}
	return NewCoordinator(svc), admin, tables, fake
}

// crashingTx stages a two-table transfer and commits with a crash hook that
// fires once at the given point, returning the stopped-short transaction.
func crashingTx(t *testing.T, c *Coordinator, admin catalog.Ctx, point string) *Txn {
	t.Helper()
	tx, err := c.Begin(admin, []string{"bank.ledger.checking", "bank.ledger.savings"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.StageAppend("bank.ledger.checking", batchOf(t, [2]float64{1, -100})); err != nil {
		t.Fatal(err)
	}
	if err := tx.StageAppend("bank.ledger.savings", batchOf(t, [2]float64{1, +100})); err != nil {
		t.Fatal(err)
	}
	c.Crash = func(p string) error {
		if p == point {
			return errCrash
		}
		return nil
	}
	if err := tx.Commit(); !errors.Is(err, errCrash) {
		t.Fatalf("commit at %s: %v", point, err)
	}
	c.Crash = nil
	return tx
}

// assertAllOrNothing checks the core recovery invariant: either every
// participant is visible at the transaction's version or none is.
func assertAllOrNothing(t *testing.T, tables map[string]*delta.Table, names []string) int64 {
	t.Helper()
	var rows []int64
	for _, n := range names {
		rows = append(rows, totalRows(t, tables[n]))
	}
	for _, r := range rows[1:] {
		if r != rows[0] {
			t.Fatalf("partial visibility: rows per table = %v", rows)
		}
	}
	return rows[0]
}

func TestRecoverRollsBackWhenNothingPublished(t *testing.T) {
	c, admin, tables, fake := setupClock(t)
	before := c.Service.Cloud().ObjectCount("")
	// A backlog, not one transaction: nothing of any was published, so each
	// pins the same base versions and they pile up without interfering. One
	// sweep must decide them all.
	const backlog = 16
	var txs []*Txn
	for i := 0; i < backlog; i++ {
		txs = append(txs, crashingTx(t, c, admin, "after_intent"))
	}

	// Within the lease the records are untouchable.
	fresh := NewCoordinator(c.Service)
	st, err := fresh.Recover("ms1")
	if err != nil || st.Skipped != backlog || st.Back+st.Forward != 0 {
		t.Fatalf("within-lease sweep = %+v, %v", st, err)
	}

	fake.Advance(time.Minute)
	st, err = fresh.Recover("ms1")
	if err != nil || st.Back != backlog {
		t.Fatalf("post-lease sweep = %+v, %v", st, err)
	}
	if n := assertAllOrNothing(t, tables, []string{"bank.ledger.checking", "bank.ledger.savings"}); n != 0 {
		t.Fatalf("rolled-back txns left %d visible rows", n)
	}
	for _, tx := range txs {
		state, _, err := fresh.Record("ms1", tx.ID)
		if err != nil || state != "ABORTED" {
			t.Fatalf("record = %s, %v", state, err)
		}
	}
	// Staged data files were cleaned up: storage is back to its pre-txn shape.
	if after := c.Service.Cloud().ObjectCount(""); after != before {
		t.Fatalf("object count %d -> %d: orphaned blobs", before, after)
	}
	// With the backlog terminal, a sweep finds nothing to do.
	if st, err := fresh.Recover("ms1"); err != nil || st.Forward+st.Back+st.Cleaned != 0 {
		t.Fatalf("idle sweep = %+v, %v", st, err)
	}
}

func TestRecoverRollsForwardWhenPartiallyPublished(t *testing.T) {
	for _, point := range []string{"before_publish:bank.ledger.savings", "before_flip"} {
		t.Run(point, func(t *testing.T) {
			c, admin, tables, fake := setupClock(t)
			tx := crashingTx(t, c, admin, point)

			fake.Advance(time.Minute)
			fresh := NewCoordinator(c.Service)
			st, err := fresh.Recover("ms1")
			if err != nil || st.Forward != 1 {
				t.Fatalf("sweep = %+v, %v", st, err)
			}
			if n := assertAllOrNothing(t, tables, []string{"bank.ledger.checking", "bank.ledger.savings"}); n != 1 {
				t.Fatalf("rolled-forward txn shows %d rows per table, want 1", n)
			}
			state, committed, err := fresh.Record("ms1", tx.ID)
			if err != nil || state != "COMMITTED" || len(committed) != 2 {
				t.Fatalf("record = %s %v, %v", state, committed, err)
			}
			// A second sweep finds nothing to do.
			if st, err := fresh.Recover("ms1"); err != nil || st.Forward+st.Back+st.Cleaned != 0 {
				t.Fatalf("idempotent re-sweep = %+v, %v", st, err)
			}
		})
	}
}

func TestRecoverRollsForwardCommittedRecord(t *testing.T) {
	// Crash after the COMMITTED flip but pretend the progress flags were
	// lost: clear them directly and delete one published entry to simulate
	// the flip landing with a participant's publish outcome unknown.
	c, admin, tables, fake := setupClock(t)
	tx, err := c.Begin(admin, []string{"bank.ledger.checking", "bank.ledger.savings"})
	if err != nil {
		t.Fatal(err)
	}
	tx.StageAppend("bank.ledger.checking", batchOf(t, [2]float64{1, -1}))
	tx.StageAppend("bank.ledger.savings", batchOf(t, [2]float64{1, 1}))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.updateRecord("ms1", tx.ID, func(r *intentRecord) error {
		for i := range r.Participants {
			r.Participants[i].Published = false
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	fake.Advance(time.Minute)
	fresh := NewCoordinator(c.Service)
	st, err := fresh.Recover("ms1")
	if err != nil || st.Forward != 1 {
		t.Fatalf("sweep = %+v, %v", st, err)
	}
	if n := assertAllOrNothing(t, tables, []string{"bank.ledger.checking", "bank.ledger.savings"}); n != 1 {
		t.Fatalf("committed txn shows %d rows per table, want 1", n)
	}
}

func TestRecoverRollsBackWhenForeignWriterWon(t *testing.T) {
	// Crash before any publish, then let an out-of-band writer take
	// savings' target version. Recovery must roll back, not overwrite.
	c, admin, tables, fake := setupClock(t)
	tx := crashingTx(t, c, admin, "before_publish:bank.ledger.checking")
	if _, err := tables["bank.ledger.savings"].Append(batchOf(t, [2]float64{9, 9})); err != nil {
		t.Fatal(err)
	}

	fake.Advance(time.Minute)
	fresh := NewCoordinator(c.Service)
	st, err := fresh.Recover("ms1")
	if err != nil || st.Back != 1 {
		t.Fatalf("sweep = %+v, %v", st, err)
	}
	state, _, _ := fresh.Record("ms1", tx.ID)
	if state != "ABORTED" {
		t.Fatalf("record = %s, want ABORTED", state)
	}
	// The foreign append survived untouched; our transaction left nothing.
	if got := totalRows(t, tables["bank.ledger.savings"]); got != 1 {
		t.Fatalf("savings rows = %d, want only the foreign append", got)
	}
	if got := totalRows(t, tables["bank.ledger.checking"]); got != 0 {
		t.Fatalf("checking rows = %d, want 0", got)
	}
}

func TestStaleCoordinatorIsFenced(t *testing.T) {
	c, admin, _, fake := setupClock(t)
	crashingTx(t, c, admin, "after_intent")

	// A new coordinator recovers, bumping the epoch past c's.
	fake.Advance(time.Minute)
	fresh := NewCoordinator(c.Service)
	if st, err := fresh.Recover("ms1"); err != nil || st.Back != 1 {
		t.Fatalf("sweep = %+v, %v", st, err)
	}

	// The stale coordinator can no longer decide transactions.
	tx, err := c.Begin(admin, []string{"bank.ledger.checking"})
	if err != nil {
		t.Fatal(err)
	}
	tx.StageAppend("bank.ledger.checking", batchOf(t, [2]float64{1, 1}))
	if err := tx.Commit(); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale commit: %v", err)
	}
}

func TestDirtyAbortRecleanedBySweep(t *testing.T) {
	c, admin, _, fake := setupClock(t)
	before := c.Service.Cloud().ObjectCount("")
	tx, err := c.Begin(admin, []string{"bank.ledger.checking"})
	if err != nil {
		t.Fatal(err)
	}
	tx.StageAppend("bank.ledger.checking", batchOf(t, [2]float64{1, 1}))

	// Make every delete fail: Abort must report the failure and leave the
	// record Dirty instead of silently leaking the staged file.
	inj := faults.New(7)
	inj.AddRule(faults.Rule{Op: "delete", Class: faults.Unavailable, P: 1})
	c.Service.Cloud().SetFaults(inj)
	if err := tx.Abort(); err == nil {
		t.Fatal("abort with failing deletes should return the cleanup error")
	}
	c.Service.Cloud().SetFaults(nil)

	snap, _ := c.Service.DB().Snapshot("ms1")
	b, _ := snap.Get(storeTable, string(tx.ID))
	snap.Close()
	rec, err := decodeRecord(b)
	if err != nil || !rec.Dirty || rec.CleanupErr == "" {
		t.Fatalf("record after failed cleanup = %+v, %v", rec, err)
	}

	// The sweep retries the compensation once storage heals.
	fake.Advance(time.Minute)
	st, err := c.Recover("ms1")
	if err != nil || st.Cleaned != 1 {
		t.Fatalf("sweep = %+v, %v", st, err)
	}
	if after := c.Service.Cloud().ObjectCount(""); after != before {
		t.Fatalf("object count %d -> %d: staged file leaked", before, after)
	}
}

func TestCommitRetriesTransientPublishFaults(t *testing.T) {
	c, admin, tables, _ := setupClock(t)
	// Every class of injected fault on the publish path is retryable
	// because the publish is idempotent frozen bytes.
	inj := faults.New(11)
	inj.AddRule(faults.Rule{Op: "put_if_absent", PathContains: "_delta_log", Class: faults.Timeout, P: 0.5})
	inj.AddRule(faults.Rule{Op: "get", PathContains: "_delta_log", Class: faults.Transient, P: 0.2})
	defer c.Service.Cloud().SetFaults(nil)

	fast := retry.Policy{MaxAttempts: 64, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond, Sleep: func(time.Duration) {}}
	c.opts.PublishRetry = fast
	for i := 0; i < 10; i++ {
		// Begin/stage run fault-free (the data plane has its own retry
		// story); the coordinator's validate+publish path runs under fire.
		c.Service.Cloud().SetFaults(nil)
		tx, err := c.Begin(admin, []string{"bank.ledger.checking", "bank.ledger.savings"})
		if err != nil {
			t.Fatal(err)
		}
		tx.StageAppend("bank.ledger.checking", batchOf(t, [2]float64{float64(i), -1}))
		tx.StageAppend("bank.ledger.savings", batchOf(t, [2]float64{float64(i), 1}))
		c.Service.Cloud().SetFaults(inj)
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d under faults: %v", i, err)
		}
	}
	c.Service.Cloud().SetFaults(nil)
	if n := assertAllOrNothing(t, tables, []string{"bank.ledger.checking", "bank.ledger.savings"}); n != 10 {
		t.Fatalf("rows per table = %d, want 10", n)
	}
	if c.metrics.PublishRetries.Load() == 0 {
		t.Fatal("expected publish retries under injected faults")
	}
}

func TestAbortDeletesStagedFiles(t *testing.T) {
	c, admin, _, _ := setupClock(t)
	before := c.Service.Cloud().ObjectCount("")
	tx, err := c.Begin(admin, []string{"bank.ledger.checking", "bank.ledger.savings"})
	if err != nil {
		t.Fatal(err)
	}
	tx.StageAppend("bank.ledger.checking", batchOf(t, [2]float64{1, 1}))
	tx.StageAppend("bank.ledger.savings", batchOf(t, [2]float64{2, 2}))
	if c.Service.Cloud().ObjectCount("") <= before {
		t.Fatal("staging should have written data files")
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if after := c.Service.Cloud().ObjectCount(""); after != before {
		t.Fatalf("object count %d -> %d: abort leaked staged files", before, after)
	}
	if err := tx.Abort(); !errors.Is(err, ErrAborted) {
		t.Fatalf("second abort: %v", err)
	}
}

func TestTxnMethodsAfterCompletion(t *testing.T) {
	c, admin, _, _ := setupClock(t)
	tx, err := c.Begin(admin, []string{"bank.ledger.checking"})
	if err != nil {
		t.Fatal(err)
	}
	tx.StageAppend("bank.ledger.checking", batchOf(t, [2]float64{1, 1}))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read("bank.ledger.checking"); !errors.Is(err, ErrAborted) {
		t.Fatalf("Read after commit: %v", err)
	}
	if _, err := tx.Scan("bank.ledger.checking", nil, nil); !errors.Is(err, ErrAborted) {
		t.Fatalf("Scan after commit: %v", err)
	}
	if err := tx.Stage("bank.ledger.checking"); !errors.Is(err, ErrAborted) {
		t.Fatalf("Stage after commit: %v", err)
	}
	if err := tx.StageAppend("bank.ledger.checking", batchOf(t, [2]float64{1, 1})); !errors.Is(err, ErrAborted) {
		t.Fatalf("StageAppend after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("second Commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrAborted) {
		t.Fatalf("Abort after commit: %v", err)
	}
}

func TestRecordErrorPaths(t *testing.T) {
	c, _, _, _ := setupClock(t)
	if _, _, err := c.Record("ms1", ids.New()); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("missing record: %v", err)
	}
	// A corrupt record is a decode error from Record and is skipped (and
	// counted) by the recovery sweep rather than wedging it.
	bad := ids.New()
	if _, err := c.Service.DB().Update("ms1", func(tx *store.Tx) error {
		tx.Put(storeTable, string(bad), []byte("{not json"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Record("ms1", bad); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt record: %v", err)
	}
	st, err := c.Recover("ms1")
	if err != nil || st.Corrupt != 1 {
		t.Fatalf("sweep over corrupt record = %+v, %v", st, err)
	}
}

func TestLegacyRecordStillDecodes(t *testing.T) {
	// Records written by the pre-recovery protocol (WAL replay can surface
	// them) still answer Record and are left alone by the sweep.
	c, _, _, _ := setupClock(t)
	id := ids.New()
	legacy := fmt.Sprintf(`{"id":%q,"principal":"admin","tables":{"bank.ledger.checking":3},"state":"COMMITTED"}`, id)
	if _, err := c.Service.DB().Update("ms1", func(tx *store.Tx) error {
		tx.Put(storeTable, string(id), []byte(legacy))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	state, tables, err := c.Record("ms1", id)
	if err != nil || state != "COMMITTED" || tables["bank.ledger.checking"] != 3 {
		t.Fatalf("legacy record = %s %v, %v", state, tables, err)
	}
	st, err := c.Recover("ms1")
	if err != nil || st.Forward+st.Back+st.Cleaned != 0 {
		t.Fatalf("sweep over legacy record = %+v, %v", st, err)
	}
}

func TestTxnAuditTrail(t *testing.T) {
	c, admin, _, _ := setupClock(t)
	tx, err := c.Begin(admin, []string{"bank.ledger.checking", "bank.ledger.savings"})
	if err != nil {
		t.Fatal(err)
	}
	tx.StageAppend("bank.ledger.checking", batchOf(t, [2]float64{1, -1}))
	tx.StageAppend("bank.ledger.savings", batchOf(t, [2]float64{1, 1}))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	byOp := map[string]int{}
	for _, r := range c.Service.Audit().Filter(func(r audit.Record) bool {
		return r.Extra["txn"] == string(tx.ID)
	}) {
		byOp[r.Operation]++
		if r.Securable == ids.Nil {
			t.Fatalf("audit %s without securable", r.Operation)
		}
	}
	if byOp["TxnBegin"] != 2 || byOp["TxnCommit"] != 2 {
		t.Fatalf("audit ops = %v, want 2 TxnBegin + 2 TxnCommit", byOp)
	}

	tx2, _ := c.Begin(admin, []string{"bank.ledger.checking"})
	tx2.Abort()
	aborts := c.Service.Audit().Filter(func(r audit.Record) bool {
		return r.Operation == "TxnAbort" && r.Extra["txn"] == string(tx2.ID)
	})
	if len(aborts) != 1 {
		t.Fatalf("abort audits = %d, want 1", len(aborts))
	}
}
