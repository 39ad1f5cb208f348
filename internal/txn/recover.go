package txn

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"unitycatalog/internal/audit"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/delta"
	"unitycatalog/internal/events"
	"unitycatalog/internal/retry"
)

// RecoverStats summarizes one recovery sweep.
type RecoverStats struct {
	Scanned int // intent records examined
	Skipped int // terminal/clean or within-lease records left alone
	Forward int // transactions rolled forward to full visibility
	Back    int // transactions rolled back (presumed abort)
	Cleaned int // dirty aborts whose compensation completed
	Corrupt int // undecodable records skipped
}

func (s *RecoverStats) add(o RecoverStats) {
	s.Scanned += o.Scanned
	s.Skipped += o.Skipped
	s.Forward += o.Forward
	s.Back += o.Back
	s.Cleaned += o.Cleaned
	s.Corrupt += o.Corrupt
}

// Recover sweeps one metastore's intent records and finishes every
// transaction a crashed coordinator left behind. Invariants:
//
//   - COMMITTED is forever: a record that flipped is only ever rolled
//     forward (republish missing entries via idempotent PutIfAbsent of the
//     frozen payload) — never undone.
//   - PREPARED within its lease is untouchable: the owning coordinator may
//     still be publishing, and acting early could race it.
//   - PREPARED past its lease is decided by storage, not by the record's
//     progress hints: probe every participant's target entry and compare
//     bytes. Any foreign entry → roll back ours (an out-of-band writer won).
//     At least one of ours published, none foreign → take over and roll
//     forward (a reader may already have seen that table at the txn
//     version, so rolling back would un-commit an observed state). Nothing
//     published → presumed abort: mark ABORTED and delete staged files.
//   - ABORTED with Dirty retries compensation until it verifiably finishes.
//
// All record mutations are fenced by this coordinator's epoch, acquired
// lazily on the first actionable record — an idle sweep writes nothing.
// Residual assumption: a live coordinator whose lease expired mid-publish
// could still race recovery at the blob layer for the bounded window
// between its fenceCheck and its PutIfAbsent; both sides write the same
// frozen bytes, so the race is benign for roll-forward, and the epoch fence
// stops the stale coordinator at its next durable step.
func (c *Coordinator) Recover(msID string) (RecoverStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	defer func() {
		c.metrics.RecoverySweepSeconds.ObserveDuration(time.Since(start))
	}()
	c.metrics.RecoverRuns.Inc()

	snap, err := c.Service.DB().Snapshot(msID)
	if err != nil {
		return RecoverStats{}, err
	}
	type item struct {
		key string
		rec *intentRecord
	}
	var stats RecoverStats
	var actionable []item
	now := c.now()
	for _, kv := range snap.Scan(storeTable, "") {
		if strings.HasPrefix(kv.Key, "!") {
			continue // reserved keys (coordinator epoch), not records
		}
		stats.Scanned++
		rec, derr := decodeRecord(kv.Value)
		if derr != nil {
			stats.Corrupt++
			c.metrics.RecoverCorrupt.Inc()
			continue
		}
		if c.actionNeeded(rec, now) {
			actionable = append(actionable, item{key: kv.Key, rec: rec})
		} else {
			stats.Skipped++
		}
	}
	snap.Close()
	if len(actionable) == 0 {
		return stats, nil
	}

	// Something needs work: acquire (or reuse) our epoch so every decision
	// below is fenced, then re-read each record under that fence — the
	// snapshot above may be stale by now.
	if _, err := c.epoch(msID); err != nil {
		return stats, err
	}
	var errs []error
	for _, it := range actionable {
		st, rerr := c.recoverOne(msID, it.rec)
		stats.add(st)
		if rerr != nil {
			errs = append(errs, fmt.Errorf("txn %s: %w", it.rec.ID.Short(), rerr))
		}
	}
	return stats, errors.Join(errs...)
}

// actionNeeded reports whether a record requires recovery work at time now.
func (c *Coordinator) actionNeeded(rec *intentRecord, now time.Time) bool {
	switch rec.State {
	case StateCommitted:
		// Progress hints are conservative: a participant published right
		// before the crash may still read false, and republish is
		// idempotent, so acting on a stale hint is safe.
		return len(rec.Participants) > 0 && !rec.allPublished()
	case StatePrepared:
		return !now.Before(rec.LeaseExpiry)
	case StateAborted:
		return rec.Dirty
	default:
		return false
	}
}

// recoverOne applies the recovery rules to a single record, re-reading it
// under the epoch fence before acting.
func (c *Coordinator) recoverOne(msID string, stale *intentRecord) (RecoverStats, error) {
	var stats RecoverStats
	// Re-read: the record may have progressed since the sweep's snapshot
	// (e.g. its live coordinator finished, or a prior sweep fixed it).
	snap, err := c.Service.DB().Snapshot(msID)
	if err != nil {
		return stats, err
	}
	b, ok := snap.Get(storeTable, string(stale.ID))
	snap.Close()
	if !ok {
		return stats, nil
	}
	rec, err := decodeRecord(b)
	if err != nil {
		stats.Corrupt++
		c.metrics.RecoverCorrupt.Inc()
		return stats, nil
	}
	if !c.actionNeeded(rec, c.now()) {
		stats.Skipped++
		return stats, nil
	}

	blobs := c.serviceBlobs()
	switch rec.State {
	case StateCommitted:
		if err := c.rollForward(msID, rec, blobs, false); err != nil {
			return stats, err
		}
		stats.Forward++
		return stats, nil

	case StateAborted:
		if err := c.cleanupAbort(msID, rec, blobs); err != nil {
			return stats, err
		}
		stats.Cleaned++
		return stats, nil

	case StatePrepared:
		published, foreign, perr := c.probe(blobs, rec)
		if perr != nil {
			return stats, perr
		}
		if foreign == 0 && published > 0 {
			// Part of the transaction is already visible; the only outcome
			// consistent with what readers may have observed is commit.
			if err := c.rollForward(msID, rec, blobs, true); err != nil {
				return stats, err
			}
			stats.Forward++
			return stats, nil
		}
		// Nothing of ours visible (or an out-of-band writer invalidated a
		// target version): presumed abort.
		if err := c.rollBack(msID, rec, blobs); err != nil {
			return stats, err
		}
		stats.Back++
		return stats, nil
	}
	return stats, nil
}

// probe asks storage for ground truth: how many participant target entries
// hold our frozen bytes, and how many hold someone else's.
func (c *Coordinator) probe(blobs delta.Blobs, rec *intentRecord) (published, foreign int, err error) {
	for i := range rec.Participants {
		pr := &rec.Participants[i]
		existing, gerr := retry.DoValue(c.opts.PublishRetry, retry.Retryable, func() ([]byte, error) {
			return blobs.Get(logEntryPath(pr))
		})
		if gerr != nil {
			if errors.Is(gerr, cloudsim.ErrNotFound) {
				continue
			}
			return 0, 0, fmt.Errorf("probe %s: %w", pr.Name, gerr)
		}
		if bytes.Equal(existing, pr.Payload) {
			published++
		} else {
			foreign++
		}
	}
	return published, foreign, nil
}

// rollForward republishes every missing participant entry and ensures the
// record is terminally COMMITTED. takeover marks a PREPARED record this
// sweep is claiming from a dead coordinator: the flip to COMMITTED happens
// only after every entry verifiably landed.
func (c *Coordinator) rollForward(msID string, rec *intentRecord, blobs delta.Blobs, takeover bool) error {
	for i := range rec.Participants {
		pr := &rec.Participants[i]
		if err := c.publishOne(blobs, logEntryPath(pr), pr.Payload); err != nil {
			if errors.Is(err, errForeignEntry) && rec.State == StateCommitted {
				// A committed transaction's entry was replaced out-of-band
				// (e.g. VACUUM/compaction rewrote history). Nothing safe to
				// do; surface it.
				return fmt.Errorf("committed txn %s: %w", rec.ID.Short(), err)
			}
			return err
		}
	}
	if err := c.updateRecord(msID, rec.ID, func(r *intentRecord) error {
		if r.State == StateAborted {
			return fmt.Errorf("txn %s: record flipped ABORTED during roll-forward", r.ID.Short())
		}
		r.State = StateCommitted
		for i := range r.Participants {
			r.Participants[i].Published = true
		}
		return nil
	}); err != nil {
		return err
	}
	c.metrics.RecoveredForward.Inc()
	if takeover {
		c.metrics.Commits.Inc()
	}
	// Announce visibility exactly as a live commit would have.
	for i := range rec.Participants {
		pr := &rec.Participants[i]
		c.Service.Bus().Publish(events.Event{
			Metastore: msID, Op: events.OpCommit,
			EntityID: pr.EntityID, FullName: pr.Name,
			Principal: rec.Principal, Detail: "txn " + rec.ID.Short() + " (recovered)",
		})
		c.auditRecover(msID, rec, pr, "TxnRecoverForward", fmt.Sprintf("published v%d", pr.Target))
	}
	return nil
}

// rollBack decides ABORTED for an expired PREPARED record, then compensates:
// delete any entries that are verifiably ours and all staged files. The
// durable ABORTED mark lands before any deletion (same ordering as a live
// abort), and cleanup failure leaves the record Dirty for the next sweep.
func (c *Coordinator) rollBack(msID string, rec *intentRecord, blobs delta.Blobs) error {
	if err := c.updateRecord(msID, rec.ID, func(r *intentRecord) error {
		if r.State != StatePrepared {
			return fmt.Errorf("%w: record already %s", ErrFenced, r.State)
		}
		r.State = StateAborted
		r.Dirty = true
		return nil
	}); err != nil {
		return err
	}
	c.metrics.Aborts.Inc()
	c.metrics.RecoveredBack.Inc()
	for i := range rec.Participants {
		pr := &rec.Participants[i]
		c.auditRecover(msID, rec, pr, "TxnRecoverBack", "presumed abort: lease expired")
	}
	return c.finishCleanup(msID, rec, blobs)
}

// cleanupAbort re-runs compensation for a Dirty ABORTED record.
func (c *Coordinator) cleanupAbort(msID string, rec *intentRecord, blobs delta.Blobs) error {
	if err := c.finishCleanup(msID, rec, blobs); err != nil {
		return err
	}
	c.metrics.RecoverCleaned.Inc()
	return nil
}

// finishCleanup deletes an aborted transaction's published entries (ours
// only, by byte comparison) and staged files, then clears Dirty — or
// records the failure durably and leaves Dirty set.
func (c *Coordinator) finishCleanup(msID string, rec *intentRecord, blobs delta.Blobs) error {
	var errs []error
	for i := range rec.Participants {
		pr := &rec.Participants[i]
		if len(pr.Payload) > 0 {
			if err := c.deleteIfOurs(blobs, logEntryPath(pr), pr.Payload); err != nil {
				errs = append(errs, fmt.Errorf("compensate %s: %w", pr.Name, err))
			}
		}
		if err := c.deleteStaged(blobs, pr.Staged); err != nil {
			errs = append(errs, err)
		}
	}
	cleanupErr := errors.Join(errs...)
	if uerr := c.updateRecord(msID, rec.ID, func(r *intentRecord) error {
		if cleanupErr != nil {
			r.CleanupErr = cleanupErr.Error()
		} else {
			r.Dirty = false
			r.CleanupErr = ""
		}
		return nil
	}); uerr != nil {
		return errors.Join(cleanupErr, uerr)
	}
	return cleanupErr
}

// logEntryPath is the Delta log object path for a participant's target
// version (mirrors delta.Table.LogPath without needing a handle).
func logEntryPath(pr *participantRecord) string {
	return fmt.Sprintf("%s/_delta_log/%020d.json", pr.TablePath, pr.Target)
}

// auditRecover appends the audit record for a recovery action on behalf of
// the original principal (there is no live request context to trace).
func (c *Coordinator) auditRecover(msID string, rec *intentRecord, pr *participantRecord, op, detail string) {
	c.Service.Audit().Append(audit.Record{
		Kind: audit.KindAPIRequest, Metastore: msID, Principal: rec.Principal,
		Operation: op, Securable: pr.EntityID, Allowed: true, Detail: detail,
		Extra: map[string]string{"txn": string(rec.ID), "table": pr.Name},
	})
}

// RecoverAll sweeps every metastore attached to this node.
func (c *Coordinator) RecoverAll() (RecoverStats, error) {
	var stats RecoverStats
	var errs []error
	for _, msID := range c.Service.Metastores() {
		st, err := c.Recover(msID)
		stats.add(st)
		if err != nil {
			errs = append(errs, fmt.Errorf("metastore %s: %w", msID, err))
		}
	}
	return stats, errors.Join(errs...)
}

// StartSweeper runs RecoverAll every interval until Close. Call once, at
// startup, after an initial synchronous RecoverAll.
func (c *Coordinator) StartSweeper(interval time.Duration) {
	if interval <= 0 || c.sweepStop != nil {
		return
	}
	c.sweepStop = make(chan struct{})
	c.sweepDone = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				c.RecoverAll() // errors are visible in metrics and records
			}
		}
	}(c.sweepStop, c.sweepDone)
}

// Close stops the periodic sweeper, if running.
func (c *Coordinator) Close() {
	if c.sweepStop == nil {
		return
	}
	close(c.sweepStop)
	<-c.sweepDone
	c.sweepStop = nil
	c.sweepDone = nil
}
