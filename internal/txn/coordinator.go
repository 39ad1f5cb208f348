package txn

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/delta"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/retry"
	"unitycatalog/internal/store"
)

// Common errors.
var (
	// ErrConflict means a participant table advanced past the transaction's
	// snapshot; retry with fresh state.
	ErrConflict = errors.New("txn: serialization conflict")
	// ErrAborted is returned by operations on a finished transaction.
	ErrAborted = errors.New("txn: transaction is no longer active")
	// ErrFenced means a newer coordinator epoch took over this metastore's
	// transactions; this coordinator must stop publishing. The in-flight
	// transaction's outcome is owned by the new coordinator's recovery.
	ErrFenced = errors.New("txn: coordinator fenced by a newer epoch")
	// errForeignEntry means the log entry at a participant's target version
	// exists but is not ours — an out-of-band writer raced the coordinator
	// on a table that should be catalog-owned.
	errForeignEntry = errors.New("txn: foreign log entry at target version")
)

// Options tunes a Coordinator. The zero value is production defaults.
type Options struct {
	// Lease bounds how long a PREPARED transaction may keep publishing
	// before recovery is allowed to take it over (default 30s). Must
	// comfortably exceed the worst-case publish duration; the documented
	// fencing guarantee assumes clock skew between coordinators is small
	// relative to this bound.
	Lease time.Duration
	// PublishRetry is the retry policy for the blob publish/compensation
	// path. Publishing is PutIfAbsent of frozen bytes and compensation is
	// Delete, both idempotent, so every injected fault class — including
	// Timeout, whose outcome is unknown — is safe to retry. The zero value
	// means the retry package defaults.
	PublishRetry retry.Policy
}

func (o Options) withDefaults() Options {
	if o.Lease == 0 {
		o.Lease = 30 * time.Second
	}
	return o
}

// Coordinator commits multi-table transactions through the catalog and
// recovers them after a crash. One coordinator instance per process; a
// restarted coordinator acquires a fresh epoch per metastore on first use,
// fencing any predecessor still running.
type Coordinator struct {
	Service *catalog.Service

	// Crash is a test-only hook called at every protocol step with a point
	// label ("after_intent", "before_publish:<table>", "after_publish:<table>",
	// "before_flip"). Returning a non-nil error makes the in-flight
	// operation stop immediately with no cleanup — simulating the
	// coordinator process dying at that step. Set before first use.
	Crash func(point string) error

	opts    Options
	metrics *Metrics

	// mu serializes commits and recovery sweeps on this coordinator (per
	// metastore set). Cross-process exclusion comes from epochs and leases,
	// not this lock.
	mu sync.Mutex

	// epochMu guards epochs: metastore ID -> this coordinator's acquired
	// epoch. Acquiring an epoch durably increments the metastore's counter,
	// so every record mutation can verify it still holds the latest.
	epochMu sync.Mutex
	epochs  map[string]uint64

	sweepStop chan struct{}
	sweepDone chan struct{}
}

// NewCoordinator returns a Coordinator over the service with default options.
func NewCoordinator(svc *catalog.Service) *Coordinator {
	return NewCoordinatorOptions(svc, Options{})
}

// NewCoordinatorOptions returns a Coordinator with explicit options.
func NewCoordinatorOptions(svc *catalog.Service, opts Options) *Coordinator {
	return &Coordinator{
		Service: svc,
		opts:    opts.withDefaults(),
		metrics: NewMetrics(),
		epochs:  map[string]uint64{},
	}
}

// Metrics returns the coordinator's metric set.
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

func (c *Coordinator) now() time.Time { return c.Service.Clock().Now() }

// crashed consults the test-only crash hook.
func (c *Coordinator) crashed(point string) error {
	if c.Crash == nil {
		return nil
	}
	return c.Crash(point)
}

// --- epoch fencing ---

// epoch returns this coordinator's epoch for the metastore, acquiring one on
// first use by durably incrementing the metastore's epoch counter. The
// acquisition is the fencing point: any coordinator holding an older epoch
// fails its next record mutation with ErrFenced.
func (c *Coordinator) epoch(msID string) (uint64, error) {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	if e, ok := c.epochs[msID]; ok {
		return e, nil
	}
	var next uint64
	_, err := c.Service.DB().Update(msID, func(tx *store.Tx) error {
		next = readEpoch(tx) + 1
		tx.Put(storeTable, epochKey, []byte(strconv.FormatUint(next, 10)))
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("txn: acquire coordinator epoch: %w", err)
	}
	c.epochs[msID] = next
	c.metrics.EpochAcquired.Inc()
	return next, nil
}

// epochReader is the subset of store read APIs shared by Tx and Snapshot.
type epochReader interface {
	Get(table, key string) ([]byte, bool)
}

func readEpoch(r epochReader) uint64 {
	b, ok := r.Get(storeTable, epochKey)
	if !ok {
		return 0
	}
	e, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return 0
	}
	return e
}

// putRecord durably writes a new intent record under epoch fencing.
func (c *Coordinator) putRecord(msID string, rec *intentRecord) error {
	ep, err := c.epoch(msID)
	if err != nil {
		return err
	}
	rec.Epoch = ep
	rec.UpdatedAt = c.now()
	b, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	_, err = c.Service.DB().Update(msID, func(tx *store.Tx) error {
		if readEpoch(tx) != ep {
			return ErrFenced
		}
		tx.Put(storeTable, string(rec.ID), b)
		return nil
	})
	if errors.Is(err, ErrFenced) {
		c.metrics.Fenced.Inc()
	}
	return err
}

// updateRecord mutates an existing record under epoch fencing: the update
// transaction re-reads the metastore's epoch counter and the record inside
// the store's serializable write path, so a fenced coordinator can never
// publish a state transition — the store is the linearization point for
// every commit/abort decision.
func (c *Coordinator) updateRecord(msID string, id ids.ID, mut func(rec *intentRecord) error) error {
	ep, err := c.epoch(msID)
	if err != nil {
		return err
	}
	now := c.now()
	_, err = c.Service.DB().Update(msID, func(tx *store.Tx) error {
		if readEpoch(tx) != ep {
			return ErrFenced
		}
		b, ok := tx.Get(storeTable, string(id))
		if !ok {
			return fmt.Errorf("%w: txn %s", catalog.ErrNotFound, id.Short())
		}
		rec, err := decodeRecord(b)
		if err != nil {
			return err
		}
		if err := mut(rec); err != nil {
			return err
		}
		rec.Epoch = ep
		rec.UpdatedAt = now
		nb, err := encodeRecord(rec)
		if err != nil {
			return err
		}
		tx.Put(storeTable, string(id), nb)
		return nil
	})
	if errors.Is(err, ErrFenced) {
		c.metrics.Fenced.Inc()
	}
	return err
}

// fenceCheck verifies, before a blob publish, that this coordinator still
// owns the transaction: its epoch is current, the record is still PREPARED,
// and the lease has not expired. The check-then-publish window is bounded by
// the lease (recovery only takes over PREPARED records past lease, and
// publishes are idempotent frozen bytes), which is the documented fencing
// assumption.
func (c *Coordinator) fenceCheck(msID string, id ids.ID) error {
	ep, err := c.epoch(msID)
	if err != nil {
		return err
	}
	snap, err := c.Service.DB().Snapshot(msID)
	if err != nil {
		return err
	}
	defer snap.Close()
	if readEpoch(snap) != ep {
		c.metrics.Fenced.Inc()
		return ErrFenced
	}
	b, ok := snap.Get(storeTable, string(id))
	if !ok {
		c.metrics.Fenced.Inc()
		return fmt.Errorf("%w: record vanished", ErrFenced)
	}
	rec, err := decodeRecord(b)
	if err != nil {
		return err
	}
	if rec.State != StatePrepared {
		c.metrics.Fenced.Inc()
		return fmt.Errorf("%w: record already %s", ErrFenced, rec.State)
	}
	if !c.now().Before(rec.LeaseExpiry) {
		c.metrics.Fenced.Inc()
		return fmt.Errorf("%w: lease expired", ErrFenced)
	}
	return nil
}

// --- blob publish path ---

// serviceBlobs returns the coordinator's control-plane storage access.
// Coordinator-side operations (validation snapshots, log publish,
// compensation) use standing service access, not vended tokens: the
// coordinator is the catalog, and recovery has no principal to vend for.
func (c *Coordinator) serviceBlobs() delta.Blobs {
	return delta.ServiceBlobs{Store: c.Service.Cloud()}
}

// publishOne publishes one participant's frozen log entry at path,
// classifying failures: injected storage faults of every class are transient
// (the operation is idempotent, so even a Timeout is safe to replay) and are
// retried under the publish policy; an existing entry with different bytes
// is a fatal errForeignEntry; everything else surfaces immediately.
func (c *Coordinator) publishOne(blobs delta.Blobs, path string, payload []byte) error {
	attempts := 0
	err := retry.Do(c.opts.PublishRetry, retry.Retryable, func() error {
		attempts++
		err := blobs.PutIfAbsent(path, payload)
		if err == nil {
			return nil
		}
		if errors.Is(err, cloudsim.ErrExists) {
			existing, gerr := blobs.Get(path)
			if gerr != nil {
				return gerr // injected faults retry; real errors surface
			}
			if bytes.Equal(existing, payload) {
				return nil // an earlier attempt (or a recovering peer) landed it
			}
			return fmt.Errorf("%w: %s", errForeignEntry, path)
		}
		return err
	})
	if attempts > 1 {
		c.metrics.PublishRetries.Add(int64(attempts - 1))
	}
	return err
}

// deleteIfOurs removes the log entry at path when its content matches
// payload (compensation must never delete an out-of-band writer's entry).
// Missing objects count as already-deleted. Injected faults are retried.
func (c *Coordinator) deleteIfOurs(blobs delta.Blobs, path string, payload []byte) error {
	return retry.Do(c.opts.PublishRetry, retry.Retryable, func() error {
		existing, err := blobs.Get(path)
		if err != nil {
			if errors.Is(err, cloudsim.ErrNotFound) {
				return nil
			}
			return err
		}
		if !bytes.Equal(existing, payload) {
			return nil // foreign entry: not ours to remove
		}
		if err := blobs.Delete(path); err != nil && !errors.Is(err, cloudsim.ErrNotFound) {
			return err
		}
		return nil
	})
}

// deleteStaged removes staged data-file blobs (idempotent; missing = done).
func (c *Coordinator) deleteStaged(blobs delta.Blobs, paths []string) error {
	var errs []error
	for _, p := range paths {
		err := retry.Do(c.opts.PublishRetry, retry.Retryable, func() error {
			if err := blobs.Delete(p); err != nil && !errors.Is(err, cloudsim.ErrNotFound) {
				return err
			}
			return nil
		})
		if err != nil {
			errs = append(errs, fmt.Errorf("delete staged %s: %w", p, err))
		}
	}
	return errors.Join(errs...)
}

// snapshotRetrying opens a table snapshot, retrying injected storage faults.
func (c *Coordinator) snapshotRetrying(t *delta.Table) (*delta.Snapshot, error) {
	return retry.DoValue(c.opts.PublishRetry, retry.Retryable, t.Snapshot)
}
