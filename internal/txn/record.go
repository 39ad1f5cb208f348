package txn

import (
	"encoding/json"
	"fmt"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/ids"
)

// State is the durable lifecycle state of a transaction's intent record.
//
//	PREPARED  --(all entries published, flip)-->  COMMITTED
//	PREPARED  --(conflict / fault / lease expiry with nothing published)--> ABORTED
//
// PREPARED means the outcome is undecided: the intent (participants, pinned
// versions, and the byte-exact log entries to publish) is durable, and the
// coordinator may be mid-publish. COMMITTED and ABORTED are terminal
// decisions; a COMMITTED record whose participants are not all published is
// rolled forward by recovery, an ABORTED record whose cleanup did not finish
// (Dirty) is re-cleaned by recovery.
type State string

// Transaction record states.
const (
	StatePrepared  State = "PREPARED"
	StateCommitted State = "COMMITTED"
	StateAborted   State = "ABORTED"
)

// storeTable is the catalog store table holding transaction intent records.
// Intent writes ride the store's group-commit WAL like every other metadata
// commit, so a record the coordinator observed as durable survives a crash.
const storeTable = "multitable_txn"

// epochKey is the reserved key (never a valid ids.ID) holding the metastore's
// coordinator epoch; see Coordinator epoch fencing.
const epochKey = "!coordinator_epoch"

// participantRecord is one table's slice of a durable intent record: enough
// to republish (roll forward) or compensate (roll back) without the
// originating process.
type participantRecord struct {
	// Name is the securable full name (catalog.schema.table).
	Name string `json:"name"`
	// EntityID is the resolved securable, for audit and change events.
	EntityID ids.ID `json:"entity_id,omitempty"`
	// TablePath is the table's storage root.
	TablePath string `json:"table_path"`
	// Base is the pinned snapshot version; Target = Base+1 is the version
	// this transaction publishes.
	Base   int64 `json:"base"`
	Target int64 `json:"target"`
	// Payload is the byte-exact log entry to publish at Target. Publishing
	// is PutIfAbsent of these frozen bytes, so republish is idempotent and
	// an existing entry is ours iff it matches byte-for-byte.
	Payload []byte `json:"payload,omitempty"`
	// Staged are data-file blob paths written eagerly by StageAppend; they
	// are garbage unless the transaction commits.
	Staged []string `json:"staged,omitempty"`
	// Published is durable progress: set after this participant's log entry
	// landed. A recovery hint only — the ground truth is storage itself,
	// probed by payload comparison.
	Published bool `json:"published,omitempty"`
}

// intentRecord is the durable two-phase commit record.
type intentRecord struct {
	ID        ids.ID `json:"id"`
	Principal string `json:"principal"`
	State     State  `json:"state"`
	// Epoch is the coordinator epoch that last owned this record; a
	// coordinator only mutates records while its epoch is current.
	Epoch uint64 `json:"epoch"`
	// LeaseExpiry bounds how long the owning coordinator may keep
	// publishing. Recovery never touches a PREPARED record before its lease
	// expires, so a live coordinator and a recovering one cannot both act.
	LeaseExpiry  time.Time           `json:"lease_expiry"`
	Participants []participantRecord `json:"participants,omitempty"`
	// Tables is the legacy "full name -> target version" summary kept for
	// the Record API and old-format WAL records.
	Tables map[string]int64 `json:"tables,omitempty"`
	// Dirty marks an ABORTED record whose compensation (published-entry or
	// staged-file deletion) has not verifiably finished; the recovery sweep
	// retries cleanup until it clears. CleanupErr records the last failure
	// so a half-compensated abort is visible, not silent.
	Dirty      bool      `json:"dirty,omitempty"`
	CleanupErr string    `json:"cleanup_err,omitempty"`
	UpdatedAt  time.Time `json:"updated_at,omitempty"`
}

// encodeRecord marshals a record for the store.
func encodeRecord(rec *intentRecord) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("txn: encode record %s: %w", rec.ID.Short(), err)
	}
	return b, nil
}

// decodeRecord unmarshals a record, tolerating the legacy pre-recovery
// format (no participants, only the Tables summary).
func decodeRecord(b []byte) (*intentRecord, error) {
	var rec intentRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("txn: corrupt transaction record: %w", err)
	}
	return &rec, nil
}

// allPublished reports whether every participant's progress flag is set.
func (r *intentRecord) allPublished() bool {
	for i := range r.Participants {
		if !r.Participants[i].Published {
			return false
		}
	}
	return true
}

// Record fetches a transaction's durable record (for tests and tooling):
// its terminal-or-in-flight state and the per-table target versions.
func (c *Coordinator) Record(msID string, id ids.ID) (state string, tables map[string]int64, err error) {
	snap, err := c.Service.DB().Snapshot(msID)
	if err != nil {
		return "", nil, err
	}
	defer snap.Close()
	b, ok := snap.Get(storeTable, string(id))
	if !ok {
		return "", nil, fmt.Errorf("%w: txn %s", catalog.ErrNotFound, id.Short())
	}
	rec, err := decodeRecord(b)
	if err != nil {
		return "", nil, err
	}
	tables = map[string]int64{}
	for k, v := range rec.Tables {
		tables[k] = v
	}
	for _, p := range rec.Participants {
		tables[p.Name] = p.Target
	}
	return string(rec.State), tables, nil
}
