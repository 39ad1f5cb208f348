package cache

import (
	"testing"
	"time"

	"unitycatalog/internal/clock"
	"unitycatalog/internal/faults"
	"unitycatalog/internal/store"
)

// outage installs (and returns) an injector that fails every database
// operation with Unavailable.
func outage(db *store.DB) *faults.Injector {
	inj := faults.New(1).AddRule(faults.Rule{Class: faults.Unavailable, P: 1, RetryAfter: time.Second})
	db.SetFaults(inj)
	return inj
}

// TestDegradedServesStaleDuringOutage drives the full degradation
// lifecycle: a view pinned at an old version misses on a record that is
// cached only at a newer version; when the database is down, the cache
// serves that newer (stale with respect to the view) value instead of
// failing, flips into degraded mode, and recovers on the next successful
// reconciliation.
func TestDegradedServesStaleDuringOutage(t *testing.T) {
	db := newDB(t)
	fc := clock.NewFake(time.Unix(1000, 0))
	c := New(db, Options{Clock: fc, MaxStaleness: time.Minute})
	if err := c.Own("m"); err != nil {
		t.Fatal(err)
	}

	// Pin view A at the initial version by reading (and negative-caching) a
	// missing key while the database is healthy.
	a, _ := c.NewView("m")
	defer a.Close()
	if _, ok := a.Get("t", "absent"); ok {
		t.Fatal("absent key found")
	}

	// Another writer advances the database behind this node's back; a fresh
	// view then reads the new record, caching it at the new version only.
	if _, err := db.Update("m", func(tx *store.Tx) error {
		tx.Put("t", "k", []byte("fresh"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	b, _ := c.NewView("m")
	if got, ok := b.Get("t", "k"); !ok || string(got) != "fresh" {
		t.Fatalf("healthy read = %q %v", got, ok)
	}
	b.Close()

	// Outage. View A misses at its pinned version (the record is cached
	// only at the newer one) and the database read fails.
	outage(db)
	got, ok := a.Get("t", "k")
	if !ok || string(got) != "fresh" {
		t.Fatalf("degraded read = %q %v, want stale serve of \"fresh\"", got, ok)
	}
	m := c.Metrics()
	if m.DegradedReads != 1 || m.Outages != 1 {
		t.Fatalf("metrics after degraded read: %+v", m)
	}
	if !c.Degraded() {
		t.Fatal("cache should report degraded")
	}
	h := c.Health()
	if len(h) != 1 || h[0].MetastoreID != "m" || !h[0].Degraded {
		t.Fatalf("health = %+v", h)
	}

	// A record never cached cannot be served: degraded miss, and the view
	// records the backend error so callers can tell this from NotFound.
	if _, ok := a.Get("t", "nevercached"); ok {
		t.Fatal("uncached key served during outage")
	}
	if c.Metrics().DegradedMisses == 0 {
		t.Fatal("degraded miss not counted")
	}
	if err := a.Err(); !faults.Is(err, faults.Unavailable) {
		t.Fatalf("view error = %v, want unavailable fault", err)
	}

	// Recovery: the database comes back, reconciliation succeeds, the flag
	// clears and the known version converges to the database's.
	db.SetFaults(nil)
	if err := c.Refresh("m"); err != nil {
		t.Fatal(err)
	}
	if c.Degraded() {
		t.Fatal("cache still degraded after recovery")
	}
	if m := c.Metrics(); m.Recoveries != 1 {
		t.Fatalf("recoveries = %d", m.Recoveries)
	}
	dbV, _ := db.Version("m")
	if kv, _ := c.KnownVersion("m"); kv != dbV {
		t.Fatalf("known version %d did not converge to db version %d", kv, dbV)
	}
	fresh, _ := c.NewView("m")
	defer fresh.Close()
	if got, ok := fresh.Get("t", "k"); !ok || string(got) != "fresh" {
		t.Fatalf("post-recovery read = %q %v", got, ok)
	}
}

// TestDegradedFailsClosedPastStalenessBound verifies the bound: once the
// node has not heard from the database for longer than MaxStaleness,
// degraded reads are refused rather than served arbitrarily stale.
func TestDegradedFailsClosedPastStalenessBound(t *testing.T) {
	db := newDB(t)
	fc := clock.NewFake(time.Unix(1000, 0))
	c := New(db, Options{Clock: fc, MaxStaleness: time.Minute})
	c.Own("m")

	a, _ := c.NewView("m")
	defer a.Close()
	a.Get("t", "absent") // pin at initial version
	db.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("v")); return nil })
	b, _ := c.NewView("m")
	b.Get("t", "k")
	b.Close()

	outage(db)
	if _, ok := a.Get("t", "k"); !ok {
		t.Fatal("within bound, stale read should be served")
	}
	fc.Advance(2 * time.Minute)
	if _, ok := a.Get("t", "k"); ok {
		t.Fatal("past bound, stale read must be refused")
	}
	if m := c.Metrics(); m.DegradedDenied == 0 {
		t.Fatalf("denied not counted: %+v", m)
	}
	if err := a.Err(); !faults.Is(err, faults.Unavailable) {
		t.Fatalf("view error = %v", err)
	}
}

// TestDegradedDisabledByNegativeStaleness verifies MaxStaleness < 0 turns
// stale serving off: outages surface immediately as failed reads.
func TestDegradedDisabledByNegativeStaleness(t *testing.T) {
	db := newDB(t)
	c := New(db, Options{MaxStaleness: -1})
	c.Own("m")
	a, _ := c.NewView("m")
	defer a.Close()
	a.Get("t", "absent")
	db.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("v")); return nil })
	b, _ := c.NewView("m")
	b.Get("t", "k")
	b.Close()

	outage(db)
	if _, ok := a.Get("t", "k"); ok {
		t.Fatal("stale serving disabled, read must fail")
	}
	if m := c.Metrics(); m.DegradedDenied != 1 || m.DegradedReads != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestDegradedScanFailsWithError verifies a scan during an outage, which has
// no cached fallback, surfaces the backend error through View.Err rather
// than quietly returning an empty result.
func TestDegradedScanFailsWithError(t *testing.T) {
	db := newDB(t)
	c := New(db, Options{})
	c.Own("m")
	a, _ := c.NewView("m")
	defer a.Close()
	a.Get("t", "absent") // pin

	outage(db)
	if kvs := a.Scan("t", "prefix"); kvs != nil {
		t.Fatalf("scan during outage = %v", kvs)
	}
	if err := a.Err(); !faults.Is(err, faults.Unavailable) {
		t.Fatalf("view error = %v", err)
	}
	if m := c.Metrics(); m.Outages != 1 || m.DegradedReads != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestWriteDuringOutageFailsAndRecovers: writes cannot be served stale —
// they fail during the outage, trip degraded mode, and work again after.
func TestWriteDuringOutageFailsAndRecovers(t *testing.T) {
	db := newDB(t)
	c := New(db, Options{})
	c.Own("m")

	outage(db)
	_, err := c.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("v")); return nil })
	if !faults.Is(err, faults.Unavailable) {
		t.Fatalf("update during outage: %v", err)
	}
	if !c.Degraded() {
		t.Fatal("write failure should trip degraded mode")
	}

	db.SetFaults(nil)
	if _, err := c.Update("m", func(tx *store.Tx) error { tx.Put("t", "k", []byte("v")); return nil }); err != nil {
		t.Fatal(err)
	}
	if c.Degraded() {
		t.Fatal("successful write should clear degraded mode")
	}
	v, _ := c.NewView("m")
	defer v.Close()
	if got, ok := v.Get("t", "k"); !ok || string(got) != "v" {
		t.Fatalf("post-recovery read = %q %v", got, ok)
	}
}
