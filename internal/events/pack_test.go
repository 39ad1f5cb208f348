package events

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
)

// catalogEvent has the shape catalog.onCommit publishes: every field but
// Changes, the time from a real clock.
func catalogEvent() Event {
	return Event{Metastore: "ms1", Version: 1, Op: OpUpdate, EntityID: "0192a3b4c5d6e7f8a9b0c1d2e3f4a5b6",
		Type: string(erm.TypeTable), FullName: "sales.raw.orders", Principal: "admin", Detail: "comment", Time: time.Now()}
}

// txnEvent has the shape internal/txn publishes: no version, no time (Publish
// stamps it).
func txnEvent() Event {
	return Event{Metastore: "ms1", Op: OpCommit, EntityID: "0192a3b4c5d6e7f8a9b0c1d2e3f4a5b6",
		Type: string(erm.TypeTable), FullName: "sales.raw.orders", Principal: "admin", Detail: "txn 0192a3b4"}
}

var (
	allOps   = []Op{OpCreate, OpUpdate, OpDelete, OpGrant, OpRevoke, OpTag, OpCommit, OpChange, "", "RENAME", "op with spaces"}
	allTypes = []erm.SecurableType{"", erm.TypeMetastore, erm.TypeCatalog, erm.TypeSchema, erm.TypeTable,
		erm.TypeView, erm.TypeVolume, erm.TypeFunction, erm.TypeRegisteredModel, erm.TypeModelVersion,
		erm.TypeExternalLocation, erm.TypeStorageCredential, erm.TypeConnection, erm.TypeShare,
		erm.TypeRecipient, "WIDGET"}
)

// randomEvent is a seeded mix of what a bus may be handed: every Op and
// securable type and some strings that are neither, times in UTC, Local and a
// third zone, with and without a monotonic reading or int64 nanoseconds,
// txn-style Version 0 announcements, and Changes (empty but non-nil too).
func randomEvent(rng *rand.Rand, i int) Event {
	e := Event{
		Metastore: []string{"ms1", "ms2", ""}[rng.Intn(3)],
		Version:   uint64(i + 1),
		Op:        allOps[rng.Intn(len(allOps))],
		Type:      string(allTypes[rng.Intn(len(allTypes))]),
	}
	if rng.Intn(5) == 0 {
		e.Version = 0
	}
	if rng.Intn(8) == 0 {
		e.Type = fmt.Sprintf("TYPE_%d", rng.Intn(4))
	}
	if rng.Intn(4) > 0 {
		e.EntityID = ids.ID(fmt.Sprintf("%032x", rng.Uint64()))
		e.FullName = fmt.Sprintf("c%d.s%d.t%d", rng.Intn(3), rng.Intn(3), i)
		e.Principal = []string{"admin", "alice", "svc-etl"}[rng.Intn(3)]
	}
	if rng.Intn(3) == 0 {
		e.Detail = fmt.Sprintf("txn %08x", rng.Uint32())
	}
	switch rng.Intn(10) {
	case 0:
		e.Changes = []Change{{Version: e.Version, Table: "entity", Key: string(e.EntityID)}}
	case 1:
		e.Changes = []Change{}
	}
	at := time.Unix(1_700_000_000+int64(i), int64(rng.Intn(1e9)))
	switch rng.Intn(6) {
	case 0:
		e.Time = at
	case 1:
		e.Time = at.UTC()
	case 2:
		e.Time = at.In(time.FixedZone("UTC+5:30", 5*3600+1800))
	case 3:
		e.Time = time.Date(1, 1, 2, 3, 4, 5, 6, time.UTC) // outside int64 nanoseconds
	case 4, 5:
		e.Time = time.Now() // carries a monotonic reading
	}
	return e
}

// sameEvent holds a delivered event to the one published: times equal as
// instants, in the same zone, with no monotonic reading; every other field
// identical.
func sameEvent(t *testing.T, what string, got, want Event) {
	t.Helper()
	if !got.Time.Equal(want.Time) || got.Time.Location() != want.Time.Location() {
		t.Fatalf("%s: time %v (%v), want %v (%v)", what, got.Time, got.Time.Location(), want.Time, want.Time.Location())
	}
	if got.Time != got.Time.Round(0) {
		t.Fatalf("%s: delivered time %v carries a monotonic reading", what, got.Time)
	}
	got.Time, want.Time = time.Time{}, time.Time{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestPackedRingMatchesReference publishes a seeded mix of events through a
// 64-slot ring and a plain []Event, to a follower that the test holds while
// the log laps it, and holds every event delivered to the one published at
// its sequence number. `make race` runs it twenty times.
func TestPackedRingMatchesReference(t *testing.T) {
	const ring = 64
	rng := rand.New(rand.NewSource(28))
	b := NewBus(0, ring)
	var ref []Event // the n-th event published is ref[n]

	type delivered struct {
		seq uint64
		e   Event
	}
	var (
		gate = newHeld() // only its hold and release are used
		mu   sync.Mutex
		got  []delivered
		f    *Follower
	)
	f = b.Follow("ref", func(e Event) {
		if gate.armed.CompareAndSwap(true, false) {
			gate.entered <- struct{}{}
			<-gate.open
		}
		b.mu.Lock()
		seq := f.cursor // run advances the cursor once handle returns
		b.mu.Unlock()
		mu.Lock()
		got = append(got, delivered{seq, e})
		mu.Unlock()
	}, func() {})
	defer f.Close()

	publish := func(n int) {
		for range n {
			e := randomEvent(rng, len(ref))
			b.Publish(e)
			ref = append(ref, e)
		}
	}
	laps := 0
	for round := 0; round < 60; round++ {
		if rng.Intn(4) == 0 {
			gate.hold(func() { publish(1) })
			publish(ring + 1 + rng.Intn(2*ring)) // more than the ring past the event in hand
			gate.release()
			laps++
		} else {
			publish(rng.Intn(ring))
		}
		f.Sync()
	}
	publish(1) // so that every lap is followed by a delivery
	f.Sync()

	mu.Lock()
	defer mu.Unlock()
	jumps := 0
	for i, d := range got {
		sameEvent(t, fmt.Sprintf("event %d (%d-th delivered)", d.seq, i), d.e, ref[d.seq])
		if i > 0 && d.seq != got[i-1].seq+1 {
			if d.seq <= got[i-1].seq {
				t.Fatalf("delivered %d after %d", d.seq, got[i-1].seq)
			}
			jumps++
		}
	}
	if laps == 0 || f.Resyncs() != int64(laps) || jumps != laps {
		t.Fatalf("%d laps: %d resyncs, %d gaps in the delivered sequence", laps, f.Resyncs(), jumps)
	}
	if last := got[len(got)-1].seq; last != uint64(len(ref)-1) {
		t.Fatalf("last delivered is event %d of %d", last, len(ref))
	}
	if b.Spilled() == 0 || b.Spilled() == int64(len(ref)) {
		t.Fatalf("%d of %d events spilled: the mix must exercise both forms", b.Spilled(), len(ref))
	}
}

// TestSpilledEventsDeliveredIntact: an event with Changes, a time in a third
// zone or outside int64 nanoseconds, or a name past the name table's
// 65,535th reaches a follower as it was published, and Spilled counts it.
func TestSpilledEventsDeliveredIntact(t *testing.T) {
	b := NewBus(0, 16)
	b.Publish(catalogEvent()) // its names are numbered before the table fills
	for i := 0; len(b.names) < math.MaxUint16; i++ {
		b.Publish(Event{Metastore: "ms1", Op: OpChange, Type: fmt.Sprint("T", i)})
	}
	before := b.Spilled()
	var got []Event
	f := b.Follow("", func(e Event) { got = append(got, e) }, func() {})

	base := catalogEvent()
	with := func(edit func(*Event)) Event { e := base; edit(&e); return e }
	spills := []Event{
		with(func(e *Event) { e.Changes = []Change{{Version: 1, Table: "entity", Key: "k"}} }),
		with(func(e *Event) { e.Time = e.Time.In(time.FixedZone("CET", 3600)) }),
		with(func(e *Event) { e.Time = time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC) }),
		with(func(e *Event) { e.Type = "NEW_TYPE" }),
		with(func(e *Event) { e.Metastore = "ms-new" }),
		with(func(e *Event) { e.Op = "NEW_OP" }),
	}
	packs := []Event{
		with(func(e *Event) { e.Type = "T7" }), // numbered before the table filled
		with(func(e *Event) { e.Time = e.Time.UTC() }),
	}
	for _, e := range append(spills, packs...) {
		b.Publish(e)
	}
	f.Close()
	for i, want := range append(spills, packs...) {
		sameEvent(t, fmt.Sprint("event ", i), got[i], want)
	}
	if n := b.Spilled() - before; n != int64(len(spills)) {
		t.Fatalf("%d events spilled, want %d", n, len(spills))
	}
}

// TestPublishDeliverAllocs: a slot is 96 bytes, and publishing the events the
// catalog and internal/txn publish, and delivering them to a follower,
// allocates nothing once their names are numbered. `make allocs` runs it.
func TestPublishDeliverAllocs(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 96 {
		t.Fatalf("a slot is %d bytes, want 96", n)
	}
	b := NewBus(0, 0)
	var last Event
	f := b.Follow("", func(e Event) { last = e }, func() {})
	defer f.Close()
	cat, tx := catalogEvent(), txnEvent()
	for b.Published() < 10000 { // past the default historyMax, 8,192
		cat.Version++
		b.Publish(cat)
		b.Publish(tx)
	}
	f.Sync()
	allocs := testing.AllocsPerRun(1000, func() {
		cat.Version++
		cat.Time = time.Now()
		b.Publish(cat)
		f.Sync()
		b.Publish(tx)
		f.Sync()
	})
	t.Logf("publish and deliver a catalog and a txn event: %.2f allocations", allocs)
	if allocs != 0 {
		t.Fatalf("Publish and delivery allocate %.2f times per pair of events, want 0", allocs)
	}
	b.Publish(cat)
	f.Sync()
	sameEvent(t, "last delivered", last, cat)
	if b.Spilled() != 0 {
		t.Fatalf("%d catalog or txn events spilled", b.Spilled())
	}
}
