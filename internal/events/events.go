// Package events implements the metadata change event stream that bridges
// the Unity Catalog core service and second-tier discovery services
// (paper §4.4), and that the cache layer uses for selective reconciliation
// (paper §4.5).
//
// The stream is one fixed ring indexed by publish sequence number. Publish
// writes one slot; readers are Followers that pull by cursor on their own
// goroutines, so a slow reader costs the publisher nothing. Loss has one
// definition: a follower whose cursor has been overwritten has a gap, and
// rebuilds from the source of truth once (see Follow). Events are ordered
// per metastore by the metastore version that produced them.
package events

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"unitycatalog/internal/ids"
	"unitycatalog/internal/obs"
	"unitycatalog/internal/store"
)

// Op is the kind of change an event describes.
type Op string

// Change operations.
const (
	OpCreate Op = "CREATE"
	OpUpdate Op = "UPDATE"
	OpDelete Op = "DELETE"
	OpGrant  Op = "GRANT"
	OpRevoke Op = "REVOKE"
	OpTag    Op = "TAG"
	OpCommit Op = "COMMIT" // table data commit (new table version)
	OpChange Op = "CHANGE" // store commit with no higher-level annotation
)

// Change names one store record touched by a commit (see Event.Changes).
type Change = store.Change

// Event is one metadata change.
type Event struct {
	Metastore string    `json:"metastore"`
	Version   uint64    `json:"version"` // metastore version that produced it
	Op        Op        `json:"op"`
	EntityID  ids.ID    `json:"entity_id,omitempty"`
	Type      string    `json:"type,omitempty"` // securable type
	FullName  string    `json:"full_name,omitempty"`
	Principal string    `json:"principal,omitempty"`
	Detail    string    `json:"detail,omitempty"`
	Time      time.Time `json:"time"`
	// Changes is not filled by the catalog service and has no reader; it
	// stays declared because the benchmark's trace probe constructs it.
	Changes []Change `json:"changes,omitempty"`
}

// Bus is the event log. The zero value is not usable; call NewBus.
type Bus struct {
	mu        sync.Mutex
	published *sync.Cond // followers wait here for the next event
	handled   *sync.Cond // Sync waits here for a follower's progress
	ring      []Event    // event n is in ring[n%len(ring)]
	next      uint64     // events published so far = the next sequence number
	buf       int        // channel depth of a Subscription
	followers []*Follower
}

// NewBus returns a Bus that retains the last historyMax events (0 means
// 8192) and whose Subscriptions buffer up to buf more (0 means 1024).
func NewBus(buf, historyMax int) *Bus {
	if buf <= 0 {
		buf = 1024
	}
	if historyMax <= 0 {
		historyMax = 8192
	}
	b := &Bus{ring: make([]Event, historyMax), buf: buf}
	b.published, b.handled = sync.NewCond(&b.mu), sync.NewCond(&b.mu)
	return b
}

// Publish appends e to the log. It never blocks on a reader and allocates
// nothing: it runs inside the store's commit turnstile.
func (b *Bus) Publish(e Event) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	b.mu.Lock()
	b.ring[b.next%uint64(len(b.ring))] = e
	b.next++
	b.mu.Unlock()
	b.published.Broadcast()
}

// Published returns the total number of events published.
func (b *Bus) Published() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int64(b.next)
}

// Follower reads the log by cursor on a goroutine of its own.
type Follower struct {
	bus    *Bus
	name   string
	handle func(Event)
	resync func()
	done   chan struct{}

	// Guarded by bus.mu.
	cursor uint64 // next sequence number to handle
	end    uint64 // stop once cursor reaches it; Close lowers it

	resyncs atomic.Int64 // gaps, each recovered by one resync
	lost    atomic.Int64 // events never handled: skipped by gaps, or refused by handle
}

// Follow starts a follower at the current end of the log: handle is called
// for every later event, in publish order, on the follower's goroutine.
//
// resync rebuilds the follower's state from the source of truth. Follow
// calls it once before returning, after fixing the cursor (a new follower
// has seen nothing, which is what a gap leaves behind); the follower calls it
// once each time its cursor falls off the ring and continues from the
// sequence number observed before that call began. Events published while
// resync runs are thus handled after it, on state that already includes
// them: handle must be idempotent against current state.
//
// name labels the follower's lag and resync metrics ("" exports none).
func (b *Bus) Follow(name string, handle func(Event), resync func()) *Follower {
	f := b.newFollower(name, handle, resync)
	go f.run()
	return f
}

func (b *Bus) newFollower(name string, handle func(Event), resync func()) *Follower {
	f := &Follower{bus: b, name: name, handle: handle, resync: resync, done: make(chan struct{}), end: math.MaxUint64}
	b.mu.Lock()
	f.cursor = b.next
	b.followers = append(b.followers, f)
	b.mu.Unlock()
	resync()
	return f
}

func (f *Follower) run() {
	b := f.bus
	b.mu.Lock()
	for f.cursor < f.end {
		switch behind := b.next - f.cursor; {
		case behind == 0:
			b.published.Wait()
			continue
		case behind > uint64(len(b.ring)):
			resume := b.next
			f.lost.Add(int64(behind))
			f.resyncs.Add(1)
			b.mu.Unlock()
			f.resync()
			b.mu.Lock()
			f.cursor = resume
		default:
			e := b.ring[f.cursor%uint64(len(b.ring))]
			b.mu.Unlock()
			f.handle(e)
			b.mu.Lock()
			f.cursor++
		}
		b.handled.Broadcast()
	}
	b.mu.Unlock()
	b.handled.Broadcast()
	close(f.done)
}

// Sync blocks until the follower has handled (or resynced past) everything
// published before the call, or has been closed.
func (f *Follower) Sync() {
	b := f.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	for target := b.next; f.cursor < min(target, f.end); {
		b.handled.Wait()
	}
}

// Close stops the follower once it has handled what was published before
// the call, and waits for its goroutine. It must not be called from handle
// or resync.
func (f *Follower) Close() {
	b := f.bus
	b.mu.Lock()
	f.end = min(f.end, b.next)
	b.followers = slices.DeleteFunc(b.followers, func(g *Follower) bool { return g == f })
	b.mu.Unlock()
	b.published.Broadcast()
	<-f.done
}

// Lag reports how many published events the follower has yet to handle.
func (f *Follower) Lag() int64 {
	f.bus.mu.Lock()
	defer f.bus.mu.Unlock()
	return int64(f.bus.next - f.cursor)
}

// Resyncs reports how many gaps the follower has recovered from.
func (f *Follower) Resyncs() int64 { return f.resyncs.Load() }

// RegisterMetrics exposes the log's publish count and, for every named
// follower alive at scrape time, its lag and resync count.
func (b *Bus) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounterFunc("uc_events_published_total", "Change events published.", b.Published)
	perFollower := func(name, help, kind string, value func(*Follower) int64) {
		r.RegisterCustom(name, help, kind, func(w io.Writer, name string) {
			b.mu.Lock()
			defer b.mu.Unlock()
			for _, f := range b.followers {
				if f.name != "" {
					fmt.Fprintf(w, "%s{follower=%q} %d\n", name, f.name, value(f))
				}
			}
		})
	}
	perFollower("uc_events_follower_lag", "Published events the follower has yet to handle.", "gauge",
		func(f *Follower) int64 { return int64(b.next - f.cursor) })
	perFollower("uc_events_follower_resyncs_total", "Times the follower fell off the ring and rebuilt its state.", "counter",
		func(f *Follower) int64 { return f.resyncs.Load() })
}

// Subscription is the channel view of a follower. A subscriber that stops
// reading C holds its follower, which then falls off the ring like any
// other; Dropped counts what it missed.
type Subscription struct {
	// C delivers events in publish order. It is closed after Cancel, once
	// the events published before Cancel have been delivered.
	C <-chan Event

	f    *Follower
	stop chan struct{}
	once sync.Once
}

// Subscribe registers a new subscriber.
func (b *Bus) Subscribe() *Subscription {
	c := make(chan Event, b.buf) // NewBus's buf: how far a reader may trail its follower
	s := &Subscription{C: c, stop: make(chan struct{})}
	s.f = b.newFollower("", func(e Event) {
		select {
		case c <- e:
		case <-s.stop: // cancelled: hand over what still fits, never block
			select {
			case c <- e:
			default:
				s.f.lost.Add(1)
			}
		}
	}, func() {})
	// The pump is the only sender on c, so it is also the one to close it.
	go func() { s.f.run(); close(c) }()
	return s
}

// Dropped reports how many events were never delivered because the
// subscriber fell behind.
func (s *Subscription) Dropped() int64 { return s.f.lost.Load() }

// Cancel ends the subscription; it does not wait for a reader.
func (s *Subscription) Cancel() {
	s.once.Do(func() { close(s.stop) })
	s.f.Close()
}
