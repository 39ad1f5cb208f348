package events

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPublishSubscribe(t *testing.T) {
	b := NewBus(0, 0)
	sub := b.Subscribe()
	defer sub.Cancel()
	b.Publish(Event{Metastore: "m", Version: 1, Op: OpCreate, FullName: "c.s.t"})
	select {
	case e := <-sub.C:
		if e.Op != OpCreate || e.FullName != "c.s.t" || e.Time.IsZero() {
			t.Fatalf("event = %+v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("no event delivered")
	}
	if b.Published() != 1 {
		t.Fatalf("published = %d", b.Published())
	}
}

func TestMultipleSubscribers(t *testing.T) {
	b := NewBus(0, 0)
	s1, s2 := b.Subscribe(), b.Subscribe()
	defer s1.Cancel()
	defer s2.Cancel()
	b.Publish(Event{Metastore: "m", Version: 1, Op: OpUpdate})
	for i, s := range []*Subscription{s1, s2} {
		select {
		case <-s.C:
		case <-time.After(time.Second):
			t.Fatalf("subscriber %d starved", i)
		}
	}
}

// A subscriber that never reads holds its pump; the publisher must not
// notice, and the loss must be reported once the pump falls off the ring.
func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	b := NewBus(4, 8)
	sub := b.Subscribe()
	defer sub.Cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			b.Publish(Event{Metastore: "m", Version: uint64(i)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("publisher blocked on slow subscriber")
	}
	// Nobody read while 100 events went through a ring of 8 and a channel of
	// 4: once a reader makes room the pump moves on, finds its cursor
	// overwritten, and counts what it skipped.
	go func() {
		for range sub.C {
		}
	}()
	sub.f.Sync()
	if sub.Dropped() == 0 {
		t.Fatal("expected drops for a slow subscriber")
	}
}

// Cancel delivers what was published before it, then closes C; publishing
// afterwards is safe.
func TestCancelClosesChannel(t *testing.T) {
	b := NewBus(0, 0)
	sub := b.Subscribe()
	for v := uint64(1); v <= 3; v++ {
		b.Publish(Event{Metastore: "m", Version: v})
	}
	sub.Cancel()
	sub.Cancel() // idempotent
	var got []uint64
	for e := range sub.C {
		got = append(got, e.Version)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("delivered before close = %v, want [1 2 3]", got)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped = %d", sub.Dropped())
	}
	b.Publish(Event{Metastore: "m", Version: 4})
}

// Cancel with nobody reading a full channel must return: what does not fit
// is abandoned and counted.
func TestCancelDoesNotWaitForReader(t *testing.T) {
	b := NewBus(2, 0)
	sub := b.Subscribe()
	for v := uint64(1); v <= 10; v++ {
		b.Publish(Event{Metastore: "m", Version: v})
	}
	sub.Cancel()
	n := 0
	for range sub.C {
		n++
	}
	if n < 2 || int64(n)+sub.Dropped() != 10 {
		t.Fatalf("delivered %d + dropped %d, want 10 in total and at least the 2 buffered", n, sub.Dropped())
	}
}

// TestSubscribeCancelRacesPublish is the commit path's safety property:
// Publish runs inside the store's apply turnstile and must survive any
// interleaving with subscribers coming and going (the channel fan-out this
// ring replaced died here with "send on closed channel" within milliseconds).
// Run under -race by `make race`.
func TestSubscribeCancelRacesPublish(t *testing.T) {
	b := NewBus(4, 64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := uint64(1); ; v++ {
				select {
				case <-stop:
					return
				default:
					b.Publish(Event{Metastore: "m", Version: v})
				}
			}
		}()
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sub := b.Subscribe()
				if (i+s)%2 == 0 {
					select {
					case <-sub.C:
					case <-stop:
					}
				}
				sub.Cancel()
				for range sub.C { // must end: Cancel closes C
				}
			}
		}(s)
	}
	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()
	if b.Published() == 0 {
		t.Fatal("nothing was published")
	}
}

// TestPublishCostFlat: once the ring has wrapped, a publish costs what it
// cost when the log was empty, and allocates nothing (the history slice this
// ring replaced re-copied itself on every publish past its bound: 2
// allocations, 3.1 MB and ~14,000x the time).
func TestPublishCostFlat(t *testing.T) {
	b := NewBus(0, 0)
	ev := Event{Metastore: "m", Op: OpUpdate, FullName: "c.s.t", Time: time.Now(), Changes: []Change{{Table: "entity", Key: "k"}}}
	// Best of ten batches of 100: the floor, not the scheduler's noise.
	perPublish := func() time.Duration {
		best := time.Duration(1 << 62)
		for batch := 0; batch < 10; batch++ {
			start := time.Now()
			for i := 0; i < 100; i++ {
				ev.Version++
				b.Publish(ev)
			}
			best = min(best, time.Since(start)/100)
		}
		return best
	}
	for b.Published() < 100 {
		ev.Version++
		b.Publish(ev)
	}
	early := perPublish()
	for b.Published() < 10000 { // the default ring holds 8,192
		ev.Version++
		b.Publish(ev)
	}
	late := perPublish()
	t.Logf("publish: %v near the 100th, %v past the 10,000th", early, late)
	if late > 3*early+50*time.Nanosecond {
		t.Fatalf("publish cost grew from %v to %v once the ring wrapped", early, late)
	}
	if allocs := testing.AllocsPerRun(1000, func() { ev.Version++; b.Publish(ev) }); allocs != 0 {
		t.Fatalf("Publish allocates %.0f times per call with the ring full, want 0", allocs)
	}
}

// held is a follower the test can hold inside handle, so the test decides
// when it falls behind.
type held struct {
	mu       sync.Mutex
	seen     []uint64 // versions handled since the last resync
	resyncs  int
	onResync func()

	armed         atomic.Bool
	entered, open chan struct{}
}

func newHeld() *held { return &held{entered: make(chan struct{}), open: make(chan struct{})} }

func (h *held) handle(e Event) {
	if h.armed.CompareAndSwap(true, false) {
		h.entered <- struct{}{}
		<-h.open
	}
	h.mu.Lock()
	h.seen = append(h.seen, e.Version)
	h.mu.Unlock()
}

func (h *held) resync() {
	h.mu.Lock()
	h.resyncs++
	h.seen = nil
	h.mu.Unlock()
	if h.onResync != nil {
		h.onResync()
	}
}

// hold returns once the follower is inside handle with the one event that
// publishOne publishes, where it stays until release. The follower must be
// idle (Sync) when hold is called.
func (h *held) hold(publishOne func()) {
	h.armed.Store(true)
	publishOne()
	<-h.entered
}

func (h *held) release() { h.open <- struct{}{} }

// TestGapResyncsOncePerEpisode: a follower overrun on a ring of 16 resyncs
// exactly once per episode and then sees every later event in order —
// including the ones published while the resync ran; a follower that keeps
// up never resyncs and sees everything.
func TestGapResyncsOncePerEpisode(t *testing.T) {
	const ring = 16
	b := NewBus(0, ring)
	slow, fast := newHeld(), newHeld()
	fs := b.Follow("slow", slow.handle, slow.resync)
	defer fs.Close()
	ff := b.Follow("fast", fast.handle, fast.resync)
	defer ff.Close()
	if slow.resyncs != 1 || fast.resyncs != 1 || fs.Resyncs() != 0 {
		t.Fatalf("Follow must resync once up front and count no gap: %d, %d, %d", slow.resyncs, fast.resyncs, fs.Resyncs())
	}

	v := uint64(0) // versions are publish sequence numbers + 1
	publish := func(n int) {
		for i := 0; i < n; i++ {
			v++
			b.Publish(Event{Metastore: "m", Version: v})
		}
	}
	slow.onResync = func() { publish(3) } // the log moves on while the follower rebuilds
	for episode := 1; episode <= 2; episode++ {
		slow.hold(func() { publish(1) })
		for i := 1; i < 5*ring; i++ {
			publish(1)
			ff.Sync() // the fast follower keeps up by construction
		}
		if lag := fs.Lag(); lag <= ring {
			t.Fatalf("episode %d: held follower lags %d, want more than the ring", episode, lag)
		}
		lost := v
		slow.release()
		fs.Sync()
		publish(ring / 2)
		fs.Sync()
		if got := fs.Resyncs(); got != int64(episode) {
			t.Fatalf("episode %d: %d resyncs, want %d", episode, got, episode)
		}
		// The follower continues from the sequence number it observed before
		// the resync began: everything after the overrun, in publish order.
		if want := int(v - lost); len(slow.seen) != want {
			t.Fatalf("episode %d: saw %v after the resync, want the %d events from version %d on", episode, slow.seen, want, lost+1)
		}
		for i, got := range slow.seen {
			if got != lost+1+uint64(i) {
				t.Fatalf("episode %d: saw %v after the resync, want versions %d..%d in order", episode, slow.seen, lost+1, v)
			}
		}
	}
	ff.Sync()
	if ff.Resyncs() != 0 || fast.resyncs != 1 {
		t.Fatalf("a follower that keeps up resynced: %d gaps", ff.Resyncs())
	}
	if len(fast.seen) != int(v) {
		t.Fatalf("fast follower saw %d of %d events", len(fast.seen), v)
	}
	for i, got := range fast.seen {
		if got != uint64(i+1) {
			t.Fatalf("fast follower: event %d has version %d", i, got)
		}
	}
}

// Close handles what was published before it and then stops; Sync on a
// closed follower returns.
func TestFollowerCloseDrains(t *testing.T) {
	b := NewBus(0, 0)
	h := newHeld()
	f := b.Follow("", h.handle, h.resync)
	for v := uint64(1); v <= 50; v++ {
		b.Publish(Event{Metastore: "m", Version: v})
	}
	f.Close()
	if len(h.seen) != 50 {
		t.Fatalf("handled %d of 50 events published before Close", len(h.seen))
	}
	b.Publish(Event{Metastore: "m", Version: 51})
	f.Sync()
	f.Close()
	if len(h.seen) != 50 {
		t.Fatal("a closed follower handled a later event")
	}
}
