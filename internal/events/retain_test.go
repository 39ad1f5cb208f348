package events

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// stepped is a follower the test moves one step at a time: its handle and
// resync each report to the test and wait for the go-ahead, so its cursor is
// wherever the test's model says.
type stepped struct {
	f       *Follower
	steps   chan step
	ok      chan struct{}
	cursor  uint64 // the model's Follower.cursor
	pending *step  // the step the follower is blocked in, if any
	target  uint64 // the lag the test holds it at
	gaps    int
}

type step struct {
	seq    uint64 // the cursor when handle was called
	e      Event
	resync bool
	resume uint64 // for a resync: where the follower continues
}

func followStepped(b *Bus) *stepped {
	s := &stepped{steps: make(chan step), ok: make(chan struct{})}
	live := false // Follow's own resync runs on the caller's goroutine
	s.f = b.Follow("", func(e Event) {
		b.mu.Lock()
		seq := s.f.cursor
		b.mu.Unlock()
		s.steps <- step{seq: seq, e: e}
		<-s.ok
	}, func() {
		if live {
			s.steps <- step{resync: true}
			<-s.ok
		}
	})
	s.cursor, live = uint64(b.Published()), true
	return s
}

// TestRetentionMatchesReference publishes a seeded mix of events to three
// followers held at independent random lags, some past historyMax, against a
// plain []Event. After every publish: every delivered event is the one
// published at its sequence number; a follower resyncs exactly when it is more
// than historyMax behind; and the log holds exactly what the retention rule
// leaves, which is at most the slowest follower's lag plus one chunk, or for
// one that has a gap historyMax plus two chunks less two events. `make race`
// runs it twenty times.
func TestRetentionMatchesReference(t *testing.T) {
	const historyMax = 64
	rng := rand.New(rand.NewSource(37))
	b := NewBus(0, historyMax)
	var ref []Event
	next := func() uint64 { return uint64(len(ref)) }

	fs := []*stepped{followStepped(b), followStepped(b), followStepped(b)}
	var head uint64 // the model's first chunk held
	// trim is the rule, from the model's cursors: drop what lies wholly
	// before the slowest follower or more than historyMax behind.
	trim := func() {
		keep := next()
		for _, s := range fs {
			keep = min(keep, s.cursor)
		}
		if next() > historyMax {
			keep = max(keep, next()-historyMax)
		}
		head = max(head, keep/chunkLen)
	}
	// settle waits until s is blocked in its next step or has caught up, and
	// checks that step against the model.
	settle := func(s *stepped) {
		lag := next() - s.cursor
		if lag == 0 {
			s.f.Sync()
			return
		}
		st := <-s.steps
		switch {
		case lag > historyMax && !st.resync:
			t.Fatalf("a follower %d behind handled event %d instead of resyncing", lag, st.seq)
		case lag <= historyMax && st.resync:
			t.Fatalf("a follower %d behind resynced", lag)
		case st.resync:
			st.resume = next()
			s.gaps++
		case st.seq != s.cursor:
			t.Fatalf("handled event %d at cursor %d", st.seq, s.cursor)
		default:
			sameEvent(t, fmt.Sprint("event ", st.seq), st.e, ref[st.seq])
		}
		s.pending = &st
	}
	advance := func(s *stepped) {
		if st := s.pending; st.resync {
			s.cursor = st.resume
		} else {
			s.cursor = st.seq + 1
		}
		if s.pending.resync || s.cursor%chunkLen == 0 { // it enters a new chunk
			trim()
		}
		s.pending = nil
		s.ok <- struct{}{}
		settle(s)
	}

	for n := 0; n < 4000; n++ {
		if n%97 == 0 {
			for _, s := range fs {
				switch rng.Intn(4) {
				case 0:
					s.target = 0
				case 1:
					s.target = historyMax + 1 + uint64(rng.Intn(3*historyMax)) // will gap
				default:
					s.target = uint64(rng.Intn(historyMax + 1))
				}
			}
		}
		if next()%chunkLen == 0 { // a chunk opens
			trim()
		}
		e := randomEvent(rng, len(ref))
		b.Publish(e)
		ref = append(ref, e)

		slowest, gapped := uint64(0), false
		for _, s := range fs {
			if s.pending == nil {
				settle(s) // it was caught up and now holds the new event
			}
			for s.pending != nil && next()-s.cursor > s.target {
				advance(s)
			}
			slowest = max(slowest, min(next()-s.cursor, historyMax))
			gapped = gapped || next()-s.cursor > historyMax
			if lag := s.f.Lag(); lag != int64(next()-s.cursor) {
				t.Fatalf("after event %d: Lag() = %d, the model's %d", n, lag, next()-s.cursor)
			}
		}
		held := b.retained()
		if held != int64(next()-head*chunkLen) {
			t.Fatalf("after event %d: the log holds %d events, the rule %d", n, held, next()-head*chunkLen)
		}
		// A follower more than historyMax behind is held to the horizon, which
		// chunkLen does not divide: the chunk it falls in keeps up to
		// chunkLen-1 events before it, and up to chunkLen-1 more arrive
		// before the next chunk opens and trim moves it.
		bound := int64(slowest) + chunkLen
		if gapped {
			bound = historyMax + 2*chunkLen - 2
		}
		if held > bound {
			t.Fatalf("after event %d: the log holds %d events, the slowest follower lags %d", n, held, slowest)
		}
		b.mu.Lock()
		pinned := b.spare != nil && *b.spare != (chunk{})
		b.mu.Unlock()
		if pinned {
			t.Fatalf("after event %d: the spare chunk still holds events", n)
		}
	}
	for _, s := range fs {
		for s.pending != nil {
			advance(s)
		}
		if s.gaps == 0 || s.f.Resyncs() != int64(s.gaps) {
			t.Fatalf("%d resyncs, the model's %d (want some)", s.f.Resyncs(), s.gaps)
		}
		s.f.Close()
	}
	if len(b.followers) != 0 {
		t.Fatalf("%d followers listed after Close", len(b.followers))
	}
	for range chunkLen + 1 {
		b.Publish(randomEvent(rng, len(ref)))
	}
	if held := b.retained(); held > chunkLen || len(b.chunks) != 1 {
		t.Fatalf("a bus with no followers holds %d events in %d chunks, want the open chunk alone", held, len(b.chunks))
	}
}

// TestCancelDrainsWhatItHolds: a subscription cancelled with events still
// queued delivers or counts every one published before Cancel, even when
// the log moves on by several chunks while it drains. Its follower stays
// listed, so the chunks it has yet to read stay held, until its goroutine
// exits; a follower unlisted at Close read dropped chunks here (the race is
// lost in about one round in twenty, hence ten rounds).
func TestCancelDrainsWhatItHolds(t *testing.T) {
	for round := 0; round < 10; round++ {
		b := NewBus(1, 1024)
		sub := b.Subscribe()
		publish := func(from, n int) {
			for v := from; v < from+n; v++ {
				b.Publish(Event{Metastore: "m", Version: uint64(v)})
			}
		}
		const before = 12 * chunkLen
		publish(1, before) // the pump delivers one and blocks on the next
		moved := make(chan struct{})
		go func() { // runs the moment Close has fixed the follower's end
			b.mu.Lock()
			for sub.f.end == math.MaxUint64 {
				b.published.Wait()
			}
			b.mu.Unlock()
			publish(before+1, 3*chunkLen)
			close(moved)
		}()
		sub.Cancel()
		<-moved
		var got []uint64
		for e := range sub.C {
			got = append(got, e.Version)
		}
		for i, v := range got {
			if v != uint64(i+1) {
				t.Fatalf("round %d: delivered %v, want versions 1.. in order", round, got)
			}
		}
		if n := int64(len(got)) + sub.Dropped(); n != before || len(got) == 0 {
			t.Fatalf("round %d: delivered %d + dropped %d, want the %d published before Cancel", round, len(got), sub.Dropped(), before)
		}
	}
}

// TestChunkReuseAllocs: a log that holds what its followers still need opens
// each chunk in the spare, so a chunk's worth of publishes allocates
// nothing, with no follower and with one that keeps up. (AllocsPerRun over
// single publishes would round one chunk in chunkLen publishes down to 0.)
func TestChunkReuseAllocs(t *testing.T) {
	b := NewBus(0, 0)
	ev := catalogEvent()
	publishChunk := func() {
		for range chunkLen {
			ev.Version++
			b.Publish(ev)
		}
	}
	publishChunk()
	if allocs := testing.AllocsPerRun(20, publishChunk); allocs != 0 {
		t.Fatalf("%d publishes with no follower allocate %.0f times, want 0", chunkLen, allocs)
	}
	f := b.Follow("", func(Event) {}, func() {})
	defer f.Close()
	publishChunk()
	f.Sync()
	if allocs := testing.AllocsPerRun(20, func() { publishChunk(); f.Sync() }); allocs != 0 {
		t.Fatalf("%d publishes delivered to a follower allocate %.0f times, want 0", chunkLen, allocs)
	}
}

// TestChunkFillsItsClass: a chunk's slots and the 8-byte header Go gives an
// object of pointers fill the 6 KiB malloc class (runtime.MemStats.TotalAlloc
// counts the class); a 64th slot would take the 6,528-byte one.
func TestChunkFillsItsClass(t *testing.T) {
	const n = 200
	keep := make([]*chunk, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = new(chunk)
	}
	runtime.ReadMemStats(&after)
	// Another goroutine's allocations may add a few bytes a chunk.
	if got := (after.TotalAlloc - before.TotalAlloc) / n; got < 6144 || got >= 6144+64 {
		t.Fatalf("a chunk of %d slots takes %d bytes, want 6,144", chunkLen, got)
	}
}
