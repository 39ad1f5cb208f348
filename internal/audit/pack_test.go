package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"unitycatalog/internal/clock"
	"unitycatalog/internal/ids"
)

// sameRecords compares what the log gave back with what was appended, field
// for field: the JSON form carries every field (the time to the nanosecond,
// with its zone offset), and the zone's name is compared beside it.
func sameRecords(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if !bytes.Equal(g, w) || got[i].Time.Location().String() != want[i].Time.Location().String() ||
			(got[i].Extra == nil) != (want[i].Extra == nil) {
			t.Fatalf("%s: record %d of %d\n got %s (%s)\nwant %s (%s)", what, i, len(want), g, got[i].Time.Location(), w, want[i].Time.Location())
		}
	}
}

// randomRecord draws from everything pack has a case for.
func randomRecord(rng *rand.Rand, i int) Record {
	r := Record{
		Kind:      []Kind{"", KindAPIRequest, KindLifecycle, KindAuthz, KindCredential, "CUSTOM_KIND"}[rng.Intn(6)],
		Metastore: []string{"", "ms1", "ms2", "metastore-three"}[rng.Intn(4)],
		Principal: fmt.Sprintf("user-%d", rng.Intn(5)),
		Operation: []string{"", "GetTable", "CreateTable", "Grant", "ListAssets"}[rng.Intn(5)],
		Securable: ids.ID(fmt.Sprintf("%032x", rng.Int63())),
		Allowed:   rng.Intn(4) != 0,
		ReadOnly:  rng.Intn(3) != 0,
		Detail:    fmt.Sprintf("record %d", i),
	}
	switch rng.Intn(8) {
	case 0:
		r.Extra = map[string]string{"path": "s3://bucket/x", "n": fmt.Sprint(i)}
	case 1:
		r.Extra = map[string]string{}
	}
	switch rng.Intn(6) {
	case 0: // none
	case 1:
		r.TraceID = "not-a-minted-id"
	case 2:
		r.TraceID = fmt.Sprintf("%016X", rng.Uint64()|0xA<<60) // upper case: not the minted form
	case 3:
		r.TraceID = fmt.Sprintf("%032x", rng.Uint64())
	default:
		r.TraceID = fmt.Sprintf("%016x", rng.Uint64())
	}
	at := time.Unix(1_700_000_000+int64(i), int64(rng.Intn(1e9)))
	switch rng.Intn(7) {
	case 0, 1: // stamped by the log's clock
	case 2:
		r.Time = at
	case 3:
		r.Time = at.UTC()
	case 4:
		r.Time = at.In(time.FixedZone("UTC+5:30", 5*3600+1800))
	case 5:
		r.Time = time.Date(1, 1, 2, 3, 4, 5, 6, time.UTC) // outside int64 nanoseconds
	case 6:
		r.Time = time.Now() // carries a monotonic reading
	}
	return r
}

// TestPackedLogMatchesReference appends a seeded mix of records to the log
// and to a plain []Record, with the sink on for part of the run, and holds
// Recent, Filter, Stats and the sink's lines to the reference while the log
// trims past its bound several times over.
func TestPackedLogMatchesReference(t *testing.T) {
	for _, max := range []int{1, 10, 100, 5000} {
		t.Run(fmt.Sprint("max=", max), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(max)))
			l := NewLog(max)
			fake := clock.NewFake(time.Unix(1_600_000_000, 0))
			l.SetClock(fake)
			var ref []Record
			var sink, refSink bytes.Buffer
			refStats := Stats{ByOperation: map[string]int64{}}
			slack := len(l.shards) * l.chunkLen

			check := func() {
				t.Helper()
				got := l.Recent(0)
				if floor := min(len(ref), max-slack); len(got) < floor || len(got) > max {
					t.Fatalf("after %d appends the log holds %d records, want %d..%d", len(ref), len(got), floor, max)
				}
				held := ref[len(ref)-len(got):]
				sameRecords(t, "Recent(0)", got, held)
				if n, b := l.Retained(); n != len(got) || b < int64(n)*int64(unsafe.Sizeof(packed{})) {
					t.Fatalf("Retained() = %d records in %d bytes, Recent(0) has %d", n, b, len(got))
				}
				for _, k := range []int{1, 2, len(got)/2 + 1, len(got), len(got) + 5} {
					sameRecords(t, fmt.Sprint("Recent(", k, ")"), l.Recent(k), held[len(held)-min(k, len(held)):])
				}
				for name, pred := range map[string]func(Record) bool{
					"denied":  func(r Record) bool { return !r.Allowed },
					"extra":   func(r Record) bool { return r.Extra != nil },
					"ms2":     func(r Record) bool { return r.Metastore == "ms2" },
					"nothing": func(r Record) bool { return false },
				} {
					var want []Record
					for _, r := range held {
						if pred(r) {
							want = append(want, r)
						}
					}
					sameRecords(t, "Filter("+name+")", l.Filter(pred), want)
				}
				if st := l.Stats(); st.Total != refStats.Total || st.Reads != refStats.Reads || st.Writes != refStats.Writes ||
					st.Denied != refStats.Denied || fmt.Sprint(st.ByOperation) != fmt.Sprint(refStats.ByOperation) {
					t.Fatalf("Stats() = %+v, want %+v", st, refStats)
				}
				if sink.String() != refSink.String() {
					t.Fatalf("the sink's lines differ from the reference's after %d appends", len(ref))
				}
			}

			total := 3*max + 50
			for i := 0; i < total; i++ {
				switch i {
				case total / 4:
					l.SetSink(&sink)
				case 3 * total / 4:
					l.SetSink(nil)
				}
				sinkOn := i >= total/4 && i < 3*total/4
				fake.Advance(time.Millisecond)
				r := randomRecord(rng, i)
				l.Append(r)

				if r.Time.IsZero() {
					r.Time = fake.Now()
				}
				ref = append(ref, r)
				refStats.Total++
				if r.ReadOnly {
					refStats.Reads++
				} else {
					refStats.Writes++
				}
				if !r.Allowed {
					refStats.Denied++
				}
				if r.Operation != "" {
					refStats.ByOperation[r.Operation]++
				}
				if sinkOn {
					b, _ := json.Marshal(r)
					refSink.Write(append(b, '\n'))
				}
				if i < 12 || i%(total/9+1) == 0 {
					check()
				}
			}
			check()
		})
	}
}

// TestRetentionNeverBelowBoundLessOneChunkPerShard: a production-sized log
// driven well past its bound holds between max less a chunk per shard and
// max at every step, in chunks it neither regrows nor copies.
func TestRetentionNeverBelowBoundLessOneChunkPerShard(t *testing.T) {
	l := NewLog(0)
	floor := l.max - len(l.shards)*l.chunkLen
	for i := 0; i < 2*l.max+l.max/2; i++ {
		l.Append(Record{Kind: KindAPIRequest, Operation: "GetTable", Allowed: true, ReadOnly: true})
		if n, _ := l.Retained(); n > l.max || (i >= l.max && n < floor) {
			t.Fatalf("after %d appends the log holds %d records, want %d..%d", i+1, n, floor, l.max)
		}
	}
	n, b := l.Retained()
	if per := float64(b) / float64(n); per > 1.02*float64(unsafe.Sizeof(packed{})) {
		t.Fatalf("%d records sit in %d bytes of chunks: %.1f B each, want about %d", n, b, per, unsafe.Sizeof(packed{}))
	}
	for i := range l.shards {
		for _, c := range l.shards[i].chunks {
			if cap(c.recs) != l.chunkLen {
				t.Fatalf("a chunk of %d slots in a log of %d-slot chunks", cap(c.recs), l.chunkLen)
			}
		}
	}
}

// TestConcurrentAppendersKeepEveryOrder: eight appenders against readers.
// The log's order must be one interleaving of the appenders' own orders, the
// sink must have every record once, and Recent(k) must be the tail of it.
func TestConcurrentAppendersKeepEveryOrder(t *testing.T) {
	l := NewLog(0)
	var sink bytes.Buffer
	l.SetSink(&sink)
	const writers, per = 8, 600
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Whatever moment this catches, each appender's records are in
			// its own order and Recent(k) is ordered likewise.
			next := map[string]int{}
			for _, r := range l.Recent(200) {
				var i int
				fmt.Sscan(r.Detail, &i)
				if i < next[r.Principal] {
					t.Errorf("Recent(200): %s's record %d after its record %d", r.Principal, i, next[r.Principal]-1)
					return
				}
				next[r.Principal] = i + 1
			}
			l.Filter(func(r Record) bool { return !r.Allowed })
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := Record{Kind: KindAPIRequest, Metastore: fmt.Sprint("ms", w%3), Principal: fmt.Sprint("w", w),
					Operation: "Op" + fmt.Sprint(i%4), Allowed: i%5 != 0, ReadOnly: w%2 == 0, Detail: fmt.Sprint(i)}
				if i%7 == 0 {
					r.Extra = map[string]string{"i": fmt.Sprint(i)}
				}
				if i%3 == 0 {
					r.TraceID = fmt.Sprintf("%016x", uint64(w)<<32|uint64(i))
				}
				l.Append(r)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	all := l.Recent(0)
	if len(all) != writers*per {
		t.Fatalf("retained %d, want %d", len(all), writers*per)
	}
	next := map[string]int{}
	for _, r := range all {
		if want := fmt.Sprint(next[r.Principal]); r.Detail != want {
			t.Fatalf("%s's records out of order: %s where %s belongs", r.Principal, r.Detail, want)
		}
		next[r.Principal]++
		i := next[r.Principal] - 1
		if (r.Extra != nil) != (i%7 == 0) || (r.TraceID != "") != (i%3 == 0) || r.Allowed != (i%5 != 0) {
			t.Fatalf("%s's record %d came back as %+v", r.Principal, i, r)
		}
	}
	sameRecords(t, "Recent(100)", l.Recent(100), all[len(all)-100:])
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != writers*per {
		t.Fatalf("the sink has %d lines, want %d", len(lines), writers*per)
	}
	seen := map[string]bool{}
	for _, line := range lines {
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("sink line %q: %v", line, err)
		}
		seen[r.Principal+"/"+r.Detail] = true
	}
	if len(seen) != writers*per {
		t.Fatalf("the sink has %d distinct records, want %d", len(seen), writers*per)
	}
	if st := l.Stats(); st.Total != writers*per || st.Denied != writers*per/5 || st.Reads != writers*per/2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPackedRecordSize pins the layout DESIGN.md quotes.
func TestPackedRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(packed{}); got != 88 {
		t.Fatalf("a packed record is %d bytes, want 88", got)
	}
	if got := maxChunkLen * int(unsafe.Sizeof(packed{})); got > 8192 || got < 8192-88 {
		t.Fatalf("a full-sized chunk is %d bytes, want just under 8192", got)
	}
}

// TestAppendAllocatesOnlyItsChunk: a record with no Extra and a minted or
// empty trace ID costs one chunk per chunkLen appends and nothing else.
func TestAppendAllocatesOnlyItsChunk(t *testing.T) {
	l := NewLog(0)
	r := Record{Time: time.Now(), Kind: KindAuthz, Metastore: "ms1", Principal: "alice", Operation: "GetTable",
		Securable: "0123456789abcdef", Allowed: true, ReadOnly: true, Detail: "ok", TraceID: "00ab34cd56ef7890"}
	l.Append(r)
	perAppend := testing.AllocsPerRun(20*l.chunkLen, func() { l.Append(r) })
	if want := 1.0 / float64(l.chunkLen); perAppend > 1.5*want {
		t.Fatalf("Append allocates %.3f objects a call, want about %.3f (one chunk per %d)", perAppend, want, l.chunkLen)
	}
}
