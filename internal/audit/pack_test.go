package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"unitycatalog/internal/clock"
	"unitycatalog/internal/ids"
)

// sameRecords compares what the log gave back with what was appended, field
// for field: the time as an instant with its zone's name and offset (not its
// monotonic reading, which the log drops), everything else as it is, a nil
// Extra apart from an empty one.
func sameRecords(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		gz, goff := g.Time.Zone()
		wz, woff := w.Time.Zone()
		same := g.Time.Equal(w.Time) && gz == wz && goff == woff && g.Time.Location().String() == w.Time.Location().String()
		g.Time, w.Time = time.Time{}, time.Time{}
		if !same || !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: record %d of %d\n got %+v (%s)\nwant %+v (%s)", what, i, len(want), got[i], got[i].Time.Location(), want[i], want[i].Time.Location())
		}
	}
}

// randomRecord draws from everything pack has a case for. Its strings repeat
// from record to record, as a request path's do, unless heavy: then every
// record names a new principal and detail, so chunk tables outgrow their
// block.
func randomRecord(rng *rand.Rand, i int, heavy bool) Record {
	r := Record{
		Kind:      []Kind{"", KindAPIRequest, KindLifecycle, KindAuthz, KindCredential, "CUSTOM_KIND"}[rng.Intn(6)],
		Metastore: []string{"", "ms1", "ms2", "metastore-three"}[rng.Intn(4)],
		Principal: []string{"", "user-0", "user-1", "user-2", "user-3"}[rng.Intn(5)],
		Operation: []string{"", "GetTable", "CreateTable", "Grant", "ListAssets"}[rng.Intn(5)],
		Securable: ids.ID(fmt.Sprintf("%032x", rng.Int63())),
		Allowed:   rng.Intn(4) != 0,
		ReadOnly:  rng.Intn(3) != 0,
		Detail:    []string{"", "ok", "ownership", "table not found"}[rng.Intn(4)],
	}
	if heavy {
		r.Principal = fmt.Sprintf("user-%d", i)
		r.Detail = fmt.Sprintf("record %d", i)
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
		r.TraceID = fmt.Sprint("not-a-minted-id-", rng.Intn(3))
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
// trims past its bound several times over. Runs of repeating strings
// alternate with string-heavy runs; the last case names a new metastore in
// every record, 70,000 of them.
func TestPackedLogMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name       string
		max, total int
		metastores bool // every record names a new metastore
	}{
		{"max=1", 1, 53, false},
		{"max=10", 10, 80, false},
		{"max=100", 100, 350, false},
		{"max=5000", 5000, 15050, false},
		{"metastores=70000", 1000, 70000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			max, total := tc.max, tc.total
			rng := rand.New(rand.NewSource(int64(total)))
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
				if !bytes.Equal(sink.Bytes(), refSink.Bytes()) {
					t.Fatalf("the sink's lines differ from the reference's after %d appends", len(ref))
				}
			}

			for i := 0; i < total; i++ {
				switch i {
				case total / 4:
					l.SetSink(&sink)
				case 3 * total / 4:
					l.SetSink(nil)
				}
				sinkOn := i >= total/4 && i < 3*total/4
				fake.Advance(time.Millisecond)
				r := randomRecord(rng, i, i/(3*l.chunkLen)%2 == 1)
				if tc.metastores {
					r.Metastore = fmt.Sprint("ms-", i)
				}
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
	n, _ := l.Retained()
	var b int64
	for i := range l.shards {
		for _, c := range l.shards[i].chunks {
			if cap(c.recs) != l.chunkLen {
				t.Fatalf("a chunk of %d slots in a log of %d-slot chunks", cap(c.recs), l.chunkLen)
			}
			b += c.bytes()
		}
	}
	if per, want := float64(b)/float64(n), float64(blockBytes)/blockRecs; per > 1.02*want {
		t.Fatalf("%d records sit in %d bytes of chunks: %.1f B each, want about %.1f", n, b, per, want)
	}
}

// concurrentRecord is appender w's record i. Each names a new metastore, and
// a third a trace ID obs did not mint, so appenders add strings to the open
// chunks' tables while readers unpack them.
func concurrentRecord(w, i int) Record {
	r := Record{Time: time.Unix(int64(w), int64(i)).UTC(), Kind: KindAPIRequest, Metastore: fmt.Sprint("ms", w, "-", i),
		Principal: fmt.Sprint("w", w), Operation: "Op" + fmt.Sprint(i%4), Allowed: i%5 != 0, ReadOnly: w%2 == 0, Detail: fmt.Sprint(i)}
	if i%7 == 0 {
		r.Extra = map[string]string{"i": fmt.Sprint(i)}
	}
	switch i % 3 {
	case 0:
		r.TraceID = fmt.Sprintf("%016x", uint64(w)<<32|uint64(i))
	case 1:
		r.TraceID = fmt.Sprint("trace-", w, "-", i)
	}
	return r
}

// TestConcurrentAppendersKeepEveryOrder: eight appenders against readers.
// The log's order must be one interleaving of the appenders' own orders, the
// sink must have every record once, Recent(k) must be the tail of it, and
// every record a reader unpacks, open chunk or not, must be the one appended.
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
				var w, i int
				fmt.Sscan(r.Principal[1:], &w)
				fmt.Sscan(r.Detail, &i)
				if i < next[r.Principal] {
					t.Errorf("Recent(200): %s's record %d after its record %d", r.Principal, i, next[r.Principal]-1)
					return
				}
				next[r.Principal] = i + 1
				if g, want := fmt.Sprint(r), fmt.Sprint(concurrentRecord(w, i)); g != want {
					t.Errorf("Recent(200): unpacked %s, appended %s", g, want)
					return
				}
			}
			l.Filter(func(r Record) bool { return !r.Allowed })
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Append(concurrentRecord(w, i))
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
		var w int
		fmt.Sscan(r.Principal[1:], &w)
		sameRecords(t, r.Principal, []Record{r}, []Record{concurrentRecord(w, next[r.Principal])})
		next[r.Principal]++
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

// TestPackedRecordSize pins the layout DESIGN.md quotes: a 48-byte record,
// and a block of 160 of them and 31 string slots that fills an 8 KiB size
// class with its 8-byte malloc header, leaving no room for another slot.
func TestPackedRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(packed{}); got != 48 {
		t.Fatalf("a packed record is %d bytes, want 48", got)
	}
	const header = 8
	if got := unsafe.Sizeof(block{}) + header; got > blockBytes || got+unsafe.Sizeof("") <= blockBytes || blockRecs < 160 || blockRecs > 256 {
		t.Fatalf("a block and its header are %d bytes for %d records, want at most %d, and full, for 160 to 256 (a side index is a byte)", got, blockRecs, blockBytes)
	}
}

// TestAppendAllocatesOnlyItsChunk: a record with no Extra and a minted or
// empty trace ID costs one block per chunkLen appends and nothing else. When
// every record names a new principal and detail, a chunk also moves its table
// a few times: still per chunk, not per record.
func TestAppendAllocatesOnlyItsChunk(t *testing.T) {
	l := NewLog(0)
	r := Record{Time: time.Now(), Kind: KindAuthz, Metastore: "ms1", Principal: "alice", Operation: "GetTable",
		Securable: "0123456789abcdef", Allowed: true, ReadOnly: true, Detail: "ok", TraceID: "00ab34cd56ef7890"}
	l.Append(r)
	perAppend := testing.AllocsPerRun(20*l.chunkLen, func() { l.Append(r) })
	if want := 1.0 / float64(l.chunkLen); perAppend > 1.5*want {
		t.Fatalf("Append allocates %.4f objects a call, want about %.4f (one block per %d)", perAppend, want, l.chunkLen)
	}

	heavy := make([]Record, 25*len(l.shards)*l.chunkLen)
	for i := range heavy {
		heavy[i] = r
		heavy[i].Principal = fmt.Sprint("user-", i)
		heavy[i].Detail = fmt.Sprint("record ", i)
	}
	next := 0
	perAppend = testing.AllocsPerRun(len(heavy)-1, func() { l.Append(heavy[next]); next++ })
	if perChunk := perAppend * float64(l.chunkLen); perChunk > 6 {
		t.Fatalf("string-heavy Append allocates %.4f objects a call, %.1f a chunk, want at most 6 a chunk", perAppend, perChunk)
	}
}

// TestRetainedBytesIsWhatTheLogHolds holds Retained, and so
// uc_audit_retained_bytes, to the heap the log's appends leave in use: its
// chunks and their tables, with strings that repeat and with strings that
// overflow every table.
func TestRetainedBytesIsWhatTheLogHolds(t *testing.T) {
	for _, heavy := range []bool{false, true} {
		recs := make([]Record, 40000)
		rng := rand.New(rand.NewSource(1))
		for i := range recs {
			recs[i] = randomRecord(rng, i, heavy)
			recs[i].Time = time.Unix(int64(i), 0)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		l := NewLog(0)
		for i := range recs {
			l.Append(recs[i])
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		n, b := l.Retained()
		held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		t.Logf("heavy=%v: %d records, Retained %d B, heap %d B", heavy, n, b, held)
		if n != len(recs) || float64(b) < 0.98*float64(held) || float64(b) > 1.02*float64(held) {
			t.Errorf("heavy=%v: Retained() = %d records in %d B; the log holds %d records in %d B of heap", heavy, n, b, len(recs), held)
		}
		runtime.KeepAlive(recs)
		runtime.KeepAlive(l)
	}
}
