package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestCommitAllocs holds the commit path to a fixed number of allocations per
// commit, whatever its number of writes, plus what each write needs of its
// own. Keys and values are built outside the measured loop, and every key is
// overwritten, so a write costs its value's copy and the record version it
// pushes down; the rest is the commit's: the Tx, which holds its WAL slot and
// room for its first writes, and with the WAL on the frame. The comments give
// the figures from before the write set was the transaction.
func TestCommitAllocs(t *testing.T) {
	tables := []string{"entities", "names", "paths"}
	keys := []string{"k1", "k2", "k3"}
	value := []byte("value")
	for walOn, wal := range []bool{false, true} {
		opts := Options{}
		if wal {
			opts = Options{WALPath: filepath.Join(t.TempDir(), "wal"), Sync: SyncNever}
		}
		db := mustOpen(t, opts)
		if err := db.CreateMetastore("m"); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name   string
			writes int
			max    [2]float64 // WAL off, on
		}{
			{"one write", 1, [2]float64{3, 4}},    // was 11, 16
			{"three tables", 3, [2]float64{7, 8}}, // was 23, 28
		} {
			commit := func() {
				if _, err := db.Update("m", func(tx *Tx) error {
					for i := 0; i < c.writes; i++ {
						tx.Put(tables[i], keys[i], value)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(200, commit)
			t.Logf("wal=%v, %s: %.1f allocations per commit", wal, c.name, got)
			if got > c.max[walOn] {
				t.Errorf("wal=%v, %s: %.1f allocations per commit, want at most %.0f", wal, c.name, got, c.max[walOn])
			}
		}

		// A large transaction stays linear (it was 3.02 per write): a write
		// set copied, or an index rebuilt, on every write would show here as
		// a multiple.
		const n = 5000
		big := make([]string, n)
		for i := range big {
			big[i] = fmt.Sprintf("key%05d", i)
		}
		got := testing.AllocsPerRun(5, func() {
			if _, err := db.Update("m", func(tx *Tx) error {
				for i, k := range big {
					tx.Put(tables[i%3], k, value)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("wal=%v, %d writes: %.0f allocations (%.2f per write)", wal, n, got, got/n)
		if got > 2.1*n {
			t.Errorf("wal=%v, %d writes: %.0f allocations, want at most %d", wal, n, got, 21*n/10)
		}
	}
}

// writeSetModel is the reference a transaction's write set is checked
// against: the live state as plain maps, and the transaction's writes in
// first-write order with each key's final value.
type writeSetModel struct {
	state map[string]map[string][]byte // table -> key -> live value
	order []Write
	at    map[[2]string]int // (table, key) -> position in order
}

func (m *writeSetModel) begin() {
	m.order, m.at = nil, map[[2]string]int{}
}

func (m *writeSetModel) write(table, key string, value []byte, deleted bool) {
	w := Write{Table: table, Key: key, Value: value, Deleted: deleted}
	if i, ok := m.at[[2]string{table, key}]; ok {
		m.order[i] = w
		return
	}
	m.at[[2]string{table, key}] = len(m.order)
	m.order = append(m.order, w)
}

// get is the value a transaction at the model's point reads: its own writes
// over the state.
func (m *writeSetModel) get(table, key string) ([]byte, bool) {
	if i, ok := m.at[[2]string{table, key}]; ok {
		return m.order[i].live()
	}
	v, ok := m.state[table][key]
	return v, ok
}

// scan is ScanRange over get.
func (m *writeSetModel) scan(table, start, end string, limit int) []KV {
	keys := map[string]bool{}
	for k := range m.state[table] {
		keys[k] = true
	}
	for _, w := range m.order {
		if w.Table == table {
			keys[w.Key] = true
		}
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	slices.Sort(sorted)
	var out []KV
	for _, k := range sorted {
		if k < start || end != "" && k >= end {
			continue
		}
		if v, ok := m.get(table, k); ok && (limit <= 0 || len(out) < limit) {
			out = append(out, KV{Key: k, Value: v})
		}
	}
	return out
}

// commit folds the transaction's writes into the state.
func (m *writeSetModel) commit() {
	for _, w := range m.order {
		if w.Deleted {
			delete(m.state[w.Table], w.Key)
		} else {
			m.state[w.Table][w.Key] = w.Value
		}
	}
	m.begin()
}

// TestTxWriteSetMatchesReference drives seeded transactions of 1, 8, 9, 100
// and 5,000 writes — both sides of the size at which a write set starts
// indexing itself — over three tables, with puts, deletes, overwrites,
// delete-then-put and put-then-delete, against a plain-map model. Each
// transaction checks its own reads before it returns; then, held sequenced
// but unapplied behind a blocked WAL writer, it is read by a second
// transaction through the pending overlay. Once applied, its Writes, its
// change-log entries and the state must match, and at the end so must the
// state replayed from the WAL.
func TestTxWriteSetMatchesReference(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	r := rand.New(rand.NewSource(seed))
	path := filepath.Join(t.TempDir(), "wal")
	db, err := Open(Options{WALPath: path, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	if err := db.CreateMetastore("m"); err != nil {
		t.Fatal(err)
	}
	tables := []string{"t0", "t1", "t2"}
	m := &writeSetModel{state: map[string]map[string][]byte{}}
	for _, table := range tables {
		m.state[table] = map[string][]byte{}
	}
	m.begin()

	// checkReads compares the transaction's point and range reads with the
	// model's, on the keys its writes touched and on a sample of others. It
	// reports the first difference with Errorf: it runs on the committing
	// goroutine, and with the WAL writer blocked.
	checkReads := func(who string, tx *Tx, touched []Write, space int) {
		t.Helper()
		for _, w := range touched {
			got, ok := tx.Get(w.Table, w.Key)
			want, wantOK := m.get(w.Table, w.Key)
			if ok != wantOK || !bytes.Equal(got, want) {
				t.Errorf("seed %d, %s: Get(%s, %s) = %q, %v; want %q, %v", seed, who, w.Table, w.Key, got, ok, want, wantOK)
				return
			}
		}
		for i := 0; i < 20; i++ {
			table, key := tables[r.Intn(3)], fmt.Sprintf("k%05d", r.Intn(space))
			got, ok := tx.Get(table, key)
			want, wantOK := m.get(table, key)
			if ok != wantOK || !bytes.Equal(got, want) {
				t.Errorf("seed %d, %s: Get(%s, %s) = %q, %v; want %q, %v", seed, who, table, key, got, ok, want, wantOK)
				return
			}
		}
		for _, table := range tables {
			start := fmt.Sprintf("k%05d", r.Intn(space))
			for _, q := range []struct {
				start, end string
				limit      int
			}{{"", "", 0}, {start, "", 7}, {"", start, 0}, {start, "", 1}} {
				got, want := tx.ScanRange(table, q.start, q.end, q.limit), m.scan(table, q.start, q.end, q.limit)
				if !slices.EqualFunc(got, want, func(a, b KV) bool { return a.Key == b.Key && bytes.Equal(a.Value, b.Value) }) {
					t.Errorf("seed %d, %s: ScanRange(%s, %q, %q, %d) = %d rows, want %d\ngot  %v\nwant %v", seed, who, table, q.start, q.end, q.limit, len(got), len(want), got, want)
					return
				}
			}
		}
	}

	// step applies one seeded pattern to (table, key) in tx and the model.
	step := func(tx *Tx, table, key, tag string) {
		put := func() {
			v := []byte(fmt.Sprintf("%s%d", tag, r.Int63()))
			tx.Put(table, key, v)
			m.write(table, key, v, false)
		}
		del := func() {
			tx.Delete(table, key)
			m.write(table, key, nil, true)
		}
		switch r.Intn(5) {
		case 0:
			put()
		case 1:
			del()
		case 2: // overwrite
			put()
			put()
		case 3:
			del()
			put()
		case 4:
			put()
			del()
		}
	}
	sameWrites := func(a, b []Write) bool {
		return slices.EqualFunc(a, b, func(a, b Write) bool {
			return a.Table == b.Table && a.Key == b.Key && a.Deleted == b.Deleted && bytes.Equal(a.Value, b.Value)
		})
	}

	for _, n := range []int{1, 8, 9, 100, 5000} {
		space := 2*n + 10 // keys per table: earlier transactions' keys recur
		// Block the writer: it waits on this slot's frame, and every commit
		// queued behind it stays sequenced but unapplied until it is let go.
		var gate walReq
		if err := db.wal.submit(&gate); err != nil {
			t.Fatal(err)
		}
		release := sync.OnceFunc(gate.ready.Done)

		var aWrites, aOrder, bWrites, bOrder []Write
		sequenced := make(chan struct{})
		type result struct {
			v   uint64
			err error
		}
		done := make(chan result, 1)
		go func() {
			v, err := db.Update("m", func(tx *Tx) error {
				for len(m.order) < n {
					step(tx, tables[r.Intn(3)], fmt.Sprintf("k%05d", r.Intn(space)), "a")
				}
				checkReads("own", tx, m.order, space)
				aWrites, aOrder = tx.Writes(), m.order
				close(sequenced) // the closure is done: what follows is sequencing
				return nil
			})
			done <- result{v, err}
		}()
		<-sequenced
		m.commit()
		// The second transaction waits for the sequencing lock, so it runs
		// once the first is sequenced, and with the writer blocked the first
		// cannot have applied. It writes over some of the first's keys, so
		// its range reads merge one key from the overlay and its own writes.
		vB, err := db.Update("m", func(tx *Tx) error {
			if cur, _ := db.Version("m"); cur != tx.base-1 {
				t.Errorf("seed %d: reading at %d with version %d applied: the transaction ahead is not pending", seed, tx.base, cur)
			}
			for i := 0; i < 4; i++ {
				w := aOrder[r.Intn(len(aOrder))]
				step(tx, w.Table, w.Key, "b")
			}
			checkReads("overlay", tx, append(slices.Clip(aOrder), m.order...), space)
			bWrites, bOrder = tx.Writes(), m.order
			release() // this commit queues behind the first
			return nil
		})
		release()
		if err != nil {
			t.Fatal(err)
		}
		if err := gate.wait(); err != nil {
			t.Fatal(err)
		}
		res := <-done
		if res.err != nil {
			t.Fatal(res.err)
		}
		if t.Failed() {
			return
		}

		if !sameWrites(aWrites, aOrder) || !sameWrites(bWrites, bOrder) {
			t.Fatalf("seed %d, %d writes: Writes() differs from the model's first-write order", seed, n)
		}
		changes, err := db.ChangesSince("m", res.v-1)
		if err != nil {
			t.Fatal(err)
		}
		if vB != res.v+1 || len(changes) != len(aOrder)+len(bOrder) {
			t.Fatalf("seed %d, %d writes: versions %d and %d, %d changes logged for %d writes", seed, n, res.v, vB, len(changes), len(aOrder)+len(bOrder))
		}
		for i, c := range changes {
			v, w := res.v, Write{}
			if i < len(aOrder) {
				w = aOrder[i]
			} else {
				v, w = vB, bOrder[i-len(aOrder)]
			}
			if want := (Change{Version: v, Table: w.Table, Key: w.Key, Deleted: w.Deleted}); c != want {
				t.Fatalf("seed %d, %d writes: change %d is %+v, want %+v", seed, n, i, c, want)
			}
		}
		m.commit()
		checkState(t, db, tables, m.state)
	}

	db.Close()
	if db, err = Open(Options{WALPath: path}); err != nil {
		t.Fatal(err)
	}
	checkState(t, db, tables, m.state)
}

// checkState compares every table's live rows with state.
func checkState(t *testing.T, db *DB, tables []string, state map[string]map[string][]byte) {
	t.Helper()
	snap, err := db.Snapshot("m")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for _, table := range tables {
		rows := snap.Scan(table, "")
		if len(rows) != len(state[table]) {
			t.Fatalf("%s holds %d live rows, want %d", table, len(rows), len(state[table]))
		}
		for _, kv := range rows {
			if want, ok := state[table][kv.Key]; !ok || !bytes.Equal(kv.Value, want) {
				t.Fatalf("%s/%s = %q, want %q (live %v)", table, kv.Key, kv.Value, want, ok)
			}
		}
	}
}
