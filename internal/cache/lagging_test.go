package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/store"
)

// TestLaggingReaderDerivesRows runs a seeded mix of creates, renames (a third
// of them in case only), soft deletes, undeletes, purges, path moves, comment
// rewrites and external locations, and holds the change log to what each
// commit wrote: ChangesSince(v0), read once every commit has applied, is at
// every v0 the concatenation of each later commit's Tx.Rows and Writes, or
// ErrChangeLogTrimmed exactly when one of those rows is derived from an entity
// record's version that MaxVersionsPerRecord has since pruned. A node that
// followed the log up to before such a version reconciles in full, and then
// its view's names and registered paths are a fresh snapshot's.
func TestLaggingReaderDerivesRows(t *testing.T) {
	const maxVersions = 3
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, err := store.Open(store.Options{ChangeLogSize: 1 << 14, MaxVersionsPerRecord: maxVersions})
		if err != nil {
			t.Fatal(err)
		}
		db.CreateMetastore("m")
		writer, lag := New(db, Options{}), New(db, Options{})
		writer.Own("m")
		lag.Own("m")

		parents := []ids.ID{ids.New(), ids.New()}
		types := []erm.SecurableType{erm.TypeTable, erm.TypeView, erm.TypeVolume, erm.TypeExternalLocation}
		pool := []string{"alpha", "Beta", "gamma", "DELTA", "eps"}
		ents := map[ids.ID]*erm.Entity{} // each record as last written; a purged one is gone
		var order []ids.ID               // every entity, in creation order
		var paths []string               // every storage path written
		nextPath := 0
		newPath := func(typ erm.SecurableType) string {
			nextPath++
			switch {
			case typ == erm.TypeExternalLocation:
				return fmt.Sprintf("s3://x/l%05d", nextPath)
			case rng.Intn(3) == 0:
				return "" // derives no path row
			}
			return fmt.Sprintf("s3://b/t%05d", nextPath)
		}
		cased := func(name string) string {
			if rng.Intn(2) == 0 {
				return strings.ToUpper(name[:1]) + name[1:]
			}
			return strings.ToLower(name)
		}
		pick := func(state erm.State) *erm.Entity {
			var live []*erm.Entity
			for _, id := range order {
				if e := ents[id]; e != nil && (state == "" || e.State == state) {
					live = append(live, e)
				}
			}
			if len(live) == 0 {
				return nil
			}
			return live[rng.Intn(len(live))].Clone()
		}

		// What each commit logged, in the log's order; per commit, the
		// entity record version each of its derived rows is read from; and
		// the versions each entity record was written at.
		logged := map[uint64][]store.Change{}
		type source struct {
			key     string
			version uint64
		}
		derivedFrom := map[uint64][]source{}
		written := map[string][]uint64{}
		last := uint64(0)
		commit := func(fn func(tx *store.Tx) error) bool {
			var committed *store.Tx
			v, err := writer.Update("m", func(tx *store.Tx) error {
				committed = tx
				return fn(tx)
			})
			if errors.Is(err, store.ErrRowTaken) {
				return false
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, rw := range committed.Rows() {
				logged[v] = append(logged[v], store.Change{Version: v, Table: rw.Table, Key: rw.Key, Deleted: rw.Deleted})
				// A row made live is read from the version v wrote, and one
				// made dead by a delete from its tombstone; one a rename or
				// soft delete made dead from the version before.
				key, from := string(rw.Value), v
				if i := slices.IndexFunc(committed.Writes(), func(w store.Write) bool {
					return w.Table == erm.TableEntity && w.Key == key
				}); rw.Deleted && !committed.Writes()[i].Deleted {
					from = written[key][len(written[key])-1]
				}
				derivedFrom[v] = append(derivedFrom[v], source{key, from})
			}
			for _, w := range committed.Writes() {
				logged[v] = append(logged[v], store.Change{Version: v, Table: w.Table, Key: w.Key, Deleted: w.Deleted})
				if w.Table == erm.TableEntity {
					written[w.Key] = append(written[w.Key], v)
				}
			}
			last = v
			return true
		}
		put := func(e *erm.Entity) bool {
			if !commit(func(tx *store.Tx) error { return erm.PutEntity(tx, e) }) {
				return false
			}
			ents[e.ID] = e
			if e.StoragePath != "" {
				paths = append(paths, e.StoragePath)
			}
			return true
		}
		create := func() {
			typ := types[rng.Intn(len(types))]
			e := &erm.Entity{ID: ids.New(), Type: typ, Name: cased(pool[rng.Intn(len(pool))]),
				ParentID: parents[rng.Intn(len(parents))], State: erm.StateActive, StoragePath: newPath(typ)}
			if put(e) {
				order = append(order, e.ID)
			}
		}
		for range 12 {
			create()
		}

		// The lagging node reads every name and path, caching their rows,
		// and stops following the log here.
		lagged := last
		reads := func(r erm.Reader) []string {
			var out []string
			for _, typ := range types {
				for _, p := range parents {
					for _, n := range append(pool, "renamed", "renamed again") {
						e, ok := erm.GetByName(r, erm.AppendNameKey(nil, erm.NameGroupOf(typ), p, n))
						if ok {
							out = append(out, fmt.Sprintf("%s %s %s: %s", typ, p.Short(), n, e.ID))
						}
					}
				}
			}
			for _, p := range paths {
				for _, table := range []string{erm.TablePath, erm.TableExtLoc} {
					prefix, id, ok := erm.RegisteredPrefix(r, table, p+"/part-0")
					out = append(out, fmt.Sprintf("%s %s: %q %s %v", table, p, prefix, id, ok))
				}
			}
			return out
		}
		lv, err := lag.NewView("m")
		if err != nil {
			t.Fatal(err)
		}
		reads(lv)
		lv.Close()

		// movedThenRewritten moves an active record's row, then rewrites the
		// record maxVersions times, so the version the move wrote is pruned.
		movedThenRewritten := func(move func(e *erm.Entity)) {
			e := pick(erm.StateActive)
			if e == nil {
				t.Fatalf("seed %d: no active entity", seed)
			}
			move(e)
			put(e)
			for i := range maxVersions {
				e = e.Clone()
				e.Comment = fmt.Sprint("rewrite ", i)
				put(e)
			}
		}
		movedThenRewritten(func(e *erm.Entity) { e.Name = "renamed" })

		// checkLog reads the log from every version and returns how many
		// reads it held to the commits' changes, and the versions from which
		// it was trimmed.
		checkLog := func() (exact int, trimmed map[uint64]bool) {
			// pruned reports whether version v of record key is gone: the
			// record keeps its newest maxVersions versions.
			pruned := func(key string, v uint64) bool {
				h := written[key]
				return !slices.Contains(h[max(0, len(h)-maxVersions):], v)
			}
			var all []store.Change      // every commit's changes, in order
			from := make([]int, last+2) // where version v's changes start in all
			for v := uint64(1); v <= last; v++ {
				from[v] = len(all)
				all = append(all, logged[v]...)
			}
			from[last+1] = len(all)
			trimmed = map[uint64]bool{}
			wantTrimmed := false
			for v0 := last - 1; v0 < last; v0-- { // down to 0, then wraps
				for _, s := range derivedFrom[v0+1] {
					wantTrimmed = wantTrimmed || pruned(s.key, s.version)
				}
				want := all[from[v0+1]:]
				got, err := db.ChangesSince("m", v0)
				switch {
				case wantTrimmed && !errors.Is(err, store.ErrChangeLogTrimmed):
					t.Fatalf("seed %d: ChangesSince(%d) = %d changes, %v; a row it names was derived from a pruned version", seed, v0, len(got), err)
				case wantTrimmed:
					trimmed[v0] = true
				case err != nil:
					t.Fatalf("seed %d: ChangesSince(%d): %v", seed, v0, err)
				case !slices.Equal(got, want):
					for i := range min(len(got), len(want)) {
						if got[i] != want[i] {
							t.Fatalf("seed %d: ChangesSince(%d)[%d] = %+v, the commit logged %+v", seed, v0, i, got[i], want[i])
						}
					}
					t.Fatalf("seed %d: ChangesSince(%d) has %d changes, the commits logged %d", seed, v0, len(got), len(want))
				default:
					exact++
				}
			}
			return exact, trimmed
		}
		exact := 0
		for op := range 250 {
			switch k := rng.Intn(16); {
			case k < 4 || len(ents) == 0:
				create()
			case k < 7: // rename, a third of them in case only
				if e := pick(erm.StateActive); e != nil {
					if rng.Intn(3) == 0 {
						e.Name = strings.ToUpper(e.Name)
					} else {
						e.Name = cased(pool[rng.Intn(len(pool))])
					}
					put(e)
				}
			case k < 8: // soft delete
				if e := pick(erm.StateActive); e != nil {
					e.State = erm.StateSoftDeleted
					put(e)
				}
			case k < 9: // undelete
				if e := pick(erm.StateSoftDeleted); e != nil {
					e.State = erm.StateActive
					put(e)
				}
			case k < 10: // purge
				if e := pick(""); e != nil && commit(func(tx *store.Tx) error { erm.DeleteEntity(tx, e); return nil }) {
					delete(ents, e.ID)
				}
			case k < 12: // a path move
				if e := pick(""); e != nil {
					e.StoragePath = newPath(e.Type)
					put(e)
				}
			default: // a rewrite that moves no row
				if e := pick(""); e != nil {
					e.Comment = fmt.Sprint("c", rng.Intn(1000))
					put(e)
				}
			}
			if op%50 == 49 {
				n, _ := checkLog()
				exact += n
			}
		}
		// The last commits: a path move and a rename read from pruned
		// versions, and nothing else after them is.
		movedThenRewritten(func(e *erm.Entity) { e.StoragePath = newPath(erm.TypeExternalLocation) })
		movedThenRewritten(func(e *erm.Entity) { e.Name = "renamed again" })
		n, trimmed := checkLog()
		exact += n

		t.Logf("seed %d: %d versions; over six reads of the log, %d held exactly, and at the end %d trimmed", seed, last, exact, len(trimmed))
		if exact == 0 || !trimmed[lagged] {
			t.Fatalf("seed %d: %d exact reads and %d trimmed ones over %d versions; the lagging node's trimmed: %v", seed, exact, len(trimmed), last, trimmed[lagged])
		}

		// The lagging node cannot follow the log from where it stopped.
		before := lag.Metrics()
		if err := lag.Refresh("m"); err != nil {
			t.Fatal(err)
		}
		if after := lag.Metrics(); after.FullReconciles != before.FullReconciles+1 || after.SelectiveReconciles != before.SelectiveReconciles {
			t.Fatalf("seed %d: a node at v%d of %d: %d full and %d selective reconciles, want one full", seed, lagged, last,
				after.FullReconciles-before.FullReconciles, after.SelectiveReconciles-before.SelectiveReconciles)
		}
		snap, err := db.Snapshot("m")
		if err != nil {
			t.Fatal(err)
		}
		want := reads(snap)
		snap.Close()
		for name, c := range map[string]*Cache{"lagging": lag, "writing": writer} {
			v, err := c.NewView("m")
			if err != nil {
				t.Fatal(err)
			}
			if got := reads(v); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: the %s node reads %q, a fresh snapshot %q", seed, name, got, want)
			}
			v.Close()
		}
		db.Close()
	}
}
