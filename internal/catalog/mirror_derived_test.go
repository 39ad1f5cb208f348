package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"unitycatalog/internal/clock"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// mirrorRow is a row of the tag index or the upstream lineage table as the
// stored rule wrote it, with the record it mirrors.
type mirrorRow struct {
	key, record string
	value       []byte // the record's value
}

// mirrorOracle is the rule the tag-index and upstream lineage rows were
// written by while they were stored, applied to the tag and lineage records
// r reads: a tag securable\0key, or securable\0col\0column\0key, has the row
// key\0securable\0column, and an edge upstream\0downstream\0job the row
// downstream\0upstream\0job. Each table's rows come sorted.
func mirrorOracle(r erm.Reader) (tags, edges []mirrorRow) {
	for _, kv := range r.Scan(erm.TableTag, "") {
		sec, rest, _ := strings.Cut(kv.Key, "\x00")
		column, key := "", rest
		if col, ok := strings.CutPrefix(rest, "col\x00"); ok {
			column, key, _ = strings.Cut(col, "\x00")
		}
		tags = append(tags, mirrorRow{key + "\x00" + sec + "\x00" + column, kv.Key, kv.Value})
	}
	for _, kv := range r.Scan(erm.TableLineage, "") {
		f := strings.SplitN(kv.Key, "\x00", 3)
		edges = append(edges, mirrorRow{f[1] + "\x00" + f[0] + "\x00" + f[2], kv.Key, kv.Value})
	}
	for _, rows := range [][]mirrorRow{tags, edges} {
		sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	}
	return tags, edges
}

// compareMirrors holds every read of the tag index and the upstream lineage
// table through r to the oracle of r's own records (mirrorMismatch).
func compareMirrors(t *testing.T, what string, r erm.Reader) {
	t.Helper()
	if err := mirrorMismatch(r); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// mirrorMismatch reads the tag index and the upstream lineage table through r
// and returns the first read that differs from the oracle of r's own records
// (mirrorOracle): whole scans, each group's prefix scan, its group rows
// (which carry the records) whole and one at a time, and point reads of every
// row and of a key beside it.
func mirrorMismatch(r erm.Reader) error {
	tags, edges := mirrorOracle(r)
	for _, c := range []struct {
		table string
		want  []mirrorRow
	}{{erm.TableTagIdx, tags}, {erm.TableLineageUp, edges}} {
		groups := map[string][]mirrorRow{"": c.want}
		for _, w := range c.want {
			g := w.key[:strings.IndexByte(w.key, 0)+1]
			groups[g] = append(groups[g], w)
		}
		for prefix, want := range groups {
			keys := make([]string, len(want))
			for i, w := range want {
				keys[i] = w.key
			}
			if got := rowKeys(r.Scan(c.table, prefix)); !slices.Equal(got, keys) {
				return fmt.Errorf("Scan(%s, %q) = %q, the records derive %q", c.table, prefix, got, keys)
			}
			end := store.PrefixEnd(prefix)
			check := func(rows []store.GroupRow, want []mirrorRow) error {
				if len(rows) != len(want) {
					return fmt.Errorf("%d %s group rows under %q, the records derive %d", len(rows), c.table, prefix, len(want))
				}
				for i, row := range rows {
					if w := want[i]; row.Group+row.Sort != w.key || row.Key != w.record || !bytes.Equal(row.Value, w.value) {
						return fmt.Errorf("%s group row %q carries %q=%q, the records derive %q from %q=%q", c.table, row.Group+row.Sort, row.Key, row.Value, w.key, w.record, w.value)
					}
				}
				return nil
			}
			if err := check(r.GroupRows(c.table, prefix, end, 0), want); err != nil {
				return err
			}
			for i, start := 0, prefix; i <= len(want); i++ {
				rows := r.GroupRows(c.table, start, end, 1)
				if err := check(rows, want[i:min(i+1, len(want))]); err != nil {
					return fmt.Errorf("one row at a time: %w", err)
				}
				if len(rows) > 0 {
					start = rows[0].Group + rows[0].Sort + "\x00"
				}
			}
		}
		for _, w := range c.want {
			if _, ok := r.Get(c.table, w.key); !ok {
				return fmt.Errorf("Get(%s, %q) finds nothing, the records derive it", c.table, w.key)
			}
			if _, ok := r.Get(c.table, w.key+"x"); ok {
				return fmt.Errorf("Get(%s, %q) finds a row no record derives", c.table, w.key+"x")
			}
		}
	}
	return nil
}

// rowsNaming returns the rows of any table of erm.Tables that name id r reads:
// by a key part, or as their value.
func rowsNaming(r erm.Reader, id ids.ID) []string {
	var out []string
	for _, table := range erm.Tables {
		for _, kv := range r.Scan(table, "") {
			if slices.Contains(strings.Split(kv.Key, "\x00"), string(id)) || string(kv.Value) == string(id) {
				out = append(out, table+"/"+kv.Key)
			}
		}
	}
	return out
}

// TestDerivedMirrorRowsMatchStoredRule runs a seeded mix of entity and column
// tag sets and unsets, lineage submits, grants, soft deletes, undeletes and
// purges, on one node and on two nodes over one database, and holds the
// derived tag-index and upstream lineage rows to the rule the stored rows
// were written by (mirrorOracle) at every version the mix commits, read from
// the commit hook, through a transaction after a write of its own, and
// through each node's cache view. The tag and lineage records themselves
// are held to a model of what the stored rule kept: a tag lives until it is
// unset or its securable purged, an edge until either end is soft deleted.
// A soft delete leaves no grant or edge that names the entity, and a purge
// no row of any table.
func TestDerivedMirrorRowsMatchStoredRule(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			db, err := store.Open(store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			var versions atomic.Int64
			var failed atomic.Bool
			db.AddCommitHook(func(msID string, v uint64, _ []any) {
				snap, err := db.SnapshotAt(msID, v)
				if err != nil {
					return
				}
				defer snap.Close()
				versions.Add(1)
				if err := mirrorMismatch(snap); err != nil && failed.CompareAndSwap(false, true) {
					t.Errorf("version %d: %v", v, err) // the first; later versions may inherit it
				}
			})
			fc := clock.NewFake(time.Unix(1_000_000, 0))
			admin := Ctx{Principal: "admin", Metastore: "ms1"}
			var svcs []*Service
			for i := 0; i < nodes; i++ {
				svc, err := New(Config{DB: db, Cloud: cloudsim.New(), Clock: fc, SoftDeleteRetention: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				svcs = append(svcs, svc)
			}
			if _, err := svcs[0].CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1"); err != nil {
				t.Fatal(err)
			}
			for _, svc := range svcs[1:] {
				if _, err := svc.OpenMetastore("ms1"); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := svcs[0].CreateCatalog(admin, "c", ""); err != nil {
				t.Fatal(err)
			}
			if _, err := svcs[0].CreateSchema(admin, "c", "s", ""); err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(46 + int64(nodes)))
			type table struct {
				id   ids.ID
				full string
			}
			var live, deleted []table
			tags := map[string]string{} // the model: tag record key → value
			edges := map[string]bool{}  // lineage record keys
			dropEdges := func(id ids.ID) {
				for k := range edges {
					if f := strings.SplitN(k, "\x00", 3); f[0] == string(id) || f[1] == string(id) {
						delete(edges, k)
					}
				}
			}
			counts := map[string]int{}
			n := 0
			for step := 0; step < 160 && !t.Failed(); step++ {
				svc := svcs[rng.Intn(len(svcs))]
				var (
					op     string
					err    error
					purged []ids.ID
				)
				pick := func() table { return live[rng.Intn(len(live))] }
				tagKeys, columns, values := []string{"tier", "pii", "owner"}, []string{"id", "amount"}, []string{"a", "b"}
				switch k := rng.Intn(20); {
				case k < 3 || len(live) < 2:
					op = "create"
					n++
					var e *erm.Entity
					if e, err = svc.CreateTable(admin, "c.s", fmt.Sprintf("t%03d", n), TableSpec{Columns: cols("id", "amount")}, ""); err == nil {
						live = append(live, table{e.ID, e.FullName})
					}
				case k < 7:
					op = "set tag"
					tb, key, value := pick(), tagKeys[rng.Intn(len(tagKeys))], values[rng.Intn(len(values))]
					column, rec := "", erm.TagKey(tb.id, key)
					if rng.Intn(2) == 0 {
						op, column = "set column tag", columns[rng.Intn(len(columns))]
						rec = erm.ColumnTagKey(tb.id, column, key)
					}
					if err = svc.SetTag(admin, tb.full, column, key, value); err == nil {
						tags[rec] = value
					}
				case k < 9:
					op = "unset tag"
					tb := pick()
					var mine []string
					for rec := range tags {
						if strings.HasPrefix(rec, string(tb.id)+"\x00") {
							mine = append(mine, rec)
						}
					}
					if len(mine) == 0 {
						continue
					}
					sort.Strings(mine)
					rec := mine[rng.Intn(len(mine))]
					_, column, key, _ := erm.TagParts(rec)
					if err = svc.UnsetTag(admin, tb.full, column, key); err == nil {
						delete(tags, rec)
					}
				case k < 12:
					op = "submit edges"
					var batch []erm.Edge
					for i := rng.Intn(3); i >= 0; i-- {
						up, down := pick(), pick()
						batch = append(batch, erm.Edge{Upstream: up.id, Downstream: down.id, JobName: []string{"etl", "backfill"}[rng.Intn(2)]})
					}
					if err = svc.SubmitLineage(admin, batch); err == nil {
						for _, e := range batch {
							edges[string(e.Upstream)+"\x00"+string(e.Downstream)+"\x00"+e.JobName] = true
						}
					}
				case k < 13:
					op = "grant"
					err = svc.Grant(admin, pick().full, "bob", privilege.Select)
				case k < 16:
					op = "soft delete"
					i := rng.Intn(len(live))
					if err = svc.DeleteAsset(admin, live[i].full, false); err == nil {
						dropEdges(live[i].id)
						deleted = append(deleted, live[i])
						live = slices.Delete(live, i, i+1)
					}
				case k < 18:
					op = "undelete"
					if len(deleted) == 0 {
						continue
					}
					i := rng.Intn(len(deleted))
					if _, err = svc.Undelete(admin, deleted[i].id); err == nil {
						live = append(live, deleted[i])
						deleted = slices.Delete(deleted, i, i+1)
					}
				default:
					op = "purge"
					fc.Advance(2 * time.Hour)
					if _, err = svc.RunGC("ms1"); err == nil {
						for _, tb := range deleted {
							purged = append(purged, tb.id)
							for rec := range tags {
								if strings.HasPrefix(rec, string(tb.id)+"\x00") {
									delete(tags, rec)
								}
							}
						}
						deleted = nil
					}
				}
				if err != nil {
					t.Fatalf("step %d, %s: %v", step, op, err)
				}
				counts[op]++
				what := fmt.Sprintf("step %d (%s)", step, op)

				snap, err := db.Snapshot("ms1")
				if err != nil {
					t.Fatal(err)
				}
				var gotTags []string
				for _, kv := range snap.Scan(erm.TableTag, "") {
					if tags[kv.Key] != string(kv.Value) {
						t.Fatalf("%s: tag %q=%q, the model says %q", what, kv.Key, kv.Value, tags[kv.Key])
					}
					gotTags = append(gotTags, kv.Key)
				}
				var gotEdges []string
				for _, kv := range snap.Scan(erm.TableLineage, "") {
					gotEdges = append(gotEdges, kv.Key)
				}
				if len(gotTags) != len(tags) || len(gotEdges) != len(edges) {
					t.Fatalf("%s: %d tags and %d edges, the model holds %d and %d", what, len(gotTags), len(gotEdges), len(tags), len(edges))
				}
				for _, e := range gotEdges {
					if !edges[e] {
						t.Fatalf("%s: edge %q, which the model does not hold", what, e)
					}
				}
				for _, tb := range deleted {
					for _, table := range []string{erm.TableGrant, erm.TableLineage, erm.TableLineageUp} {
						if rows := snap.Scan(table, string(tb.id)+"\x00"); len(rows) > 0 {
							t.Fatalf("%s: soft-deleted %s keeps %s rows %q", what, tb.full, table, rowKeys(rows))
						}
					}
				}
				for _, id := range purged {
					if rows := rowsNaming(snap, id); len(rows) > 0 {
						t.Fatalf("%s: rows name purged %s: %q", what, id, rows)
					}
				}
				for i, s := range svcs {
					v, err := s.view(admin)
					if err != nil {
						t.Fatal(err)
					}
					compareMirrors(t, fmt.Sprintf("%s: node %d's view", what, i), v)
					for _, tb := range live {
						for _, down := range []bool{true, false} {
							if got, want := erm.Edges(v, tb.id, down), erm.Edges(snap, tb.id, down); !slices.Equal(got, want) {
								t.Fatalf("%s: node %d's view walks %s's edges (down %v) as %v, the snapshot as %v", what, i, tb.full, down, got, want)
							}
						}
					}
					v.Close()
				}
				snap.Close()

				if step%8 == 5 && len(live) > 0 { // a transaction reads after a write of its own
					tb := pick()
					if _, err := db.Update("ms1", func(tx *store.Tx) error {
						tx.Put(erm.TableTag, erm.ColumnTagKey(tb.id, "amount", "tx"), []byte("pending"))
						tx.Put(erm.TableLineage, string(tb.id)+"\x00"+string(tb.id)+"\x00tx", []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
						for rec := range tags {
							if strings.HasPrefix(rec, string(tb.id)+"\x00") {
								tx.Delete(erm.TableTag, rec)
							}
						}
						compareMirrors(t, what+": a tx after a write of its own", tx)
						return errRollback
					}); !errors.Is(err, errRollback) {
						t.Fatal(err)
					}
					counts["tx"]++
				}
			}
			t.Logf("%d versions checked; %v", versions.Load(), counts)
			for _, op := range []string{"create", "set tag", "set column tag", "unset tag", "submit edges", "grant", "soft delete", "undelete", "purge", "tx"} {
				if counts[op] == 0 {
					t.Errorf("the mix never did %q: %v", op, counts)
				}
			}
		})
	}
}

// TestTagKeyWithZeroByte: a tag key or column holding a 0 byte is refused.
// Such a key read back as another tag — "col\x00amount\x00pii" as column
// amount's tag pii — which no query by tag found.
func TestTagKeyWithZeroByte(t *testing.T) {
	svc, admin := testService(t)
	tb := seedNamespace(t, svc, admin)
	for _, c := range []struct{ column, key string }{{"", "col\x00amount\x00pii"}, {"", "a\x00b"}, {"amount\x00x", "pii"}} {
		if err := svc.SetTag(admin, tb.FullName, c.column, c.key, "yes"); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("SetTag(column %q, key %q) = %v, want ErrInvalidArgument", c.column, c.key, err)
		}
	}
	v, err := svc.view(admin)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if entity, columns := EntityTags(v, tb.ID); len(entity)+len(columns) != 0 {
		t.Errorf("the refused tags left %v and %v", entity, columns)
	}
}
