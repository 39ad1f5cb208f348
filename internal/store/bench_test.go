package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkCommitThroughput measures the write path under concurrent
// committers to a single metastore, across the grid that matters for the
// group-commit design: writer count × simulated backend round trip
// (CommitLatency) × WAL on/off. Before group commit, N writers paid N
// serialized round trips and N WAL flushes; after, they share one batch
// flush+fsync and overlap their round trips, so the lat=2ms cells are the
// headline (see EXPERIMENTS.md).
//
// GOMAXPROCS note: this container exposes one core, so RunParallel cannot
// show CPU parallelism — but commit latency is sleep-bound, not CPU-bound,
// and overlapping sleeps (the thing group commit enables) shows up fine.
func BenchmarkCommitThroughput(b *testing.B) {
	for _, writers := range []int{1, 8, 64} {
		for _, lat := range []time.Duration{0, 2 * time.Millisecond} {
			for _, wal := range []bool{false, true} {
				name := fmt.Sprintf("writers=%d/lat=%s/wal=%v", writers, lat, wal)
				b.Run(name, func(b *testing.B) {
					opts := Options{CommitLatency: lat}
					if wal {
						opts.WALPath = filepath.Join(b.TempDir(), "bench.wal")
					}
					db, err := Open(opts)
					if err != nil {
						b.Fatal(err)
					}
					defer db.Close()
					if err := db.CreateMetastore("m"); err != nil {
						b.Fatal(err)
					}
					var seq atomic.Int64
					b.SetParallelism(writers) // goroutines = writers × GOMAXPROCS
					b.ReportAllocs()
					b.ResetTimer()
					b.RunParallel(func(pb *testing.PB) {
						for pb.Next() {
							n := seq.Add(1)
							key := fmt.Sprintf("k%d", n%512)
							if _, err := db.Update("m", func(tx *Tx) error {
								tx.Put("t", key, []byte("v"))
								return nil
							}); err != nil {
								b.Fatal(err)
							}
						}
					})
				})
			}
		}
	}
}

// BenchmarkPointGet measures a random point read, Snapshot.Get's work: find
// the key's record and read its newest version. It runs at the benchmark's
// store size (31k keys) and at 1M, over keys of 40 bytes sharing a 28-byte
// prefix as a metastore's rows do, looked up by copies, as a request's key
// is, so every hit compares the bytes. The map arm is the reference: the
// map[string]*record the key table replaced. Reads are independent, so the
// processor overlaps one read's cache misses with the next one's, or
// dependent: each read's key is chosen by the value the last one read, as a
// request's next step waits for its read, which times a read's latency.
func BenchmarkPointGet(b *testing.B) {
	key := func(i int) string { return fmt.Sprintf("metastore/0001/entity/table/%012d", i) }
	for _, n := range []int{31_000, 1_000_000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			kt, ref := newKeyTable(), make(map[string]*record, n)
			for i := 0; i < n; i++ {
				r := &record{key: key(i), commit: 1}
				r.setValue([]byte{byte(i)})
				kt.insert(r)
				ref[r.key] = r
			}
			rng := rand.New(rand.NewSource(1))
			probes := make([]string, 1<<16)
			for i := range probes {
				probes[i] = key(rng.Intn(n))
			}
			const mask = 1<<16 - 1
			b.Run("keytable/independent", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pointGetSink, _ = kt.get(probes[i&mask]).at(1)
				}
			})
			b.Run("map/independent", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pointGetSink, _ = ref[probes[i&mask]].at(1)
				}
			})
			b.Run("keytable/dependent", func(b *testing.B) {
				j := 0
				for i := 0; i < b.N; i++ {
					v, _ := kt.get(probes[(i+j)&mask]).at(1)
					j = int(v[0] & 1)
				}
			})
			b.Run("map/dependent", func(b *testing.B) {
				j := 0
				for i := 0; i < b.N; i++ {
					v, _ := ref[probes[(i+j)&mask]].at(1)
					j = int(v[0] & 1)
				}
			})
		})
	}
}

var pointGetSink []byte

// treeRecords returns n records keyed as a metastore's child rows are: a
// 28-byte prefix shared by all, then parents in random order, the 80
// children of each in name order, which is the order such rows arrive in.
func treeRecords(n int) []*record {
	const prefix = "metastore/0001/child/schema/"
	rng := rand.New(rand.NewSource(1))
	recs := make([]*record, 0, n)
	for _, p := range rng.Perm((n + 79) / 80) {
		for c := 0; c < 80 && len(recs) < n; c++ {
			recs = append(recs, &record{key: fmt.Sprintf("%s%08d/c%03d", prefix, p, c)})
		}
	}
	return recs
}

// BenchmarkTreeLoad measures the ordered index's insert: each iteration
// loads n catalog-shaped keys into an empty tree, and ns/insert is the time
// per key.
func BenchmarkTreeLoad(b *testing.B) {
	for _, n := range []int{31_000, 1_000_000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			recs := treeRecords(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree := newBtree()
				for _, r := range recs {
					tree.insert(r)
				}
				treeSink = tree
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/insert")
		})
	}
}

// BenchmarkTreeSeek measures a range scan's descent: find the first record
// at or after a random indexed key, looked up by a copy, as a request's key
// is, so every comparison reads the bytes.
func BenchmarkTreeSeek(b *testing.B) {
	for _, n := range []int{31_000, 1_000_000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			recs := treeRecords(n)
			tree := newBtree()
			for _, r := range recs {
				tree.insert(r)
			}
			rng := rand.New(rand.NewSource(2))
			probes := make([]string, 1<<16)
			for i := range probes {
				probes[i] = strings.Clone(recs[rng.Intn(n)].key)
			}
			const mask = 1<<16 - 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree.ascend(probes[i&mask], func(r *record) bool { treeSeekSink = r; return false })
			}
		})
	}
}

var (
	treeSink     *btree
	treeSeekSink *record
)
