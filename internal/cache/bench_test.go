package cache

import (
	"fmt"
	"sync/atomic"
	"testing"

	"unitycatalog/internal/store"
)

// benchCache builds a warmed cache node over nKeys records.
func benchCache(b *testing.B, nKeys int) *Cache {
	b.Helper()
	db, err := store.Open(store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	db.CreateMetastore("m")
	c := New(db, Options{})
	c.Own("m")
	if _, err := c.Update("m", func(tx *store.Tx) error {
		for i := 0; i < nKeys; i++ {
			tx.Put("t", fmt.Sprintf("k%05d", i), []byte("value"))
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	// Warm every key so the measured path is pure hits.
	v, _ := c.NewView("m")
	for i := 0; i < nKeys; i++ {
		v.Get("t", fmt.Sprintf("k%05d", i))
	}
	v.Close()
	return c
}

const benchKeys = 1024

var benchKeyNames = func() []string {
	out := make([]string, benchKeys)
	for i := range out {
		out[i] = fmt.Sprintf("k%05d", i)
	}
	return out
}()

// BenchmarkViewGetHit measures the single-goroutine cached hit path
// (view open + one Get + close), the unit the service read path multiplies.
func BenchmarkViewGetHit(b *testing.B) {
	c := benchCache(b, benchKeys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := c.NewView("m")
		if _, ok := v.Get("t", benchKeyNames[i%benchKeys]); !ok {
			b.Fatal("miss")
		}
		v.Close()
	}
}

// BenchmarkViewGetHitParallel is the contended version: every goroutine
// opens views and hits different keys. With sharded locks and atomic
// bookkeeping this should scale with GOMAXPROCS.
func BenchmarkViewGetHitParallel(b *testing.B) {
	c := benchCache(b, benchKeys)
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seq.Add(1)) * 7919 // spread goroutines across the key space
		for pb.Next() {
			v, _ := c.NewView("m")
			if _, ok := v.Get("t", benchKeyNames[i%benchKeys]); !ok {
				b.Fatal("miss")
			}
			v.Close()
			i++
		}
	})
}

// BenchmarkSharedViewGetHitParallel hammers one shared View from all
// goroutines — the pure hit path with no per-op view setup.
func BenchmarkSharedViewGetHitParallel(b *testing.B) {
	c := benchCache(b, benchKeys)
	v, _ := c.NewView("m")
	defer v.Close()
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seq.Add(1)) * 7919
		for pb.Next() {
			if _, ok := v.Get("t", benchKeyNames[i%benchKeys]); !ok {
				b.Fatal("miss")
			}
			i++
		}
	})
}

// BenchmarkEvictFullShard measures choosing and removing one victim in a shard
// of 32k records, what every shard holds at the default cap of 1<<20 records
// per metastore. Each round re-inserts the victim, as the miss it made room
// for would insert a record, so the shard stays full.
func BenchmarkEvictFullShard(b *testing.B) {
	const perShard = 32 << 10
	sh := &shard{records: make(map[cacheKey]*cachedRecord, perShard)}
	for i := 0; i < perShard; i++ {
		rk := cacheKey{"t", fmt.Sprintf("k%05d", i)}
		rec := &cachedRecord{key: rk.key}
		rec.lastUsed.Store(int64(i))
		sh.records[rk] = rec
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim, ok := victimLocked(sh)
		if !ok {
			b.Fatal("no victim in a full shard")
		}
		rec := sh.records[victim]
		delete(sh.records, victim)
		rec.lastUsed.Store(int64(perShard + i))
		sh.records[victim] = rec
	}
}

// BenchmarkViewMixedParallel models the paper's production mix (§4.5,
// 98.2% reads): one write per ~50 reads, all concurrent.
func BenchmarkViewMixedParallel(b *testing.B) {
	c := benchCache(b, benchKeys)
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seq.Add(1)) * 7919
		for pb.Next() {
			if i%50 == 0 {
				if _, err := c.Update("m", func(tx *store.Tx) error {
					tx.Put("t", benchKeyNames[i%benchKeys], []byte("w"))
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			} else {
				v, _ := c.NewView("m")
				v.Get("t", benchKeyNames[i%benchKeys])
				v.Close()
			}
			i++
		}
	})
}
