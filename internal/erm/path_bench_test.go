package erm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"unitycatalog/internal/ids"
	"unitycatalog/internal/store"
)

// BenchmarkPathRowCommit commits 60,000 tables in 600 schemas, one a commit,
// each at a storage path of its own, and reports ns per commit: "derived"
// through PutEntity, whose path row the store derives into the path table's
// one group, and "stored" as the rows were kept before, the record without
// its path and a path row written beside it. "random"
// registers the paths in random order, each insert landing anywhere in the
// group; "ascending" in key order, as managed paths, which end in a
// time-ordered ID, arrive.
func BenchmarkPathRowCommit(b *testing.B) {
	const n = 60_000
	for _, order := range []string{"random", "ascending"} {
		for _, arm := range []string{"derived", "stored"} {
			b.Run(order+"/"+arm, func(b *testing.B) {
				ents := make([]*Entity, n)
				now := time.Now()
				for i := range ents {
					ents[i] = &Entity{ID: ids.New(), Type: TypeTable, Name: fmt.Sprintf("t%05d", i), ParentID: ids.ID(fmt.Sprintf("schema%03d", i%600)),
						State: StateActive, CreatedAt: now, UpdatedAt: now}
					ents[i].StoragePath = fmt.Sprintf("s3://bench/wh/%s", ents[i].ID)
				}
				if order == "random" {
					rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { ents[i], ents[j] = ents[j], ents[i] })
				}
				var total time.Duration
				for range b.N {
					db, err := store.Open(store.Options{})
					if err != nil {
						b.Fatal(err)
					}
					db.CreateMetastore("m")
					start := time.Now()
					for _, e := range ents {
						if _, err := db.Update("m", func(tx *store.Tx) error {
							if arm == "derived" {
								return PutEntity(tx, e)
							}
							bare := *e
							bare.StoragePath = ""
							tx.Put("storedpath", e.StoragePath, idValue(e.ID))
							return PutEntity(tx, &bare)
						}); err != nil {
							b.Fatal(err)
						}
					}
					total += time.Since(start)
					db.Close()
				}
				b.ReportMetric(float64(total.Nanoseconds())/float64(b.N*n), "ns/commit")
			})
		}
	}
}
