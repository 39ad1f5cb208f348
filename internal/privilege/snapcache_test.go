package privilege

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unitycatalog/internal/ids"
)

// everyCommit is a change log in which every commit wrote the grants of
// the securables in touched.
func everyCommit(touched ...ids.ID) Touched {
	return func(_ string, from, to uint64) ([]ids.ID, bool) {
		var out []ids.ID
		for v := from; v < to; v++ {
			out = append(out, touched...)
		}
		return out, true
	}
}

func TestSnapshotCacheVersionKeying(t *testing.T) {
	c := NewSnapshotCache(SnapshotCacheOptions{}, everyCommit())
	groups := memGroups{"alice": {"team"}}

	s1 := c.Snapshot("ms", "alice", 1, groups)
	if s1.Principal() != "alice" {
		t.Fatalf("principal = %s", s1.Principal())
	}
	if s2 := c.Snapshot("ms", "alice", 1, groups); s2 != s1 {
		t.Fatal("same version did not hit")
	}
	// A version bump moves the cached snapshot forward; it is not replaced.
	if s3 := c.Snapshot("ms", "alice", 2, groups); s3 != s1 {
		t.Fatal("version bump replaced the snapshot")
	}
	// A stale-view request must not roll the cache back to version 1.
	s4 := c.Snapshot("ms", "alice", 1, groups)
	if s4 == s1 {
		t.Fatal("stale request returned the cached snapshot")
	}
	if s4.version != 1 || s1.version != 2 {
		t.Fatalf("stale request's snapshot at %d, cached at %d; want 1 and 2", s4.version, s1.version)
	}
	if s5 := c.Snapshot("ms", "alice", 2, groups); s5 != s1 {
		t.Fatal("stale request evicted the newer snapshot")
	}
	// Different principals and scopes are distinct keys.
	if sb := c.Snapshot("ms", "bob", 2, groups); sb == s1 {
		t.Fatal("principal collision")
	}
	if so := c.Snapshot("other", "alice", 2, groups); so == s1 {
		t.Fatal("scope collision")
	}

	m := c.Metrics()
	// Compilations: alice, the stale-view request, bob, the other scope.
	// The bump 1→2 was a hit: nothing was memoized, so nothing was lost.
	if m.Hits != 3 || m.Misses != 4 || m.Builds != 4 || m.Invalidations != 0 || m.Patches != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Entries != 3 {
		t.Fatalf("entries = %d", m.Entries)
	}
}

// TestSnapshotFollowsChangeLog walks one cached snapshot through each way a
// version change can reach it, checking what it cost the memo and that the
// next decision is the reference engine's.
func TestSnapshotFollowsChangeLog(t *testing.T) {
	h, g, groups, leaf := deepFixture(4) // metastore > catalog > schema > schema > table
	schema := h[leaf].Parent
	sibling, unborn := ids.New(), ids.New()
	h[sibling] = Securable{ID: sibling, Type: "TABLE", Parent: schema, Owner: "root"}
	ref := NewEngine(h, g, groups)

	var log struct {
		touched []ids.ID
		trimmed bool
		reads   int
	}
	c := NewSnapshotCache(SnapshotCacheOptions{}, func(_ string, from, to uint64) ([]ids.ID, bool) {
		log.reads++
		return log.touched, !log.trimmed
	})
	version := uint64(1)
	look := func(stage string) *Snapshot {
		t.Helper()
		snap := c.Snapshot("ms", "alice", version, groups)
		eng := snap.Bind(version, h, g)
		for _, id := range []ids.ID{leaf, sibling, unborn} {
			for _, priv := range []Privilege{Select, Modify} {
				if got, want := eng.Check(priv, id), ref.Check("alice", priv, id); got != want {
					t.Fatalf("%s: Check(%s, %s) = %+v, reference %+v", stage, priv, id.Short(), got, want)
				}
			}
		}
		return snap
	}
	snap := look("compiled")

	// step commits mutate, which wrote the rows or grants of touched, and
	// looks again. all says the memo must go whole; otherwise it must lose
	// wantDropped entries and no more.
	const all = -1
	step := func(stage string, touched []ids.ID, mutate func(), wantDropped int) {
		t.Helper()
		before, size := c.Metrics(), snap.memo.size()
		if mutate != nil {
			mutate()
		}
		log.touched = touched
		version++
		if got := c.Snapshot("ms", "alice", version, groups); got != snap {
			t.Fatalf("%s: the cached snapshot was replaced", stage)
		}
		m := c.Metrics()
		discarded, dropped := m.Invalidations > before.Invalidations, int(m.MemoDropped-before.MemoDropped)
		if discarded != (wantDropped == all) {
			t.Fatalf("%s: memo discarded whole = %v", stage, discarded)
		}
		if wantDropped == all {
			wantDropped = size
		}
		if dropped != wantDropped || snap.memo.size() != size-wantDropped {
			t.Fatalf("%s: dropped %d of %d entries, %d left; want %d dropped", stage, dropped, size, snap.memo.size(), wantDropped)
		}
		if m.Builds != before.Builds {
			t.Fatalf("%s: recompiled the group closure", stage)
		}
		look(stage)
	}

	step("a commit that wrote no row and no grant", nil, nil, 0)
	step("a grant on a table", []ids.ID{leaf}, func() {
		g.Add(Grant{Securable: leaf, Principal: "alice", Privilege: Modify})
	}, 3)
	step("an owner change on a table", []ids.ID{sibling, sibling}, func() {
		h[sibling] = Securable{ID: sibling, Type: "TABLE", Parent: schema, Owner: "alice"}
	}, 3)
	step("a grant on the schema both tables inherit from", []ids.ID{schema}, func() {
		g.Add(Grant{Securable: schema, Principal: "team", Privilege: Modify})
	}, all)
	step("the creation of an id memoized as missing", []ids.ID{unborn}, func() {
		h[unborn] = Securable{ID: unborn, Type: "TABLE", Parent: schema, Owner: "alice"}
	}, 1)
	step("its deletion", []ids.ID{unborn}, func() { delete(h, unborn) }, 3)
	log.trimmed = true
	step("a trimmed log", nil, func() { g.Remove(leaf, "alice", Modify) }, all)
	log.trimmed = false

	// More commits than the memo has entries: starting over is cheaper than
	// reading them, and the log is not read.
	reads := log.reads
	version += uint64(snap.memo.size())
	step("a gap larger than the memo", []ids.ID{leaf}, nil, all)
	if log.reads != reads {
		t.Fatal("the change log was read across a gap larger than the memo")
	}
}

func TestSnapshotCacheMaxAge(t *testing.T) {
	c := NewSnapshotCache(SnapshotCacheOptions{MaxAge: time.Minute}, nil)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	s1 := c.Snapshot("ms", "alice", 7, nil)
	now = now.Add(59 * time.Second)
	if s2 := c.Snapshot("ms", "alice", 7, nil); s2 != s1 {
		t.Fatal("unexpired entry missed")
	}
	now = now.Add(2 * time.Second)
	s3 := c.Snapshot("ms", "alice", 7, nil)
	if s3 == s1 {
		t.Fatal("expired snapshot reused past MaxAge")
	}
	m := c.Metrics()
	if m.Expirations != 1 {
		t.Fatalf("expirations = %d", m.Expirations)
	}
	// The rebuilt entry replaced the expired one under the same key.
	if m.Entries != 1 {
		t.Fatalf("entries = %d", m.Entries)
	}
}

func TestSnapshotCacheEviction(t *testing.T) {
	c := NewSnapshotCache(SnapshotCacheOptions{MaxEntries: 8}, nil)
	for i := 0; i < 64; i++ {
		c.Snapshot("ms", Principal(fmt.Sprintf("p%d", i)), 1, nil)
	}
	m := c.Metrics()
	if m.Evictions == 0 {
		t.Fatal("no evictions at 8x over cap")
	}
	// Per-shard eviction is approximate; allow slack of one entry per shard.
	if m.Entries > int64(8+snapShardCount) {
		t.Fatalf("entries = %d, cap 8", m.Entries)
	}
}

// TestSnapshotCacheStress hammers the cache under -race: concurrent checks
// across principals and scopes interleaved with version bumps (grant
// mutations) that move the cached snapshots forward under the engines bound
// to them. Snapshots obtained from the cache are used for real decisions
// while other goroutines patch, discard and rebuild them.
func TestSnapshotCacheStress(t *testing.T) {
	h, g, groups, leaf := deepFixture(4)
	c := NewSnapshotCache(SnapshotCacheOptions{MaxEntries: 16}, everyCommit(leaf))
	var version atomic.Uint64
	version.Store(1)

	principals := []Principal{"alice", "root", "nobody", "team"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scope := fmt.Sprintf("ms%d", w%2)
			for i := 0; i < 400; i++ {
				p := principals[(w+i)%len(principals)]
				v := version.Load()
				eng := c.Snapshot(scope, p, v, groups).Bind(v, h, g)
				eng.Check(Select, leaf)
				eng.CheckMany(UseSchema, []ids.ID{leaf})
				eng.IsOwner(leaf)
				eng.EffectiveSet(leaf)
				if i%17 == 0 {
					version.Add(1) // a write bumped the metadata version
				}
			}
		}(w)
	}
	wg.Wait()

	m := c.Metrics()
	if m.Hits+m.Misses != 8*400 {
		t.Fatalf("lookups = %d, want %d (metrics %+v)", m.Hits+m.Misses, 8*400, m)
	}
	// A miss is a compilation or a cached snapshot's memo discarded whole.
	if m.Builds+m.Invalidations != m.Misses {
		t.Fatalf("builds %d + invalidations %d != misses %d", m.Builds, m.Invalidations, m.Misses)
	}
	if m.Patches == 0 {
		t.Fatalf("no snapshot was patched: %+v", m)
	}
}

// flipWorld is a hierarchy and grant set that differ from one version to the
// next in exactly one decision: alice holds SELECT on leaf at even versions
// and not at odd ones. A memo entry for leaf computed at one version and read
// at the next is therefore a wrong answer, not just a stale one.
type flipWorld struct {
	h    memHierarchy
	leaf ids.ID
}

// at returns the readers of a view pinned at version.
func (w flipWorld) at(version uint64) flipReaders { return flipReaders{w, version} }

type flipReaders struct {
	flipWorld
	version uint64
}

func (r flipReaders) Securable(id ids.ID) (Securable, bool) { return r.h.Securable(id) }

func (r flipReaders) GrantsOn(id ids.ID) []Grant {
	if id == r.leaf && r.version%2 == 0 {
		return []Grant{{Securable: id, Principal: "alice", Privilege: Select}}
	}
	return nil
}

func newFlipWorld() flipWorld {
	ms, cat, sch, leaf := ids.New(), ids.New(), ids.New(), ids.New()
	return flipWorld{leaf: leaf, h: memHierarchy{
		ms:   {ID: ms, Type: "METASTORE", Owner: "root"},
		cat:  {ID: cat, Type: "CATALOG", Parent: ms, Owner: "root"},
		sch:  {ID: sch, Type: "SCHEMA", Parent: cat, Owner: "root"},
		leaf: {ID: leaf, Type: "TABLE", Parent: sch, Owner: "root"},
	}}
}

// check decides alice's SELECT on leaf through the cache, as a request whose
// view is pinned at version does, and holds the answer to the world's.
func (w flipWorld) check(t *testing.T, c *SnapshotCache, version uint64, eng *Compiled) {
	t.Helper()
	if eng == nil {
		eng = c.Snapshot("ms", "alice", version, nil).Bind(version, w.at(version), w.at(version))
	}
	if d := eng.CheckNoGate(Select, w.leaf); d.Allowed != (version%2 == 0) {
		t.Errorf("view at version %d: %+v", version, d)
	}
}

// TestSnapshotCacheConcurrentAdvance holds the soundness rule: a memo entry
// computed from readers at version v is never read by, nor written into, a
// snapshot that describes another version. First in the one order that would
// poison the memo — an engine bound at v evaluates after the snapshot has
// moved to v+1 — then with requests pinned at whatever version they loaded
// racing the commits that advance it, under -race.
func TestSnapshotCacheConcurrentAdvance(t *testing.T) {
	w := newFlipWorld()
	c := NewSnapshotCache(SnapshotCacheOptions{}, everyCommit(w.leaf))

	w.check(t, c, 2, nil)
	shared := c.Snapshot("ms", "alice", 2, nil)
	slow := shared.Bind(2, w.at(2), w.at(2)) // a request that has not evaluated yet
	shared.mu.Lock()
	delete(shared.memo.effs, w.leaf) // what it will need is not memoized
	shared.mu.Unlock()
	if c.Snapshot("ms", "alice", 3, nil) != shared {
		t.Fatal("the advance replaced the snapshot")
	}
	w.check(t, c, 2, slow) // its own view's answer, computed aside
	w.check(t, c, 3, nil)  // and not left behind for version 3
	if shared.version != 3 {
		t.Fatalf("snapshot at version %d after a slow reader, want 3", shared.version)
	}
	// The other order: bound before an advance, first evaluation after it.
	fast := c.Snapshot("ms", "alice", 3, nil).Bind(3, w.at(3), w.at(3))
	w.check(t, c, 4, nil)
	w.check(t, c, 3, fast)
	w.check(t, c, 4, nil)

	var version atomic.Uint64
	version.Store(4)
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := version.Load()
				eng := c.Snapshot("ms", "alice", v, nil).Bind(v, w.at(v), w.at(v))
				if (r+i)%3 == 0 {
					version.Add(1) // a commit between this request's bind and its decision
				}
				runtime.Gosched()
				w.check(t, c, v, eng)
			}
		}(r)
	}
	wg.Wait()
	if m := c.Metrics(); m.Patches < 1000 {
		t.Fatalf("the race hardly ever advanced the cached snapshot along the log: %+v", m)
	}
}
