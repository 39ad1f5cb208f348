package privilege

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"unitycatalog/internal/ids"
)

// TestQuickGrantMonotonicity property-tests a core soundness property of
// the privilege model: adding grants never revokes access. For any random
// hierarchy, grant set, and check, if a principal is allowed, they remain
// allowed after any additional grant is added anywhere.
func TestQuickGrantMonotonicity(t *testing.T) {
	privs := []Privilege{Select, Modify, UseCatalog, UseSchema, Execute, Manage}
	people := []Principal{"a", "b", "c"}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build a metastore -> catalog -> schema -> table chain plus a
		// sibling table.
		ms, cat, sch, t1, t2 := ids.New(), ids.New(), ids.New(), ids.New(), ids.New()
		h := memHierarchy{
			ms:  {ID: ms, Type: "METASTORE", Owner: "root"},
			cat: {ID: cat, Type: "CATALOG", Parent: ms, Owner: "root"},
			sch: {ID: sch, Type: "SCHEMA", Parent: cat, Owner: "root"},
			t1:  {ID: t1, Type: "TABLE", Parent: sch, Owner: "root"},
			t2:  {ID: t2, Type: "TABLE", Parent: sch, Owner: "root"},
		}
		all := []ids.ID{ms, cat, sch, t1, t2}
		g := NewMemStore()
		eng := NewEngine(h, g, nil)

		// Random initial grants.
		for i := 0; i < rng.Intn(8); i++ {
			g.Add(Grant{
				Securable: all[rng.Intn(len(all))],
				Principal: people[rng.Intn(len(people))],
				Privilege: privs[rng.Intn(len(privs))],
			})
		}
		// Record every (principal, privilege, securable) decision.
		type key struct {
			p    Principal
			priv Privilege
			sec  ids.ID
		}
		before := map[key]bool{}
		for _, p := range people {
			for _, pr := range privs {
				for _, sec := range all {
					before[key{p, pr, sec}] = eng.Check(p, pr, sec).Allowed
				}
			}
		}
		// Add one more random grant.
		g.Add(Grant{
			Securable: all[rng.Intn(len(all))],
			Principal: people[rng.Intn(len(people))],
			Privilege: privs[rng.Intn(len(privs))],
		})
		// Nothing that was allowed may become denied.
		for k, wasAllowed := range before {
			if wasAllowed && !eng.Check(k.p, k.priv, k.sec).Allowed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomWorld builds a randomized securable forest with random types,
// owners, groups, and grants. With small probability a node's parent is an
// ID absent from the hierarchy, exercising the broken-hierarchy paths.
func randomWorld(rng *rand.Rand) (memHierarchy, *MemStore, memGroups, []ids.ID) {
	people := []Principal{"u1", "u2", "u3", "g1", "g2", "root"}
	types := []string{"CATALOG", "SCHEMA", "TABLE", "VOLUME"}
	privs := []Privilege{Select, Modify, UseCatalog, UseSchema, CreateTable, Manage, AllPrivileges}

	h := memHierarchy{}
	root := ids.New()
	h[root] = Securable{ID: root, Type: "METASTORE", Owner: people[rng.Intn(len(people))]}
	all := []ids.ID{root}
	n := 6 + rng.Intn(6)
	for i := 0; i < n; i++ {
		id := ids.New()
		parent := all[rng.Intn(len(all))]
		if rng.Intn(10) == 0 {
			parent = ids.New() // dangling parent: broken hierarchy
		}
		h[id] = Securable{
			ID:     id,
			Type:   types[rng.Intn(len(types))],
			Parent: parent,
			Owner:  people[rng.Intn(len(people))],
		}
		all = append(all, id)
	}

	g := NewMemStore()
	for i := 0; i < rng.Intn(16); i++ {
		g.Add(Grant{
			Securable: all[rng.Intn(len(all))],
			Principal: people[rng.Intn(len(people))],
			Privilege: privs[rng.Intn(len(privs))],
		})
	}

	groups := memGroups{}
	for _, u := range []Principal{"u1", "u2", "u3"} {
		var ms []Principal
		for _, grp := range []Principal{"g1", "g2"} {
			if rng.Intn(2) == 0 {
				ms = append(ms, grp)
			}
		}
		groups[u] = ms
	}
	return h, g, groups, all
}

// TestDifferentialCompiledVsNaive is the equivalence proof for the compiled
// fast path: over randomized worlds (hierarchies, types, owners, groups,
// grants, broken parents), the compiled engine must agree with the naive
// reference engine on the full Decision — allowed bit AND reason string —
// for Check and CheckNoGate, and on IsOwner, EffectivePrivileges,
// EffectiveSet, and CheckMany, for every (principal, privilege, securable)
// triple including an unknown securable. It also re-queries through the
// same snapshot (rebound once) to prove memoized answers don't drift.
func TestDifferentialCompiledVsNaive(t *testing.T) {
	privs := []Privilege{Select, Modify, UseCatalog, UseSchema, CreateTable, Manage, AllPrivileges}
	users := []Principal{"u1", "u2", "u3", "g1", "root", "nobody"}

	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, g, groups, all := randomWorld(rng)
		secs := append(append([]ids.ID{}, all...), ids.New()) // plus one unknown
		eng := NewEngine(h, g, groups)

		for _, p := range users {
			naive := eng.For(p)
			snap := NewSnapshot(p, groups)
			// Two binds of one snapshot: the second pass answers purely from
			// memos compiled during the first.
			for pass := 0; pass < 2; pass++ {
				comp := snap.Bind(0, h, g)
				for _, sec := range secs {
					for _, priv := range privs {
						if nd, cd := naive.Check(priv, sec), comp.Check(priv, sec); nd != cd {
							t.Fatalf("seed %d pass %d: Check(%s, %s, %s): naive %+v, compiled %+v", seed, pass, p, priv, sec.Short(), nd, cd)
						}
						if nd, cd := naive.CheckNoGate(priv, sec), comp.CheckNoGate(priv, sec); nd != cd {
							t.Fatalf("seed %d pass %d: CheckNoGate(%s, %s, %s): naive %+v, compiled %+v", seed, pass, p, priv, sec.Short(), nd, cd)
						}
					}
					if no, co := naive.IsOwner(sec), comp.IsOwner(sec); no != co {
						t.Fatalf("seed %d pass %d: IsOwner(%s, %s): naive %v, compiled %v", seed, pass, p, sec.Short(), no, co)
					}
					ne, ce := naive.EffectivePrivileges(sec), comp.EffectivePrivileges(sec)
					if len(ne) != len(ce) {
						t.Fatalf("seed %d pass %d: EffectivePrivileges(%s, %s): naive %v, compiled %v", seed, pass, p, sec.Short(), ne, ce)
					}
					for i := range ne {
						if ne[i] != ce[i] {
							t.Fatalf("seed %d pass %d: EffectivePrivileges(%s, %s): naive %v, compiled %v", seed, pass, p, sec.Short(), ne, ce)
						}
					}
					if ns, nok := naive.EffectiveSet(sec); true {
						cs, cok := comp.EffectiveSet(sec)
						if ns != cs || nok != cok {
							t.Fatalf("seed %d pass %d: EffectiveSet(%s, %s): naive %b/%v, compiled %b/%v", seed, pass, p, sec.Short(), ns, nok, cs, cok)
						}
					}
				}
				for _, priv := range privs {
					nm, cm := naive.CheckMany(priv, secs), comp.CheckMany(priv, secs)
					for i := range nm {
						if nm[i] != cm[i] {
							t.Fatalf("seed %d pass %d: CheckMany(%s, %s)[%d]: naive %+v, compiled %+v", seed, pass, p, priv, i, nm[i], cm[i])
						}
					}
				}
			}

			// A listing's way in: a snapshot that meets every securable
			// through EffectiveSetOf, handed the row, never reads that row —
			// only the dangling parents no one could hand it, once each —
			// and answers everything after as the reference does.
			reads := countingHierarchy{h: h, n: map[ids.ID]int{}}
			hand := NewSnapshot(p, groups).Bind(0, reads, g)
			for _, sec := range all { // parents before children, as created
				row, _ := h.Securable(sec)
				ns, nok := naive.EffectiveSet(sec)
				if cs, cok := hand.EffectiveSetOf(row); ns != cs || nok != cok {
					t.Fatalf("seed %d: EffectiveSetOf(%s, %s): naive %b/%v, compiled %b/%v", seed, p, sec.Short(), ns, nok, cs, cok)
				}
			}
			for id, n := range reads.n {
				if _, handed := h[id]; handed || n > 1 {
					t.Fatalf("seed %d: %d hierarchy reads of %s (handed to EffectiveSetOf: %v)", seed, n, id.Short(), handed)
				}
			}
			for _, sec := range secs {
				for _, priv := range privs {
					if nd, cd := naive.Check(priv, sec), hand.Check(priv, sec); nd != cd {
						t.Fatalf("seed %d after EffectiveSetOf: Check(%s, %s, %s): naive %+v, compiled %+v", seed, p, priv, sec.Short(), nd, cd)
					}
				}
			}
		}
	}
}

// countingHierarchy counts the reads of each securable's row.
type countingHierarchy struct {
	h HierarchyResolver
	n map[ids.ID]int
}

func (c countingHierarchy) Securable(id ids.ID) (Securable, bool) {
	c.n[id]++
	return c.h.Securable(id)
}

// TestMemoKeepsItsOwnParent: a securable handed in from a decoded page has a
// Parent that is a substring of the page's backing string. The memo outlives
// the page, so what it files must not alias it, and siblings share the one
// string their parent is filed under.
func TestMemoKeepsItsOwnParent(t *testing.T) {
	page := strings.Repeat("x", 1<<10) + "schema-1" + strings.Repeat("y", 1<<10)
	parent := ids.ID(page[1<<10 : 1<<10+8])
	h := memHierarchy{parent: {ID: "schema-1", Type: "SCHEMA", Owner: "root"}}
	c := NewSnapshot("u1", nil).Bind(0, h, NewMemStore())
	for _, id := range []ids.ID{"t1", "t2", "t3"} {
		c.EffectiveSetOf(Securable{ID: id, Type: "TABLE", Parent: parent, Owner: "root"})
	}
	m := &c.snap.memo
	lo, hi := uintptr(unsafe.Pointer(unsafe.StringData(page))), uintptr(unsafe.Pointer(unsafe.StringData(page)))+uintptr(len(page))
	inPage := func(s ids.ID) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(string(s))))
		return p >= lo && p < hi
	}
	for id, sm := range m.secs {
		if inPage(sm.sec.Parent) {
			t.Fatalf("memo entry %s keeps a parent that is a substring of the page", id)
		}
	}
	for id := range m.parents {
		if inPage(id) {
			t.Fatal("the memo's parent set keeps a substring of the page")
		}
	}
	filed := unsafe.StringData(string(m.secs["schema-1"].sec.ID))
	if got := unsafe.StringData(string(m.secs["t2"].sec.Parent)); got != filed {
		t.Fatal("a sibling's parent is a copy of its own, not the ID its parent is filed under")
	}
	if got := unsafe.StringData(string(m.secs["t3"].sec.Parent)); got != filed {
		t.Fatal("a sibling's parent is a copy of its own, not the ID its parent is filed under")
	}
}

// TestQuickRevokeNeverExpands is the dual: removing a grant never grants
// anyone new access.
func TestQuickRevokeNeverExpands(t *testing.T) {
	privs := []Privilege{Select, Modify, UseCatalog, UseSchema}
	people := []Principal{"a", "b"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ms, cat, tbl := ids.New(), ids.New(), ids.New()
		h := memHierarchy{
			ms:  {ID: ms, Type: "METASTORE", Owner: "root"},
			cat: {ID: cat, Type: "CATALOG", Parent: ms, Owner: "root"},
			tbl: {ID: tbl, Type: "TABLE", Parent: cat, Owner: "root"},
		}
		all := []ids.ID{ms, cat, tbl}
		g := NewMemStore()
		eng := NewEngine(h, g, nil)
		var grants []Grant
		for i := 0; i < 6; i++ {
			gr := Grant{Securable: all[rng.Intn(len(all))], Principal: people[rng.Intn(len(people))], Privilege: privs[rng.Intn(len(privs))]}
			g.Add(gr)
			grants = append(grants, gr)
		}
		type key struct {
			p    Principal
			priv Privilege
			sec  ids.ID
		}
		before := map[key]bool{}
		for _, p := range people {
			for _, pr := range privs {
				for _, sec := range all {
					before[key{p, pr, sec}] = eng.Check(p, pr, sec).Allowed
				}
			}
		}
		victim := grants[rng.Intn(len(grants))]
		g.Remove(victim.Securable, victim.Principal, victim.Privilege)
		for k, wasAllowed := range before {
			if !wasAllowed && eng.Check(k.p, k.priv, k.sec).Allowed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
