package privilege

import (
	"math/rand"
	"testing"
	"testing/quick"

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
		}
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
