package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
)

// grantStrings are principals and grantors that exercise every escape
// json.Marshal writes: HTML bytes, quotes, control characters, a 0 byte,
// invalid UTF-8 and U+2028.
var grantStrings = []string{"", "alice", "data-eng", "a<b>&c", `q"u\o`, "tab\tnl\n", "nul\x00mid", "\x00", "bad\xffutf8",
	"line\u2028sep", "ü€𝄞", "trailing\x00"}

// TestGrantValueMatchesMarshal: a grant's stored value is json.Marshal's
// bytes, which the WAL holds.
func TestGrantValueMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func() string { return grantStrings[rng.Intn(len(grantStrings))] }
	for i := 0; i < 2000; i++ {
		g := privilege.Grant{Securable: ids.ID(pick()), Principal: privilege.Principal(pick()),
			Privilege: privilege.Privilege(pick()), GrantedBy: privilege.Principal(pick())}
		want, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if got := grantValue(g); !bytes.Equal(got, want) {
			t.Fatalf("grantValue(%+v) = %s, json.Marshal %s", g, got, want)
		}
	}
}

// TestGrantKeyMatchesValue is the differential behind the compiled engine's
// reading a grant from its key: over a seeded mix of grants and revokes,
// principals holding a 0 byte included, every grant row's key names the
// principal and privilege its value holds, and on every securable
// ScanGrants visits exactly what GrantsOn decodes.
func TestGrantKeyMatchesValue(t *testing.T) {
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	fulls := []string{"sales", "sales.raw", "sales.raw.orders"}
	for _, name := range []string{"items", "users"} {
		if _, err := svc.CreateTable(admin, "sales.raw", name, TableSpec{Columns: cols("id")}, ""); err != nil {
			t.Fatal(err)
		}
		fulls = append(fulls, "sales.raw."+name)
	}
	principals := []privilege.Principal{"alice", "bob", "eng\x00ops", "\x00lead", "tail\x00", "a<b>&c", "ü"}
	privs := []privilege.Privilege{privilege.Select, privilege.Modify, privilege.Manage, privilege.AllPrivileges, privilege.UseSchema}
	rng := rand.New(rand.NewSource(51))
	zeroRows := 0 // rows whose principal holds a 0 byte, seen over the run
	for step := 0; step < 300; step++ {
		full, p := fulls[rng.Intn(len(fulls))], principals[rng.Intn(len(principals))]
		priv := privs[rng.Intn(len(privs))]
		if rng.Intn(3) == 0 {
			svc.Revoke(admin, full, p, priv) // may name no grant
		} else if err := svc.Grant(admin, full, p, priv); err != nil {
			continue // not grantable on that type
		}
		snap, err := svc.DB().Snapshot("ms1")
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range snap.Scan(erm.TableGrant, "") {
			var g privilege.Grant
			if err := json.Unmarshal(kv.Value, &g); err != nil {
				t.Fatal(err)
			}
			p, priv, ok := erm.GrantOf(kv.Key)
			if !ok || p != g.Principal || priv != g.Privilege || erm.GrantSecurable(kv.Key) != g.Securable {
				t.Fatalf("step %d: key %q reads (%q, %q, %v), value %+v", step, kv.Key, p, priv, ok, g)
			}
			if strings.IndexByte(string(p), 0) >= 0 {
				zeroRows++
			}
		}
		for _, full := range fulls {
			e, err := svc.GetAsset(admin, full)
			if err != nil {
				t.Fatal(err)
			}
			var want, got []string
			for _, g := range (viewReader{snap}).GrantsOn(e.ID) {
				want = append(want, string(g.Principal)+"/"+string(g.Privilege))
			}
			(viewReader{snap}).ScanGrants(e.ID, visitFunc(func(p privilege.Principal, priv privilege.Privilege) {
				got = append(got, string(p)+"/"+string(priv))
			}))
			if !slices.Equal(got, want) {
				t.Fatalf("step %d, %s: ScanGrants visits %q, GrantsOn decodes %q", step, full, got, want)
			}
		}
		snap.Close()
	}
	if zeroRows == 0 {
		t.Fatal("no grant to a principal holding a 0 byte was ever stored: the mix did not run")
	}
}

type visitFunc func(privilege.Principal, privilege.Privilege)

func (f visitFunc) VisitGrant(p privilege.Principal, priv privilege.Privilege) { f(p, priv) }

// TestGrantScanAllocs: a compiled engine's memo miss on a securable reads its
// grants without allocating per grant: the store's scan sizes its result
// once, so the scan of a table with 64 grants, and evaluating that table,
// allocate what they do for a table with a single grant.
func TestGrantScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("counts allocations")
	}
	svc, admin := testService(t)
	seedNamespace(t, svc, admin)
	miss := func(n int) (evaluate, scan float64) {
		name := fmt.Sprintf("g%d", n)
		tbl, err := svc.CreateTable(admin, "sales.raw", name, TableSpec{Columns: cols("id")}, "")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := svc.Grant(admin, "sales.raw."+name, privilege.Principal(fmt.Sprintf("p%d", i)), privilege.Select); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := svc.DB().Snapshot("ms1")
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		r := viewReader{snap}
		evaluate = testing.AllocsPerRun(100, func() {
			c := privilege.NewSnapshot("p0", nil).Bind(snap.Version, r, r)
			if _, ok := c.EffectiveSet(tbl.ID); !ok {
				t.Fatal("table not found")
			}
		})
		scan = testing.AllocsPerRun(100, func() { snap.Scan(erm.TableGrant, erm.GrantPrefix(tbl.ID)) })
		return evaluate, scan
	}
	one, oneScan := miss(1)
	many, manyScan := miss(64)
	t.Logf("a memo miss over a table and its ancestors: %.0f allocations with 1 grant (%.0f the table's grant scan), %.0f with 64 (%.0f)",
		one, oneScan, many, manyScan)
	if manyScan != oneScan {
		t.Errorf("the grant scan allocates %.0f with 64 grants and %.0f with 1: its result is not sized once", manyScan, oneScan)
	}
	if many != one {
		t.Errorf("a memo miss allocates %.0f with 64 grants and %.0f with 1: it allocates per grant", many, one)
	}
}
