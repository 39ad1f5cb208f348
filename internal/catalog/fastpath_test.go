package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// splitFullName is how a full name was split before resolution walked it in
// place: the reference checkFullName and resolveName are held to.
func splitFullName(full string, min, max int) ([]string, error) {
	parts := strings.Split(full, ".")
	if len(parts) < min || len(parts) > max {
		return nil, fmt.Errorf("%w: bad name %q (want %d-%d parts)", ErrInvalidArgument, full, min, max)
	}
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("%w: bad name %q", ErrInvalidArgument, full)
		}
	}
	return parts, nil
}

// TestResolveChainMatchesSplit holds resolveChain, which checks and walks a
// full name in place and builds each level's key in one buffer, to the split
// it replaced and to NameKey's strings: over seeded names of one to six parts,
// some empty, in either case and with non-ASCII letters, it fails with the
// split's error text; resolves what a walk of the split parts by NameKey
// resolves; and fails with the same "not found" text where that walk stops.
func TestResolveChainMatchesSplit(t *testing.T) {
	svc, admin := testService(t)
	for _, n := range [][2]string{{"", "Sales"}, {"Sales", "Raw"}, {"Sales", "int"}, {"", "x"}, {"x", "k"}} {
		var err error
		if n[0] == "" {
			_, err = svc.CreateCatalog(admin, n[1], "")
		} else {
			_, err = svc.CreateSchema(admin, n[0], n[1], "")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tbl := range []string{"sales.raw.Orders", "SALES.int.t", "x.k.x"} {
		i := strings.LastIndexByte(tbl, '.')
		if _, err := svc.CreateTable(admin, tbl[:i], tbl[i+1:], TableSpec{Columns: cols("id")}, ""); err != nil {
			t.Fatal(err)
		}
	}
	ms, err := svc.meta("ms1")
	if err != nil {
		t.Fatal(err)
	}
	v, err := svc.view(admin)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	// İnt lowers to int and the Kelvin sign to k: names no create admits
	// resolve to what they lower to.
	words := []string{"sales", "SALES", "raw", "RAW", "orders", "İnt", "int", "ß", "k", "\u212a", "x", "t", "nope", ""}
	rng := rand.New(rand.NewSource(48))
	resolved, missing := 0, 0
	for i := 0; i < 5000; i++ {
		parts := make([]string, 1+rng.Intn(6))
		for j := range parts {
			parts[j] = words[rng.Intn(len(words))]
		}
		full := strings.Join(parts, ".")
		got, err := svc.resolveChain(v, ms, full)
		split, splitErr := splitFullName(full, 1, maxNameParts)
		if splitErr != nil {
			if err == nil || err.Error() != splitErr.Error() {
				t.Fatalf("%q: resolveChain error %v, want the split's %v", full, err, splitErr)
			}
			continue
		}
		// The reference walk: the split parts, level by level, by NameKey.
		want := []*erm.Entity{}
		root, _ := erm.GetEntity(v, ms.info.EntityID)
		want = append(want, root)
		var wantErr error
		for k, part := range split {
			var e *erm.Entity
			var found bool
			for _, g := range levelGroups[k] {
				if id, ok := erm.LookupID(v, erm.TableName, erm.NameKey(g, want[k].ID, part)); ok {
					if e, found = erm.GetEntity(v, id); found {
						break
					}
				}
			}
			if !found {
				wantErr = fmt.Errorf("%w: %s", ErrNotFound, FullName(split[:k+1]...))
				break
			}
			want = append(want, e)
		}
		if wantErr != nil {
			missing++
			if err == nil || err.Error() != wantErr.Error() || !errors.Is(err, ErrNotFound) {
				t.Fatalf("%q: resolveChain error %v, want %v", full, err, wantErr)
			}
			continue
		}
		resolved++
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: resolveChain %v, %v; want %v", full, got, err, want)
		}
	}
	if resolved < 50 || missing < 50 {
		t.Fatalf("%d names resolved, %d not found: the seeded names do not exercise both", resolved, missing)
	}
}

// fgacMembers are the top-level members TestStaticFGACMatchesDecode builds
// table specs from: other members, and fgac members that hold no rule, hold
// rules, are spelled in another case, repeat, hold escapes, or are of a kind
// json.Unmarshal refuses.
var fgacMembers = []string{
	`"columns":[{"name":"id","type":"BIGINT"}]`,
	`"table_type":"MANAGED"`,
	`"comment":"say \"hi\""`,
	`"uniform_enabled":"yes"`,
	`"fgac":null`,
	`"fgac":{}`,
	`"fgac":[]`,
	`"fgac":"none"`,
	`"FGAC":{}`,
	`"Fgac":{"Row_Filters":[]}`,
	`"fgac":{"row_filters":[]}`,
	`"fgac":{"row_filters":null,"column_masks":[]}`,
	`"fgac":{"row_filters":{}}`,
	`"fgac":{"other":{"row_filters":[{"predicate":"p"}]},"keep":1}`,
	`"fgac":{"Row_Filters":[{"columns":["region"],"predicate":"region = 'EU'"}]}`,
	`"fgac":{"column_masks":[{"column":"id","kind":"NULL"}]}`,
	`"fgac":{"column_masks":[{"column":"id","kind":"NULL","exempt_principals":["reader"]}]}`,
	`"fgac":{"row_filters":[],"row_filters":[{"predicate":"p"}]}`,
	`"fgac":{"row_filters":[{"predicate":"p"}],"row_filters":[]}`,
	`"fgac":{"row_filters":[{"predicate":"p"}]}`,
	`"fgac":{"row_filters":[{"predicate":"p"}]}`,
	`"fgac":{"row_filters":[1]}`,
}

// TestStaticFGACMatchesDecode holds the policy a credential request reads in
// place (staticFGAC, erm.Spec.EmptyLists) to the decode it skips: over seeded
// table specs, packed and JSON, the in-place read says "no rule" only where
// the fgac member decodes to an empty policy — and where the whole spec
// decodes, that TableSpecOf's FGAC is empty — and wherever the in-place read
// cannot tell, staticFGAC returns what a decode of the fgac member does, and
// fails where it fails.
func TestStaticFGACMatchesDecode(t *testing.T) {
	svc, _ := testService(t)
	ctx := Ctx{Principal: "reader", Metastore: "ms1"}
	rng := rand.New(rand.NewSource(48))
	decided, packed := 0, 0
	for i := 0; i < 5000; i++ {
		members := make([]string, rng.Intn(4))
		for j := range members {
			members[j] = fgacMembers[rng.Intn(len(fgacMembers))]
		}
		js := "{" + strings.Join(members, ",") + "}"
		for _, spec := range []erm.Spec{erm.PackSpec([]byte(js)), erm.Spec(js)} {
			e := &erm.Entity{Type: erm.TypeTable, Spec: spec}
			if spec.Packed() {
				packed++
			}
			var member struct {
				FGAC privilege.FGACPolicy `json:"fgac"`
			}
			memberErr := json.Unmarshal([]byte(js), &member)
			whole, wholeErr := TableSpecOf(e)
			if spec.EmptyLists("fgac", "row_filters", "column_masks") {
				decided++
				if memberErr != nil || !member.FGAC.Empty() || wholeErr == nil && !whole.FGAC.Empty() {
					t.Fatalf("%s (packed %v): read in place as holding no rule; its fgac member decodes to %+v, %v", js, spec.Packed(), member.FGAC, memberErr)
				}
				continue
			}
			got, ok := svc.staticFGAC(ctx, e)
			var want privilege.FGACPolicy
			if memberErr == nil {
				want = member.FGAC.ForPrincipal(ctx.Principal, nil)
			}
			if ok != (memberErr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (packed %v): staticFGAC %+v, %v; the member's decode %+v, %v", js, spec.Packed(), got, ok, want, memberErr)
			}
			if wholeErr == nil && !reflect.DeepEqual(whole.FGAC, member.FGAC) {
				t.Fatalf("%s: TableSpecOf's policy %+v, the member's %+v", js, whole.FGAC, member.FGAC)
			}
		}
	}
	if decided < 1000 || packed < 1000 {
		t.Fatalf("%d specs read in place, %d packed: the seeded specs do not exercise the in-place read", decided, packed)
	}
}

// TestVendRefusesUnreadablePolicy: a table whose stored fgac member does not
// decode (a record written before specs were checked, or a damaged one) holds
// row filters and column masks that cannot be read, so an untrusted engine
// gets no raw storage for it, by name or by path; a trusted engine, which
// reads the policy itself, still does. A spec whose other members do not
// decode is held to its fgac member and to the ABAC rules, packed or not. A
// spec that did not decode used to be held to no policy at all, its ABAC
// rules skipped too.
func TestVendRefusesUnreadablePolicy(t *testing.T) {
	svc, admin := testService(t)
	tbl := seedNamespace(t, svc, admin)
	untrusted := admin
	untrusted.TrustedEngine = false
	vends := []struct {
		by  string
		get func(Ctx) (TempCredential, error)
	}{
		{"name", func(ctx Ctx) (TempCredential, error) {
			return svc.TempCredentialForAsset(ctx, "sales.raw.orders", cloudsim.AccessRead)
		}},
		{"path", func(ctx Ctx) (TempCredential, error) {
			return svc.TempCredentialForPath(ctx, tbl.StoragePath+"/part-0", cloudsim.AccessRead)
		}},
	}
	check := func(what string, spec erm.Spec, vended bool) {
		t.Helper()
		upd := tbl.Clone()
		upd.Spec = spec
		if _, err := svc.cache.Update("ms1", func(tx *store.Tx) error { return erm.PutEntity(tx, upd) }); err != nil {
			t.Fatal(err)
		}
		for _, vend := range vends {
			_, err := vend.get(untrusted)
			if vended && err != nil || !vended && !errors.Is(err, ErrTrustedEngineRequired) {
				t.Errorf("%s: an untrusted engine's credential by %s: %v, want vended %v", what, vend.by, err, vended)
			}
			if _, err := vend.get(admin); err != nil {
				t.Errorf("%s: a trusted engine's credential by %s: %v", what, vend.by, err)
			}
		}
	}
	check("no rule, packed", erm.PackSpec([]byte(`{"columns":[{"name":"id","type":"STRING"}],"fgac":{}}`)), true)
	check("no spec", nil, true)
	check("an fgac member that is an array, packed", erm.PackSpec([]byte(`{"fgac":[]}`)), false)
	check("an fgac member that is an array, as JSON", erm.Spec(`{"fgac": []}`), false)
	check("a rule that does not decode, packed", erm.PackSpec([]byte(`{"fgac":{"row_filters":[1]}}`)), false)
	check("a JSON spec that is not JSON", erm.Spec(`{"fgac":{}`), false)
	check("a flag that is a string and no rule, packed", erm.PackSpec([]byte(`{"uniform_enabled":"yes"}`)), true)
	check("a flag that is a string and no rule, as JSON", erm.Spec(`{"uniform_enabled": "yes"}`), true)

	// An ABAC mask on a tagged column is checked whatever the rest of the
	// spec holds.
	if err := svc.SetTag(admin, "sales.raw.orders", "region", "classification", "pii"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateABACRule(admin, "", privilege.ABACRule{
		Name: "mask-pii", TagKey: "classification", TagValue: "pii",
		Action: privilege.ABACColumnMask, Mask: &privilege.ColumnMask{Kind: privilege.MaskRedact, Replacement: "###"},
	}); err != nil {
		t.Fatal(err)
	}
	check("a flag that is a string under an ABAC mask, packed", erm.PackSpec([]byte(`{"uniform_enabled":"yes"}`)), false)
	check("a flag that is a string under an ABAC mask, as JSON", erm.Spec(`{"uniform_enabled": "yes"}`), false)
}
