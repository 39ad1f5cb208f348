package jsonenc

// Differential property tests: every per-type encoder must produce exactly
// json.Marshal's bytes across randomized values that exercise empty/nil
// fields, omitempty boundaries, hostile strings, raw specs, and times.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
)

func randomTime(rng *rand.Rand) time.Time {
	return time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)).UTC()
}

// maybe returns s or "" to exercise omitempty on both sides.
func maybe(rng *rand.Rand, s string) string {
	if rng.Intn(2) == 0 {
		return ""
	}
	return s
}

func randomEntity(rng *rand.Rand) *erm.Entity {
	e := &erm.Entity{
		ID:          ids.ID(fmt.Sprintf("%032x", rng.Int63())),
		Type:        erm.TypeTable,
		Name:        randomValidString(rng),
		ParentID:    ids.ID(maybe(rng, fmt.Sprintf("%032x", rng.Int63()))),
		FullName:    randomValidString(rng),
		Owner:       privilege.Principal(randomValidString(rng)),
		Comment:     maybe(rng, randomValidString(rng)),
		StoragePath: maybe(rng, "s3://bucket/"+randomValidString(rng)),
		Managed:     rng.Intn(2) == 0,
		State:       erm.StateActive,
		CreatedAt:   randomTime(rng),
		UpdatedAt:   randomTime(rng),
	}
	switch rng.Intn(3) {
	case 0:
		e.Properties = nil
	case 1:
		e.Properties = map[string]string{}
	default:
		e.Properties = map[string]string{}
		for j := rng.Intn(4); j >= 0; j-- {
			e.Properties[randomValidString(rng)] = randomValidString(rng)
		}
	}
	if rng.Intn(3) == 0 {
		t := randomTime(rng)
		e.DeletedAt = &t
	}
	switch rng.Intn(5) {
	case 0:
		// no spec
	case 1:
		e.Spec = erm.Spec(`{"volume_type":"MANAGED"}`)
	case 2:
		spec, err := json.MarshalIndent(randomTableSpec(rng), "", "  ")
		if err != nil {
			panic(err)
		}
		e.Spec = spec
	case 3:
		e.Spec = packedSpec(randomTableSpec(rng))
	default:
		e.Spec = escapedSpecs[rng.Intn(len(escapedSpecs))]
	}
	return e
}

// packedSpec is v's spec as the write path stores it: packed.
func packedSpec(v any) erm.Spec {
	var e erm.Entity
	if err := e.EncodeSpec(v); err != nil {
		panic(err)
	}
	if !e.Spec.Packed() {
		panic(fmt.Sprintf("the spec of %+v did not pack", v))
	}
	return e.Spec
}

// escapedSpecs are specs a response escapes: they stay JSON, and AppendRaw
// escapes them as encoding/json does.
var escapedSpecs = []erm.Spec{
	erm.PackSpec([]byte(`{"definition":"SELECT * FROM t WHERE a < b"}`)),
	erm.PackSpec([]byte(`{"predicate":"x = 'a&b'","kind":"PARTIAL"}`)),
	erm.PackSpec([]byte("{\"comment\":\"line\u2028next\u2029\"}")),
	erm.PackSpec([]byte(`{"columns": [ {"name":"id"} ]}`)),
}

func randomColumns(rng *rand.Rand) []catalog.ColumnInfo {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []catalog.ColumnInfo{}
	}
	cols := make([]catalog.ColumnInfo, rng.Intn(4)+1)
	for i := range cols {
		cols[i] = catalog.ColumnInfo{
			Name:     randomValidString(rng),
			Type:     "STRING",
			Nullable: rng.Intn(2) == 0,
			Position: i,
			Comment:  maybe(rng, randomValidString(rng)),
		}
	}
	return cols
}

func randomFGAC(rng *rand.Rand) privilege.FGACPolicy {
	var p privilege.FGACPolicy
	for i := rng.Intn(3); i > 0; i-- {
		p.RowFilters = append(p.RowFilters, privilege.RowFilter{
			Columns:          []string{"region", randomValidString(rng)},
			Predicate:        "region = 'EU' AND x < 3",
			ExemptPrincipals: randomPrincipals(rng),
		})
	}
	for i := rng.Intn(3); i > 0; i-- {
		p.ColumnMasks = append(p.ColumnMasks, privilege.ColumnMask{
			Column:           randomValidString(rng),
			Kind:             privilege.MaskPartial,
			Replacement:      maybe(rng, "***"),
			KeepLast:         rng.Intn(5),
			ExemptPrincipals: randomPrincipals(rng),
		})
	}
	return p
}

func randomPrincipals(rng *rand.Rand) []privilege.Principal {
	if rng.Intn(2) == 0 {
		return nil
	}
	out := make([]privilege.Principal, rng.Intn(3)+1)
	for i := range out {
		out[i] = privilege.Principal(randomValidString(rng))
	}
	return out
}

func randomTableSpec(rng *rand.Rand) *catalog.TableSpec {
	return &catalog.TableSpec{
		TableType:         catalog.TableManaged,
		Format:            catalog.FormatDelta,
		Columns:           randomColumns(rng),
		FGAC:              randomFGAC(rng),
		BaseTable:         ids.ID(maybe(rng, fmt.Sprintf("%032x", rng.Int63()))),
		ForeignConnection: maybe(rng, randomValidString(rng)),
		ForeignSourceType: maybe(rng, "SNOWFLAKE"),
		UniformEnabled:    rng.Intn(2) == 0,
	}
}

func randomViewSpec(rng *rand.Rand) *catalog.ViewSpec {
	v := &catalog.ViewSpec{Definition: "SELECT * FROM t WHERE a < b AND c <> 'x&y'"}
	if rng.Intn(2) == 0 {
		v.Dependencies = []string{"cat.sch." + randomValidString(rng)}
	}
	v.Columns = randomColumns(rng)
	if len(v.Columns) == 0 {
		v.Columns = nil // omitempty treats nil and empty the same; vary both via randomColumns
	}
	return v
}

func randomTempCredential(rng *rand.Rand) *catalog.TempCredential {
	return &catalog.TempCredential{
		Asset:     ids.ID(fmt.Sprintf("%032x", rng.Int63())),
		AssetName: randomValidString(rng),
		Credential: cloudsim.Credential{
			Token:     fmt.Sprintf("tok-%x", rng.Int63()),
			Scope:     "s3://bucket/prefix/",
			Level:     cloudsim.AccessRead,
			ExpiresAt: randomTime(rng),
		},
		Level: cloudsim.AccessRead,
	}
}

func randomResolveResponse(rng *rand.Rand) *catalog.ResolveResponse {
	resp := &catalog.ResolveResponse{MetastoreVersion: uint64(rng.Int63())}
	switch rng.Intn(4) {
	case 0:
		resp.Assets = nil
	case 1:
		resp.Assets = map[string]*catalog.ResolvedAsset{}
	default:
		resp.Assets = map[string]*catalog.ResolvedAsset{}
		for i := rng.Intn(4); i >= 0; i-- {
			ra := &catalog.ResolvedAsset{Entity: randomEntity(rng), ViaView: rng.Intn(2) == 0}
			switch rng.Intn(4) {
			case 0:
				ra.Table = randomTableSpec(rng)
				fg := randomFGAC(rng)
				ra.FGAC = &fg
			case 1:
				ra.View = randomViewSpec(rng)
			case 2:
				ra.Credential = randomTempCredential(rng)
			case 3:
				ra.Entity = nil // degenerate but encodable
			}
			resp.Assets[randomValidString(rng)] = ra
		}
	}
	return resp
}

func TestAppendEntityDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	diffCheck(t, AppendEntity(nil, nil), []byte("null"), "AppendEntity(nil)")
	diffCheck(t, AppendEntity(nil, &erm.Entity{}), marshal(t, &erm.Entity{}), "AppendEntity(zero)")
	for i := 0; i < 1000; i++ {
		e := randomEntity(rng)
		diffCheck(t, AppendEntity(nil, e), marshal(t, e), fmt.Sprintf("AppendEntity(#%d)", i))
	}
}

func TestAppendTableSpecDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	diffCheck(t, AppendTableSpec(nil, &catalog.TableSpec{}), marshal(t, &catalog.TableSpec{}), "AppendTableSpec(zero)")
	for i := 0; i < 1000; i++ {
		ts := randomTableSpec(rng)
		diffCheck(t, AppendTableSpec(nil, ts), marshal(t, ts), fmt.Sprintf("AppendTableSpec(#%d)", i))
	}
}

func TestAppendViewSpecDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	diffCheck(t, AppendViewSpec(nil, &catalog.ViewSpec{}), marshal(t, &catalog.ViewSpec{}), "AppendViewSpec(zero)")
	for i := 0; i < 500; i++ {
		vs := randomViewSpec(rng)
		diffCheck(t, AppendViewSpec(nil, vs), marshal(t, vs), fmt.Sprintf("AppendViewSpec(#%d)", i))
	}
}

func TestAppendFGACDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	zero := privilege.FGACPolicy{}
	diffCheck(t, AppendFGACPolicy(nil, &zero), marshal(t, zero), "AppendFGACPolicy(zero)")
	for i := 0; i < 500; i++ {
		p := randomFGAC(rng)
		diffCheck(t, AppendFGACPolicy(nil, &p), marshal(t, p), fmt.Sprintf("AppendFGACPolicy(#%d)", i))
	}
}

func TestAppendTempCredentialDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	diffCheck(t, AppendTempCredential(nil, &catalog.TempCredential{}), marshal(t, catalog.TempCredential{}), "AppendTempCredential(zero)")
	for i := 0; i < 500; i++ {
		tc := randomTempCredential(rng)
		diffCheck(t, AppendTempCredential(nil, tc), marshal(t, *tc), fmt.Sprintf("AppendTempCredential(#%d)", i))
	}
}

func TestAppendResolveResponseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 500; i++ {
		resp := randomResolveResponse(rng)
		diffCheck(t, AppendResolveResponse(nil, resp), marshal(t, resp), fmt.Sprintf("AppendResolveResponse(#%d)", i))
	}
}

// TestAppendEntityAllocs proves the steady-state claim: encoding a typical
// entity into a warm pooled buffer performs zero allocations.
func TestAppendEntityAllocs(t *testing.T) {
	e := &erm.Entity{
		ID: "0123456789abcdef0123456789abcdef", Type: erm.TypeTable,
		Name: "orders", ParentID: "fedcba9876543210fedcba9876543210",
		FullName: "sales.fact.orders", Owner: "alice", State: erm.StateActive,
		CreatedAt: time.Unix(1700000000, 123456789).UTC(),
		UpdatedAt: time.Unix(1700000500, 987654321).UTC(),
	}
	const spec = `{"table_type":"MANAGED","format":"DELTA","columns":[{"name":"id","type":"BIGINT","nullable":false,"position":0}],"fgac":{}}`
	buf := make([]byte, 0, 4096)
	for _, e.Spec = range []erm.Spec{erm.Spec(spec), erm.PackSpec([]byte(spec))} {
		n := testing.AllocsPerRun(200, func() {
			buf = AppendEntity(buf[:0], e)
		})
		if n != 0 {
			t.Fatalf("AppendEntity of a spec packed=%v allocated %v times per run, want 0", e.Spec.Packed(), n)
		}
	}
}

// TestAppendEntitySpecForms: whichever form an entity's spec is stored in —
// packed, JSON, JSON a response escapes or compacts — AppendEntity writes what
// encoding/json writes for it, and a packed spec renders to the JSON it was
// packed from.
func TestAppendEntitySpecForms(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	e := randomEntity(rng)
	forms := append([]erm.Spec{packedSpec(randomTableSpec(rng)), packedSpec(randomViewSpec(rng))}, escapedSpecs...)
	for i, spec := range forms {
		if packed := spec.Packed(); packed != (i < 2) {
			t.Fatalf("spec %d (%q): packed=%v", i, spec, packed)
		}
		e.Spec = spec
		diffCheck(t, AppendEntity(nil, e), marshal(t, e), fmt.Sprintf("AppendEntity(spec %d)", i))
	}
}
