package erm

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// benchmarkTableSpec is the spec of a table of the benchmark's population.
const benchmarkTableSpec = `{"table_type":"MANAGED","format":"DELTA","columns":[{"name":"id","type":"BIGINT","nullable":false,"position":0},` +
	`{"name":"region","type":"STRING","nullable":true,"position":1},{"name":"amount","type":"DOUBLE","nullable":true,"position":2},` +
	`{"name":"ts","type":"TIMESTAMP","nullable":true,"position":3}],"fgac":{}}`

// specSeeds are JSON values packing takes and ones it must leave alone: every
// token kind, escapes, a long string, numbers that are and are not canonical
// unsigned integers, whitespace, HTML-sensitive bytes, nesting past the bound,
// and things that are not JSON at all.
var specSeeds = []string{
	benchmarkTableSpec,
	`{"table_type":"MANAGED","format":"DELTA","columns":[{"name":"id","type":"BIGINT","nullable":false,"position":0}],` +
		`"fgac":{"row_filters":[{"columns":["region"],"predicate":"region = 'EU'","exempt_principals":["org0","org1"]}],` +
		`"column_masks":[{"column":"amount","kind":"PARTIAL","keep_last":4}]},"base_table":"0123456789abcdef0123456789abcdef"}`,
	`{"definition":"SELECT * FROM t WHERE a \u003c b","dependencies":["c.s.t"]}`,
	`{"a":[1,2,{"b":null}],"c":true,"d":false,"e":[],"f":{},"g":-1.5e3,"h":0,"i":18446744073709551615,"j":"\"q\\é"}`,
	`{"long":"` + strings.Repeat("x", 200) + `"}`,
	`"x"`, `1`, `007`, `-0`, `[[[]]]`, `{}`, `null`,
	strings.Repeat("[", maxSpecDepth+2) + strings.Repeat("]", maxSpecDepth+2),
	`{"a" : 1}`, "{\"a\":\n1}", `{"a":"<"}`, `{"a":"&"}`, "{\"a\":\"\u2028\"}", "{\"a\":\"\u2029\"}",
	`{"a":1,}`, `[1 2]`, `{"a"}`, `{"a":tru}`, `"a\"`, `{`, `]`, ``,
}

// FuzzSpecPack: whenever packing takes a spec, rendering gives it back byte
// for byte, and when it does not it keeps the spec as it came, as it does a
// spec that is packed already. Whatever
// follows a packed spec's first byte — a damaged record — renders or fails,
// never panics, and never renders past the length it may claim.
func FuzzSpecPack(f *testing.F) {
	for _, s := range specSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, js []byte) {
		s := PackSpec(js)
		switch {
		case len(js) == 0:
			if s != nil {
				t.Fatalf("an empty spec packed to %x", s)
			}
		case !s.Packed() || js[0] == specMagic:
			if !bytes.Equal(s, js) {
				t.Fatalf("%q was not packed or was packed already but is kept as %q", js, s)
			}
		default:
			if got := s.AppendJSON(nil); !bytes.Equal(got, js) {
				t.Fatalf("%q packed to %x, which renders %q", js, s, got)
			}
			if got, err := s.MarshalJSON(); err != nil || !bytes.Equal(got, js) {
				t.Fatalf("%q packed to %x, which marshals to %q (%v)", js, s, got, err)
			}
		}
		damaged := Spec(append([]byte{specMagic}, js...))
		if out, err := renderSpec(nil, damaged); err == nil && len(out) > maxSpecExpansion*len(damaged) {
			t.Fatalf("%x rendered %d bytes", damaged, len(out))
		}
		damaged.AppendJSON(nil)
		_, _ = damaged.MarshalJSON()
		checkBindingRead(t, s)
		checkBindingRead(t, damaged)
	})
}

// checkBindingRead holds StringsMember to the one-field decode it stands in
// for: whenever it decides, the spec decodes, to as many bindings, with each
// workspace among them or not alike. It reports whether it decided.
func checkBindingRead(t *testing.T, s Spec) bool {
	t.Helper()
	decided := false
	for _, ws := range []string{"", "ws-us", "ws-eu", "ws-ü"} {
		n, has, ok := s.StringsMember("workspace_bindings", ws)
		if !ok {
			continue
		}
		decided = true
		var one struct {
			WorkspaceBindings []string `json:"workspace_bindings"`
		}
		err := (&Entity{Spec: s}).DecodeSpec(&one)
		if err != nil || n != len(one.WorkspaceBindings) || has != slices.Contains(one.WorkspaceBindings, ws) {
			t.Errorf("%x for %q: read in place %d bindings (has %v), decoded %q (%v)", s, ws, n, has, one.WorkspaceBindings, err)
		}
	}
	return decided
}

// TestBindingReadMatchesDecode: reading a catalog's workspace bindings in
// place gives the one-field decode's bound / unbound / refused decision, over
// FuzzSpecPack's corpus and the shapes a bindings member can take; and it
// decides, without decoding, on every packed spec of a plain shape.
func TestBindingReadMatchesDecode(t *testing.T) {
	for _, js := range specSeeds {
		checkBindingRead(t, PackSpec([]byte(js)))
		checkBindingRead(t, Spec(append([]byte{specMagic}, js...)))
	}
	bound := `{"kind":"REGULAR","workspace_bindings":["ws-us","ws-eu"],"share_name":"s"}`
	cases := []struct {
		js      string
		decides bool
	}{
		{`{"kind":"REGULAR"}`, true},
		{bound, true},
		{`{"kind":1,"workspace_bindings":["ws-us"]}`, true},
		{`{"workspace_bindings":[]}`, true},
		{`{"workspace_bindings":null}`, true},
		{`{}`, true},
		{`{"x":{"workspace_bindings":["ws-us"]},"y":[{"a":null}]}`, true},
		{`{"Workspace_Bindings":["ws-us"]}`, true},                                // a folded key
		{"{\"wor\xe2\x84\xaaspace_bindings\":[\"ws-eu\"]}", true},                 // the Kelvin sign folds to k
		{`{"workspace_bindings":["ws-us"],"workspace_bindings":["ws-eu"]}`, true}, // the last wins
		{`{"workspace_bindings":["ws-us"],"WORKSPACE_BINDINGS":null}`, true},      // the last wins, folded
		{`{"workspace_bindings":["ws-ü"]}`, true},
		{`{"workspace_bindings":["ws\` + `u002dus"]}`, false},                // an escaped element
		{`{"workspace_bindings":"ws-us"}`, false},                            // not an array
		{`{"workspace_bindings":["ws-us",null]}`, false},                     // decodes to ["ws-us",""]
		{`{"workspace_bindings":[1]}`, false},                                // does not decode
		{`{"workspace_bindings":[1],"workspace_bindings":["ws-us"]}`, false}, // does not decode either
		{`{"workspace_bindings":{"ws-us":true}}`, false},
		{`{"a":1.5,"workspace_bindings":["ws-us"]}`, false},
		{`["ws-us"]`, false},
		{`null`, false},
		{`{"workspace_bindings": ["ws-us"]}`, false}, // kept as JSON
	}
	for _, c := range cases {
		s := PackSpec([]byte(c.js))
		if got := checkBindingRead(t, s); got != c.decides {
			t.Errorf("%s: decided in place: %v, want %v", c.js, got, c.decides)
		}
	}
	// A damaged packed spec is refused by the decode; the walk must not
	// decide it: every cut, and every byte flipped.
	s := PackSpec([]byte(bound))
	for i := 1; i < len(s); i++ {
		checkBindingRead(t, s[:i])
		for _, x := range []byte{0x01, 0x20, 0x80, 0xff} {
			flipped := slices.Clone(s)
			flipped[i] ^= x
			checkBindingRead(t, flipped)
		}
	}
	if n, has, ok := Spec(nil).StringsMember("workspace_bindings", "ws-us"); n != 0 || has || !ok {
		t.Errorf("an empty spec: %d, %v, %v", n, has, ok)
	}
}

// TestStringsMemberAllocs: the in-place reads allocate nothing.
func TestStringsMemberAllocs(t *testing.T) {
	unbound, bound := PackSpec([]byte(`{"kind":"REGULAR"}`)), PackSpec([]byte(`{"kind":"REGULAR","workspace_bindings":["ws-us","ws-eu"]}`))
	for _, s := range []Spec{unbound, bound} {
		if a := testing.AllocsPerRun(100, func() { s.StringsMember("workspace_bindings", "ws-eu") }); a != 0 {
			t.Errorf("%x: %v allocations", s, a)
		}
	}
	table := PackSpec([]byte(`{"columns":[{"name":"id","type":"BIGINT"}],"fgac":{"row_filters":[],"column_masks":null}}`))
	if a := testing.AllocsPerRun(100, func() {
		if !table.EmptyLists("fgac", "row_filters", "column_masks") {
			t.Fatal("a table without rules read as holding some")
		}
	}); a != 0 {
		t.Errorf("EmptyLists: %v allocations", a)
	}
}

// TestPackSpecLeavesWhatAResponseRewrites: a spec with whitespace outside its
// strings, with <, >, &, U+2028 or U+2029 anywhere, or nested past the bound
// is kept as JSON; everything the catalog writes packs, shorter.
func TestPackSpecLeavesWhatAResponseRewrites(t *testing.T) {
	for _, js := range []string{
		`{"a" : 1}`, "{\"a\":\n1}", ` {}`, `{"a":"<"}`, `{"a":">"}`, `{"a":"&"}`, "{\"a\":\"\u2028\"}", "{\"a\":\"\u2029\"}",
		strings.Repeat("[", maxSpecDepth+2) + strings.Repeat("]", maxSpecDepth+2), // the innermost [] is one token
	} {
		if s := PackSpec([]byte(js)); s.Packed() || string(s) != js {
			t.Errorf("%q was packed to %x", js, s)
		}
	}
	for _, js := range specSeeds[:4] {
		s := PackSpec([]byte(js))
		if !s.Packed() || len(s) >= len(js) {
			t.Errorf("%q: stored as %d bytes (packed=%v), want fewer packed", js, len(s), s.Packed())
		}
	}
	if s := PackSpec([]byte(`{"a":"with spaces in it"}`)); !s.Packed() {
		t.Error("whitespace inside a string kept a spec from packing")
	}
}

// TestDamagedPackedSpec: a packed spec cut short, or whose rendered length is
// wrong, does not render. AppendJSON writes null for it (a response stays
// JSON), MarshalJSON and DecodeSpec report it.
func TestDamagedPackedSpec(t *testing.T) {
	s := PackSpec([]byte(benchmarkTableSpec))
	wrongLength := append(Spec{specMagic, 1}, s[3:]...) // the benchmark spec's length is a two-byte uvarint
	for _, bad := range []Spec{s[:len(s)-1], s[:2], wrongLength, {specMagic}, {specMagic, 4, opArray}} {
		if got := string(bad.AppendJSON([]byte("x"))); got != "xnull" {
			t.Errorf("%x appended %q, want null", bad, got)
		}
		if _, err := bad.MarshalJSON(); err == nil {
			t.Errorf("%x marshalled", bad)
		}
		var v map[string]any
		if err := (&Entity{Spec: bad}).DecodeSpec(&v); err == nil {
			t.Errorf("%x decoded to %v", bad, v)
		}
	}
}

// TestSpecJSONForms: an entity marshals the same whichever form its spec is
// in, and unmarshalling keeps the JSON as it came, as json.RawMessage did.
func TestSpecJSONForms(t *testing.T) {
	e := sampleEntity(rand.New(rand.NewSource(7)))
	e.Spec = Spec(benchmarkTableSpec)
	asJSON, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	e.Spec = PackSpec(e.Spec)
	if asPacked, err := json.Marshal(e); err != nil || !bytes.Equal(asPacked, asJSON) {
		t.Fatalf("a packed spec marshals to\n  %s (%v)\nits JSON to\n  %s", asPacked, err, asJSON)
	}
	var back Entity
	in := []byte(`{"id":"x","spec":{"columns": [ 1 ]}}`)
	if err := json.Unmarshal(in, &back); err != nil || string(back.Spec) != `{"columns": [ 1 ]}` {
		t.Fatalf("unmarshalled spec %q, %v", back.Spec, err)
	}
	var a, b map[string]any
	if err := back.DecodeSpec(&a); err != nil || json.Unmarshal([]byte(`{"columns":[1]}`), &b) != nil || !reflect.DeepEqual(a, b) {
		t.Fatalf("DecodeSpec of an unmarshalled spec: %v, %v", a, err)
	}
}

// TestRecordVersionsAgree: a record of any version, and the JSON the seed
// wrote, decode to the same entity as the API sees it — the same JSON, the
// same decoded spec — whatever form each keeps the spec in.
func TestRecordVersionsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		e := sampleEntity(rng)
		if e.Spec == nil && i%2 == 0 {
			e.Spec = PackSpec([]byte(benchmarkTableSpec))
		}
		var wantJSON []byte
		var wantSpec any
		for _, enc := range append(encoders, struct {
			name   string
			encode func(*Entity) ([]byte, error)
			stored func(Spec) Spec
		}{"json", func(e *Entity) ([]byte, error) { return json.Marshal(e) }, specJSON}) {
			b, err := enc.encode(e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeEntityAt(e.ID, b)
			if err != nil {
				t.Fatalf("%s: %v", enc.name, err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			var gotSpec any
			if err := got.DecodeSpec(&gotSpec); err != nil {
				t.Fatal(err)
			}
			if wantJSON == nil {
				wantJSON, wantSpec = gotJSON, gotSpec
				continue
			}
			if !bytes.Equal(gotJSON, wantJSON) || !reflect.DeepEqual(gotSpec, wantSpec) {
				t.Fatalf("entity %d: a %s record reads as\n  %s\n  spec %v\nversion 1 as\n  %s\n  spec %v", i, enc.name, gotJSON, gotSpec, wantJSON, wantSpec)
			}
		}
	}
}

// TestSpecCodecAllocs: EncodeSpec allocates no more than json.Marshal of the
// same value — the marshal, the pack and the check that it renders back go
// through pooled buffers, and the packed copy is the one slice it keeps — and
// DecodeSpec allocates no more on a packed spec than on its JSON.
func TestSpecCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("counts pooled allocations")
	}
	type column struct {
		Name     string `json:"name"`
		Type     string `json:"type"`
		Nullable bool   `json:"nullable"`
		Position int    `json:"position"`
	}
	var v any = &struct {
		TableType string   `json:"table_type"`
		Format    string   `json:"format"`
		Columns   []column `json:"columns"`
	}{"MANAGED", "DELTA", []column{{"id", "BIGINT", false, 0}, {"region", "STRING", true, 1}, {"amount", "DOUBLE", true, 2}, {"ts", "TIMESTAMP", true, 3}}}
	var e Entity
	encode := func() {
		if err := e.EncodeSpec(v); err != nil || !e.Spec.Packed() {
			t.Fatalf("EncodeSpec: %v", err)
		}
	}
	encode()
	marshal := func() {
		if _, err := json.Marshal(v); err != nil {
			t.Fatal(err)
		}
	}
	if packed, plain := testing.AllocsPerRun(100, encode), testing.AllocsPerRun(100, marshal); packed > plain {
		t.Errorf("EncodeSpec: %.0f allocations, json.Marshal %.0f", packed, plain)
	}
	decodeInto := func(s Spec) float64 {
		read := func() {
			var out struct {
				Columns []struct{ Name, Type string } `json:"columns"`
			}
			if err := (&Entity{Spec: s}).DecodeSpec(&out); err != nil || len(out.Columns) != 4 {
				t.Fatalf("DecodeSpec: %+v, %v", out, err)
			}
		}
		read()
		return testing.AllocsPerRun(100, read)
	}
	if packed, fromJSON := decodeInto(e.Spec), decodeInto(Spec(benchmarkTableSpec)); packed > fromJSON {
		t.Errorf("DecodeSpec: %.0f allocations on a packed spec, %.0f on its JSON", packed, fromJSON)
	}
}
