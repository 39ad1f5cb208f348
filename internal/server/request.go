package server

// Request decoding for the hot POST and PATCH routes. Their bodies are flat:
// every field of ResolveRequest, TempCredentialRequest,
// AuthorizeBatchRequest, QueryAssetsRequest, GrantRequest and TagRequest is a
// string, a boolean, an integer or an array of strings, and a PATCH's
// UpdateAssetRequest is read when it sets only the comment and the owner. A
// CreateTableRequest nests one level deeper: its spec is an object whose
// columns are an array of flat objects and whose fgac is read only when
// empty. decodeFlat reads such a body straight into the request struct when
// it is in canonical form:
//
//   - one object, nothing after it but whitespace;
//   - each key spelled exactly as its field's JSON name, none repeated in
//     its object;
//   - strings with no escape and no control character, in valid UTF-8;
//   - integers with no fraction or exponent, at most 18 digits;
//   - no null.
//
// It keeps one allocation per string value (an enum value that is one of the
// API's constants takes none) and one per non-empty array, as encoding/json
// does, so nothing it returns pins the body. Anything else is left to
// encoding/json (readJSONHash), so every value accepted and every error
// reported is encoding/json's by construction; request_test.go holds the two
// to the same result.

import (
	"bytes"
	"unicode/utf8"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/privilege"
)

// sqlTypes are the column types a table spec commonly names.
var sqlTypes = []string{"BIGINT", "INT", "SMALLINT", "TINYINT", "STRING", "DOUBLE", "FLOAT", "DECIMAL", "BOOLEAN",
	"DATE", "TIMESTAMP", "TIMESTAMP_NTZ", "BINARY", "ARRAY", "MAP", "STRUCT"}

// enumValues are the constant spellings of the enum fields (Access,
// operation, privilege, type, a table's type and format, a column's SQL
// type): decoding one returns the constant.
var enumValues = func() map[string]string {
	m := map[string]string{}
	for _, s := range sqlTypes {
		m[s] = s
	}
	for _, t := range []catalog.TableType{catalog.TableManaged, catalog.TableExternal, catalog.TableForeign, catalog.TableShallowClone} {
		m[string(t)] = string(t)
	}
	for _, f := range []catalog.DataFormat{catalog.FormatDelta, catalog.FormatIceberg, catalog.FormatParquet, catalog.FormatCSV, catalog.FormatJSON, catalog.FormatAvro} {
		m[string(f)] = string(f)
	}
	for _, s := range []string{string(cloudsim.AccessRead), string(cloudsim.AccessReadWrite)} {
		m[s] = s
	}
	for _, p := range []privilege.Privilege{privilege.Select, privilege.Modify, privilege.ReadVolume, privilege.WriteVolume,
		privilege.Execute, privilege.UseCatalog, privilege.UseSchema, privilege.UseConnection, privilege.CreateCatalog,
		privilege.CreateSchema, privilege.CreateTable, privilege.CreateVolume, privilege.CreateFunction, privilege.CreateModel,
		privilege.CreateShare, privilege.ReadFiles, privilege.WriteFiles, privilege.Manage, privilege.AllPrivileges} {
		m[string(p)] = string(p)
	}
	for _, t := range []erm.SecurableType{erm.TypeMetastore, erm.TypeCatalog, erm.TypeSchema, erm.TypeTable, erm.TypeView,
		erm.TypeVolume, erm.TypeFunction, erm.TypeRegisteredModel, erm.TypeModelVersion, erm.TypeExternalLocation,
		erm.TypeStorageCredential, erm.TypeConnection, erm.TypeShare, erm.TypeRecipient} {
		m[string(t)] = string(t)
	}
	return m
}()

// decodeFlat decodes b into *v when v is a flat request type and b is in
// canonical form, and reports whether it did; when it did not, *v may hold
// part of b. v stays the caller's: nothing here keeps it or turns it into an
// interface that escapes. Each case names its fields by their JSON names.
func decodeFlat[T any](b []byte, v *T) bool {
	d := reqDecoder{b: b}
	switch req := any(v).(type) {
	case *catalog.ResolveRequest:
		return d.object(func(key []byte) bool {
			switch string(key) {
			case "Names":
				return stringArray(&d, &req.Names)
			case "WithCredentials":
				return d.boolean(&req.WithCredentials)
			case "Access":
				return d.enum((*string)(&req.Access))
			}
			return false
		})
	case *TempCredentialRequest:
		return d.object(func(key []byte) bool {
			switch string(key) {
			case "asset":
				return d.str(&req.Asset)
			case "path":
				return d.str(&req.Path)
			case "operation":
				return d.enum(&req.Operation)
			}
			return false
		})
	case *AuthorizeBatchRequest:
		return d.object(func(key []byte) bool {
			switch string(key) {
			case "asset_ids":
				return stringArray(&d, &req.AssetIDs)
			case "privilege":
				return d.enum(&req.Privilege)
			}
			return false
		})
	case *GrantRequest:
		return d.object(func(key []byte) bool {
			switch string(key) {
			case "securable":
				return d.str(&req.Securable)
			case "principal":
				return d.str(&req.Principal)
			case "privilege":
				return d.enum(&req.Privilege)
			}
			return false
		})
	case *TagRequest:
		return d.object(func(key []byte) bool {
			switch string(key) {
			case "securable":
				return d.str(&req.Securable)
			case "column":
				return d.str(&req.Column)
			case "key":
				return d.str(&req.Key)
			case "value":
				return d.str(&req.Value)
			}
			return false
		})
	case *CreateTableRequest:
		return d.object(func(key []byte) bool {
			switch string(key) {
			case "schema_full":
				return d.str(&req.SchemaFull)
			case "name":
				return d.str(&req.Name)
			case "storage_path":
				return d.str(&req.StoragePath)
			case "spec":
				return d.tableSpec(&req.Spec)
			}
			return false
		})
	case *UpdateAssetRequest:
		return d.object(func(key []byte) bool {
			switch string(key) {
			case "comment":
				return d.strPtr(&req.Comment)
			case "owner":
				return d.strPtr(&req.Owner)
			}
			return false
		})
	case *QueryAssetsRequest:
		return d.object(func(key []byte) bool {
			switch string(key) {
			case "type":
				return d.enum(&req.Type)
			case "catalog_name":
				return d.str(&req.CatalogName)
			case "schema_name":
				return d.str(&req.SchemaName)
			case "name_contains":
				return d.str(&req.NameContains)
			case "name_prefix":
				return d.str(&req.NamePrefix)
			case "owner":
				return d.str(&req.Owner)
			case "tag_key":
				return d.str(&req.TagKey)
			case "tag_value":
				return d.str(&req.TagValue)
			case "limit":
				return d.integer(&req.Limit)
			case "max_results":
				return d.integer(&req.MaxResults)
			case "page_token":
				return d.str(&req.PageToken)
			}
			return false
		})
	}
	return false
}

// reqDecoder is a cursor over one request body.
type reqDecoder struct {
	b []byte
	i int
}

// maxMembers bounds the members of an object decodeFlat reads: more than
// any request type has fields, so a longer object repeats or adds a key.
const maxMembers = 16

// object reads the whole body as one object (members) with nothing after
// it.
func (d *reqDecoder) object(member func(key []byte) bool) bool {
	return d.members(member) && d.end()
}

// members reads an object with no key repeated, calling member with each key
// to read its value; member reports false for a key that is not a field's.
// The key aliases the body.
func (d *reqDecoder) members(member func(key []byte) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	var keys [maxMembers][]byte
	for n := 0; ; n++ {
		key, ok := d.raw()
		if !ok || n == maxMembers || !d.consume(':') {
			return false
		}
		for _, k := range keys[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		keys[n] = key
		if !member(key) {
			return false
		}
		if d.consume('}') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// tableSpec reads a table's spec. Its fgac is read only as {}: a policy
// with rules is left to encoding/json.
func (d *reqDecoder) tableSpec(s *catalog.TableSpec) bool {
	return d.members(func(key []byte) bool {
		switch string(key) {
		case "table_type":
			return d.enum((*string)(&s.TableType))
		case "format":
			return d.enum((*string)(&s.Format))
		case "columns":
			return d.columns(&s.Columns)
		case "fgac":
			return d.consume('{') && d.consume('}')
		case "base_table":
			return d.str((*string)(&s.BaseTable))
		case "foreign_connection":
			return d.str(&s.ForeignConnection)
		case "foreign_source_type":
			return d.str(&s.ForeignSourceType)
		case "uniform_enabled":
			return d.boolean(&s.UniformEnabled)
		}
		return false
	})
}

// maxColumns is how many columns a spec's array reads on the stack before it
// is copied to the one slice the request keeps; a longer array grows.
const maxColumns = 8

// columns reads an array of column objects into *p, sized exactly, as a
// non-nil slice when empty as encoding/json makes it.
func (d *reqDecoder) columns(p *[]catalog.ColumnInfo) bool {
	if !d.consume('[') {
		return false
	}
	var stack [maxColumns]catalog.ColumnInfo
	cols := stack[:0]
	if !d.consume(']') {
		for {
			var c catalog.ColumnInfo
			if !d.column(&c) {
				return false
			}
			cols = append(cols, c)
			if d.consume(']') {
				break
			}
			if !d.consume(',') {
				return false
			}
		}
	}
	*p = append(make([]catalog.ColumnInfo, 0, len(cols)), cols...)
	return true
}

func (d *reqDecoder) column(c *catalog.ColumnInfo) bool {
	return d.members(func(key []byte) bool {
		switch string(key) {
		case "name":
			return d.str(&c.Name)
		case "type":
			return d.enum(&c.Type)
		case "nullable":
			return d.boolean(&c.Nullable)
		case "position":
			return d.integer(&c.Position)
		case "comment":
			return d.str(&c.Comment)
		}
		return false
	})
}

// end reports whether only whitespace is left.
func (d *reqDecoder) end() bool {
	d.skipSpace()
	return d.i == len(d.b)
}

func (d *reqDecoder) skipSpace() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (d *reqDecoder) consume(c byte) bool {
	d.skipSpace()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// raw reads a string that needs no unescaping and returns its bytes, which
// alias the body.
func (d *reqDecoder) raw() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	start, ascii := d.i, true
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			s := d.b[start:d.i]
			d.i++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (d *reqDecoder) str(p *string) bool {
	s, ok := d.raw()
	if ok {
		*p = string(s)
	}
	return ok
}

// strPtr reads a string into a new *string, as encoding/json fills a nil
// pointer field.
func (d *reqDecoder) strPtr(p **string) bool {
	s, ok := d.raw()
	if ok {
		v := string(s)
		*p = &v
	}
	return ok
}

// enum reads a string, returning the constant when it spells one.
func (d *reqDecoder) enum(p *string) bool {
	s, ok := d.raw()
	if !ok {
		return false
	}
	if k, known := enumValues[string(s)]; known {
		*p = k
	} else {
		*p = string(s)
	}
	return true
}

func (d *reqDecoder) boolean(p *bool) bool {
	d.skipSpace()
	switch rest := d.b[d.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*p, d.i = true, d.i+len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		*p, d.i = false, d.i+len("false")
	default:
		return false
	}
	return true
}

// integer reads an integer of at most 18 digits, which no int overflows;
// a fraction or exponent after it is left unread, and the object's next
// separator is then missing.
func (d *reqDecoder) integer(p *int) bool {
	d.skipSpace()
	i := d.i
	if i < len(d.b) && d.b[i] == '-' {
		i++
	}
	start := i
	for i < len(d.b) && '0' <= d.b[i] && d.b[i] <= '9' {
		i++
	}
	digits := d.b[start:i]
	if len(digits) == 0 || len(digits) > 18 || digits[0] == '0' && len(digits) > 1 {
		return false
	}
	v := 0
	for _, c := range digits {
		v = v*10 + int(c-'0')
	}
	if start > d.i {
		v = -v
	}
	*p, d.i = v, i
	return true
}

// stringArray reads an array of strings into *p: the slice sized by a first
// pass, then one string per element. An empty array is a non-nil empty
// slice, as encoding/json makes it.
func stringArray[S ~string](d *reqDecoder, p *[]S) bool {
	if !d.consume('[') {
		return false
	}
	start, n := d.i, 0
	if !d.consume(']') {
		for {
			if _, ok := d.raw(); !ok {
				return false
			}
			n++
			if d.consume(']') {
				break
			}
			if !d.consume(',') {
				return false
			}
		}
	}
	end := d.i
	out := make([]S, n)
	d.i = start
	for k := range out {
		if k > 0 {
			d.consume(',')
		}
		s, _ := d.raw()
		out[k] = S(s)
	}
	*p, d.i = out, end
	return true
}
