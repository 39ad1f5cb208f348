// Package erm implements the generic entity-relationship data model at the
// bottom of the Unity Catalog service's layered architecture (paper §4.2.2).
//
// Every asset type — tables, views, volumes, ML models, functions, as well
// as configuration securables like storage credentials and external
// locations — is represented by the same Entity record and described by a
// declarative TypeManifest registered in a Registry. The manifest specifies
// where the type sits in the three-level hierarchy, which privileges apply
// to it, whether it has backing storage, how its name is validated, and
// which name-uniqueness group it belongs to (tables and views, for example,
// share a namespace within a schema).
//
// The model persists through the store package and exposes the common
// interfaces the paper lists: lookup by name or ID, parent-child listing,
// lookup by storage path, and the state machine for provisioning and soft
// deletion.
package erm

import (
	"bytes"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// SecurableType identifies an asset or configuration type.
type SecurableType string

// Built-in securable types. Additional types (e.g. registered models) are
// added through Registry.Register, demonstrating the extension mechanism of
// paper §4.2.3.
const (
	TypeMetastore         SecurableType = "METASTORE"
	TypeCatalog           SecurableType = "CATALOG"
	TypeSchema            SecurableType = "SCHEMA"
	TypeTable             SecurableType = "TABLE"
	TypeView              SecurableType = "VIEW"
	TypeVolume            SecurableType = "VOLUME"
	TypeFunction          SecurableType = "FUNCTION"
	TypeRegisteredModel   SecurableType = "REGISTERED_MODEL"
	TypeModelVersion      SecurableType = "MODEL_VERSION"
	TypeExternalLocation  SecurableType = "EXTERNAL_LOCATION"
	TypeStorageCredential SecurableType = "STORAGE_CREDENTIAL"
	TypeConnection        SecurableType = "CONNECTION"
	TypeShare             SecurableType = "SHARE"
	TypeRecipient         SecurableType = "RECIPIENT"
)

// State is an entity's lifecycle state (the provisioning/cleanup state
// machine of §4.2.2).
type State string

// Lifecycle states.
const (
	StateProvisioning State = "PROVISIONING"
	StateActive       State = "ACTIVE"
	StateSoftDeleted  State = "SOFT_DELETED"
)

// Entity is the generic securable record shared by all asset types.
type Entity struct {
	ID          ids.ID              `json:"id"`
	Type        SecurableType       `json:"type"`
	Name        string              `json:"name"`
	ParentID    ids.ID              `json:"parent_id,omitempty"`
	FullName    string              `json:"full_name"` // catalog.schema.name for leaf assets
	Owner       privilege.Principal `json:"owner"`
	Comment     string              `json:"comment,omitempty"`
	Properties  map[string]string   `json:"properties,omitempty"`
	StoragePath string              `json:"storage_path,omitempty"`
	Managed     bool                `json:"managed,omitempty"` // storage allocated by the catalog
	State       State               `json:"state"`
	CreatedAt   time.Time           `json:"created_at"`
	UpdatedAt   time.Time           `json:"updated_at"`
	DeletedAt   *time.Time          `json:"deleted_at,omitempty"`
	// Spec holds type-specific metadata (table columns, view definition,
	// model versions, ...) encoded by the adapter layer, in its stored form
	// (spec.go): it marshals as the JSON it stands for.
	Spec Spec `json:"spec,omitempty"`
}

// Clone returns a deep copy of the entity.
func (e *Entity) Clone() *Entity {
	cp := *e
	if e.Properties != nil {
		cp.Properties = make(map[string]string, len(e.Properties))
		for k, v := range e.Properties {
			cp.Properties[k] = v
		}
	}
	if e.Spec != nil {
		cp.Spec = append(Spec(nil), e.Spec...)
	}
	if e.DeletedAt != nil {
		t := *e.DeletedAt
		cp.DeletedAt = &t
	}
	return &cp
}

// FieldRule annotates an updatable field of an asset type (paper §4.2.2's
// CRUD validation annotations).
type FieldRule struct {
	Updatable bool
	MaxLen    int
}

// TypeManifest declaratively describes an asset type (paper §4.2.2: "a
// specification of the asset type, including its location in the hierarchy,
// the operations and privileges supported on it, the authorization rules for
// each operation, and how its lifecycle should be managed").
type TypeManifest struct {
	Type SecurableType
	// ParentTypes lists the securable types that may contain this type.
	ParentTypes []SecurableType
	// HasStorage marks types with backing cloud storage, enabling by-path
	// lookup and the one-asset-per-path extension point.
	HasStorage bool
	// SupportsManaged marks types whose storage the catalog may allocate.
	SupportsManaged bool
	// CreatePrivilege is required on the parent to create an instance.
	CreatePrivilege privilege.Privilege
	// ReadPrivilege gates metadata reads beyond mere existence.
	ReadPrivilege privilege.Privilege
	// WritePrivilege gates metadata updates of non-administrative fields.
	WritePrivilege privilege.Privilege
	// DataReadPrivilege/DataWritePrivilege gate credential vending for the
	// type's storage; empty for types without data.
	DataReadPrivilege  privilege.Privilege
	DataWritePrivilege privilege.Privilege
	// GrantablePrivileges enumerates privileges that may be granted on the
	// type.
	GrantablePrivileges []privilege.Privilege
	// Fields validates updatable attributes by name ("comment", ...).
	Fields map[string]FieldRule
	// NameMaxLen bounds the asset name; 0 means the default (255).
	NameMaxLen int
	// SoftDeleteRetention is how long soft-deleted entities linger before
	// the garbage collector purges them. Zero means the registry default.
	SoftDeleteRetention time.Duration
	// ReadOp is the audit operation of a read of an instance, "Get" and the
	// type; the registry sets it.
	ReadOp string
}

// Registry holds the asset-type manifests (the "asset types registry" of
// §4.2.2).
type Registry struct {
	types map[SecurableType]*TypeManifest
}

// NewRegistry returns a registry pre-populated with the built-in types.
func NewRegistry() *Registry {
	r := &Registry{types: map[SecurableType]*TypeManifest{}}
	for _, m := range builtinManifests() {
		r.add(m)
	}
	return r
}

// add files m under its type, naming its read's audit operation.
func (r *Registry) add(m TypeManifest) {
	m.ReadOp = "Get" + string(m.Type)
	r.types[m.Type] = &m
}

// Register adds or replaces an asset-type manifest. It returns an error if
// the manifest is malformed. A type's names are unique within its name group
// (NameGroupOf), which no manifest chooses.
func (r *Registry) Register(m TypeManifest) error {
	if m.Type == "" {
		return errors.New("erm: manifest missing type")
	}
	if m.NameMaxLen == 0 {
		m.NameMaxLen = 255
	}
	r.add(m)
	return nil
}

// Manifest returns the manifest for t.
func (r *Registry) Manifest(t SecurableType) (*TypeManifest, bool) {
	m, ok := r.types[t]
	return m, ok
}

// Types lists registered types.
func (r *Registry) Types() []SecurableType {
	out := make([]SecurableType, 0, len(r.types))
	for t := range r.types {
		out = append(out, t)
	}
	return out
}

// ValidParent reports whether parent may contain child type t.
func (r *Registry) ValidParent(t SecurableType, parent SecurableType) bool {
	m, ok := r.types[t]
	if !ok {
		return false
	}
	for _, p := range m.ParentTypes {
		if p == parent {
			return true
		}
	}
	return false
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_][A-Za-z0-9_\-.]*$`)

// ValidateName checks an asset name against the manifest's rules.
func (r *Registry) ValidateName(t SecurableType, name string) error {
	m, ok := r.types[t]
	if !ok {
		return fmt.Errorf("erm: unknown type %s", t)
	}
	max := m.NameMaxLen
	if max == 0 {
		max = 255
	}
	if name == "" {
		return errors.New("erm: empty name")
	}
	if len(name) > max {
		return fmt.Errorf("erm: name longer than %d characters", max)
	}
	if !nameRE.MatchString(name) {
		return fmt.Errorf("erm: invalid name %q", name)
	}
	return nil
}

func builtinManifests() []TypeManifest {
	containerFields := map[string]FieldRule{
		"comment":    {Updatable: true, MaxLen: 1024},
		"owner":      {Updatable: true, MaxLen: 255},
		"properties": {Updatable: true},
	}
	return []TypeManifest{
		{
			Type:                TypeCatalog,
			ParentTypes:         []SecurableType{TypeMetastore},
			CreatePrivilege:     privilege.CreateCatalog,
			ReadPrivilege:       privilege.UseCatalog,
			WritePrivilege:      privilege.Manage,
			GrantablePrivileges: []privilege.Privilege{privilege.UseCatalog, privilege.CreateSchema, privilege.Select, privilege.Modify, privilege.ReadVolume, privilege.WriteVolume, privilege.Execute, privilege.Manage, privilege.AllPrivileges},
			Fields:              containerFields,
		},
		{
			Type:                TypeSchema,
			ParentTypes:         []SecurableType{TypeCatalog},
			CreatePrivilege:     privilege.CreateSchema,
			ReadPrivilege:       privilege.UseSchema,
			WritePrivilege:      privilege.Manage,
			GrantablePrivileges: []privilege.Privilege{privilege.UseSchema, privilege.CreateTable, privilege.CreateVolume, privilege.CreateFunction, privilege.CreateModel, privilege.Select, privilege.Modify, privilege.ReadVolume, privilege.WriteVolume, privilege.Execute, privilege.Manage, privilege.AllPrivileges},
			Fields:              containerFields,
		},
		{
			Type:                TypeTable,
			ParentTypes:         []SecurableType{TypeSchema},
			HasStorage:          true,
			SupportsManaged:     true,
			CreatePrivilege:     privilege.CreateTable,
			ReadPrivilege:       privilege.Select,
			WritePrivilege:      privilege.Modify,
			DataReadPrivilege:   privilege.Select,
			DataWritePrivilege:  privilege.Modify,
			GrantablePrivileges: []privilege.Privilege{privilege.Select, privilege.Modify, privilege.Manage, privilege.AllPrivileges},
			Fields: map[string]FieldRule{
				"comment":    {Updatable: true, MaxLen: 1024},
				"owner":      {Updatable: true, MaxLen: 255},
				"properties": {Updatable: true},
				"columns":    {Updatable: true},
			},
		},
		{
			Type:                TypeView,
			ParentTypes:         []SecurableType{TypeSchema},
			CreatePrivilege:     privilege.CreateTable,
			ReadPrivilege:       privilege.Select,
			WritePrivilege:      privilege.Modify,
			GrantablePrivileges: []privilege.Privilege{privilege.Select, privilege.Manage, privilege.AllPrivileges},
			Fields: map[string]FieldRule{
				"comment": {Updatable: true, MaxLen: 1024},
				"owner":   {Updatable: true, MaxLen: 255},
			},
		},
		{
			Type:                TypeVolume,
			ParentTypes:         []SecurableType{TypeSchema},
			HasStorage:          true,
			SupportsManaged:     true,
			CreatePrivilege:     privilege.CreateVolume,
			ReadPrivilege:       privilege.ReadVolume,
			WritePrivilege:      privilege.WriteVolume,
			DataReadPrivilege:   privilege.ReadVolume,
			DataWritePrivilege:  privilege.WriteVolume,
			GrantablePrivileges: []privilege.Privilege{privilege.ReadVolume, privilege.WriteVolume, privilege.Manage, privilege.AllPrivileges},
			Fields: map[string]FieldRule{
				"comment": {Updatable: true, MaxLen: 1024},
				"owner":   {Updatable: true, MaxLen: 255},
			},
		},
		{
			Type:                TypeFunction,
			ParentTypes:         []SecurableType{TypeSchema},
			CreatePrivilege:     privilege.CreateFunction,
			ReadPrivilege:       privilege.Execute,
			WritePrivilege:      privilege.Manage,
			GrantablePrivileges: []privilege.Privilege{privilege.Execute, privilege.Manage, privilege.AllPrivileges},
			Fields: map[string]FieldRule{
				"comment": {Updatable: true, MaxLen: 1024},
				"owner":   {Updatable: true, MaxLen: 255},
			},
		},
		{
			Type:                TypeRegisteredModel,
			ParentTypes:         []SecurableType{TypeSchema},
			HasStorage:          true,
			SupportsManaged:     true,
			CreatePrivilege:     privilege.CreateModel,
			ReadPrivilege:       privilege.Execute,
			WritePrivilege:      privilege.Modify,
			DataReadPrivilege:   privilege.Execute,
			DataWritePrivilege:  privilege.Modify,
			GrantablePrivileges: []privilege.Privilege{privilege.Execute, privilege.Modify, privilege.Manage, privilege.AllPrivileges},
			Fields: map[string]FieldRule{
				"comment": {Updatable: true, MaxLen: 1024},
				"owner":   {Updatable: true, MaxLen: 255},
			},
		},
		{
			Type:               TypeModelVersion,
			ParentTypes:        []SecurableType{TypeRegisteredModel},
			HasStorage:         true,
			SupportsManaged:    true,
			CreatePrivilege:    privilege.Modify,
			ReadPrivilege:      privilege.Execute,
			WritePrivilege:     privilege.Modify,
			DataReadPrivilege:  privilege.Execute,
			DataWritePrivilege: privilege.Modify,
			Fields: map[string]FieldRule{
				"comment": {Updatable: true, MaxLen: 1024},
			},
		},
		{
			Type:                TypeExternalLocation,
			ParentTypes:         []SecurableType{TypeMetastore},
			HasStorage:          true,
			CreatePrivilege:     privilege.CreateCatalog, // metastore-admin style
			ReadPrivilege:       privilege.ReadFiles,
			WritePrivilege:      privilege.Manage,
			DataReadPrivilege:   privilege.ReadFiles,
			DataWritePrivilege:  privilege.WriteFiles,
			GrantablePrivileges: []privilege.Privilege{privilege.ReadFiles, privilege.WriteFiles, privilege.CreateTable, privilege.Manage, privilege.AllPrivileges},
			Fields: map[string]FieldRule{
				"comment": {Updatable: true, MaxLen: 1024},
				"owner":   {Updatable: true, MaxLen: 255},
			},
		},
		{
			Type:            TypeStorageCredential,
			ParentTypes:     []SecurableType{TypeMetastore},
			CreatePrivilege: privilege.CreateCatalog,
			ReadPrivilege:   privilege.Manage,
			WritePrivilege:  privilege.Manage,
			Fields: map[string]FieldRule{
				"comment": {Updatable: true, MaxLen: 1024},
				"owner":   {Updatable: true, MaxLen: 255},
			},
		},
		{
			Type:                TypeConnection,
			ParentTypes:         []SecurableType{TypeMetastore},
			CreatePrivilege:     privilege.CreateCatalog,
			ReadPrivilege:       privilege.UseConnection,
			WritePrivilege:      privilege.Manage,
			GrantablePrivileges: []privilege.Privilege{privilege.UseConnection, privilege.Manage, privilege.AllPrivileges},
			Fields: map[string]FieldRule{
				"comment": {Updatable: true, MaxLen: 1024},
				"owner":   {Updatable: true, MaxLen: 255},
			},
		},
		{
			Type:            TypeShare,
			ParentTypes:     []SecurableType{TypeMetastore},
			CreatePrivilege: privilege.CreateShare,
			ReadPrivilege:   privilege.Select,
			WritePrivilege:  privilege.Manage,
			Fields: map[string]FieldRule{
				"comment": {Updatable: true, MaxLen: 1024},
				"owner":   {Updatable: true, MaxLen: 255},
			},
		},
		{
			Type:            TypeRecipient,
			ParentTypes:     []SecurableType{TypeMetastore},
			CreatePrivilege: privilege.CreateShare,
			ReadPrivilege:   privilege.Select,
			WritePrivilege:  privilege.Manage,
			Fields: map[string]FieldRule{
				"comment": {Updatable: true, MaxLen: 1024},
			},
		},
	}
}

// --- persistence mapping ---

// Store table names used by the model.
const (
	TableEntity = "entity" // id -> Entity (codec.go; older forms accepted on read)
	TableName   = "name"   // nameKey -> id (the entity's key), derived from the entity records (nameGroup)
	TablePath   = "path"   // storage path -> id (data assets; one-asset-per-path), derived from the entity records (pathGroup)
	TableExtLoc = "extloc" // storage path -> id (external locations: containers of asset paths), derived (extLocGroup)
	TableChild  = "child"  // childKey -> nothing, derived from the entity records (childGroup)
	TableGrant  = "grant"  // grantKey -> Grant JSON
	TableTag    = "tag"    // tagKey -> value
	TableTagIdx = "tagidx" // key\0securable\0column -> nothing, derived from the tag records (tagGroup): which securables carry a tag
	TableABAC   = "abac"   // rule id -> ABACRule JSON

	TableLineage   = "lineage"   // upstream\0downstream\0job -> job, query text, principal, time
	TableLineageUp = "lineageup" // downstream\0upstream\0job -> nothing, derived from the lineage records (lineage.go)
)

// Tables lists every store table the model writes or derives, for whatever
// reads or measures all of them.
var Tables = []string{
	TableEntity, TableName, TablePath, TableExtLoc, TableChild, TableGrant,
	TableTag, TableTagIdx, TableABAC, TableLineage, TableLineageUp,
}

// The child, name, path, tag-index and upstream lineage tables are not
// written: the store derives them (store.DeriveIndex). From the entity
// records: a record's child row is the ChildKey of its parent, type and ID;
// an entity that is not soft deleted has the name row NameKey(NameGroupOf(type),
// parent, name) and, if it has a storage path, the row of its path in
// TableExtLoc if it is an external location, else in TablePath: one live
// entity at most under each, and each such row has the entity's ID as its
// value. From the tag records, a tag's row in TableTagIdx (tagGroup); from
// the lineage records, an edge's row in TableLineageUp (edgeGroup). Those
// rows read only their record's key, so a record keeps its row for life.
func init() {
	store.DeriveIndex(TableChild, TableEntity, store.Derivation{Group: childGroup})
	store.DeriveIndex(TableName, TableEntity, store.Derivation{Group: nameGroup, Sort: nameSort, Unique: true, Names: namesID, Revived: revived})
	store.DeriveIndex(TablePath, TableEntity, store.Derivation{Group: pathGroup, Sort: pathSort, Unique: true, Names: namesID, Revived: revived})
	store.DeriveIndex(TableExtLoc, TableEntity, store.Derivation{Group: extLocGroup, Sort: pathSort, Unique: true, Names: namesID, Revived: revived})
	store.DeriveIndex(TableTagIdx, TableTag, store.Derivation{Group: tagGroup, Sort: tagSort, Names: tagValue, Stray: tagStray})
	store.DeriveIndex(TableLineageUp, TableLineage, store.Derivation{Group: edgeGroup, Sort: edgeSort, Names: emptyRow})
}

// revived is entity record value, stored under id, made active: a purge that
// a log wrote while name and path rows were stored deleted the rows of that
// form, soft deleted or not, beside the record (store.Derivation.Revived).
func revived(id string, value []byte) []byte {
	e, err := decodeEntity(value, ids.ID(id), false)
	if err != nil {
		return nil
	}
	e.State, e.DeletedAt = StateActive, nil
	b, _ := EncodeEntity(e)
	return b
}

// namesID reports whether a name or path row a log holds names entity id:
// its value is empty, the ID's 16 bytes (or, for an ID of another form, its
// string after the idLiteral byte when it could be taken for those), or the
// ID's string a log of JSON lines wrote.
func namesID(row []byte, id string, _ []byte) bool {
	return len(row) == 0 || IndexedID(store.KV{Value: row}) == ids.ID(id)
}

// tagValue reports whether a tag-index row a log holds carries its tag's
// value, as SetTag wrote both; emptyRow whether an upstream lineage row is
// empty, as PutEdge wrote it.
func tagValue(row []byte, _ string, value []byte) bool { return bytes.Equal(row, value) }

func emptyRow(row []byte, _ string, _ []byte) bool { return len(row) == 0 }

// NameGroupOf is the name-uniqueness group of a type within a parent: TABLE
// and VIEW share RELATION, so neither can reuse the other's names, and every
// other type is a group of its own. The name table derives it from a record's
// type.
func NameGroupOf(t SecurableType) string {
	if t == TypeTable || t == TypeView {
		return "RELATION"
	}
	return string(t)
}

// NameKey builds the unique-name index key for (group, parent, name):
// group\0parent\0name, the name lowered as strings.ToLower lowers it. Names
// are case-insensitive, as in SQL catalogs.
func NameKey(group string, parent ids.ID, name string) string {
	b := AppendNameKey(make([]byte, 0, len(group)+len(parent)+len(name)+2), group, parent, name)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// AppendNameKey appends NameKey(group, parent, name) to dst, allocating
// nothing when dst has room: a resolution builds each level's key in one
// buffer of its own.
func AppendNameKey(dst []byte, group string, parent ids.ID, name string) []byte {
	dst = append(append(append(dst, group...), 0), parent...)
	return appendLower(append(dst, 0), name)
}

// appendLower appends s lowered to dst, byte for byte what strings.ToLower(s)
// returns: ASCII letters lowered in place, and from the first byte that is not
// ASCII on, each rune as unicode.ToLower maps it, an invalid byte as U+FFFD.
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			for _, r := range s[i:] {
				dst = utf8.AppendRune(dst, unicode.ToLower(r))
			}
			return dst
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// ChildKey builds the parent-child listing key, the child table's row of the
// entity. Keys for one parent share a prefix so a scan lists all children.
func ChildKey(parent ids.ID, t SecurableType, id ids.ID) string {
	return string(parent) + "\x00" + string(t) + "\x00" + string(id)
}

// ChildPrefix is the scan prefix for all children of parent with type t;
// pass an empty type for all children of the parent.
func ChildPrefix(parent ids.ID, t SecurableType) string {
	if t == "" {
		return string(parent) + "\x00"
	}
	return string(parent) + "\x00" + string(t) + "\x00"
}

// GrantKey builds the grant record key.
func GrantKey(sec ids.ID, p privilege.Principal, priv privilege.Privilege) string {
	return string(sec) + "\x00" + string(p) + "\x00" + string(priv)
}

// GrantPrefix is the scan prefix for all grants on a securable.
func GrantPrefix(sec ids.ID) string { return string(sec) + "\x00" }

// AppendPrefix appends sec's scan prefix in the grant and tag tables,
// GrantPrefix(sec) and TagPrefix(sec), to dst: a scan builds it in a buffer.
func AppendPrefix(dst []byte, sec ids.ID) []byte { return append(append(dst, sec...), 0) }

// GrantOf reads the principal and privilege a grant record key names. The
// securable's ID runs to the key's first 0 byte and the privilege from its
// last, so a principal holding a 0 byte reads whole. Both results are
// substrings of key.
func GrantOf(key string) (p privilege.Principal, priv privilege.Privilege, ok bool) {
	first, last := strings.IndexByte(key, 0), strings.LastIndexByte(key, 0)
	if first == last {
		return "", "", false
	}
	return privilege.Principal(key[first+1 : last]), privilege.Privilege(key[last+1:]), true
}

// GrantSecurable returns the securable a grant record key belongs to.
func GrantSecurable(grantKey string) ids.ID {
	sec, _, _ := strings.Cut(grantKey, "\x00")
	return ids.ID(sec)
}

// TagKey builds the tag record key for an entity-level tag.
func TagKey(sec ids.ID, key string) string { return string(sec) + "\x00" + key }

// ColumnTagKey builds the tag record key for a column-level tag.
func ColumnTagKey(sec ids.ID, column, key string) string {
	return string(sec) + "\x00col\x00" + column + "\x00" + key
}

// TagPrefix is the scan prefix for all tags on a securable.
func TagPrefix(sec ids.ID) string { return string(sec) + "\x00" }

// TagParts reads a tag record's key: the securable, the column ("" for an
// entity-level tag) and the tag key. A key after "col\x00" is a column's
// tag, and ok is false when it names no tag key after its column.
func TagParts(key string) (sec ids.ID, column, tag string, ok bool) {
	s, rest, _ := strings.Cut(key, "\x00")
	if col, isColumn := strings.CutPrefix(rest, "col\x00"); isColumn {
		column, tag, ok = strings.Cut(col, "\x00")
		return ids.ID(s), column, tag, ok
	}
	return ids.ID(s), "", rest, true
}

// TagIdxPrefix is the scan prefix for all securables carrying tag key: its
// group of TableTagIdx.
func TagIdxPrefix(key string) string { return key + "\x00" }

// tagGroup and tagSort are the tag index's derivation: the tag record
// TagParts reads as (securable, column, key) has the row
// key\0securable\0column, in group key\0, so a tag's securables are one
// prefix scan instead of a walk of the tag table. The row's value is empty;
// its group row carries the tag's record and value. SetTag refuses a 0 byte
// in a tag key or column. A tag of an older log whose key held one derives
// the row of what TagParts reads it as when that key holds none (an entity
// tag "col\x00amount\x00pii" is column amount's tag pii, as EntityTags has
// always read it), else none; either way the row that log stored beside it
// has more than two 0 bytes, and replay drops it (tagStray).
func tagGroup(dst []byte, key string, _ []byte) ([]byte, bool) {
	_, _, tag, ok := TagParts(key)
	if !ok || strings.IndexByte(tag, 0) >= 0 {
		return dst, false
	}
	return append(append(dst, tag...), 0), true
}

func tagSort(dst []byte, key string, _ []byte) []byte {
	sec, column, _, _ := TagParts(key)
	return append(append(append(dst, sec...), 0), column...)
}

// tagStray reports a tag-index row no tag derives: one of a tag whose key or
// column held a 0 byte.
func tagStray(row string) bool { return strings.Count(row, "\x00") != 2 }

// PutEntity writes the entity record inside tx, new or rewritten; the store
// derives its child, name and path rows, and refuses the commit (a
// store.RowTakenError naming the table) when another live entity of its group
// and parent has its name, or another live entity its storage path.
func PutEntity(tx *store.Tx, e *Entity) error {
	b, err := EncodeEntity(e)
	if err != nil {
		return fmt.Errorf("erm: encode entity: %w", err)
	}
	tx.Put(TableEntity, string(e.ID), b)
	return nil
}

// DeleteEntity purges the entity inside tx: its record, and with it its
// derived rows, and every row it owns (DeleteOwned).
func DeleteEntity(tx *store.Tx, e *Entity) {
	tx.Delete(TableEntity, string(e.ID))
	DeleteOwned(tx, e.ID, true)
}

// owned declares the rows an entity owns — those of the tables whose keys
// lead with its ID and a 0 byte — and when they go with it: its grants and
// the lineage edges it is an end of when it is soft deleted, and those and
// its tags when it is purged. A derived table's rows go as their records
// in its source. A table added here cannot miss a cascade.
var owned = [...]struct {
	table, source string // source: the table a derived table's rows are records of
	softDelete    bool   // the rows go at a soft delete, not only at a purge
}{
	{table: TableGrant, softDelete: true},
	{table: TableLineage, softDelete: true},                         // edges it is the upstream of
	{table: TableLineageUp, source: TableLineage, softDelete: true}, // edges it is the downstream of
	{table: TableTag},
}

// DeleteOwned deletes inside tx the rows entity id owns (owned) that go when
// it is soft deleted, or, with purge, when it is purged.
func DeleteOwned(tx *store.Tx, id ids.ID, purge bool) {
	// The rows under id's prefix, [id\0, store.PrefixEnd(id\0)), both ends
	// in one string.
	ends := string(id) + "\x00" + string(id) + "\x01"
	start, end := ends[:len(id)+1], ends[len(id)+1:]
	for _, o := range owned {
		switch {
		case !o.softDelete && !purge:
		case o.source != "":
			for _, r := range tx.GroupRows(o.table, start, end, 0) {
				tx.Delete(o.source, r.Key)
			}
		default:
			for _, kv := range tx.ScanRange(o.table, start, end, 0) {
				tx.Delete(o.table, kv.Key)
			}
		}
	}
}

// Reader is the read interface shared by store snapshots, transactions and
// cache views: point reads, whole-prefix scans, and bounded, ordered
// [start, end) range scans (end "" unbounded, limit 0 unlimited) — the
// primitive listings are built on. GroupRows is ScanRange for a derived
// table in its source's terms: a child row comes back as its group,
// parent\0TYPE\0, and its entity's ID and record, so a listing decodes what
// it lists with no second read and no key per row.
type Reader interface {
	Get(table, key string) ([]byte, bool)
	Scan(table, prefix string) []store.KV
	ScanRange(table, start, end string, limit int) []store.KV
	GroupRows(table, start, end string, limit int) []store.GroupRow
}

// BatchReader is implemented by readers with aligned multi-get support.
type BatchReader interface {
	GetBatch(table string, keys []string) [][]byte
}

// DecodedReader is implemented by readers that keep a decoded form beside
// each record they cache and hand it to every later read of that record
// version (cache.View). A point read through one decodes nothing once the
// record is warm; what it returns is shared and immutable (see the ownership
// section in codec.go). Transactions, store snapshots and views of a disabled
// cache do not implement it or keep nothing, and decode privately.
type DecodedReader interface {
	GetDecoded(table, key string, decode func(key string, rec []byte) (any, error)) (any, bool)
}

// GetEntity reads an entity by ID. Through a DecodedReader the entity is the
// reader's own, shared with every other reader of that record version: the
// caller must not write to it, and Clone is how a writer gets one to change.
func GetEntity(r Reader, id ids.ID) (*Entity, bool) {
	if dr, ok := r.(DecodedReader); ok {
		d, ok := dr.GetDecoded(TableEntity, string(id), sharedEntity)
		if !ok {
			return nil, false
		}
		return d.(*Entity), true
	}
	b, ok := r.Get(TableEntity, string(id))
	if !ok {
		return nil, false
	}
	e, err := DecodeEntityAt(id, b)
	if err != nil {
		return nil, false
	}
	return e, true
}

// idLiteral opens an index value that held an ID as its string because the
// string alone could be taken for another form: it is 16 bytes long, or empty,
// or starts with this byte itself.
const idLiteral = 0xff

// IndexedID returns the entity ID an index pair points at, whichever form the
// row has: an empty value (a child row: the ID is the key's last part), the
// ID's 16 bytes or, after idLiteral, its string (what name and path rows held
// while they were stored, from record format 2), or its string — the only
// form before format 2, 32 hex digits then, and the value of a derived name
// or path row, which LookupID reads as it is. For a child row the ID is a
// substring of the key and costs no allocation; for any other it is a string
// of its own, exactly sized.
func IndexedID(kv store.KV) ids.ID {
	k, v := kv.Key, kv.Value
	switch n := len(v); {
	case n == 0:
		return ids.ID(k[strings.LastIndexByte(k, 0)+1:])
	case n == ids.RawLen:
		return ids.FromRaw(v)
	case v[0] == idLiteral:
		return ids.ID(v[1:])
	case len(k) >= n && k[len(k)-n:] == string(v):
		return ids.ID(k[len(k)-n:])
	}
	return ids.ID(v)
}

// LookupID reads the entity ID that index row (table, key) names: the name,
// path and external-location tables map a key to an ID, and a row's value is
// its entity's key as it is.
func LookupID(r Reader, table, key string) (ids.ID, bool) {
	if dr, ok := r.(DecodedReader); ok {
		d, ok := dr.GetDecoded(table, key, sharedKeyID)
		if !ok {
			return ids.Nil, false
		}
		return d.(ids.ID), true
	}
	idb, ok := r.Get(table, key)
	if !ok {
		return ids.Nil, false
	}
	return ids.ID(idb), true
}

// sharedKeyID reads an index row's value, which the store hands out as its
// entity record's own key string, and a cache as the bytes it was handed: the
// ID is that string, not a copy.
func sharedKeyID(_ string, rec []byte) (any, error) { return sharedID(rec), nil }

func sharedID(val []byte) ids.ID { return ids.ID(sharedString(val)) }

// sharedString is b's bytes as a string, not a copy: b must not change while
// the string is in use.
func sharedString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// sharedEntity and sharedKeyID are the decode functions of the entity table
// and of the index tables for a DecodedReader: package-level, so passing one
// allocates nothing.
func sharedEntity(key string, rec []byte) (any, error) {
	e, err := decodeEntity(rec, ids.ID(key), true)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// GetByName resolves a name row's key — NameKey's, as AppendNameKey builds
// it — to its entity. The key is lent for the read: no reader keeps it (a
// cache.View copies a name key it caches), so it may be a caller's scratch.
func GetByName(r Reader, key []byte) (*Entity, bool) {
	id, ok := LookupID(r, TableName, unsafe.String(unsafe.SliceData(key), len(key)))
	if !ok {
		return nil, false
	}
	return GetEntity(r, id)
}

// pathPrefixes lists every segment-boundary prefix of a storage URL, the URL
// itself included, shortest first: "s3://b/a/c" -> ["s3://b", "s3://b/a",
// "s3://b/a/c"]. These are the keys of the path and external-location tables
// that can govern the URL.
func pathPrefixes(path string) []string {
	path = strings.TrimSuffix(path, "/")
	start := 0
	if i := strings.Index(path, "://"); i >= 0 {
		start = i + 3
	}
	out := make([]string, 0, strings.Count(path[start:], "/")+1)
	for i := start; i < len(path); i++ {
		if path[i] == '/' {
			out = append(out, path[:i])
		}
	}
	return append(out, path)
}

// OneOfReader is implemented by readers that can be asked for the live key of
// a list of which at most one is live, and that need not read the others once
// they know it (cache.View.GetOneOf). i is -1 when none is live.
type OneOfReader interface {
	GetOneOf(table string, keys []string) (i int, val []byte)
}

// RegisteredPrefix answers which segment prefix of path (pathPrefixes, path
// itself included) table registers at r's version, and the ID of the entity
// it maps to. table is TablePath or TableExtLoc. Every write that registers a
// path checks in its transaction that no path registered there is a prefix of
// another, so at most one prefix of any path is registered at any version:
// through a OneOfReader a cached registration is the answer, its ID the
// bytes the reader shares, and otherwise all the prefixes are read in one
// round trip.
func RegisteredPrefix(r Reader, table, path string) (prefix string, id ids.ID, ok bool) {
	keys := pathPrefixes(path)
	if or, isOneOf := r.(OneOfReader); isOneOf {
		i, val := or.GetOneOf(table, keys)
		if i < 0 {
			return "", ids.Nil, false
		}
		return keys[i], sharedID(val), true
	}
	for _, k := range keys {
		if val, found := r.Get(table, k); found {
			return k, ids.ID(val), true
		}
	}
	return "", ids.Nil, false
}

// ListChildren lists entities under parent, optionally filtered by type: the
// child rows carry their records, decoded at once.
func ListChildren(r Reader, parent ids.ID, t SecurableType) []*Entity {
	prefix := ChildPrefix(parent, t)
	rows := r.GroupRows(TableChild, prefix, store.PrefixEnd(prefix), 0)
	ents := DecodeEntities(len(rows), func(i int) (ids.ID, []byte) { return ids.ID(rows[i].Key), rows[i].Value })
	out := ents[:0]
	for _, e := range ents {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}
