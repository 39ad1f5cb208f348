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
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"time"

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
	// model versions, ...) encoded by the adapter layer.
	Spec json.RawMessage `json:"spec,omitempty"`
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
		cp.Spec = append(json.RawMessage(nil), e.Spec...)
	}
	if e.DeletedAt != nil {
		t := *e.DeletedAt
		cp.DeletedAt = &t
	}
	return &cp
}

// DecodeSpec unmarshals the entity's type-specific spec into v.
func (e *Entity) DecodeSpec(v any) error {
	if len(e.Spec) == 0 {
		return nil
	}
	return json.Unmarshal(e.Spec, v)
}

// EncodeSpec marshals v into the entity's spec.
func (e *Entity) EncodeSpec(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("erm: encode spec: %w", err)
	}
	e.Spec = b
	return nil
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
	// NameGroup is the namespace-uniqueness group within a parent; types
	// sharing a group (TABLE and VIEW) cannot reuse each other's names.
	NameGroup string
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
		m := m
		r.types[m.Type] = &m
	}
	return r
}

// Register adds or replaces an asset-type manifest. It returns an error if
// the manifest is malformed.
func (r *Registry) Register(m TypeManifest) error {
	if m.Type == "" {
		return errors.New("erm: manifest missing type")
	}
	if m.NameGroup == "" {
		m.NameGroup = string(m.Type)
	}
	if m.NameMaxLen == 0 {
		m.NameMaxLen = 255
	}
	r.types[m.Type] = &m
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
			NameGroup:           "RELATION",
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
			NameGroup:           "RELATION",
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
	TableName   = "name"   // nameKey -> id (IDValue)
	TablePath   = "path"   // storage path -> id (data assets; one-asset-per-path)
	TableExtLoc = "extloc" // storage path -> id (external locations: containers of asset paths)
	TableChild  = "child"  // childKey -> nothing: the key ends in the id
	TableGrant  = "grant"  // grantKey -> Grant JSON
	TableTag    = "tag"    // tagKey -> value
	TableTagIdx = "tagidx" // tagIdxKey -> value (inverted: tag key -> tagged securables)
	TableABAC   = "abac"   // rule id -> ABACRule JSON
)

// pathTableFor returns the path index an entity type belongs to: external
// locations are containers that legitimately enclose asset paths, so they
// index separately from the one-asset-per-path table.
func pathTableFor(t SecurableType) string {
	if t == TypeExternalLocation {
		return TableExtLoc
	}
	return TablePath
}

// NameKey builds the unique-name index key for (group, parent, name).
// Names are case-insensitive, as in SQL catalogs.
func NameKey(group string, parent ids.ID, name string) string {
	return group + "\x00" + string(parent) + "\x00" + strings.ToLower(name)
}

// ChildKey builds the parent-child listing key. Keys for one parent share a
// prefix so a scan lists all children.
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

// TagIdxKey builds the inverted tag index key (tag key → tagged securable).
// Column is empty for entity-level tags. The forward table answers "what
// tags does this asset carry"; the inverted table answers "which assets
// carry this tag" with a single prefix scan instead of a full tag-table walk.
func TagIdxKey(key string, sec ids.ID, column string) string {
	return key + "\x00" + string(sec) + "\x00" + column
}

// TagIdxPrefix is the scan prefix for all securables carrying tag key.
func TagIdxPrefix(key string) string { return key + "\x00" }

// TagIdxSecurable recovers the securable ID from an inverted-index key.
func TagIdxSecurable(idxKey string) (ids.ID, bool) {
	i := strings.IndexByte(idxKey, 0)
	if i < 0 {
		return "", false
	}
	rest := idxKey[i+1:]
	j := strings.IndexByte(rest, 0)
	if j < 0 {
		return "", false
	}
	return ids.ID(rest[:j]), true
}

// PutEntity writes the entity record and its indexes inside tx.
func PutEntity(tx *store.Tx, e *Entity, group string) error {
	b, err := EncodeEntity(e)
	if err != nil {
		return fmt.Errorf("erm: encode entity: %w", err)
	}
	idv := IDValue(e.ID)
	tx.Put(TableEntity, string(e.ID), b)
	tx.Put(TableName, NameKey(group, e.ParentID, e.Name), idv)
	tx.Put(TableChild, ChildKey(e.ParentID, e.Type, e.ID), nil)
	if e.StoragePath != "" {
		tx.Put(pathTableFor(e.Type), e.StoragePath, idv)
	}
	return nil
}

// UpdateEntity rewrites just the entity record (indexes unchanged).
func UpdateEntity(tx *store.Tx, e *Entity) error {
	b, err := EncodeEntity(e)
	if err != nil {
		return fmt.Errorf("erm: encode entity: %w", err)
	}
	tx.Put(TableEntity, string(e.ID), b)
	return nil
}

// DeleteEntity removes the entity record and its indexes inside tx.
func DeleteEntity(tx *store.Tx, e *Entity, group string) {
	tx.Delete(TableEntity, string(e.ID))
	tx.Delete(TableName, NameKey(group, e.ParentID, e.Name))
	tx.Delete(TableChild, ChildKey(e.ParentID, e.Type, e.ID))
	if e.StoragePath != "" {
		tx.Delete(pathTableFor(e.Type), e.StoragePath)
	}
}

// Reader is the read interface shared by store snapshots, transactions and
// cache views: point reads, whole-prefix scans, and bounded, ordered
// [start, end) range scans (end "" unbounded, limit 0 unlimited) — the
// primitive listings are built on.
type Reader interface {
	Get(table, key string) ([]byte, bool)
	Scan(table, prefix string) []store.KV
	ScanRange(table, start, end string, limit int) []store.KV
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

// GetEntities resolves a batch of IDs to entities, preserving order and
// skipping missing or undecodable records. When the reader supports batch
// point reads, the whole batch costs one store round trip; either way it is
// decoded into one slab (DecodeEntities).
func GetEntities(r Reader, list []ids.ID) []*Entity {
	var recs [][]byte
	if br, ok := r.(BatchReader); ok {
		keys := make([]string, len(list))
		for i, id := range list {
			keys[i] = string(id)
		}
		recs = br.GetBatch(TableEntity, keys)
	} else {
		recs = make([][]byte, len(list))
		for i, id := range list {
			recs[i], _ = r.Get(TableEntity, string(id))
		}
	}
	ents := DecodeEntities(len(list), func(i int) (ids.ID, []byte) { return list[i], recs[i] })
	out := ents[:0]
	for _, e := range ents {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// idLiteral opens an index value that holds an ID as its string because the
// string alone could be taken for another form: it is 16 bytes long, or empty,
// or starts with this byte itself.
const idLiteral = 0xff

// IDValue is the value an index row that maps a key to an entity stores (the
// name, path and external-location tables): the ID's 16 bytes, or for an ID
// that is not 32 hex digits its string. A child row stores nothing — its key
// ends in the ID. IndexedID reads all of them back.
func IDValue(id ids.ID) []byte {
	if raw, ok := id.AppendRaw(make([]byte, 0, ids.RawLen)); ok {
		return raw
	}
	if len(id) == ids.RawLen || id == "" || id[0] == idLiteral {
		return append([]byte{idLiteral}, id...)
	}
	return []byte(id)
}

// IndexedID returns the entity ID an index pair points at (the child, name,
// path and external-location tables all map a key to an ID), whichever form
// the row was written in: an empty value (a child row: the ID is the key's
// last part), the ID's 16 bytes, or its string — the only form before record
// format 2, 32 hex digits then. For a child row the ID is a substring of the
// key — a string the store itself keeps for as long as the entity exists — and
// costs no allocation; for any other it is a string of its own, exactly sized.
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

// LookupID reads the entity ID that index record (table, key) holds — the
// name, path and external-location tables map a key to an ID. Through a
// DecodedReader the ID is copied out of the record once per cached version,
// not once per lookup.
func LookupID(r Reader, table, key string) (ids.ID, bool) {
	if dr, ok := r.(DecodedReader); ok {
		d, ok := dr.GetDecoded(table, key, sharedID)
		if !ok {
			return ids.Nil, false
		}
		return d.(ids.ID), true
	}
	idb, ok := r.Get(table, key)
	if !ok {
		return ids.Nil, false
	}
	return IndexedID(store.KV{Key: key, Value: idb}), true
}

// sharedEntity and sharedID are the decode functions of the entity table and
// of the index tables for a DecodedReader: package-level, so passing one
// allocates nothing.
func sharedEntity(key string, rec []byte) (any, error) {
	e, err := decodeEntity(rec, ids.ID(key), true)
	if err != nil {
		return nil, err
	}
	return e, nil
}

func sharedID(key string, rec []byte) (any, error) {
	return IndexedID(store.KV{Key: key, Value: rec}), nil
}

// GetByName resolves (group, parent, name) to an entity.
func GetByName(r Reader, group string, parent ids.ID, name string) (*Entity, bool) {
	id, ok := LookupID(r, TableName, NameKey(group, parent, name))
	if !ok {
		return nil, false
	}
	return GetEntity(r, id)
}

// GetByPath resolves an exact storage path to an entity.
func GetByPath(r Reader, path string) (*Entity, bool) {
	id, ok := LookupID(r, TablePath, path)
	if !ok {
		return nil, false
	}
	return GetEntity(r, id)
}

// ListChildren lists entities under parent, optionally filtered by type.
func ListChildren(r Reader, parent ids.ID, t SecurableType) []*Entity {
	kvs := r.Scan(TableChild, ChildPrefix(parent, t))
	list := make([]ids.ID, len(kvs))
	for i, kv := range kvs {
		list[i] = IndexedID(kv)
	}
	return GetEntities(r, list)
}
