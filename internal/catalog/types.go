// Package catalog implements the Unity Catalog core service (paper §4.2.1,
// Figure 3): the three-level namespace, asset lifecycle, access control,
// credential vending, audit logging, change events, batched metadata
// resolution for query engines, and the metadata query API — all layered on
// the generic entity-relationship model (erm), the ACID store, the
// write-through cache, and the cloud simulator.
package catalog

import (
	"errors"
	"fmt"
	"strings"

	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/obs"
	"unitycatalog/internal/privilege"
)

// Common service errors. REST handlers map these onto HTTP status codes.
var (
	ErrNotFound              = errors.New("catalog: not found")
	ErrAlreadyExists         = errors.New("catalog: already exists")
	ErrPermissionDenied      = errors.New("catalog: permission denied")
	ErrInvalidArgument       = errors.New("catalog: invalid argument")
	ErrPathOverlap           = errors.New("catalog: storage path overlaps another asset")
	ErrTrustedEngineRequired = errors.New("catalog: table has fine-grained policies; access requires a trusted engine")
	ErrNotEmpty              = errors.New("catalog: container is not empty")
)

// Ctx carries per-request identity. Engine identity matters for FGAC: only
// trusted engines (authenticated machine identities, paper §4.3.2) receive
// fine-grained policy rules and may access FGAC-protected tables.
type Ctx struct {
	Principal privilege.Principal
	Metastore string
	// TrustedEngine marks requests from engines isolated from user code.
	TrustedEngine bool
	// Workspace identifies the calling workspace; catalogs with workspace
	// bindings (paper §3.2) are only accessible from bound workspaces.
	// Empty means an unbound client, which cannot reach bound catalogs.
	Workspace string
	// Trace scopes this request's telemetry spans; the zero value records
	// nothing. The HTTP server populates it from the request's trace.
	Trace obs.SpanContext
}

// ErrWorkspaceBinding is returned when a catalog's workspace bindings
// exclude the calling workspace.
var ErrWorkspaceBinding = errors.New("catalog: catalog is not bound to this workspace")

// TableType distinguishes the table flavors of Figure 6(b).
type TableType string

// Table types.
const (
	TableManaged      TableType = "MANAGED"
	TableExternal     TableType = "EXTERNAL"
	TableForeign      TableType = "FOREIGN"
	TableShallowClone TableType = "SHALLOW_CLONE"
)

// DataFormat is a table's storage format (Figure 8(a)).
type DataFormat string

// Storage formats.
const (
	FormatDelta   DataFormat = "DELTA"
	FormatIceberg DataFormat = "ICEBERG"
	FormatParquet DataFormat = "PARQUET"
	FormatCSV     DataFormat = "CSV"
	FormatJSON    DataFormat = "JSON"
	FormatAvro    DataFormat = "AVRO"
)

// ColumnInfo describes one table or view column.
type ColumnInfo struct {
	Name     string `json:"name"`
	Type     string `json:"type"` // e.g. "BIGINT", "STRING", "DOUBLE"
	Nullable bool   `json:"nullable"`
	Position int    `json:"position"`
	Comment  string `json:"comment,omitempty"`
}

// TableSpec is the type-specific metadata of a TABLE entity.
type TableSpec struct {
	TableType TableType    `json:"table_type"`
	Format    DataFormat   `json:"format"`
	Columns   []ColumnInfo `json:"columns"`
	// FGAC holds row filters and column masks (paper §4.3.2).
	FGAC privilege.FGACPolicy `json:"fgac,omitempty"`
	// BaseTable is set for shallow clones: access to the clone implies
	// access to the subset of the base table it references.
	BaseTable ids.ID `json:"base_table,omitempty"`
	// ForeignConnection/ForeignSourceType identify federated tables
	// mirrored from an external catalog (paper §4.2.4).
	ForeignConnection string `json:"foreign_connection,omitempty"`
	ForeignSourceType string `json:"foreign_source_type,omitempty"`
	// UniformEnabled marks Delta tables that also publish Iceberg metadata
	// (Delta UniForm).
	UniformEnabled bool `json:"uniform_enabled,omitempty"`
}

// ViewSpec is the type-specific metadata of a VIEW entity.
type ViewSpec struct {
	Definition string `json:"definition"`
	// Dependencies are full names of the relations the view references.
	Dependencies []string     `json:"dependencies,omitempty"`
	Columns      []ColumnInfo `json:"columns,omitempty"`
}

// VolumeSpec is the type-specific metadata of a VOLUME entity.
type VolumeSpec struct {
	VolumeType string `json:"volume_type"` // MANAGED or EXTERNAL
}

// FunctionSpec is the type-specific metadata of a FUNCTION entity.
type FunctionSpec struct {
	Language string `json:"language"` // e.g. "SQL", "PYTHON"
	Body     string `json:"body"`
	Returns  string `json:"returns,omitempty"`
	// Dependencies are full names of relations the function body reads;
	// like views, functions are composite securables whose resolution
	// authorizes and includes their dependencies (paper §3.4 step 2).
	Dependencies []string `json:"dependencies,omitempty"`
}

// ModelSpec is the type-specific metadata of a REGISTERED_MODEL entity.
type ModelSpec struct {
	NextVersion int `json:"next_version"`
}

// ModelVersionSpec is the type-specific metadata of a MODEL_VERSION entity.
type ModelVersionSpec struct {
	Version int    `json:"version"`
	Status  string `json:"status"` // PENDING, READY, FAILED
	RunID   string `json:"run_id,omitempty"`
	Source  string `json:"source,omitempty"`
}

// ExternalLocationSpec references the storage credential that grants the
// catalog service access to a storage prefix.
type ExternalLocationSpec struct {
	CredentialName string `json:"credential_name"`
	URL            string `json:"url"`
}

// StorageCredentialSpec abstracts a cloud principal (e.g. IAM role).
type StorageCredentialSpec struct {
	Provider string `json:"provider"` // "s3", "abfss", "gs"
	Identity string `json:"identity"` // e.g. role ARN
}

// ConnectionSpec abstracts an external data source for federation.
type ConnectionSpec struct {
	ConnectionType string            `json:"connection_type"` // e.g. "HIVE_METASTORE", "MYSQL", "SNOWFLAKE"
	Options        map[string]string `json:"options,omitempty"`
}

// CatalogKind distinguishes regular and federated catalogs.
type CatalogKind string

// Catalog kinds.
const (
	CatalogRegular   CatalogKind = "REGULAR"
	CatalogFederated CatalogKind = "FOREIGN"
)

// CatalogSpec is the type-specific metadata of a CATALOG entity.
type CatalogSpec struct {
	Kind CatalogKind `json:"kind"`
	// ConnectionName links a federated catalog to its connection.
	ConnectionName string `json:"connection_name,omitempty"`
	// WorkspaceBindings restricts access to specific workspaces; empty
	// means all workspaces (paper §3.2).
	WorkspaceBindings []string `json:"workspace_bindings,omitempty"`
	// ShareProvider/ShareName link a shared catalog to a Delta Share.
	ShareProvider string `json:"share_provider,omitempty"`
	ShareName     string `json:"share_name,omitempty"`
}

// MetastoreInfo describes a metastore (namespace root, paper §3.2).
type MetastoreInfo struct {
	ID     string              `json:"id"`
	Name   string              `json:"name"`
	Region string              `json:"region"`
	Owner  privilege.Principal `json:"owner"`
	// RootPath is where managed asset storage is allocated.
	RootPath string `json:"root_path"`
	// EntityID is the metastore's own securable entity.
	EntityID ids.ID `json:"entity_id"`
}

// FullName joins name parts with dots: "catalog.schema.table".
func FullName(parts ...string) string { return strings.Join(parts, ".") }

// SplitFullName splits a dotted full name into its parts, validating depth
// between min and max.
func SplitFullName(full string, min, max int) ([]string, error) {
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

// relationGroup is the shared TABLE/VIEW name-uniqueness group.
const relationGroup = "RELATION"

// groupFor returns the name-uniqueness group for a type given a registry
// manifest, defaulting to the type itself.
func groupFor(reg *erm.Registry, t erm.SecurableType) string {
	if m, ok := reg.Manifest(t); ok && m.NameGroup != "" {
		return m.NameGroup
	}
	return string(t)
}
