// Package uc is the public embedding API of this Unity Catalog
// reproduction: a single entry point that assembles the metadata store, the
// governed object store, the Unity Catalog core service, the second-tier
// discovery services (search, lineage), the Delta Sharing server, the model
// registry, predictive optimization, and the REST front end.
//
// Quick start:
//
//	cat, err := uc.Open(uc.Config{})                  // in-memory stack
//	info, _ := cat.CreateMetastore("ms1", "main", "us-east-1", "admin", "s3://root/ms1")
//	admin := cat.Session("admin", "ms1")
//	admin.CreateCatalog("sales", "")
//	admin.CreateSchema("sales", "raw", "")
//	admin.CreateTable("sales.raw", "orders", ...)
//
// Everything the paper's Figure 3 shows is reachable from Catalog: the core
// service (Catalog.Service), search/lineage (Catalog.Search,
// Catalog.Lineage), sharing (Catalog.Sharing), the model registry
// (Catalog.Models), and an http.Handler serving the full REST API
// (Catalog.Handler).
package uc

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"unitycatalog/internal/audit"
	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/delta"
	"unitycatalog/internal/engine"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/events"
	"unitycatalog/internal/lineage"
	"unitycatalog/internal/mlregistry"
	"unitycatalog/internal/optimize"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/search"
	"unitycatalog/internal/server"
	"unitycatalog/internal/sharing"
	"unitycatalog/internal/store"
	"unitycatalog/internal/txn"
)

// Re-exported types so embedders need only this package for common work.
type (
	// Ctx is a request identity (principal, metastore, engine trust).
	Ctx = catalog.Ctx
	// Principal names a user, group, or service identity.
	Principal = privilege.Principal
	// Privilege is a grantable right (uc.Select, uc.Modify, ...).
	Privilege = privilege.Privilege
	// TableSpec describes a table's type, format, columns, and FGAC rules.
	TableSpec = catalog.TableSpec
	// ViewSpec describes a view definition and its dependencies.
	ViewSpec = catalog.ViewSpec
	// ColumnInfo is one table or view column.
	ColumnInfo = catalog.ColumnInfo
	// Entity is the generic securable record.
	Entity = erm.Entity
	// ResolveRequest/ResolveResponse are the batched query-path API.
	ResolveRequest  = catalog.ResolveRequest
	ResolveResponse = catalog.ResolveResponse
	// TempCredential is a vended storage credential.
	TempCredential = catalog.TempCredential
	// AccessLevel selects read or read-write storage access.
	AccessLevel = cloudsim.AccessLevel
)

// Common privileges, re-exported.
const (
	Select      = privilege.Select
	Modify      = privilege.Modify
	UseCatalog  = privilege.UseCatalog
	UseSchema   = privilege.UseSchema
	ReadVolume  = privilege.ReadVolume
	WriteVolume = privilege.WriteVolume
	Execute     = privilege.Execute
	Manage      = privilege.Manage
)

// Access levels, re-exported.
const (
	AccessRead      = cloudsim.AccessRead
	AccessReadWrite = cloudsim.AccessReadWrite
)

// Sentinel errors, re-exported for errors.Is.
var (
	ErrNotFound              = catalog.ErrNotFound
	ErrAlreadyExists         = catalog.ErrAlreadyExists
	ErrPermissionDenied      = catalog.ErrPermissionDenied
	ErrPathOverlap           = catalog.ErrPathOverlap
	ErrTrustedEngineRequired = catalog.ErrTrustedEngineRequired
)

// WAL fsync policy, re-exported from the store.
type SyncPolicy = store.SyncPolicy

const (
	// SyncBatch (the default) fsyncs once per group-commit batch.
	SyncBatch = store.SyncBatch
	// SyncNever leaves flushing to the OS.
	SyncNever = store.SyncNever
	// SyncAlways fsyncs after every WAL entry.
	SyncAlways = store.SyncAlways
)

// ParseSyncPolicy parses "batch", "never", or "always".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return store.ParseSyncPolicy(s) }

// Config assembles a Catalog.
type Config struct {
	// WALPath enables metadata durability via a write-ahead log file.
	WALPath string
	// WALSync selects when the WAL fsyncs (default SyncBatch: one fsync
	// amortized over each group-commit batch).
	WALSync SyncPolicy
	// CredentialTTL bounds vended temporary credentials (default 15m).
	CredentialTTL time.Duration

	// --- telemetry (see internal/server.Config) ---

	// AccessLog emits one structured line per API request to
	// AccessLogWriter (default os.Stderr); 5xx lines include the error.
	AccessLog bool
	// AccessLogWriter receives access-log lines.
	AccessLogWriter io.Writer
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// TraceSampleEvery retains every Nth trace for /debug/traces
	// (default 64; negative disables sampling).
	TraceSampleEvery int
	// TraceSlowThreshold always retains traces at least this slow
	// (default 100ms; negative disables).
	TraceSlowThreshold time.Duration
	// Node attributes this process's trace segments in stitched
	// cross-node trace trees (empty = no node attribution).
	Node string
	// TenantTopK sizes the per-tenant usage sketches behind /debug/tenants
	// and the uc_tenant_* metric families (default 32; negative disables
	// metering).
	TenantTopK int
	// SLORouteP99 arms the flight-recorder watchdog: any route whose
	// windowed p99 exceeds this budget between polls trips an incident
	// (0 = no SLO check).
	SLORouteP99 time.Duration
	// FlightFrames/FlightTraces size the flight-recorder rings (defaults
	// 32 frames / 256 trace summaries).
	FlightFrames int
	FlightTraces int
	// FlightInterval polls the flight-recorder watchdog in the background
	// (default 0: checks run lazily on /debug/flightrecorder reads only).
	FlightInterval time.Duration
	// ETagMaxAge bounds the lifetime of a conditional-GET validator
	// (default 30s; negative disables conditional handling).
	ETagMaxAge time.Duration

	// --- multi-table transactions (see internal/txn) ---

	// TxnLease bounds how long an in-flight multi-table commit may keep
	// publishing before the recovery sweep may take it over (default 30s).
	TxnLease time.Duration
	// TxnSweepInterval runs the transaction recovery sweep periodically
	// (default 0: startup-only recovery, no background sweeper).
	TxnSweepInterval time.Duration
}

// Catalog is the assembled Unity Catalog stack.
type Catalog struct {
	Service   *catalog.Service
	Cloud     *cloudsim.Store
	Search    *search.Service
	Lineage   *lineage.Service
	Sharing   *sharing.Server
	Models    *mlregistry.Registry
	Artifacts *mlregistry.ArtifactRepository
	Optimizer *optimize.Optimizer

	db    *store.DB
	srv   *server.Server
	coord *txn.Coordinator
}

// Open assembles a Catalog from the config.
func Open(cfg Config) (*Catalog, error) {
	db, err := store.Open(store.Options{
		WALPath: cfg.WALPath,
		Sync:    cfg.WALSync,
	})
	if err != nil {
		return nil, err
	}
	svc, err := catalog.New(catalog.Config{
		DB:            db,
		CredentialTTL: cfg.CredentialTTL,
	})
	if err != nil {
		db.Close()
		return nil, err
	}
	c := &Catalog{
		Service: svc,
		Cloud:   svc.Cloud(),
		db:      db,
	}
	c.srv = server.NewWithConfig(svc, server.Config{
		SampleEvery:     cfg.TraceSampleEvery,
		SlowThreshold:   cfg.TraceSlowThreshold,
		Node:            cfg.Node,
		TenantTopK:      cfg.TenantTopK,
		SLORouteP99:     cfg.SLORouteP99,
		FlightFrames:    cfg.FlightFrames,
		FlightTraces:    cfg.FlightTraces,
		FlightInterval:  cfg.FlightInterval,
		AccessLog:       cfg.AccessLog,
		AccessLogWriter: cfg.AccessLogWriter,
		Pprof:           cfg.Pprof,
		ETagMaxAge:      cfg.ETagMaxAge,
	})
	c.Search = c.srv.Search
	c.Lineage = c.srv.Lineage
	c.Sharing = c.srv.Sharing
	c.Models = c.srv.Registry
	c.Artifacts = mlregistry.NewArtifactRepository(svc)
	c.Optimizer = optimize.New(svc, optimize.Options{})

	// One transaction coordinator per stack: its intent records outlive any
	// process (WAL replay restores them into the store), so recover what a
	// predecessor left behind, expose its metrics on /metrics, and keep a
	// periodic sweep running if configured.
	c.coord = txn.NewCoordinatorOptions(svc, txn.Options{Lease: cfg.TxnLease})
	c.coord.Metrics().Register(c.srv.Metrics())
	// Recovery failures are retried by the sweep (and visible in metrics
	// and intent records); an embedder still gets a catalog.
	c.coord.RecoverAll()
	c.coord.StartSweeper(cfg.TxnSweepInterval)
	return c, nil
}

// Close shuts the stack down.
func (c *Catalog) Close() error {
	c.coord.Close()
	c.srv.Close()
	c.Lineage.Close()
	c.Search.Close()
	return c.db.Close()
}

// Handler returns the full REST API (UC API, Delta Sharing protocol,
// Iceberg REST facade) as an http.Handler.
func (c *Catalog) Handler() http.Handler { return c.srv }

// TrustEngine registers a machine identity as a trusted engine for FGAC.
func (c *Catalog) TrustEngine(p Principal) { c.srv.TrustEngine(p) }

// CreateMetastore creates and attaches a metastore.
func (c *Catalog) CreateMetastore(id, name, region string, owner Principal, rootPath string) (catalog.MetastoreInfo, error) {
	return c.Service.CreateMetastore(id, name, region, owner, rootPath)
}

// Audit exposes the audit trail.
func (c *Catalog) Audit() *audit.Log { return c.Service.Audit() }

// Events exposes the metadata change-event bus.
func (c *Catalog) Events() *events.Bus { return c.Service.Bus() }

// NewEngine builds an in-process SQL engine bound to this catalog. Trusted
// engines receive and enforce FGAC rules.
func (c *Catalog) NewEngine(name string, trusted bool) *engine.Engine {
	return &engine.Engine{Name: name, Catalog: c.Service, Cloud: c.Cloud, Trusted: trusted, Lineage: c.Lineage}
}

// BootstrapDeltaTable initializes an empty Delta log at a (typically
// managed) storage path with a schema derived from the column definitions —
// the DDL step a full engine performs after CREATE TABLE. The catalog itself
// stays format-agnostic; this helper exists because the mini engine only
// handles DML.
func (c *Catalog) BootstrapDeltaTable(path string, cols []ColumnInfo) error {
	var schema delta.Schema
	for _, col := range cols {
		var t delta.ColType
		switch col.Type {
		case "BIGINT", "INT", "LONG":
			t = delta.TypeInt64
		case "DOUBLE", "FLOAT":
			t = delta.TypeFloat64
		default:
			t = delta.TypeString
		}
		schema.Fields = append(schema.Fields, delta.SchemaField{Name: col.Name, Type: t, Nullable: col.Nullable || true})
	}
	_, err := delta.Create(delta.ServiceBlobs{Store: c.Cloud}, path, "", schema, nil)
	return err
}

// NewTransactionCoordinator returns the stack's coordinator for multi-table,
// multi-statement transactions on catalog-owned Delta tables (paper §6.3).
// The coordinator is shared: it was created at Open, already recovered any
// transactions a crashed predecessor left behind, and exports its metrics
// under uc_txn_* on /metrics.
func (c *Catalog) NewTransactionCoordinator() *txn.Coordinator {
	return c.coord
}

// Session binds a principal and metastore for fluent catalog operations.
func (c *Catalog) Session(principal Principal, metastore string) *Session {
	return &Session{c: c, ctx: Ctx{Principal: principal, Metastore: metastore, TrustedEngine: true}}
}

// Session is a principal-scoped convenience facade over the core service.
type Session struct {
	c   *Catalog
	ctx Ctx
}

// Ctx returns the session's request identity.
func (s *Session) Ctx() Ctx { return s.ctx }

// CreateCatalog creates a catalog.
func (s *Session) CreateCatalog(name, comment string) (*Entity, error) {
	return s.c.Service.CreateCatalog(s.ctx, name, comment)
}

// CreateSchema creates a schema.
func (s *Session) CreateSchema(catalogName, name, comment string) (*Entity, error) {
	return s.c.Service.CreateSchema(s.ctx, catalogName, name, comment)
}

// CreateTable creates a table ("" storagePath = managed storage).
func (s *Session) CreateTable(schemaFull, name string, spec TableSpec, storagePath string) (*Entity, error) {
	return s.c.Service.CreateTable(s.ctx, schemaFull, name, spec, storagePath)
}

// CreateView creates a view.
func (s *Session) CreateView(schemaFull, name string, spec ViewSpec) (*Entity, error) {
	return s.c.Service.CreateView(s.ctx, schemaFull, name, spec)
}

// CreateVolume creates a volume.
func (s *Session) CreateVolume(schemaFull, name, storagePath string) (*Entity, error) {
	return s.c.Service.CreateVolume(s.ctx, schemaFull, name, storagePath)
}

// Get fetches an asset by full name with authorization.
func (s *Session) Get(full string) (*Entity, error) { return s.c.Service.GetAsset(s.ctx, full) }

// List lists visible children of parent, optionally filtered by type.
func (s *Session) List(parent string, t erm.SecurableType) ([]*Entity, error) {
	return s.c.Service.ListAssets(s.ctx, parent, t)
}

// Delete soft-deletes an asset (force cascades).
func (s *Session) Delete(full string, force bool) error {
	return s.c.Service.DeleteAsset(s.ctx, full, force)
}

// Grant grants a privilege on a securable.
func (s *Session) Grant(full string, p Principal, priv Privilege) error {
	return s.c.Service.Grant(s.ctx, full, p, priv)
}

// Revoke revokes a privilege.
func (s *Session) Revoke(full string, p Principal, priv Privilege) error {
	return s.c.Service.Revoke(s.ctx, full, p, priv)
}

// SetTag sets an entity tag (column == "") or column tag.
func (s *Session) SetTag(full, column, key, value string) error {
	return s.c.Service.SetTag(s.ctx, full, column, key, value)
}

// Resolve performs the batched query-path metadata resolution.
func (s *Session) Resolve(req ResolveRequest) (*ResolveResponse, error) {
	return s.c.Service.Resolve(s.ctx, req)
}

// Credential vends a temporary storage credential for an asset.
func (s *Session) Credential(full string, level AccessLevel) (TempCredential, error) {
	return s.c.Service.TempCredentialForAsset(s.ctx, full, level)
}

// CredentialForPath vends a credential by raw storage path.
func (s *Session) CredentialForPath(path string, level AccessLevel) (TempCredential, error) {
	return s.c.Service.TempCredentialForPath(s.ctx, path, level)
}

// CloneTable shallow-clones a table (zero copy; paper §4.3.2).
func (s *Session) CloneTable(srcFull, dstSchemaFull, dstName string) (*Entity, error) {
	return s.c.Service.CloneTable(s.ctx, srcFull, dstSchemaFull, dstName)
}

// Rename renames a leaf asset (or empty container).
func (s *Session) Rename(full, newName string) (*Entity, error) {
	return s.c.Service.RenameAsset(s.ctx, full, newName)
}

// WriteVolumeFile uploads a file into a volume.
func (s *Session) WriteVolumeFile(volumeFull, name string, data []byte) error {
	return s.c.Service.WriteVolumeFile(s.ctx, volumeFull, name, data)
}

// ReadVolumeFile downloads a file from a volume.
func (s *Session) ReadVolumeFile(volumeFull, name string) ([]byte, error) {
	return s.c.Service.ReadVolumeFile(s.ctx, volumeFull, name)
}

// ListVolumeFiles lists a volume's files.
func (s *Session) ListVolumeFiles(volumeFull string) ([]catalog.VolumeFileInfo, error) {
	return s.c.Service.ListVolumeFiles(s.ctx, volumeFull)
}

// String describes the session.
func (s *Session) String() string {
	return fmt.Sprintf("uc.Session(%s@%s)", s.ctx.Principal, s.ctx.Metastore)
}
