package catalog

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unitycatalog/internal/audit"
	"unitycatalog/internal/cache"
	"unitycatalog/internal/clock"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/events"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/obs"
	"unitycatalog/internal/pathtrie"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/retry"
	"unitycatalog/internal/store"
)

// Config assembles the dependencies of a Service.
type Config struct {
	DB    *store.DB
	Cloud *cloudsim.Store
	// CacheOpts configures the mutable-metadata cache; CacheOpts.Disabled
	// turns caching off (used in benchmarks).
	CacheOpts cache.Options
	Clock     clock.Clock
	Audit     *audit.Log
	Bus       *events.Bus
	Registry  *erm.Registry
	Groups    privilege.GroupResolver
	// CredentialTTL bounds vended temporary credentials (default 15m).
	CredentialTTL time.Duration
	// STSRetry configures retries around credential minting: throttled or
	// transiently failing STS calls are replayed with backoff (minting is
	// idempotent — every call yields a fresh token). The zero value means
	// the retry package defaults.
	STSRetry retry.Policy
	// DisableTokenCache turns off credential reuse (ablation).
	DisableTokenCache bool
	// AuthzCacheSize caps cached per-principal authorization snapshots
	// across all metastores (default 4096).
	AuthzCacheSize int
	// AuthzSnapshotTTL bounds how long a cached snapshot's compiled group
	// closure may be reused; grant and hierarchy changes reach snapshots
	// at once through the change log, but group changes are not commits
	// (default 30s, matching the directory's group cache).
	AuthzSnapshotTTL time.Duration
	// SoftDeleteRetention is how long soft-deleted entities are kept before
	// garbage collection (default 7 days).
	SoftDeleteRetention time.Duration
}

// Service is the Unity Catalog core service.
type Service struct {
	db     *store.DB
	cache  *cache.Cache
	cloud  *cloudsim.Store
	clk    clock.Clock
	audit  *audit.Log
	bus    *events.Bus
	reg    *erm.Registry
	groups privilege.GroupResolver
	authz  *privilege.SnapshotCache

	credTTL     time.Duration
	stsRetry    retry.Policy
	tokenCache  *tokenCache
	gcRetention time.Duration

	// usage is the per-tenant meter (nil disables). Atomic because the
	// server attaches its meter after construction (SetUsage), when requests
	// may already be in flight.
	usage atomic.Pointer[obs.UsageMeter]

	mu    sync.RWMutex
	metas map[string]*metaState
}

// metaState is per-metastore in-memory state owned by this service node.
type metaState struct {
	info MetastoreInfo
	// trie indexes storage paths for complex reads (overlap listings);
	// authoritative overlap checks go through the store's path table.
	trie *pathtrie.Trie
	// writeMu serializes this node's writes per metastore so the trie stays
	// in step with committed state.
	writeMu sync.Mutex
}

// New assembles a Service. Missing optional dependencies get defaults.
func New(cfg Config) (*Service, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("catalog: Config.DB is required")
	}
	if cfg.Cloud == nil {
		cfg.Cloud = cloudsim.New()
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Audit == nil {
		cfg.Audit = audit.NewLog(0)
	}
	if cfg.Bus == nil {
		cfg.Bus = events.NewBus(0, 0)
	}
	if cfg.Registry == nil {
		cfg.Registry = erm.NewRegistry()
	}
	if cfg.Groups == nil {
		cfg.Groups = privilege.NoGroups{}
	}
	if cfg.CredentialTTL == 0 {
		cfg.CredentialTTL = 15 * time.Minute
	}
	if cfg.SoftDeleteRetention == 0 {
		cfg.SoftDeleteRetention = 7 * 24 * time.Hour
	}
	s := &Service{
		db:          cfg.DB,
		cache:       cache.New(cfg.DB, cfg.CacheOpts),
		cloud:       cfg.Cloud,
		clk:         cfg.Clock,
		audit:       cfg.Audit,
		bus:         cfg.Bus,
		reg:         cfg.Registry,
		groups:      cfg.Groups,
		credTTL:     cfg.CredentialTTL,
		stsRetry:    cfg.STSRetry,
		gcRetention: cfg.SoftDeleteRetention,
		metas:       map[string]*metaState{},
	}
	s.authz = privilege.NewSnapshotCache(privilege.SnapshotCacheOptions{
		MaxEntries: cfg.AuthzCacheSize,
		MaxAge:     cfg.AuthzSnapshotTTL,
	}, s.touchedSecurables)
	if !cfg.DisableTokenCache {
		s.tokenCache = newTokenCache(cfg.Clock)
	}
	// Publish change events from the store's commit hook: events go out
	// strictly after the commit is durable and visible, in per-metastore
	// version order, exactly once per applied commit — including commits
	// made by other service nodes sharing this DB.
	cfg.DB.AddCommitHook(s.onCommit)
	return s, nil
}

// Accessors for collaborators (used by the server, benches, and tests).

// Audit returns the audit log.
func (s *Service) Audit() *audit.Log { return s.audit }

// Bus returns the change-event bus.
func (s *Service) Bus() *events.Bus { return s.bus }

// Cloud returns the governed object store.
func (s *Service) Cloud() *cloudsim.Store { return s.cloud }

// Registry returns the asset-type registry.
func (s *Service) Registry() *erm.Registry { return s.reg }

// Cache returns the node's metadata cache.
func (s *Service) Cache() *cache.Cache { return s.cache }

// CacheMetrics returns the metadata cache counters.
func (s *Service) CacheMetrics() cache.Metrics { return s.cache.Metrics() }

// CacheHealth reports per-metastore cache degradation state for /healthz.
func (s *Service) CacheHealth() []cache.MetastoreHealth { return s.cache.Health() }

// CacheDegraded reports whether any owned metastore is serving degraded.
func (s *Service) CacheDegraded() bool { return s.cache.Degraded() }

// mint issues a down-scoped credential through the STS retry policy.
// Throttled and transient mint failures are replayed with backoff; minting
// is idempotent, so every fault class is safe to retry. The request's trace
// records the full retry-wrapped call as one "sts.mint" span.
func (s *Service) mint(sc obs.SpanContext, scope string, level cloudsim.AccessLevel) (cloudsim.Credential, error) {
	_, span := sc.StartDetail("sts.mint", scope)
	defer span.End()
	return retry.DoValue(s.stsRetry, retry.Retryable, func() (cloudsim.Credential, error) {
		return s.cloud.Mint(scope, level, s.credTTL)
	})
}

// RegisterMetrics registers every layer's metric families on r: store
// commits and WAL, metadata cache, the event log and its followers,
// compiled-authz snapshots, audit aggregates, and cloud-storage operations.
// Call once per registry.
func (s *Service) RegisterMetrics(r *obs.Registry) {
	s.db.RegisterMetrics(r)
	s.cache.RegisterMetrics(r)
	s.bus.RegisterMetrics(r)
	s.authz.RegisterMetrics(r)
	s.audit.RegisterMetrics(r)
	s.cloud.RegisterMetrics(r)
	// Per-table ordered-index sizes, summed across metastores. One gauge per
	// catalog table so index growth is attributable on /metrics.
	for _, table := range []string{erm.TableEntity, erm.TableName, erm.TableChild, erm.TableGrant, erm.TableTag, erm.TableTagIdx, erm.TablePath} {
		table := table
		r.RegisterGaugeFunc("uc_index_size_"+table, "Keys in the ordered index of the "+table+" table.", func() float64 {
			return float64(s.db.IndexSize(table))
		})
	}
}

// DB exposes the backing metadata store for trusted collaborators (the
// multi-table transaction coordinator persists its commit records there).
func (s *Service) DB() *store.DB { return s.db }

// Clock returns the service clock.
func (s *Service) Clock() clock.Clock { return s.clk }

// GroupsOf exposes group resolution (used by second-tier services).
func (s *Service) GroupsOf(p privilege.Principal) []privilege.Principal {
	return s.groups.GroupsOf(p)
}

// --- metastore management ---

const metaInfoKey = "metastore_info"

// CreateMetastore creates a metastore and registers it with this node.
// The owner becomes the metastore admin who bootstraps all access.
func (s *Service) CreateMetastore(id, name, region string, owner privilege.Principal, rootPath string) (MetastoreInfo, error) {
	if id == "" || name == "" || owner == "" {
		return MetastoreInfo{}, fmt.Errorf("%w: metastore id, name and owner are required", ErrInvalidArgument)
	}
	if err := s.db.CreateMetastore(id); err != nil {
		return MetastoreInfo{}, fmt.Errorf("%w: metastore %s", ErrAlreadyExists, id)
	}
	if err := s.cache.Own(id); err != nil {
		return MetastoreInfo{}, err
	}
	now := s.clk.Now()
	entity := &erm.Entity{
		ID:        ids.New(),
		Type:      erm.TypeMetastore,
		Name:      name,
		FullName:  name,
		Owner:     owner,
		State:     erm.StateActive,
		CreatedAt: now,
		UpdatedAt: now,
	}
	info := MetastoreInfo{ID: id, Name: name, Region: region, Owner: owner, RootPath: strings.TrimSuffix(rootPath, "/"), EntityID: entity.ID}
	_, err := s.cache.Update(id, func(tx *store.Tx) error {
		if err := erm.PutEntity(tx, entity, string(erm.TypeMetastore)); err != nil {
			return err
		}
		b, err := encodeJSON(info)
		if err != nil {
			return err
		}
		tx.Put("config", metaInfoKey, b)
		return nil
	})
	if err != nil {
		return MetastoreInfo{}, err
	}
	s.mu.Lock()
	s.metas[id] = &metaState{info: info, trie: pathtrie.New()}
	s.mu.Unlock()
	s.audit.Append(audit.Record{Kind: audit.KindLifecycle, Metastore: id, Principal: string(owner), Operation: "CreateMetastore", Securable: entity.ID, Allowed: true})
	return info, nil
}

// OpenMetastore attaches this node to an existing metastore (e.g. after
// restart), rebuilding in-memory state from the store.
func (s *Service) OpenMetastore(id string) (MetastoreInfo, error) {
	if err := s.cache.Own(id); err != nil {
		return MetastoreInfo{}, err
	}
	snap, err := s.db.Snapshot(id)
	if err != nil {
		return MetastoreInfo{}, err
	}
	defer snap.Close()
	b, ok := snap.Get("config", metaInfoKey)
	if !ok {
		return MetastoreInfo{}, fmt.Errorf("%w: metastore %s has no info record", ErrNotFound, id)
	}
	var info MetastoreInfo
	if err := decodeJSON(b, &info); err != nil {
		return MetastoreInfo{}, err
	}
	trie := pathtrie.New()
	for _, kv := range snap.Scan(erm.TablePath, "") {
		_ = trie.Insert(kv.Key, erm.IndexedID(kv))
	}
	s.mu.Lock()
	s.metas[id] = &metaState{info: info, trie: trie}
	s.mu.Unlock()
	return info, nil
}

// Metastore returns the info for an attached metastore.
func (s *Service) Metastore(id string) (MetastoreInfo, error) {
	ms, err := s.meta(id)
	if err != nil {
		return MetastoreInfo{}, err
	}
	return ms.info, nil
}

// Metastores lists metastore IDs attached to this node.
func (s *Service) Metastores() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.metas))
	for id := range s.metas {
		out = append(out, id)
	}
	return out
}

func (s *Service) meta(id string) (*metaState, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ms, ok := s.metas[id]
	if !ok {
		return nil, fmt.Errorf("%w: metastore %s not attached", ErrNotFound, id)
	}
	return ms, nil
}

// MetastoreVersion returns the cache node's known version for a metastore.
func (s *Service) MetastoreVersion(id string) (uint64, error) {
	return s.cache.KnownVersion(id)
}

// --- authorization plumbing ---

// viewResolver adapts an erm.Reader to the privilege engine's interfaces.
type viewResolver struct{ r erm.Reader }

// Securable implements privilege.HierarchyResolver.
func (v viewResolver) Securable(id ids.ID) (privilege.Securable, bool) {
	e, ok := erm.GetEntity(v.r, id)
	if !ok {
		return privilege.Securable{}, false
	}
	return securableOf(e), true
}

// securableOf is the privilege engine's view of e. Parent is a substring of
// e's backing string; the compiled snapshots, which memoize securables across
// requests, copy it when they file one (privilege's memo.remember).
func securableOf(e *erm.Entity) privilege.Securable {
	return privilege.Securable{ID: e.ID, Type: string(e.Type), Parent: e.ParentID, Owner: e.Owner}
}

// viewGrants adapts stored grants to privilege.Store.
type viewGrants struct{ r erm.Reader }

// GrantsOn implements privilege.Store.
func (v viewGrants) GrantsOn(id ids.ID) []privilege.Grant {
	kvs := v.r.Scan(erm.TableGrant, erm.GrantPrefix(id))
	out := make([]privilege.Grant, 0, len(kvs))
	for _, kv := range kvs {
		var g privilege.Grant
		if err := decodeJSON(kv.Value, &g); err == nil {
			out = append(out, g)
		}
	}
	return out
}

// versionedReader is what authorization decisions are made against: a read
// view pinned at one metastore version (a cache view, or a store snapshot
// behind snapReader). A compiled snapshot's memo is shared only between
// requests whose views are at the version it describes.
type versionedReader interface {
	erm.Reader
	Version() uint64
}

// authorizer returns the per-principal decision engine for a request: the
// principal's compiled snapshot from the cross-request cache, moved to the
// version of the request's view and bound to that view. The snapshot gets
// there along the store's change log (touchedSecurables), the source the
// metadata cache reconciles from, so a commit costs it the memo entries of
// the securables it wrote and a commit that wrote none costs it nothing.
func (s *Service) authorizer(ctx Ctx, r versionedReader) privilege.Authorizer {
	v := r.Version()
	snap := s.authz.SnapshotT(ctx.Trace, ctx.Metastore, ctx.Principal, v, s.groups)
	return snap.Bind(v, viewResolver{r}, viewGrants{r})
}

// touchedSecurables implements privilege.Touched over the store's change
// log. A snapshot memoizes what viewResolver and viewGrants read and no
// more: a securable's entity row (key = id) and its direct grants (key
// prefix = id). Names, children, paths, tags and ABAC rules (evaluated
// outside the snapshot, see check) feed nothing it holds.
func (s *Service) touchedSecurables(msID string, from, to uint64) ([]ids.ID, bool) {
	changes, err := s.db.ChangesSince(msID, from)
	if err != nil {
		return nil, false // trimmed, or the store is failing: start over
	}
	var touched []ids.ID
	for _, ch := range changes {
		if ch.Version > to {
			break
		}
		switch ch.Table {
		case erm.TableEntity:
			touched = append(touched, ids.ID(ch.Key))
		case erm.TableGrant:
			touched = append(touched, erm.GrantSecurable(ch.Key))
		}
	}
	return touched, true
}

// AuthzMetrics returns the authorization snapshot-cache counters.
func (s *Service) AuthzMetrics() privilege.SnapshotCacheMetrics { return s.authz.Metrics() }

// view opens a cached read view for the request's metastore, scoped to its
// trace: the view's cache misses and reconciliations appear as spans.
func (s *Service) view(ctx Ctx) (*cache.View, error) {
	return s.cache.NewViewT(ctx.Trace, ctx.Metastore)
}

// viewMS opens an untraced read view by metastore ID, for internal callers
// that have no request context (background sweeps, trusted lookups).
func (s *Service) viewMS(msID string) (*cache.View, error) {
	return s.cache.NewView(msID)
}

// checkWorkspaceBinding enforces catalog workspace bindings (paper §3.2) on
// a securable's chain — the securable and its ancestors, as resolvePathParts
// or chainOf returns them: a catalog bound to specific workspaces is
// unreachable from any other workspace, regardless of grants. It reads
// nothing: the chain is what the caller resolved, at the caller's version.
func checkWorkspaceBinding(ctx Ctx, chain []*erm.Entity) error {
	for _, e := range chain {
		if e.Type != erm.TypeCatalog {
			continue
		}
		var spec CatalogSpec
		if err := e.DecodeSpec(&spec); err != nil || len(spec.WorkspaceBindings) == 0 {
			continue
		}
		if !slices.Contains(spec.WorkspaceBindings, ctx.Workspace) {
			return fmt.Errorf("%w: %s", ErrWorkspaceBinding, e.FullName)
		}
	}
	return nil
}

// backendErr is the backend failure r absorbed on a read that came back "not
// found" (cache.View.Err: the store unreachable and the staleness bound
// passed), or nil when r absorbed none and the record is really absent.
func backendErr(r erm.Reader) error {
	if er, ok := r.(interface{ Err() error }); ok {
		if err := er.Err(); err != nil {
			return fmt.Errorf("catalog: metadata unreadable: %w", err)
		}
	}
	return nil
}

// chainOf returns e's chain — its ancestors from the metastore entity down,
// e last, the shape resolvePathParts returns — for a securable reached by ID
// or by path rather than by name. An ancestor that cannot be read because the
// backend is failing is refused, and audited as the denial it is: going on
// without it would skip the binding of a catalog the request never saw, and
// leave the decision to whatever the authorization memo still holds. An
// ancestor that is really absent (an orphan awaiting GC) ends the chain.
func (s *Service) chainOf(ctx Ctx, r erm.Reader, e *erm.Entity, op string) ([]*erm.Entity, error) {
	chain := make([]*erm.Entity, 1, 4)
	chain[0] = e
	for cur := e.ParentID; cur != ids.Nil; {
		p, ok := erm.GetEntity(r, cur)
		if !ok {
			if err := backendErr(r); err != nil {
				s.audit.Append(audit.Record{
					Kind: audit.KindAuthz, Metastore: ctx.Metastore, Principal: string(ctx.Principal),
					Operation: op, Securable: e.ID, Allowed: false, ReadOnly: true, Detail: "ancestor unreadable",
					TraceID: ctx.Trace.TraceID(),
				})
				return nil, err
			}
			break
		}
		chain = append(chain, p)
		cur = p.ParentID
	}
	slices.Reverse(chain)
	return chain, nil
}

// check authorizes priv on the last securable of chain (with container
// gating) including dynamic ABAC grants, and records the decision in the
// audit log. The chain is what the workspace bindings are checked on.
func (s *Service) check(ctx Ctx, r versionedReader, priv privilege.Privilege, chain []*erm.Entity, op string) error {
	id := leaf(chain).ID
	if err := checkWorkspaceBinding(ctx, chain); err != nil {
		s.audit.Append(audit.Record{
			Kind: audit.KindAuthz, Metastore: ctx.Metastore, Principal: string(ctx.Principal),
			Operation: op, Securable: id, Allowed: false, ReadOnly: true, Detail: "workspace binding",
			TraceID: ctx.Trace.TraceID(),
		})
		return err
	}
	d := s.authorizer(ctx, r).Check(priv, id)
	if !d.Allowed {
		if s.abacGrants(ctx, r, priv, id) {
			d.Allowed = true
			d.Reason = "abac grant"
		}
	}
	s.audit.Append(audit.Record{
		Kind: audit.KindAuthz, Metastore: ctx.Metastore, Principal: string(ctx.Principal),
		Operation: op, Securable: id, Allowed: d.Allowed, ReadOnly: true, Detail: d.Reason,
		TraceID: ctx.Trace.TraceID(),
	})
	if !d.Allowed {
		return fmt.Errorf("%w: %s", ErrPermissionDenied, d.Reason)
	}
	return nil
}

// checkOwner requires administrative rights over id.
func (s *Service) checkOwner(ctx Ctx, r versionedReader, id ids.ID, op string) error {
	ok := s.authorizer(ctx, r).IsOwner(id)
	s.audit.Append(audit.Record{
		Kind: audit.KindAuthz, Metastore: ctx.Metastore, Principal: string(ctx.Principal),
		Operation: op, Securable: id, Allowed: ok, ReadOnly: true, Detail: "ownership",
		TraceID: ctx.Trace.TraceID(),
	})
	if !ok {
		return fmt.Errorf("%w: requires ownership or MANAGE", ErrPermissionDenied)
	}
	return nil
}

// SetUsage attaches (or with nil detaches) the per-tenant usage meter.
// The server calls this before serving; safe to call while requests run.
func (s *Service) SetUsage(m *obs.UsageMeter) { s.usage.Store(m) }

// apiAudit records an API request outcome and attributes the operation to
// its tenant when metering is on.
func (s *Service) apiAudit(ctx Ctx, op string, sec ids.ID, readOnly bool, err error) {
	s.audit.Append(audit.Record{
		Kind: audit.KindAPIRequest, Metastore: ctx.Metastore, Principal: string(ctx.Principal),
		Operation: op, Securable: sec, Allowed: err == nil, ReadOnly: readOnly,
		Detail: errDetail(err), TraceID: ctx.Trace.TraceID(),
	})
	if m := s.usage.Load(); m != nil {
		m.ObserveOp(string(ctx.Principal))
	}
}

func errDetail(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// stagedEvent is the note a catalog write attaches to its transaction. The
// commit hook turns it into an events.Event if and only if the commit
// applies — a retried CAS closure stages fresh notes, a failed commit
// publishes nothing.
type stagedEvent struct {
	op        events.Op
	entityID  ids.ID
	typ       string
	fullName  string
	principal string
	detail    string
}

// stageEvent stages a change event inside tx, to be published at the
// commit's version by every service node's commit hook.
func stageEvent(tx *store.Tx, ctx Ctx, op events.Op, e *erm.Entity, detail string) {
	se := &stagedEvent{op: op, principal: string(ctx.Principal), detail: detail}
	if e != nil {
		se.entityID = e.ID
		se.typ = string(e.Type)
		se.fullName = strings.Clone(e.FullName) // the event history outlives e
	}
	tx.Annotate(se)
}

// onCommit is the store commit hook: it publishes one event per staged
// annotation (or a bare OpChange event for unannotated commits, e.g. raw
// store writes or another subsystem's commits) onto this node's bus. An event
// names the entity and the version; it does not carry the commit's change
// set, which is the transaction's own slice (see store.CommitHook) and which
// no follower reads — a node that wants the records a commit touched asks
// the store's change log. It runs inside the store's apply turnstile:
// publishes are per-metastore version-ordered and strictly after durability.
func (s *Service) onCommit(msID string, version uint64, _ []store.Change, notes []any) {
	now := s.clk.Now()
	published := false
	for _, n := range notes {
		se, ok := n.(*stagedEvent)
		if !ok {
			continue
		}
		s.bus.Publish(events.Event{
			Metastore: msID, Version: version, Op: se.op,
			EntityID: se.entityID, Type: se.typ, FullName: se.fullName,
			Principal: se.principal, Detail: se.detail, Time: now,
		})
		published = true
	}
	if !published {
		s.bus.Publish(events.Event{Metastore: msID, Version: version, Op: events.OpChange, Time: now})
	}
}

// --- name resolution helpers ---

// resolvePathParts walks catalog[.schema[.asset[.sub]]] name parts to an
// entity, returning its chain: its ancestors (metastore entity first) and the
// entity itself last. Read through a cache view the entities are the cache's
// own, shared with every request at that version: callers must not write to
// them (Clone first). A name that cannot be read because the backend is
// failing is that failure, not a "not found".
func (s *Service) resolvePathParts(r erm.Reader, ms *metaState, parts []string) ([]*erm.Entity, error) {
	chain := make([]*erm.Entity, 0, len(parts)+1)
	root, ok := erm.GetEntity(r, ms.info.EntityID)
	if !ok {
		if err := backendErr(r); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: metastore entity", ErrNotFound)
	}
	chain = append(chain, root)
	parent := root
	// Expected types level by level: catalog, schema, asset(any leaf), sub-asset.
	for i, part := range parts {
		var e *erm.Entity
		var found bool
		switch i {
		case 0:
			// Metastore-level securables: catalogs plus configuration
			// assets (external locations, credentials, connections,
			// shares, recipients).
			for _, g := range []string{
				string(erm.TypeCatalog), string(erm.TypeExternalLocation),
				string(erm.TypeStorageCredential), string(erm.TypeConnection),
				string(erm.TypeShare), string(erm.TypeRecipient),
			} {
				if e, found = erm.GetByName(r, g, parent.ID, part); found {
					break
				}
			}
		case 1:
			e, found = erm.GetByName(r, string(erm.TypeSchema), parent.ID, part)
		case 2:
			// Leaf assets: try each name group under the schema.
			for _, g := range []string{relationGroup, string(erm.TypeVolume), string(erm.TypeFunction), string(erm.TypeRegisteredModel)} {
				if e, found = erm.GetByName(r, g, parent.ID, part); found {
					break
				}
			}
		default:
			// Sub-assets (e.g. model versions) under the leaf.
			e, found = erm.GetByName(r, string(erm.TypeModelVersion), parent.ID, part)
		}
		if !found {
			if err := backendErr(r); err != nil {
				return nil, err
			}
		}
		if !found || e.State == erm.StateSoftDeleted {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, FullName(parts[:i+1]...))
		}
		chain = append(chain, e)
		parent = e
	}
	return chain, nil
}

// resolveChain resolves a full name to its entity's chain (resolvePathParts).
// The caller is responsible for authorization, and hands the chain to check,
// authorizeRead or vend so that the bindings are checked on what was resolved.
func (s *Service) resolveChain(r erm.Reader, ms *metaState, full string) ([]*erm.Entity, error) {
	parts, err := SplitFullName(full, 1, 4)
	if err != nil {
		return nil, err
	}
	return s.resolvePathParts(r, ms, parts)
}

// resolveParentChain is resolveChain for the container a request names as a
// parent, where "" names the metastore itself: its chain is the metastore
// entity alone.
func (s *Service) resolveParentChain(r erm.Reader, ms *metaState, parentFull string) ([]*erm.Entity, error) {
	if parentFull == "" {
		return s.resolvePathParts(r, ms, nil)
	}
	return s.resolveChain(r, ms, parentFull)
}

// resolveEntity resolves a full name to its entity, for callers that need no
// more of the chain. The caller is responsible for authorization.
func (s *Service) resolveEntity(r erm.Reader, ms *metaState, full string) (*erm.Entity, error) {
	chain, err := s.resolveChain(r, ms, full)
	if err != nil {
		return nil, err
	}
	return leaf(chain), nil
}

// leaf is the securable a chain ends in.
func leaf(chain []*erm.Entity) *erm.Entity { return chain[len(chain)-1] }
