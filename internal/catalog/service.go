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
	for _, table := range erm.Tables {
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

// --- metastore management ---

const metaInfoKey = "metastore_info"

// CreateMetastore creates a metastore and registers it with this node.
// The owner becomes the metastore admin who bootstraps all access.
func (s *Service) CreateMetastore(id, name, region string, owner privilege.Principal, rootPath string) (MetastoreInfo, error) {
	if id == "" || name == "" || owner == "" {
		return MetastoreInfo{}, fmt.Errorf("%w: metastore id, name and owner are required", ErrInvalidArgument)
	}
	if err := checkStoragePath(rootPath); err != nil {
		return MetastoreInfo{}, err
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
		if err := erm.PutEntity(tx, entity); err != nil {
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
	s.metas[id] = &metaState{info: info}
	s.mu.Unlock()
	s.audit.Append(audit.Record{Kind: audit.KindLifecycle, Metastore: id, Principal: string(owner), Operation: "CreateMetastore", Securable: entity.ID, Allowed: true})
	return info, nil
}

// OpenMetastore attaches this node to an existing metastore (e.g. after
// restart). It reads the metastore's info record and nothing else: every
// other read goes to the store, through the cache, when a request needs it.
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
	s.mu.Lock()
	s.metas[id] = &metaState{info: info}
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

// viewReader adapts an erm.Reader to the privilege engine's hierarchy and
// grant readers: privilege.HierarchyResolver, privilege.GrantScanner for the
// compiled engine and privilege.Store for the grant listing and the
// reference engine.
type viewReader struct{ r erm.Reader }

// Securable implements privilege.HierarchyResolver.
func (v viewReader) Securable(id ids.ID) (privilege.Securable, bool) {
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

// GrantsOn implements privilege.Store.
func (v viewReader) GrantsOn(id ids.ID) []privilege.Grant {
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

// ScanGrants implements privilege.GrantScanner: it reads each grant's
// principal and privilege from its row key and decodes no value.
func (v viewReader) ScanGrants(id ids.ID, visit privilege.GrantVisitor) {
	prefix := keyBufs.Get().(*[]byte)
	*prefix = erm.AppendPrefix((*prefix)[:0], id)
	kvs := v.r.Scan(erm.TableGrant, lent(*prefix))
	keyBufs.Put(prefix)
	for _, kv := range kvs {
		if p, priv, ok := erm.GrantOf(kv.Key); ok {
			visit.VisitGrant(p, priv)
		}
	}
}

// boundAuthz is a request's compiled engine and the readers it is bound to,
// in one object: binding a snapshot to a request's view allocates this alone.
type boundAuthz struct {
	viewReader
	c privilege.Compiled
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
// the securables it wrote and a commit that wrote none costs it nothing. The
// first authorizer of a request's view is bound in the request (request); any
// other is an object of its own.
func (s *Service) authorizer(ctx Ctx, r versionedReader) privilege.Authorizer {
	v := r.Version()
	snap := s.authz.SnapshotT(ctx.Trace, ctx.Metastore, ctx.Principal, v, s.groups)
	var b *boundAuthz
	if q, ok := r.(*request); ok && !q.bound {
		b, q.bound = &q.authz, true
	} else {
		b = new(boundAuthz)
	}
	b.viewReader = viewReader{r}
	b.c = snap.Bind(v, b, b)
	return &b.c
}

// touchedSecurables implements privilege.Touched over the store's change
// log. A snapshot memoizes what viewReader reads and no more: a securable's
// entity row (key = id) and its direct grants (key prefix = id). Names,
// children, paths, tags and ABAC rules (evaluated outside the snapshot, see
// check) feed nothing it holds, so it visits the changes of the entity and
// grant tables alone: a name or path row's change is not derived for it, and
// one whose source version was pruned cannot make it start over. It hands m
// each securable as the log holds it and allocates nothing.
func (s *Service) touchedSecurables(msID string, from, to uint64, m privilege.Dropper) bool {
	dropped := true
	err := s.db.VisitChanges(msID, from, func(ch store.Change) bool {
		if ch.Version > to {
			return false
		}
		id := ids.ID(ch.Key)
		if ch.Table == erm.TableGrant {
			id = erm.GrantSecurable(ch.Key)
		}
		dropped = m.Drop(id)
		return dropped
	}, erm.TableEntity, erm.TableGrant)
	return err == nil && dropped // an error: trimmed, or the store is failing; start over
}

// AuthzMetrics returns the authorization snapshot-cache counters.
func (s *Service) AuthzMetrics() privilege.SnapshotCacheMetrics { return s.authz.Metrics() }

// request is what one request reads through, in one allocation: its cache
// view, the authorizer bound to that view and the scratch of its name
// resolution. The first authorizer (authorizer) and the first resolution
// (resolveName) on the view take their places here; a later one, while a
// caller may still hold the first, is an object of its own.
type request struct {
	cache.View
	authz    boundAuthz
	res      resolution
	bound    bool // authz is taken
	resolved bool // res is taken
}

// view opens a cached read view for the request's metastore, scoped to its
// trace: the view's cache misses and reconciliations appear as spans.
func (s *Service) view(ctx Ctx) (*request, error) {
	q := new(request)
	if err := s.cache.OpenView(&q.View, ctx.Trace, ctx.Metastore); err != nil {
		return nil, err
	}
	return q, nil
}

// viewMS opens an untraced read view by metastore ID, for internal callers
// that have no request context (background sweeps, trusted lookups).
func (s *Service) viewMS(msID string) (*request, error) {
	return s.view(Ctx{Metastore: msID})
}

// checkWorkspaceBinding enforces catalog workspace bindings (paper §3.2) on
// a securable's chain — the securable and its ancestors, as resolveName
// or chainOf returns them: a catalog bound to specific workspaces is
// unreachable from any other workspace, regardless of grants. It reads
// nothing: the chain is what the caller resolved, at the caller's version.
func checkWorkspaceBinding(ctx Ctx, chain []*erm.Entity) error {
	for _, e := range chain {
		if e.Type == erm.TypeCatalog && !bindingAdmits(e, ctx.Workspace) {
			return fmt.Errorf("%w: %s", ErrWorkspaceBinding, e.FullName)
		}
	}
	return nil
}

// bindingAdmits reports whether catalog e admits workspace ws: its spec binds
// it to no workspace, or to ws among others. Only the spec's
// workspace_bindings member is read — in place when the spec is packed
// (erm.Spec.StringsMember), else through a decode of that member alone — so
// a spec whose other members do not decode binds as its bindings say. A spec
// whose bindings cannot be read admits no workspace.
func bindingAdmits(e *erm.Entity, ws string) bool {
	n, has, ok := e.Spec.StringsMember("workspace_bindings", ws)
	if !ok {
		var spec struct {
			WorkspaceBindings []string `json:"workspace_bindings"` // CatalogSpec's
		}
		if err := e.DecodeSpec(&spec); err != nil {
			return false
		}
		n, has = len(spec.WorkspaceBindings), slices.Contains(spec.WorkspaceBindings, ws)
	}
	return n == 0 || has
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
// e last, the shape resolveName returns — for a securable reached by ID
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
// audit log. The chain is what the workspace bindings are checked on; auth is
// the request's authorizer, bound to r (authorizer), and abac holds r's rules.
func (s *Service) check(ctx Ctx, auth privilege.Authorizer, r versionedReader, abac *lazyABAC, priv privilege.Privilege, chain []*erm.Entity, op string) error {
	id := leaf(chain).ID
	if err := checkWorkspaceBinding(ctx, chain); err != nil {
		s.audit.Append(audit.Record{
			Kind: audit.KindAuthz, Metastore: ctx.Metastore, Principal: string(ctx.Principal),
			Operation: op, Securable: id, Allowed: false, ReadOnly: true, Detail: "workspace binding",
			TraceID: ctx.Trace.TraceID(),
		})
		return err
	}
	d := auth.Check(priv, id)
	if !d.Allowed {
		if s.abacGrants(ctx, r, abac, priv, id) {
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
	return s.auditOwner(ctx, id, op, s.authorizer(ctx, r).IsOwner(id))
}

// errNotOwner is an ownership check's denial.
var errNotOwner = fmt.Errorf("%w: requires ownership or MANAGE", ErrPermissionDenied)

// auditOwner records the ownership decision ok for op on id and returns its
// denial, if it is one.
func (s *Service) auditOwner(ctx Ctx, id ids.ID, op string, ok bool) error {
	s.audit.Append(audit.Record{
		Kind: audit.KindAuthz, Metastore: ctx.Metastore, Principal: string(ctx.Principal),
		Operation: op, Securable: id, Allowed: ok, ReadOnly: true, Detail: "ownership",
		TraceID: ctx.Trace.TraceID(),
	})
	if !ok {
		return errNotOwner
	}
	return nil
}

// liveIn reports whether e, resolved on a view, is still live in tx under the
// name it was resolved by: its name row still names it. Deleting or renaming
// e removes that row. It decodes nothing and builds the row's key in a lent
// buffer (keyBufs).
func (s *Service) liveIn(tx *store.Tx, e *erm.Entity) bool {
	key := keyBufs.Get().(*[]byte)
	defer keyBufs.Put(key)
	*key = erm.AppendNameKey((*key)[:0], erm.NameGroupOf(e.Type), e.ParentID, e.Name)
	id, ok := tx.Get(erm.TableName, lent(*key))
	return ok && string(id) == string(e.ID)
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
// applies: a failed commit publishes nothing.
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
// names the entity and the version, not the records the commit touched: a
// node that wants those asks the store's change log. It runs inside the
// store's apply turnstile: publishes are per-metastore version-ordered and
// strictly after durability.
func (s *Service) onCommit(msID string, version uint64, notes []any) {
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

// levelGroups are the name groups each level of a full name is looked up in,
// in order: metastore-level securables (catalogs plus configuration assets:
// external locations, credentials, connections, shares, recipients), then
// schemas, then leaf assets, then sub-assets (model versions) under a leaf.
var levelGroups = [maxNameParts][]string{
	{string(erm.TypeCatalog), string(erm.TypeExternalLocation), string(erm.TypeStorageCredential),
		string(erm.TypeConnection), string(erm.TypeShare), string(erm.TypeRecipient)},
	{string(erm.TypeSchema)},
	{relationGroup, string(erm.TypeVolume), string(erm.TypeFunction), string(erm.TypeRegisteredModel)},
	{string(erm.TypeModelVersion)},
}

// maxNameParts is the depth of the deepest full name, catalog.schema.asset.sub.
const maxNameParts = 4

// resolution is one name resolution's scratch: the chain it returns and the
// buffer each level's name key is built in, one key after another. A caller
// that keeps the chain keeps the buffer with it, and no reader keeps a key
// (erm.GetByName): 256 B, one size class.
type resolution struct {
	chain [maxNameParts + 1]*erm.Entity
	key   [216]byte
}

// resolveName walks a full name that checkFullName admits, or "" for the
// metastore itself, to an entity, returning its chain: its ancestors
// (metastore entity first) and the entity itself last. Read through a cache
// view the entities are the cache's own, shared with every request at that
// version: callers must not write to them (Clone first). A name that cannot be
// read because the backend is failing is that failure, not a "not found". It
// takes the resolution of r's request, or allocates one, whatever the depth
// of the name.
func (s *Service) resolveName(r erm.Reader, ms *metaState, full string) ([]*erm.Entity, error) {
	var res *resolution
	if q, ok := r.(*request); ok && !q.resolved {
		res, q.resolved = &q.res, true
	} else {
		res = new(resolution)
	}
	root, ok := erm.GetEntity(r, ms.info.EntityID)
	if !ok {
		if err := backendErr(r); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: metastore entity", ErrNotFound)
	}
	chain, key := append(res.chain[:0], root), res.key[:0]
	parent := root
	for i, start := 0, 0; start < len(full); i++ {
		end := strings.IndexByte(full[start:], '.')
		if end < 0 {
			end = len(full)
		} else {
			end += start
		}
		var e *erm.Entity
		var found bool
		for _, g := range levelGroups[i] {
			key = erm.AppendNameKey(key[:0], g, parent.ID, full[start:end])
			if e, found = erm.GetByName(r, key); found {
				break
			}
		}
		if !found {
			if err := backendErr(r); err != nil {
				return nil, err
			}
		}
		if !found || e.State == erm.StateSoftDeleted {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, full[:end])
		}
		chain = append(chain, e)
		parent = e
		start = end + 1
	}
	return chain, nil
}

// checkFullName admits a dotted full name of one to maxNameParts parts, none
// of them empty.
func checkFullName(full string) error {
	if n := strings.Count(full, ".") + 1; n > maxNameParts {
		return fmt.Errorf("%w: bad name %q (want %d-%d parts)", ErrInvalidArgument, full, 1, maxNameParts)
	}
	if full == "" || full[0] == '.' || full[len(full)-1] == '.' || strings.Contains(full, "..") {
		return fmt.Errorf("%w: bad name %q", ErrInvalidArgument, full)
	}
	return nil
}

// resolveChain resolves a full name to its entity's chain (resolveName).
// The caller is responsible for authorization, and hands the chain to check,
// authorizeRead or vend so that the bindings are checked on what was resolved.
func (s *Service) resolveChain(r erm.Reader, ms *metaState, full string) ([]*erm.Entity, error) {
	if err := checkFullName(full); err != nil {
		return nil, err
	}
	return s.resolveName(r, ms, full)
}

// resolveParentChain is resolveChain for the container a request names as a
// parent, where "" names the metastore itself: its chain is the metastore
// entity alone.
func (s *Service) resolveParentChain(r erm.Reader, ms *metaState, parentFull string) ([]*erm.Entity, error) {
	if parentFull == "" {
		return s.resolveName(r, ms, "")
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
