// Package server exposes the Unity Catalog service over HTTP — the open
// REST API through which engines, UIs, and external tools integrate
// (paper §4.1). It also mounts the Delta Sharing endpoint, the Iceberg REST
// catalog facade, the model registry, and the discovery APIs (search,
// lineage), mirroring how the Unity Catalog service fronts both the core
// and second-tier capabilities (Figure 3).
//
// Identity model: requests carry "Authorization: Bearer <principal>" and
// "X-UC-Metastore: <id>". An engine is treated as trusted only when its
// principal is registered in the server's trusted-identity set, standing in
// for the machine-identity authentication of §4.3.2.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unitycatalog/internal/cache"
	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/faults"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/jsonenc"
	"unitycatalog/internal/lineage"
	"unitycatalog/internal/mlregistry"
	"unitycatalog/internal/obs"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/retry"
	"unitycatalog/internal/search"
	"unitycatalog/internal/sharing"
	"unitycatalog/internal/store"
)

// Server is the HTTP front end.
type Server struct {
	Service  *catalog.Service
	Sharing  *sharing.Server
	Lineage  *lineage.Service
	Search   *search.Service
	Registry *mlregistry.Registry

	mu      sync.RWMutex
	trusted map[privilege.Principal]bool

	// injector, when set, is consulted before dispatch with the operation
	// "http.<METHOD>" and the request path, modeling an overloaded or
	// partitioned front end; injected faults become 429/503/504 responses.
	injector atomic.Pointer[faults.Injector]

	// Telemetry (see telemetry.go): each server owns a tracer, a metrics
	// registry covering every layer beneath it, and per-route HTTP families.
	cfg          Config
	tracer       *obs.Tracer
	metrics      *obs.Registry
	httpReqs     *obs.CounterVec
	httpSeconds  *obs.HistogramVec
	httpAllocs   *obs.GaugeVec
	encodeErrors *obs.Counter
	allocs       *allocSampler
	tenants      *obs.UsageMeter
	flight       *obs.FlightRecorder
	logMu        sync.Mutex

	mux  *http.ServeMux
	once sync.Once
}

// SetFaults installs (or, with nil, removes) a fault injector in front of
// request dispatch. /healthz is exempt so operators can observe a chaos
// run.
func (s *Server) SetFaults(inj *faults.Injector) { s.injector.Store(inj) }

// New assembles a Server with all subsystems attached and default
// telemetry settings.
func New(svc *catalog.Service) *Server { return NewWithConfig(svc, Config{}) }

// NewWithConfig assembles a Server with explicit telemetry settings.
func NewWithConfig(svc *catalog.Service, cfg Config) *Server {
	s := &Server{
		Service:  svc,
		Sharing:  sharing.NewServer(svc),
		Lineage:  lineage.New(svc),
		Search:   search.New(svc),
		Registry: mlregistry.New(svc),
		trusted:  map[privilege.Principal]bool{},
	}
	s.initTelemetry(cfg)
	return s
}

// TrustEngine registers a machine identity as a trusted engine.
func (s *Server) TrustEngine(p privilege.Principal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trusted[p] = true
}

func (s *Server) isTrusted(p privilege.Principal) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.trusted[p]
}

// ctx extracts the request identity, and the request's root span from its
// envelope (none when w is not one).
func (s *Server) ctx(w http.ResponseWriter, r *http.Request) catalog.Ctx {
	p := privilege.Principal(strings.TrimPrefix(r.Header.Get(hdrAuthorization), "Bearer "))
	ctx := catalog.Ctx{
		Principal:     p,
		Metastore:     r.Header.Get(hdrMetastore),
		Workspace:     r.Header.Get(hdrWorkspace),
		TrustedEngine: s.isTrusted(p),
	}
	if e, ok := w.(*envelope); ok {
		ctx.Trace = e.span
	}
	return ctx
}

// ServeHTTP implements http.Handler. Operational endpoints (/healthz,
// /metrics, /debug/*) bypass fault injection and telemetry; everything
// else is traced and measured (telemetry.go).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.once.Do(s.buildMux)
	if opsPath(r.URL.Path) {
		s.mux.ServeHTTP(w, r)
		return
	}
	s.serveTraced(w, r)
}

const apiPrefix = "/api/2.1/unity-catalog"

// healthzResponse is the healthz body: a fixed struct rather than a rebuilt
// map tree, so probes do not allocate shape machinery and the JSON shape is
// pinned at compile time. The wal and authz sections intentionally keep
// their structs' Go field names, as the map encoding always emitted.
type healthzResponse struct {
	Status   string                         `json:"status"`
	Degraded healthzDegraded                `json:"degraded"`
	WAL      store.WALStats                 `json:"wal"`
	Cache    []cache.MetastoreHealth        `json:"cache"`
	Authz    privilege.SnapshotCacheMetrics `json:"authz"`
}

type healthzDegraded struct {
	Cache bool `json:"cache"`
	WAL   bool `json:"wal"`
}

// handleHealthz reports liveness plus per-subsystem degradation. A degraded
// node still answers 200 — it is alive and serving bounded-stale data —
// with the detail in the body for monitors to alert on. The shape is
// stable: status, degraded.{cache,wal}, and wal/cache/authz sections.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	walErr := s.Service.DB().WALErr()
	cacheDegraded := s.Service.CacheDegraded()
	resp := healthzResponse{
		Status:   "ok",
		Degraded: healthzDegraded{Cache: cacheDegraded, WAL: walErr != nil},
		WAL:      s.Service.DB().WALStats(),
		Cache:    s.Service.CacheHealth(),
		Authz:    s.Service.AuthzMetrics(),
	}
	if cacheDegraded || walErr != nil {
		resp.Status = "degraded"
	}
	buf := jsonenc.Get()
	buf.B = appendHealthz(buf.B, &resp)
	sendPooled(w, http.StatusOK, buf)
}

// --- helpers ---

type errorBody struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

func writeErr(w http.ResponseWriter, err error) {
	// Hand the underlying error to the access log (telemetry.go) so 5xx
	// lines can say what actually failed, not just the status code.
	if e, ok := w.(*envelope); ok {
		e.err = err
	}
	// Injected infrastructure faults map to the statuses a real overloaded
	// or partitioned deployment would return, with Retry-After telling
	// well-behaved clients how long to back off.
	if c, ok := faults.ClassOf(err); ok {
		status := http.StatusServiceUnavailable // Transient, Unavailable
		switch c {
		case faults.Throttled:
			status = http.StatusTooManyRequests
		case faults.Timeout:
			status = http.StatusGatewayTimeout
		}
		after, _ := retry.RetryAfter(err)
		if after > 0 {
			w.Header().Set(hdrRetryAfter, strconv.Itoa(int((after+time.Second-1)/time.Second)))
		} else if status != http.StatusGatewayTimeout {
			w.Header().Set(hdrRetryAfter, "1")
		}
		writeJSON(w, status, errorBody{Error: err.Error(), Code: status})
		return
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, cloudsim.ErrTokenExpired), errors.Is(err, cloudsim.ErrTokenInvalid):
		// Credential problems are the caller's to fix by re-authenticating
		// (or re-vending), not a server fault.
		status = http.StatusUnauthorized
	case errors.Is(err, catalog.ErrNotFound), errors.Is(err, sharing.ErrBadToken):
		status = http.StatusNotFound
	case errors.Is(err, catalog.ErrPermissionDenied), errors.Is(err, sharing.ErrNoAccess),
		errors.Is(err, catalog.ErrTrustedEngineRequired), errors.Is(err, catalog.ErrWorkspaceBinding):
		status = http.StatusForbidden
	case errors.Is(err, catalog.ErrAlreadyExists), errors.Is(err, catalog.ErrPathOverlap),
		errors.Is(err, catalog.ErrNotEmpty):
		status = http.StatusConflict
	case errors.Is(err, catalog.ErrInvalidArgument):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errorBody{Error: err.Error(), Code: status})
}

// --- asset CRUD ---

// CreateAssetRequest is the generic creation body.
type CreateAssetRequest struct {
	Type        string            `json:"type"`
	Name        string            `json:"name"`
	ParentFull  string            `json:"parent,omitempty"`
	Comment     string            `json:"comment,omitempty"`
	Properties  map[string]string `json:"properties,omitempty"`
	StoragePath string            `json:"storage_path,omitempty"`
	Spec        json.RawMessage   `json:"spec,omitempty"`
}

func (s *Server) handleCreateAsset(w http.ResponseWriter, r *http.Request) {
	var req CreateAssetRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	cr := catalog.CreateRequest{
		Type: erm.SecurableType(strings.ToUpper(req.Type)), Name: req.Name,
		ParentFull: req.ParentFull, Comment: req.Comment,
		Properties: req.Properties, StoragePath: req.StoragePath,
	}
	if len(req.Spec) > 0 {
		cr.Spec = req.Spec
	}
	e, err := s.Service.CreateAsset(s.ctx(w, r), cr)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, e)
}

func (s *Server) handleGetAsset(w http.ResponseWriter, r *http.Request) {
	if s.conditional(w, r, 0) {
		return
	}
	e, err := s.Service.GetAsset(s.ctx(w, r), r.PathValue("full"))
	if err != nil {
		writeErr(w, err)
		return
	}
	sendEntity(w, http.StatusOK, e)
}

// UpdateAssetRequest is the PATCH body.
type UpdateAssetRequest struct {
	Comment    *string           `json:"comment,omitempty"`
	Owner      *string           `json:"owner,omitempty"`
	Properties map[string]string `json:"properties,omitempty"`
	Spec       json.RawMessage   `json:"spec,omitempty"`
}

func (s *Server) handleUpdateAsset(w http.ResponseWriter, r *http.Request) {
	var req UpdateAssetRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	ur := catalog.UpdateRequest{Comment: req.Comment, Properties: req.Properties}
	if req.Owner != nil {
		o := privilege.Principal(*req.Owner)
		ur.Owner = &o
	}
	if len(req.Spec) > 0 {
		ur.Spec = req.Spec
	}
	e, err := s.Service.UpdateAsset(s.ctx(w, r), r.PathValue("full"), ur)
	if err != nil {
		writeErr(w, err)
		return
	}
	sendEntity(w, http.StatusOK, e)
}

func (s *Server) handleDeleteAsset(w http.ResponseWriter, r *http.Request) {
	force := r.URL.Query().Get("force") == "true"
	if err := s.Service.DeleteAsset(s.ctx(w, r), r.PathValue("full"), force); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListAssets(w http.ResponseWriter, r *http.Request) {
	if s.conditional(w, r, 0) {
		return
	}
	q := r.URL.Query()
	parent := q.Get("parent")
	typ := erm.SecurableType(strings.ToUpper(q.Get("type")))
	maxResults, _ := strconv.Atoi(q.Get("maxResults"))
	pageToken := q.Get("pageToken")
	if maxResults <= 0 && pageToken == "" {
		// Unpaged: the full, name-sorted listing.
		out, err := s.Service.ListAssets(s.ctx(w, r), parent, typ)
		if err != nil {
			writeErr(w, err)
			return
		}
		buf := jsonenc.Get()
		buf.B = append(buf.B, `{"assets":`...)
		buf.B = appendEntities(buf.B, out)
		buf.B = append(buf.B, '}')
		sendPooled(w, http.StatusOK, buf)
		return
	}
	// Paged: entities are encoded into the response buffer as the keyset
	// scan emits them; no page slice is ever materialized.
	st := newAssetStream()
	next, err := s.Service.ListAssetsPageFunc(s.ctx(w, r), parent, typ, maxResults, pageToken, st.emit)
	if err != nil {
		st.close()
		writeErr(w, err)
		return
	}
	sendJSON(w, http.StatusOK, st.finish(next))
	st.close()
}

// --- typed conveniences ---

func (s *Server) handleCreateCatalog(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name    string `json:"name"`
		Comment string `json:"comment,omitempty"`
	}
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	e, err := s.Service.CreateCatalog(s.ctx(w, r), req.Name, req.Comment)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, e)
}

func (s *Server) handleListCatalogs(w http.ResponseWriter, r *http.Request) {
	out, err := s.Service.ListAssets(s.ctx(w, r), "", erm.TypeCatalog)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"catalogs": out})
}

func (s *Server) handleCreateSchema(w http.ResponseWriter, r *http.Request) {
	var req struct {
		CatalogName string `json:"catalog_name"`
		Name        string `json:"name"`
		Comment     string `json:"comment,omitempty"`
	}
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	e, err := s.Service.CreateSchema(s.ctx(w, r), req.CatalogName, req.Name, req.Comment)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, e)
}

// CreateTableRequest is the create-table body.
type CreateTableRequest struct {
	SchemaFull  string            `json:"schema_full"`
	Name        string            `json:"name"`
	StoragePath string            `json:"storage_path,omitempty"`
	Spec        catalog.TableSpec `json:"spec"`
}

func (s *Server) handleCreateTable(w http.ResponseWriter, r *http.Request) {
	var req CreateTableRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	e, err := s.Service.CreateTable(s.ctx(w, r), req.SchemaFull, req.Name, req.Spec, req.StoragePath)
	if err != nil {
		writeErr(w, err)
		return
	}
	sendEntity(w, http.StatusCreated, e)
}

// --- governance ---

// GrantRequest is the grant/revoke body.
type GrantRequest struct {
	Securable string `json:"securable"`
	Principal string `json:"principal"`
	Privilege string `json:"privilege"`
}

func (s *Server) handleGrant(w http.ResponseWriter, r *http.Request) {
	var req GrantRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	err := s.Service.Grant(s.ctx(w, r), req.Securable, privilege.Principal(req.Principal), privilege.Privilege(strings.ToUpper(req.Privilege)))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRevoke(w http.ResponseWriter, r *http.Request) {
	var req GrantRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	err := s.Service.Revoke(s.ctx(w, r), req.Securable, privilege.Principal(req.Principal), privilege.Privilege(strings.ToUpper(req.Privilege)))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleGrantsOn(w http.ResponseWriter, r *http.Request) {
	gs, err := s.Service.GrantsOn(s.ctx(w, r), r.PathValue("full"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"grants": gs})
}

func (s *Server) handleEffective(w http.ResponseWriter, r *http.Request) {
	ps, err := s.Service.EffectivePrivileges(s.ctx(w, r), r.PathValue("full"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"privileges": ps})
}

// TagRequest sets or unsets a tag.
type TagRequest struct {
	Securable string `json:"securable"`
	Column    string `json:"column,omitempty"`
	Key       string `json:"key"`
	Value     string `json:"value,omitempty"`
}

func (s *Server) handleSetTag(w http.ResponseWriter, r *http.Request) {
	var req TagRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if err := s.Service.SetTag(s.ctx(w, r), req.Securable, req.Column, req.Key, req.Value); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleUnsetTag(w http.ResponseWriter, r *http.Request) {
	var req TagRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if err := s.Service.UnsetTag(s.ctx(w, r), req.Securable, req.Column, req.Key); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ABACRequest creates a rule on a scope.
type ABACRequest struct {
	Scope string             `json:"scope,omitempty"`
	Rule  privilege.ABACRule `json:"rule"`
}

func (s *Server) handleCreateABAC(w http.ResponseWriter, r *http.Request) {
	var req ABACRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	rule, err := s.Service.CreateABACRule(s.ctx(w, r), req.Scope, req.Rule)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, rule)
}

func (s *Server) handleListABAC(w http.ResponseWriter, r *http.Request) {
	rules, err := s.Service.ABACRules(s.ctx(w, r))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"rules": rules})
}

func (s *Server) handleDeleteABAC(w http.ResponseWriter, r *http.Request) {
	if err := s.Service.DeleteABACRule(s.ctx(w, r), ids.ID(r.PathValue("id"))); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- query path ---

func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	var req catalog.ResolveRequest
	bodyHash, err := readJSONHash(r, &req)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Credential-bearing resolves are never conditional: vended tokens
	// expire on their own clock, independent of the metastore version.
	if !req.WithCredentials && s.conditional(w, r, bodyHash) {
		return
	}
	resp, err := s.Service.Resolve(s.ctx(w, r), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	buf := jsonenc.Get()
	buf.B = jsonenc.AppendResolveResponse(buf.B, resp)
	sendPooled(w, http.StatusOK, buf)
}

// AuthorizeBatchRequest asks whether the principal holds a privilege on
// each of a list of securable IDs — the bulk authorization entry point used
// by second-tier discovery services.
type AuthorizeBatchRequest struct {
	AssetIDs  []ids.ID `json:"asset_ids"`
	Privilege string   `json:"privilege"`
}

func (s *Server) handleAuthorizeBatch(w http.ResponseWriter, r *http.Request) {
	var req AuthorizeBatchRequest
	bodyHash, err := readJSONHash(r, &req)
	if err != nil {
		writeErr(w, err)
		return
	}
	if s.conditional(w, r, bodyHash) {
		return
	}
	allowed, err := s.Service.AuthorizeBatch(s.ctx(w, r), req.AssetIDs, privilege.Privilege(strings.ToUpper(req.Privilege)))
	if err != nil {
		writeErr(w, err)
		return
	}
	buf := jsonenc.Get()
	buf.B = append(buf.B, `{"allowed":`...)
	if allowed == nil {
		buf.B = append(buf.B, "null"...)
	} else {
		buf.B = append(buf.B, '[')
		for i, ok := range allowed {
			if i > 0 {
				buf.B = append(buf.B, ',')
			}
			buf.B = jsonenc.AppendBool(buf.B, ok)
		}
		buf.B = append(buf.B, ']')
	}
	buf.B = append(buf.B, '}')
	sendPooled(w, http.StatusOK, buf)
}

// TempCredentialRequest asks for a temporary storage credential.
type TempCredentialRequest struct {
	Asset     string `json:"asset,omitempty"`
	Path      string `json:"path,omitempty"`
	Operation string `json:"operation"` // READ or READ_WRITE
}

func (s *Server) handleTempCredentials(w http.ResponseWriter, r *http.Request) {
	var req TempCredentialRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	level := cloudsim.AccessRead
	if strings.EqualFold(req.Operation, "READ_WRITE") {
		level = cloudsim.AccessReadWrite
	}
	var (
		tc  catalog.TempCredential
		err error
	)
	switch {
	case req.Asset != "":
		tc, err = s.Service.TempCredentialForAsset(s.ctx(w, r), req.Asset, level)
	case req.Path != "":
		tc, err = s.Service.TempCredentialForPath(s.ctx(w, r), req.Path, level)
	default:
		err = fmt.Errorf("%w: asset or path required", catalog.ErrInvalidArgument)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	// Vended tokens must never be cached: they expire on their own clock.
	w.Header()[hdrCacheControl] = noStore
	buf := jsonenc.Get()
	buf.B = jsonenc.AppendTempCredential(buf.B, &tc)
	sendPooled(w, http.StatusOK, buf)
}

// --- metadata query / discovery ---

// QueryAssetsRequest mirrors catalog.Filter over the wire. Setting
// max_results (or passing page_token) selects the keyset-paginated path:
// results arrive in index order with a next_page_token instead of the
// full sorted result set.
type QueryAssetsRequest struct {
	Type         string `json:"type,omitempty"`
	CatalogName  string `json:"catalog_name,omitempty"`
	SchemaName   string `json:"schema_name,omitempty"`
	NameContains string `json:"name_contains,omitempty"`
	NamePrefix   string `json:"name_prefix,omitempty"`
	Owner        string `json:"owner,omitempty"`
	TagKey       string `json:"tag_key,omitempty"`
	TagValue     string `json:"tag_value,omitempty"`
	Limit        int    `json:"limit,omitempty"`
	MaxResults   int    `json:"max_results,omitempty"`
	PageToken    string `json:"page_token,omitempty"`
}

func (s *Server) handleQueryAssets(w http.ResponseWriter, r *http.Request) {
	var req QueryAssetsRequest
	bodyHash, err := readJSONHash(r, &req)
	if err != nil {
		writeErr(w, err)
		return
	}
	if s.conditional(w, r, bodyHash) {
		return
	}
	f := catalog.Filter{
		Type: erm.SecurableType(strings.ToUpper(req.Type)), CatalogName: req.CatalogName,
		SchemaName: req.SchemaName, NameContains: req.NameContains, NamePrefix: req.NamePrefix,
		Owner: req.Owner, TagKey: req.TagKey, TagValue: req.TagValue, Limit: req.Limit,
		MaxResults: req.MaxResults, PageToken: req.PageToken,
	}
	if f.MaxResults > 0 || f.PageToken != "" {
		st := newAssetStream()
		next, qerr := s.Service.QueryAssetsPageFunc(s.ctx(w, r), f, st.emit)
		if qerr != nil {
			st.close()
			writeErr(w, qerr)
			return
		}
		sendJSON(w, http.StatusOK, st.finish(next))
		st.close()
		return
	}
	out, err := s.Service.QueryAssets(s.ctx(w, r), f)
	if err != nil {
		writeErr(w, err)
		return
	}
	buf := jsonenc.Get()
	buf.B = append(buf.B, `{"assets":`...)
	buf.B = appendEntities(buf.B, out)
	buf.B = append(buf.B, '}')
	sendPooled(w, http.StatusOK, buf)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))
	res, err := s.Search.Search(s.ctx(w, r), r.URL.Query().Get("q"), limit)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": res})
}

func (s *Server) handleSubmitLineage(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Edges []lineage.Edge `json:"edges"`
	}
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if err := s.Lineage.Submit(s.ctx(w, r), req.Edges); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleQueryLineage(w http.ResponseWriter, r *http.Request) {
	depth, _ := strconv.Atoi(r.URL.Query().Get("depth"))
	walk := s.Lineage.Downstream
	if r.URL.Query().Get("direction") == "upstream" {
		walk = s.Lineage.Upstream
	}
	nodes, err := walk(s.ctx(w, r), ids.ID(r.PathValue("id")), depth)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"nodes": nodes})
}

// --- model registry ---

func (s *Server) handleCreateModel(w http.ResponseWriter, r *http.Request) {
	var req struct {
		SchemaFull string `json:"schema_full"`
		Name       string `json:"name"`
		Comment    string `json:"comment,omitempty"`
	}
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	e, err := s.Registry.CreateRegisteredModel(s.ctx(w, r), req.SchemaFull, req.Name, req.Comment)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, e)
}

func (s *Server) handleCreateModelVersion(w http.ResponseWriter, r *http.Request) {
	var req struct {
		RunID  string `json:"run_id,omitempty"`
		Source string `json:"source,omitempty"`
	}
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	mv, err := s.Registry.CreateModelVersion(s.ctx(w, r), r.PathValue("full"), req.RunID, req.Source)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, mv)
}

func (s *Server) handleListModelVersions(w http.ResponseWriter, r *http.Request) {
	vs, err := s.Registry.ListModelVersions(s.ctx(w, r), r.PathValue("full"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"versions": vs})
}

func (s *Server) handleFinalizeModelVersion(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Status string `json:"status"`
	}
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	v, err := strconv.Atoi(r.PathValue("version"))
	if err != nil {
		writeErr(w, fmt.Errorf("%w: bad version", catalog.ErrInvalidArgument))
		return
	}
	if err := s.Registry.FinalizeModelVersion(s.ctx(w, r), r.PathValue("full"), v, req.Status); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- Delta Sharing ---

func shareToken(r *http.Request) string {
	return strings.TrimPrefix(r.Header.Get(hdrAuthorization), "Bearer ")
}

func (s *Server) shareMS(r *http.Request) string { return r.Header.Get(hdrMetastore) }

func (s *Server) handleListShares(w http.ResponseWriter, r *http.Request) {
	shares, err := s.Sharing.ListShares(s.shareMS(r), shareToken(r))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"items": shares})
}

func (s *Server) handleListShareSchemas(w http.ResponseWriter, r *http.Request) {
	schemas, err := s.Sharing.ListSchemas(s.shareMS(r), shareToken(r), r.PathValue("share"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"items": schemas})
}

func (s *Server) handleListShareTables(w http.ResponseWriter, r *http.Request) {
	tables, err := s.Sharing.ListTables(s.shareMS(r), shareToken(r), r.PathValue("share"), r.PathValue("schema"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"items": tables})
}

func (s *Server) handleQueryShareTable(w http.ResponseWriter, r *http.Request) {
	resp, err := s.Sharing.QueryTable(s.shareMS(r), shareToken(r), r.PathValue("share"), r.PathValue("schema"), r.PathValue("table"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- stats ---

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ctx := s.ctx(w, r)
	counts, err := s.Service.TypeCounts(ctx.Metastore)
	if err != nil {
		writeErr(w, err)
		return
	}
	bytes, _ := s.Service.WorkingSetBytes(ctx.Metastore)
	st := s.Service.Audit().Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"type_counts":       counts,
		"working_set_bytes": bytes,
		"api_total":         st.Total,
		"api_reads":         st.Reads,
		"api_writes":        st.Writes,
		"read_fraction":     s.Service.Audit().ReadFraction(),
		"cache":             s.Service.CacheMetrics(),
	})
}
