// Package client is the Go SDK for the Unity Catalog REST API. It speaks to
// the server package over HTTP and satisfies engine.MetadataCatalog, so an
// engine can run against a remote catalog exactly as it runs against an
// in-process one — the catalog-engine separation of paper §4.1.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/lineage"
	"unitycatalog/internal/mlregistry"
	"unitycatalog/internal/obs"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/retry"
	"unitycatalog/internal/search"
	"unitycatalog/internal/server"
)

// defaultHTTPTimeout bounds a whole HTTP exchange (dial, write, read) when
// the caller does not supply its own http.Client. http.DefaultClient has no
// timeout at all, which turns a hung server into a hung client.
const defaultHTTPTimeout = 30 * time.Second

// Client talks to one Unity Catalog server as one principal.
//
// Requests are retried transparently: 429 (throttled) responses are retried
// for every method because the server rejected the request before
// processing it, while 503/504 responses and transport-level failures —
// whose outcome is unknown — are retried only for idempotent methods (GET,
// HEAD, PUT, DELETE). Retry-After headers extend the backoff. Set
// Retry.MaxAttempts to 1 to disable retries.
type Client struct {
	Base      string // e.g. "http://localhost:8080"
	HTTP      *http.Client
	Principal string
	Metastore string
	// Retry configures the backoff between attempts; the zero value means
	// the retry package defaults (4 attempts, 10ms base, 1s cap).
	Retry retry.Policy
	// RequestTimeout bounds each individual attempt via a context deadline,
	// so one slow attempt fails fast and the retry budget is spent on fresh
	// attempts (0 = rely on the http.Client's overall timeout alone).
	RequestTimeout time.Duration
	// Trace, when active, is propagated on every request (trace ID and
	// sampling decision), so the server's response, retained trace and audit
	// records carry the caller's trace ID. The zero value sends no
	// propagation headers.
	Trace obs.SpanContext

	// vcache remembers ETag validators and bodies for conditional GET. A
	// pointer so Client stays copyable (Resolve clones per principal) and so
	// zero-valued Clients simply skip conditional handling.
	vcache *validatorCache
}

// New returns a Client whose transport times out instead of hanging.
func New(base, principal, metastore string) *Client {
	return &Client{
		Base:      base,
		HTTP:      &http.Client{Timeout: defaultHTTPTimeout},
		Principal: principal,
		Metastore: metastore,
		vcache:    newValidatorCache(),
	}
}

const apiPrefix = "/api/2.1/unity-catalog"

// APIError is a non-2xx response.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's suggested pause from a Retry-After header
	// (0 = none).
	RetryAfter time.Duration
}

func (e *APIError) Error() string { return fmt.Sprintf("uc api: %d: %s", e.Status, e.Message) }

// RetryAfterHint exposes the Retry-After header to retry policies.
func (e *APIError) RetryAfterHint() (time.Duration, bool) {
	return e.RetryAfter, e.RetryAfter > 0
}

// transportError marks a failure where the request may or may not have
// reached the server (dial failure, reset connection, client-side timeout).
type transportError struct{ err error }

func (e *transportError) Error() string { return "uc client: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// Unwrap maps HTTP statuses back to the catalog sentinel errors so callers
// can use errors.Is across the wire.
func (e *APIError) Unwrap() error {
	switch e.Status {
	case http.StatusNotFound:
		return catalog.ErrNotFound
	case http.StatusForbidden:
		return catalog.ErrPermissionDenied
	case http.StatusConflict:
		return catalog.ErrAlreadyExists
	case http.StatusBadRequest:
		return catalog.ErrInvalidArgument
	}
	return nil
}

// retryable returns the retry classifier for one HTTP method: throttling
// is always retryable (the request was rejected before processing); 503,
// 504 and transport failures have unknown outcomes and are retried only
// when the method is idempotent.
func retryable(method string) func(error) bool {
	idempotent := method == "GET" || method == "HEAD" || method == "PUT" || method == "DELETE"
	return func(err error) bool {
		var ae *APIError
		if errors.As(err, &ae) {
			switch ae.Status {
			case http.StatusTooManyRequests:
				return true
			case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				return idempotent
			}
			return false
		}
		var te *transportError
		return errors.As(err, &te) && idempotent
	}
}

// roundTrip performs one logical request with retries. body is re-read
// from scratch on every attempt, and each attempt gets its own deadline.
//
// When the client has seen this exact request before and the server stamped
// an ETag on the response, the attempt carries If-None-Match; a 304 reply
// short-circuits to the cached body without the server re-encoding (or the
// client re-downloading) anything.
func (c *Client) roundTrip(method, path string, body []byte, jsonBody bool) ([]byte, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = &http.Client{Timeout: defaultHTTPTimeout}
	}
	var vkey uint64
	var cachedTag string
	var cachedBody []byte
	if c.vcache != nil {
		vkey = validatorKey(c.Principal, c.Metastore, method, path, string(body))
		cachedTag, cachedBody = c.vcache.get(vkey)
	}
	return retry.DoValue(c.Retry, retryable(method), func() ([]byte, error) {
		ctx, cancel := context.Background(), func() {}
		if c.RequestTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, c.RequestTimeout)
		}
		defer cancel()
		var rdr io.Reader
		if body != nil {
			rdr = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rdr)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Authorization", "Bearer "+c.Principal)
		req.Header.Set("X-UC-Metastore", c.Metastore)
		if pc, ok := c.Trace.Propagation(); ok {
			req.Header.Set(obs.TraceIDHeader, pc.TraceID)
			if pc.Sampled {
				req.Header.Set(obs.SampledHeader, "1")
			}
		}
		if jsonBody && body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if cachedTag != "" {
			req.Header.Set("If-None-Match", cachedTag)
		}
		resp, err := httpc.Do(req)
		if err != nil {
			return nil, &transportError{err: err}
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, &transportError{err: err}
		}
		if resp.StatusCode == http.StatusNotModified && cachedTag != "" {
			return cachedBody, nil
		}
		if resp.StatusCode >= 300 {
			return nil, newAPIError(resp, data)
		}
		if c.vcache != nil {
			if tag := resp.Header.Get("ETag"); tag != "" {
				c.vcache.put(vkey, tag, data)
			}
		}
		return data, nil
	})
}

func newAPIError(resp *http.Response, data []byte) *APIError {
	var eb struct {
		Error string `json:"error"`
	}
	json.Unmarshal(data, &eb)
	if eb.Error == "" {
		eb.Error = string(data)
	}
	ae := &APIError{Status: resp.StatusCode, Message: eb.Error}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

func (c *Client) do(method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		payload = b
	}
	data, err := c.roundTrip(method, path, payload, true)
	if err != nil {
		return err
	}
	if out != nil && len(data) > 0 {
		return json.Unmarshal(data, out)
	}
	return nil
}

// --- asset CRUD ---

// CreateCatalog creates a catalog.
func (c *Client) CreateCatalog(name, comment string) (*erm.Entity, error) {
	var e erm.Entity
	err := c.do("POST", apiPrefix+"/catalogs", map[string]string{"name": name, "comment": comment}, &e)
	return &e, err
}

// CreateSchema creates a schema.
func (c *Client) CreateSchema(catalogName, name, comment string) (*erm.Entity, error) {
	var e erm.Entity
	err := c.do("POST", apiPrefix+"/schemas", map[string]string{
		"catalog_name": catalogName, "name": name, "comment": comment,
	}, &e)
	return &e, err
}

// CreateTable creates a table (empty storagePath = managed).
func (c *Client) CreateTable(schemaFull, name string, spec catalog.TableSpec, storagePath string) (*erm.Entity, error) {
	var e erm.Entity
	err := c.do("POST", apiPrefix+"/tables", map[string]any{
		"schema_full": schemaFull, "name": name, "spec": spec, "storage_path": storagePath,
	}, &e)
	return &e, err
}

// CreateAsset creates any registered asset type.
func (c *Client) CreateAsset(req server.CreateAssetRequest) (*erm.Entity, error) {
	var e erm.Entity
	err := c.do("POST", apiPrefix+"/assets", req, &e)
	return &e, err
}

// GetAsset fetches an asset by full name.
func (c *Client) GetAsset(full string) (*erm.Entity, error) {
	var e erm.Entity
	err := c.do("GET", apiPrefix+"/assets/"+url.PathEscape(full), nil, &e)
	return &e, err
}

// UpdateAsset patches an asset.
func (c *Client) UpdateAsset(full string, req server.UpdateAssetRequest) (*erm.Entity, error) {
	var e erm.Entity
	err := c.do("PATCH", apiPrefix+"/assets/"+url.PathEscape(full), req, &e)
	return &e, err
}

// DeleteAsset soft-deletes an asset.
func (c *Client) DeleteAsset(full string, force bool) error {
	path := apiPrefix + "/assets/" + url.PathEscape(full)
	if force {
		path += "?force=true"
	}
	return c.do("DELETE", path, nil, nil)
}

// ListAssets lists children of a parent.
func (c *Client) ListAssets(parent string, typ erm.SecurableType) ([]*erm.Entity, error) {
	var out struct {
		Assets []*erm.Entity `json:"assets"`
	}
	q := url.Values{"parent": {parent}, "type": {string(typ)}}
	err := c.do("GET", apiPrefix+"/assets?"+q.Encode(), nil, &out)
	return out.Assets, err
}

// AssetPage is one page of a paginated listing or query.
type AssetPage struct {
	Assets        []*erm.Entity `json:"assets"`
	NextPageToken string        `json:"nextPageToken"`
}

// ListAssetsPage fetches one page of a listing with a keyset cursor. Pass
// the previous page's NextPageToken to continue; an empty token in the
// response means the listing is exhausted.
func (c *Client) ListAssetsPage(parent string, typ erm.SecurableType, maxResults int, pageToken string) (*AssetPage, error) {
	q := url.Values{"parent": {parent}, "type": {string(typ)}, "maxResults": {strconv.Itoa(maxResults)}}
	if pageToken != "" {
		q.Set("pageToken", pageToken)
	}
	var out AssetPage
	err := c.do("GET", apiPrefix+"/assets?"+q.Encode(), nil, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// QueryAssetsPage runs a filtered metadata query with keyset pagination.
// Set req.MaxResults (and thread req.PageToken between calls).
func (c *Client) QueryAssetsPage(req server.QueryAssetsRequest) (*AssetPage, error) {
	var out AssetPage
	err := c.do("POST", apiPrefix+"/query-assets", req, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// --- governance ---

// Grant grants a privilege.
func (c *Client) Grant(securable, principal string, priv privilege.Privilege) error {
	return c.do("POST", apiPrefix+"/grants", server.GrantRequest{
		Securable: securable, Principal: principal, Privilege: string(priv),
	}, nil)
}

// Revoke revokes a privilege.
func (c *Client) Revoke(securable, principal string, priv privilege.Privilege) error {
	return c.do("DELETE", apiPrefix+"/grants", server.GrantRequest{
		Securable: securable, Principal: principal, Privilege: string(priv),
	}, nil)
}

// GrantsOn lists explicit grants.
func (c *Client) GrantsOn(full string) ([]privilege.Grant, error) {
	var out struct {
		Grants []privilege.Grant `json:"grants"`
	}
	err := c.do("GET", apiPrefix+"/grants/"+url.PathEscape(full), nil, &out)
	return out.Grants, err
}

// EffectivePrivileges lists the caller's effective privileges on full.
func (c *Client) EffectivePrivileges(full string) ([]privilege.Privilege, error) {
	var out struct {
		Privileges []privilege.Privilege `json:"privileges"`
	}
	err := c.do("GET", apiPrefix+"/effective-privileges/"+url.PathEscape(full), nil, &out)
	return out.Privileges, err
}

// SetTag sets an entity or column tag.
func (c *Client) SetTag(securable, column, key, value string) error {
	return c.do("POST", apiPrefix+"/tags", server.TagRequest{
		Securable: securable, Column: column, Key: key, Value: value,
	}, nil)
}

// --- query path ---

// Resolve implements engine.MetadataCatalog over HTTP. The ctx principal
// and metastore are overridden by the client's own identity; engines should
// construct one client per (principal, metastore).
func (c *Client) Resolve(ctx catalog.Ctx, req catalog.ResolveRequest) (*catalog.ResolveResponse, error) {
	var resp catalog.ResolveResponse
	cc := c
	if string(ctx.Principal) != "" && string(ctx.Principal) != c.Principal {
		clone := *c
		clone.Principal = string(ctx.Principal)
		cc = &clone
	}
	if err := cc.do("POST", apiPrefix+"/resolve", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// TempCredentialForAsset vends a temporary credential for an asset.
func (c *Client) TempCredentialForAsset(full string, level cloudsim.AccessLevel) (catalog.TempCredential, error) {
	op := "READ"
	if level == cloudsim.AccessReadWrite {
		op = "READ_WRITE"
	}
	var tc catalog.TempCredential
	err := c.do("POST", apiPrefix+"/temporary-credentials", server.TempCredentialRequest{Asset: full, Operation: op}, &tc)
	return tc, err
}

// TempCredentialForPath vends a credential by raw storage path.
func (c *Client) TempCredentialForPath(path string, level cloudsim.AccessLevel) (catalog.TempCredential, error) {
	op := "READ"
	if level == cloudsim.AccessReadWrite {
		op = "READ_WRITE"
	}
	var tc catalog.TempCredential
	err := c.do("POST", apiPrefix+"/temporary-credentials", server.TempCredentialRequest{Path: path, Operation: op}, &tc)
	return tc, err
}

// --- volumes / table management ---

func (c *Client) doRaw(method, path string, body []byte) ([]byte, error) {
	return c.roundTrip(method, path, body, false)
}

// WriteVolumeFile uploads a file to a volume.
func (c *Client) WriteVolumeFile(volumeFull, name string, data []byte) error {
	_, err := c.doRaw("PUT", apiPrefix+"/volumes/"+url.PathEscape(volumeFull)+"/files/"+name, data)
	return err
}

// ReadVolumeFile downloads a file from a volume.
func (c *Client) ReadVolumeFile(volumeFull, name string) ([]byte, error) {
	return c.doRaw("GET", apiPrefix+"/volumes/"+url.PathEscape(volumeFull)+"/files/"+name, nil)
}

// ListVolumeFiles lists a volume's files.
func (c *Client) ListVolumeFiles(volumeFull string) ([]catalog.VolumeFileInfo, error) {
	var out struct {
		Files []catalog.VolumeFileInfo `json:"files"`
	}
	err := c.do("GET", apiPrefix+"/volumes/"+url.PathEscape(volumeFull)+"/files", nil, &out)
	return out.Files, err
}

// CloneTable shallow-clones a table.
func (c *Client) CloneTable(srcFull, targetSchema, targetName string) (*erm.Entity, error) {
	var e erm.Entity
	err := c.do("POST", apiPrefix+"/tables/"+url.PathEscape(srcFull)+"/clone", map[string]string{
		"target_schema": targetSchema, "target_name": targetName,
	}, &e)
	return &e, err
}

// RenameAsset renames a leaf asset.
func (c *Client) RenameAsset(full, newName string) (*erm.Entity, error) {
	var e erm.Entity
	err := c.do("POST", apiPrefix+"/assets/"+url.PathEscape(full)+"/rename", map[string]string{"new_name": newName}, &e)
	return &e, err
}

// SetWorkspaceBindings restricts a catalog to the given workspaces.
func (c *Client) SetWorkspaceBindings(catalogName string, workspaces []string) error {
	return c.do("PUT", apiPrefix+"/catalogs/"+url.PathEscape(catalogName)+"/workspace-bindings",
		map[string]any{"workspaces": workspaces}, nil)
}

// --- discovery ---

// Search queries the discovery index.
func (c *Client) Search(query string, limit int) ([]search.Result, error) {
	var out struct {
		Results []search.Result `json:"results"`
	}
	q := url.Values{"q": {query}}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	err := c.do("GET", apiPrefix+"/search?"+q.Encode(), nil, &out)
	return out.Results, err
}

// SubmitLineage reports lineage edges.
func (c *Client) SubmitLineage(edges []lineage.Edge) error {
	return c.do("POST", apiPrefix+"/lineage", map[string]any{"edges": edges}, nil)
}

// Lineage queries the lineage graph for an asset.
func (c *Client) Lineage(asset ids.ID, direction string, depth int) ([]lineage.Node, error) {
	var out struct {
		Nodes []lineage.Node `json:"nodes"`
	}
	q := url.Values{"direction": {direction}}
	if depth > 0 {
		q.Set("depth", strconv.Itoa(depth))
	}
	err := c.do("GET", apiPrefix+"/lineage/"+string(asset)+"?"+q.Encode(), nil, &out)
	return out.Nodes, err
}

// --- model registry ---

// CreateModel registers a model.
func (c *Client) CreateModel(schemaFull, name, comment string) (*erm.Entity, error) {
	var e erm.Entity
	err := c.do("POST", apiPrefix+"/models", map[string]string{
		"schema_full": schemaFull, "name": name, "comment": comment,
	}, &e)
	return &e, err
}

// CreateModelVersion allocates a new model version.
func (c *Client) CreateModelVersion(modelFull, runID, source string) (mlregistry.ModelVersion, error) {
	var mv mlregistry.ModelVersion
	err := c.do("POST", apiPrefix+"/models/"+url.PathEscape(modelFull)+"/versions", map[string]string{
		"run_id": runID, "source": source,
	}, &mv)
	return mv, err
}

// ListModelVersions lists versions of a model.
func (c *Client) ListModelVersions(modelFull string) ([]mlregistry.ModelVersion, error) {
	var out struct {
		Versions []mlregistry.ModelVersion `json:"versions"`
	}
	err := c.do("GET", apiPrefix+"/models/"+url.PathEscape(modelFull)+"/versions", nil, &out)
	return out.Versions, err
}

// --- Delta Sharing (recipient side) ---

// SharingClient reads shared tables with a recipient bearer token.
type SharingClient struct {
	Base      string
	HTTP      *http.Client
	Token     string
	Metastore string
}

func (sc *SharingClient) get(path string, out any) error {
	req, err := http.NewRequest("GET", sc.Base+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+sc.Token)
	req.Header.Set("X-UC-Metastore", sc.Metastore)
	h := sc.HTTP
	if h == nil {
		h = http.DefaultClient
	}
	resp, err := h.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		return &APIError{Status: resp.StatusCode, Message: string(data)}
	}
	return json.Unmarshal(data, out)
}

// ListShares lists shares granted to the token.
func (sc *SharingClient) ListShares() ([]string, error) {
	var out struct {
		Items []string `json:"items"`
	}
	err := sc.get("/delta-sharing/shares", &out)
	return out.Items, err
}

// ListTables lists tables in a share schema.
func (sc *SharingClient) ListTables(share, schema string) ([]string, error) {
	var out struct {
		Items []string `json:"items"`
	}
	err := sc.get("/delta-sharing/shares/"+url.PathEscape(share)+"/schemas/"+url.PathEscape(schema)+"/tables", &out)
	return out.Items, err
}

// QueryTable fetches a shared table's metadata and pre-authorized files.
func (sc *SharingClient) QueryTable(share, schema, table string) (map[string]any, error) {
	var out map[string]any
	err := sc.get("/delta-sharing/shares/"+url.PathEscape(share)+"/schemas/"+url.PathEscape(schema)+"/tables/"+url.PathEscape(table)+"/query", &out)
	return out, err
}
