// Package sharing implements a Delta-Sharing-style protocol (paper §1,
// §6.2): sharing governed tables with recipients — internal or external to
// the platform — without copying data. A provider creates shares (named
// collections of tables), registers recipients with bearer tokens, and the
// sharing server answers the protocol's discovery and query endpoints,
// returning table metadata plus short-lived pre-authorized file URLs backed
// by the catalog's credential vending.
package sharing

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/delta"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/privilege"
)

// Common errors.
var (
	ErrBadToken = errors.New("sharing: unknown recipient token")
	ErrNoAccess = errors.New("sharing: share not granted to recipient")
)

// ShareSpec is the type-specific metadata of a SHARE entity: the full names
// of tables exposed through the share.
type ShareSpec struct {
	Tables []string `json:"tables"`
}

// RecipientSpec is the type-specific metadata of a RECIPIENT entity.
type RecipientSpec struct {
	// BearerToken authenticates the recipient to the sharing server.
	BearerToken string `json:"bearer_token"`
	// Shares lists share names granted to this recipient.
	Shares []string `json:"shares"`
}

// Server is the Delta Sharing provider endpoint.
type Server struct {
	Service *catalog.Service

	mu sync.RWMutex
	// tokenIndex caches bearer token -> recipient name per metastore.
	tokenIndex map[string]map[string]string
}

// NewServer returns a sharing server over the catalog service.
func NewServer(svc *catalog.Service) *Server {
	return &Server{Service: svc, tokenIndex: map[string]map[string]string{}}
}

// CreateShare creates a share containing the given tables. The creator must
// own the share's tables (sharing extends their authority to recipients).
func (s *Server) CreateShare(ctx catalog.Ctx, name string, tables []string) (*erm.Entity, error) {
	for _, tbl := range tables {
		if _, err := s.Service.GetAsset(ctx, tbl); err != nil {
			return nil, fmt.Errorf("sharing: table %s: %w", tbl, err)
		}
	}
	return s.Service.CreateAsset(ctx, catalog.CreateRequest{
		Type: erm.TypeShare, Name: name, Spec: &ShareSpec{Tables: tables},
	})
}

// AddTableToShare appends a table to an existing share.
func (s *Server) AddTableToShare(ctx catalog.Ctx, shareName, tableFull string) error {
	e, err := s.Service.GetAsset(ctx, shareName)
	if err != nil {
		return err
	}
	var spec ShareSpec
	if err := e.DecodeSpec(&spec); err != nil {
		return err
	}
	for _, t := range spec.Tables {
		if t == tableFull {
			return nil
		}
	}
	if _, err := s.Service.GetAsset(ctx, tableFull); err != nil {
		return err
	}
	spec.Tables = append(spec.Tables, tableFull)
	_, err = s.Service.UpdateAsset(ctx, shareName, catalog.UpdateRequest{Spec: &spec})
	return err
}

// CreateRecipient registers a recipient and returns its bearer token.
func (s *Server) CreateRecipient(ctx catalog.Ctx, name string, shares []string) (string, error) {
	tok := make([]byte, 24)
	rand.Read(tok)
	token := "dss_" + hex.EncodeToString(tok)
	_, err := s.Service.CreateAsset(ctx, catalog.CreateRequest{
		Type: erm.TypeRecipient, Name: name,
		Spec: &RecipientSpec{BearerToken: token, Shares: shares},
	})
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.tokenIndex[ctx.Metastore] == nil {
		s.tokenIndex[ctx.Metastore] = map[string]string{}
	}
	s.tokenIndex[ctx.Metastore][token] = name
	s.mu.Unlock()
	return token, nil
}

// GrantShare adds a share to a recipient's grant list.
func (s *Server) GrantShare(ctx catalog.Ctx, recipientName, shareName string) error {
	e, err := s.Service.GetAsset(ctx, recipientName)
	if err != nil {
		return err
	}
	var spec RecipientSpec
	if err := e.DecodeSpec(&spec); err != nil {
		return err
	}
	for _, sh := range spec.Shares {
		if sh == shareName {
			return nil
		}
	}
	spec.Shares = append(spec.Shares, shareName)
	_, err = s.Service.UpdateAsset(ctx, recipientName, catalog.UpdateRequest{Spec: &spec})
	return err
}

// recipient resolves a bearer token to the recipient's spec.
func (s *Server) recipient(msID, token string) (string, RecipientSpec, error) {
	s.mu.RLock()
	name := s.tokenIndex[msID][token]
	s.mu.RUnlock()
	admin := s.adminCtx(msID)
	if name == "" {
		// Rebuild the index (e.g. after restart).
		recipients, err := s.Service.ListAssets(admin, "", erm.TypeRecipient)
		if err != nil {
			return "", RecipientSpec{}, err
		}
		s.mu.Lock()
		if s.tokenIndex[msID] == nil {
			s.tokenIndex[msID] = map[string]string{}
		}
		for _, r := range recipients {
			var spec RecipientSpec
			if r.DecodeSpec(&spec) == nil && spec.BearerToken != "" {
				s.tokenIndex[msID][spec.BearerToken] = strings.Clone(r.Name) // the index outlives r
			}
		}
		name = s.tokenIndex[msID][token]
		s.mu.Unlock()
	}
	if name == "" {
		return "", RecipientSpec{}, ErrBadToken
	}
	e, err := s.Service.GetAsset(admin, name)
	if err != nil {
		return "", RecipientSpec{}, err
	}
	var spec RecipientSpec
	if err := e.DecodeSpec(&spec); err != nil {
		return "", RecipientSpec{}, err
	}
	return name, spec, nil
}

// adminCtx impersonates the metastore owner for share bookkeeping: the
// sharing server acts with the provider's authority, like the paper's
// Delta Sharing server does.
func (s *Server) adminCtx(msID string) catalog.Ctx {
	info, err := s.Service.Metastore(msID)
	if err != nil {
		return catalog.Ctx{Metastore: msID, TrustedEngine: true}
	}
	return catalog.Ctx{Principal: info.Owner, Metastore: msID, TrustedEngine: true}
}

// ListShares answers the protocol's share discovery for a recipient token.
func (s *Server) ListShares(msID, token string) ([]string, error) {
	_, spec, err := s.recipient(msID, token)
	if err != nil {
		return nil, err
	}
	out := append([]string(nil), spec.Shares...)
	sort.Strings(out)
	return out, nil
}

// shareSpec loads a share the recipient is entitled to.
func (s *Server) shareSpec(msID, token, share string) (ShareSpec, error) {
	_, rspec, err := s.recipient(msID, token)
	if err != nil {
		return ShareSpec{}, err
	}
	granted := false
	for _, sh := range rspec.Shares {
		if sh == share {
			granted = true
			break
		}
	}
	if !granted {
		return ShareSpec{}, fmt.Errorf("%w: %s", ErrNoAccess, share)
	}
	e, err := s.Service.GetAsset(s.adminCtx(msID), share)
	if err != nil {
		return ShareSpec{}, err
	}
	var spec ShareSpec
	err = e.DecodeSpec(&spec)
	return spec, err
}

// ListSchemas lists the schema segments exposed by a share.
func (s *Server) ListSchemas(msID, token, share string) ([]string, error) {
	spec, err := s.shareSpec(msID, token, share)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	for _, tbl := range spec.Tables {
		parts := strings.Split(tbl, ".")
		if len(parts) != 3 {
			continue
		}
		if !seen[parts[1]] {
			seen[parts[1]] = true
			out = append(out, parts[1])
		}
	}
	sort.Strings(out)
	return out, nil
}

// ListTables lists table names within a share schema.
func (s *Server) ListTables(msID, token, share, schema string) ([]string, error) {
	spec, err := s.shareSpec(msID, token, share)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, tbl := range spec.Tables {
		parts := strings.Split(tbl, ".")
		if len(parts) == 3 && parts[1] == schema {
			out = append(out, parts[2])
		}
	}
	sort.Strings(out)
	return out, nil
}

// FileAction is one pre-authorized data file in a query response, the
// analogue of the protocol's presigned URL.
type FileAction struct {
	URL         string `json:"url"`   // object path
	Token       string `json:"token"` // short-lived read token for it
	Size        int64  `json:"size"`
	NumRecords  int64  `json:"num_records,omitempty"`
	ExpiresAtMS int64  `json:"expiration_timestamp"`
}

// QueryResponse is the protocol's table query result.
type QueryResponse struct {
	Schema  delta.Schema `json:"schema"`
	Version int64        `json:"version"`
	Files   []FileAction `json:"files"`
}

// QueryTable returns the shared table's schema, version, and pre-authorized
// file URLs. Recipients never receive catalog credentials — only per-file
// read access scoped to the table, vended via the provider's catalog.
func (s *Server) QueryTable(msID, token, share, schema, table string) (*QueryResponse, error) {
	spec, err := s.shareSpec(msID, token, share)
	if err != nil {
		return nil, err
	}
	full := ""
	for _, tbl := range spec.Tables {
		parts := strings.Split(tbl, ".")
		if len(parts) == 3 && parts[1] == schema && parts[2] == table {
			full = tbl
			break
		}
	}
	if full == "" {
		return nil, fmt.Errorf("%w: %s.%s in share %s", catalog.ErrNotFound, schema, table, share)
	}
	admin := s.adminCtx(msID)
	tc, err := s.Service.TempCredentialForAsset(admin, full, cloudsim.AccessRead)
	if err != nil {
		return nil, err
	}
	dtbl := delta.NewTable(tc.Credential.Scope, delta.TokenBlobs{Store: s.Service.Cloud(), Token: tc.Credential.Token})
	snap, err := dtbl.Snapshot()
	if err != nil {
		return nil, err
	}
	resp := &QueryResponse{Schema: snap.Schema, Version: snap.Version}
	for _, f := range snap.Files {
		fa := FileAction{
			URL:         snap.Path + "/" + f.Path,
			Token:       tc.Credential.Token,
			Size:        f.Size,
			ExpiresAtMS: tc.Credential.ExpiresAt.UnixMilli(),
		}
		if f.Stats != nil {
			fa.NumRecords = f.Stats.NumRecords
		}
		resp.Files = append(resp.Files, fa)
	}
	return resp, nil
}

// Client is a Delta Sharing recipient-side reader.
type Client struct {
	Server *Server // in-process transport; the REST server wraps the same API
	Cloud  *cloudsim.Store
	MSID   string
	Token  string
}

// ReadTable fetches all rows of a shared table using only the protocol
// response (no catalog access).
func (c *Client) ReadTable(share, schema, table string) (*delta.Batch, error) {
	resp, err := c.Server.QueryTable(c.MSID, c.Token, share, schema, table)
	if err != nil {
		return nil, err
	}
	out := delta.NewBatch(resp.Schema)
	for _, f := range resp.Files {
		data, err := c.Cloud.Get(f.Token, f.URL)
		if err != nil {
			return nil, fmt.Errorf("sharing: fetch %s: %w", f.URL, err)
		}
		batch, err := delta.DecodeBatch(data, nil)
		if err != nil {
			return nil, err
		}
		out.Append(batch)
	}
	return out, nil
}

// ensure privilege import is used (owners of shares are principals).
var _ privilege.Principal
