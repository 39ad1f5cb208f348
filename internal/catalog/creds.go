package catalog

import (
	"fmt"

	"unitycatalog/internal/audit"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
)

// This file implements temporary credential vending (paper §4.3.1).
// Clients never hold standing cloud credentials; they ask the catalog for a
// short-lived token scoped to exactly one asset's storage path, and the
// catalog authorizes the request against the asset's privileges — whether
// the asset was named by its catalog name or by a raw storage path (the
// one-asset-per-path principle makes the path→asset mapping unambiguous).

// TempCredential is the vended credential plus the asset it is scoped to.
type TempCredential struct {
	Asset      ids.ID               `json:"asset_id"`
	AssetName  string               `json:"asset_name"`
	Credential cloudsim.Credential  `json:"credential"`
	Level      cloudsim.AccessLevel `json:"level"`
}

// TempCredentialForAsset vends a credential for the asset named by full.
func (s *Service) TempCredentialForAsset(ctx Ctx, full string, level cloudsim.AccessLevel) (tc TempCredential, err error) {
	defer func() { s.apiAudit(ctx, "TempCredentialForAsset", tc.Asset, true, err) }()
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return tc, err
	}
	v, err := s.view(ctx)
	if err != nil {
		return tc, err
	}
	defer v.Close()
	chain, err := s.resolveChain(v, ms, full)
	if err != nil {
		return tc, err
	}
	return s.vend(ctx, v, chain, level)
}

// TempCredentialForPath resolves a raw storage path to its unique governing
// asset and vends a credential for that asset. The returned credential is
// down-scoped to the asset's registered path, not the requested one.
func (s *Service) TempCredentialForPath(ctx Ctx, path string, level cloudsim.AccessLevel) (tc TempCredential, err error) {
	defer func() { s.apiAudit(ctx, "TempCredentialForPath", tc.Asset, true, err) }()
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return tc, err
	}
	v, err := s.view(ctx)
	if err != nil {
		return tc, err
	}
	defer v.Close()
	e, err := s.assetForPath(v, ms, path)
	if err != nil {
		// No asset governs the path; fall back to external-location file
		// privileges (READ FILES / WRITE FILES) for governed prefixes.
		return s.extLocPathCredential(ctx, v, path, level)
	}
	chain, err := s.chainOf(ctx, v, e, "TempCredential")
	if err != nil {
		return tc, err
	}
	return s.vend(ctx, v, chain, level)
}

// assetForPath maps an object path to the asset whose registered storage
// path is a prefix of it, via the cached path index.
func (s *Service) assetForPath(r erm.Reader, ms *metaState, path string) (*erm.Entity, error) {
	// Fast path: in-memory trie.
	if val, _, ok := ms.trie.Resolve(path); ok {
		if e, found := erm.GetEntity(r, val.(ids.ID)); found && e.State != erm.StateSoftDeleted {
			return e, nil
		}
	}
	// Authoritative fallback: walk segment prefixes in the path index.
	for _, prefix := range pathPrefixes(path) {
		if e, found := erm.GetByPath(r, prefix); found && e.State != erm.StateSoftDeleted {
			return e, nil
		}
	}
	return nil, fmt.Errorf("%w: no asset governs path %s", ErrNotFound, path)
}

// vend authorizes and mints (or reuses) a credential for the entity chain
// ends in.
func (s *Service) vend(ctx Ctx, r versionedReader, chain []*erm.Entity, level cloudsim.AccessLevel) (TempCredential, error) {
	var tc TempCredential
	e := leaf(chain)
	man, ok := s.reg.Manifest(e.Type)
	if !ok || e.StoragePath == "" || man.DataReadPrivilege == "" {
		return tc, fmt.Errorf("%w: %s has no vendable storage", ErrInvalidArgument, e.FullName)
	}
	need := man.DataReadPrivilege
	if level == cloudsim.AccessReadWrite {
		need = man.DataWritePrivilege
	}
	if err := s.check(ctx, r, need, chain, "TempCredential"); err != nil {
		return tc, err
	}
	// FGAC-protected tables must not leak raw storage to untrusted engines.
	if e.Type == erm.TypeTable && !ctx.TrustedEngine {
		spec, err := TableSpecOf(e)
		if err == nil {
			eff := spec.FGAC.ForPrincipal(ctx.Principal, s.groups.GroupsOf(ctx.Principal))
			abac := s.abacFGAC(ctx, r, e)
			if !eff.Empty() || !abac.Empty() {
				return tc, ErrTrustedEngineRequired
			}
		}
	}

	key := tokenKey{asset: e.ID, principal: ctx.Principal, level: level}
	if s.tokenCache != nil {
		if cred, ok := s.tokenCache.get(key, s.credTTL/2); ok {
			s.audit.Append(audit.Record{Kind: audit.KindCredential, Metastore: ctx.Metastore,
				Principal: string(ctx.Principal), Operation: "TempCredential", Securable: e.ID,
				Allowed: true, ReadOnly: true, Detail: "cached", TraceID: ctx.Trace.TraceID()})
			return TempCredential{Asset: e.ID, AssetName: e.FullName, Credential: cred, Level: level}, nil
		}
	}
	cred, err := s.mint(ctx.Trace, e.StoragePath, level)
	if err != nil {
		return tc, err
	}
	if s.tokenCache != nil {
		s.tokenCache.put(key, cred)
	}
	s.audit.Append(audit.Record{Kind: audit.KindCredential, Metastore: ctx.Metastore,
		Principal: string(ctx.Principal), Operation: "TempCredential", Securable: e.ID,
		Allowed: true, ReadOnly: true, Detail: "minted", TraceID: ctx.Trace.TraceID()})
	return TempCredential{Asset: e.ID, AssetName: e.FullName, Credential: cred, Level: level}, nil
}

// vendUnchecked mints a credential for an entity without a privilege check;
// used for view-dependency access where the view's grant carries authority
// (paper §4.3.2), after the caller has authorized the view itself.
func (s *Service) vendUnchecked(ctx Ctx, e *erm.Entity, level cloudsim.AccessLevel) (TempCredential, error) {
	if e.StoragePath == "" {
		return TempCredential{}, fmt.Errorf("%w: %s has no storage", ErrInvalidArgument, e.FullName)
	}
	cred, err := s.mint(ctx.Trace, e.StoragePath, level)
	if err != nil {
		return TempCredential{}, err
	}
	s.audit.Append(audit.Record{Kind: audit.KindCredential, Metastore: ctx.Metastore,
		Principal: string(ctx.Principal), Operation: "TempCredential", Securable: e.ID,
		Allowed: true, ReadOnly: true, Detail: "via-view", TraceID: ctx.Trace.TraceID()})
	return TempCredential{Asset: e.ID, AssetName: e.FullName, Credential: cred, Level: level}, nil
}

// OverlappingPaths lists registered asset paths overlapping the candidate
// (a "complex read" served by the URL trie, paper §5).
func (s *Service) OverlappingPaths(ctx Ctx, path string) ([]string, error) {
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return nil, err
	}
	return ms.trie.Overlapping(path), nil
}

// AuthorizeBatch is the efficient authorization API used by second-tier
// discovery services (paper §4.4): it answers, for a list of securables,
// whether the principal may see each one, in a single call over one view.
func (s *Service) AuthorizeBatch(ctx Ctx, assetIDs []ids.ID, priv privilege.Privilege) ([]bool, error) {
	v, err := s.view(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	auth := s.authorizer(ctx, v)
	out := make([]bool, len(assetIDs))
	if priv == "" {
		// Visibility check: any privilege or ownership. The shared
		// authorizer memoizes ancestor state across the whole batch.
		for i, id := range assetIDs {
			if e, ok := erm.GetEntity(v, id); ok {
				out[i] = s.visible(ctx, auth, v, e)
			}
		}
		return out, nil
	}
	for i, d := range auth.CheckMany(priv, assetIDs) {
		out[i] = d.Allowed || s.abacGrants(ctx, v, priv, assetIDs[i])
	}
	return out, nil
}
