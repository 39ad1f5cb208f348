package catalog

import (
	"errors"
	"fmt"
	"strings"

	"unitycatalog/internal/audit"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
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
	return s.vend(ctx, s.authorizer(ctx, v), v, &lazyABAC{}, chain, level)
}

// TempCredentialForPath resolves a raw storage path to its unique governing
// asset and vends a credential for that asset. The returned credential is
// down-scoped to the asset's registered path, not the requested one.
func (s *Service) TempCredentialForPath(ctx Ctx, path string, level cloudsim.AccessLevel) (tc TempCredential, err error) {
	defer func() { s.apiAudit(ctx, "TempCredentialForPath", tc.Asset, true, err) }()
	if _, err := s.meta(ctx.Metastore); err != nil {
		return tc, err
	}
	v, err := s.view(ctx)
	if err != nil {
		return tc, err
	}
	defer v.Close()
	e, err := assetForPath(v, path)
	if errors.Is(err, ErrNotFound) {
		// No asset governs the path; fall back to external-location file
		// privileges (READ FILES / WRITE FILES) for governed prefixes.
		return s.extLocPathCredential(ctx, v, path, level)
	}
	if err != nil {
		return tc, err
	}
	chain, err := s.chainOf(ctx, v, e, "TempCredential")
	if err != nil {
		return tc, err
	}
	return s.vend(ctx, s.authorizer(ctx, v), v, &lazyABAC{}, chain, level)
}

// assetForPath maps an object path to the asset whose registered storage
// path is a prefix of it, through the store's path table at r's version. A
// path that cannot be resolved because the backend is failing is that
// failure, not a "not found".
func assetForPath(r erm.Reader, path string) (*erm.Entity, error) {
	if _, id, ok := erm.RegisteredPrefix(r, erm.TablePath, path); ok {
		if e, found := erm.GetEntity(r, id); found && e.State != erm.StateSoftDeleted {
			return e, nil
		}
	}
	if err := backendErr(r); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%w: no asset governs path %s", ErrNotFound, path)
}

// vend authorizes and mints (or reuses) a credential for the entity chain
// ends in. auth is the request's authorizer, bound to r, and abac holds r's
// rules.
func (s *Service) vend(ctx Ctx, auth privilege.Authorizer, r versionedReader, abac *lazyABAC, chain []*erm.Entity, level cloudsim.AccessLevel) (TempCredential, error) {
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
	if err := s.check(ctx, auth, r, abac, need, chain, "TempCredential"); err != nil {
		return tc, err
	}
	// FGAC-protected tables must not leak raw storage to untrusted engines,
	// nor tables whose policy does not read: a rule that cannot be read
	// cannot be shown absent, and the ABAC rules are checked all the same.
	if e.Type == erm.TypeTable && !ctx.TrustedEngine {
		eff, ok := s.staticFGAC(ctx, e)
		if !ok {
			return tc, fmt.Errorf("%w: %s (its policy does not read)", ErrTrustedEngineRequired, e.FullName)
		}
		dyn, err := s.abacFGAC(ctx, r, abac, e)
		if err != nil {
			return tc, err
		}
		if !eff.Empty() || !dyn.Empty() {
			return tc, ErrTrustedEngineRequired
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

// staticFGAC is the part of table e's own policy (TableSpec.FGAC) that applies
// to the request's principal. Only the spec's fgac member is read — in place
// when the spec is packed and the member holds no rule (erm.Spec.EmptyLists),
// else through a decode of that member alone, as bindingAdmits reads a
// catalog's bindings — so a spec whose other members do not decode is held to
// its fgac member. ok is false when that member does not decode: a rule that
// cannot be read, which vend refuses an untrusted engine.
func (s *Service) staticFGAC(ctx Ctx, e *erm.Entity) (eff privilege.FGACPolicy, ok bool) {
	if e.Spec.EmptyLists("fgac", "row_filters", "column_masks") {
		return eff, true
	}
	var spec struct {
		FGAC privilege.FGACPolicy `json:"fgac"` // TableSpec's
	}
	if err := e.DecodeSpec(&spec); err != nil {
		return eff, false
	}
	return spec.FGAC.ForPrincipal(ctx.Principal, s.groups.GroupsOf(ctx.Principal)), true
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

// OverlappingPaths lists the registered asset paths that overlap the
// candidate (a "complex read", paper §5): the one registered prefix of it, if
// there is one, or else every registered path under it, in key order. Both are
// reads of the store's ordered path table at the request view's version.
func (s *Service) OverlappingPaths(ctx Ctx, path string) (paths []string, err error) {
	defer func() { s.apiAudit(ctx, "OverlappingPaths", ids.Nil, true, err) }()
	if _, err := s.meta(ctx.Metastore); err != nil {
		return nil, err
	}
	v, err := s.view(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	if prefix, _, ok := erm.RegisteredPrefix(v, erm.TablePath, path); ok {
		return []string{prefix}, nil
	}
	under := strings.TrimSuffix(path, "/") + "/"
	for _, kv := range v.ScanRange(erm.TablePath, under, store.PrefixEnd(under), 0) {
		paths = append(paths, kv.Key)
	}
	return paths, backendErr(v)
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
	auth, abac := s.authorizer(ctx, v), &lazyABAC{}
	out := make([]bool, len(assetIDs))
	if priv == "" {
		// Visibility check: any privilege or ownership. The shared
		// authorizer memoizes ancestor state across the whole batch.
		for i, id := range assetIDs {
			if e, ok := erm.GetEntity(v, id); ok {
				out[i] = s.visible(ctx, auth, v, abac, e)
			}
		}
		return out, nil
	}
	for i, d := range auth.CheckMany(priv, assetIDs) {
		out[i] = d.Allowed || s.abacGrants(ctx, v, abac, priv, assetIDs[i])
	}
	return out, nil
}

// VisibleEntities reads a batch of securables at one view and returns, in
// order, the entity of each that is live there and that the principal may
// see (AuthorizeBatch's visibility check), and nil for the rest. A discovery
// service that keeps only IDs reads what it answers with here, as the asset
// is when the query runs.
func (s *Service) VisibleEntities(ctx Ctx, assetIDs []ids.ID) ([]*erm.Entity, error) {
	v, err := s.view(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	auth, abac := s.authorizer(ctx, v), &lazyABAC{}
	out := make([]*erm.Entity, len(assetIDs))
	for i, id := range assetIDs {
		if e, ok := erm.GetEntity(v, id); ok && e.State != erm.StateSoftDeleted && s.visible(ctx, auth, v, abac, e) {
			out[i] = e
		}
	}
	return out, nil
}
