package catalog

import (
	"fmt"

	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
)

// This file implements the batched metadata-resolution API: "UC consolidates
// all metadata access for a query into a single batched API call" (paper
// §4.5), including dependency resolution for composite securables such as
// views (§3.4 step 2) and FGAC rule vending to trusted engines.

// ResolveRequest asks for everything a query needs in one call.
type ResolveRequest struct {
	// Names are the securable full names the query references directly.
	Names []string
	// WithCredentials also vends a storage credential per storage-backed
	// asset in the closure.
	WithCredentials bool
	// Access is the credential level (default read).
	Access cloudsim.AccessLevel
}

// ResolvedAsset bundles one asset's metadata for the engine.
type ResolvedAsset struct {
	Entity *erm.Entity `json:"entity"`
	Table  *TableSpec  `json:"table,omitempty"`
	View   *ViewSpec   `json:"view,omitempty"`
	// FGAC is the effective fine-grained policy for the calling principal
	// (static table policy plus ABAC-derived rules); only populated for
	// trusted engines, which are responsible for enforcing it (§4.3.2).
	FGAC *privilege.FGACPolicy `json:"fgac,omitempty"`
	// Credential is present when requested and the asset has storage.
	Credential *TempCredential `json:"credential,omitempty"`
	// ViaView marks dependencies included under a view's authority rather
	// than the principal's own grants.
	ViaView bool `json:"via_view,omitempty"`
}

// ResolveResponse is the batched result.
type ResolveResponse struct {
	// Assets is keyed by full name and includes the dependency closure of
	// every requested view.
	Assets map[string]*ResolvedAsset `json:"assets"`
	// MetastoreVersion is the snapshot version the response reflects.
	MetastoreVersion uint64 `json:"metastore_version"`
}

// Resolve authorizes and returns metadata (and optionally credentials) for
// all requested securables and their dependency closure, in one call over
// one consistent snapshot.
func (s *Service) Resolve(ctx Ctx, req ResolveRequest) (resp *ResolveResponse, err error) {
	defer func() { s.apiAudit(ctx, "Resolve", ids.Nil, true, err) }()
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return nil, err
	}
	if req.Access == "" {
		req.Access = cloudsim.AccessRead
	}
	v, err := s.view(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()

	resp = &ResolveResponse{Assets: map[string]*ResolvedAsset{}, MetastoreVersion: v.Version()}
	// One compiled authorizer and one read of the ABAC rules cover the whole
	// dependency closure: every asset in the batch shares the memoized
	// ancestor evaluations.
	auth, abac := s.authorizer(ctx, v), &lazyABAC{}
	for _, name := range req.Names {
		if err := s.resolveOne(ctx, auth, abac, v, ms, req, resp, name, false, 0); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// maxViewDepth bounds nested-view recursion.
const maxViewDepth = 32

func (s *Service) resolveOne(ctx Ctx, auth privilege.Authorizer, abac *lazyABAC, v versionedReader, ms *metaState, req ResolveRequest, resp *ResolveResponse, full string, viaView bool, depth int) error {
	if depth > maxViewDepth {
		return fmt.Errorf("%w: view nesting deeper than %d", ErrInvalidArgument, maxViewDepth)
	}
	if _, done := resp.Assets[full]; done {
		return nil
	}
	chain, err := s.resolveChain(v, ms, full)
	if err != nil {
		return err
	}
	e := leaf(chain)
	ra := &ResolvedAsset{Entity: e, ViaView: viaView}

	man, _ := s.reg.Manifest(e.Type)
	if !viaView {
		// Directly referenced: the principal needs the read privilege.
		if err := s.authorizeReadWith(ctx, auth, abac, v, chain); err != nil {
			return err
		}
	}

	switch e.Type {
	case erm.TypeTable:
		spec, err := TableSpecOf(e)
		if err != nil {
			return err
		}
		ra.Table = spec
		// Effective FGAC = static policy for this principal + ABAC rules.
		eff := spec.FGAC.ForPrincipal(ctx.Principal, s.groups.GroupsOf(ctx.Principal))
		dyn, err := s.abacFGAC(ctx, v, abac, e)
		if err != nil {
			return err
		}
		eff.RowFilters = append(eff.RowFilters, dyn.RowFilters...)
		eff.ColumnMasks = append(eff.ColumnMasks, dyn.ColumnMasks...)
		if !eff.Empty() {
			if !ctx.TrustedEngine {
				return fmt.Errorf("%w: %s", ErrTrustedEngineRequired, full)
			}
			ra.FGAC = &eff
		}
		if req.WithCredentials && e.StoragePath != "" {
			var tc TempCredential
			if viaView {
				tc, err = s.vendUnchecked(ctx, e, req.Access)
			} else {
				tc, err = s.vend(ctx, auth, v, abac, chain, req.Access)
			}
			if err != nil {
				return err
			}
			ra.Credential = &tc
		}
		// Shallow clones depend on their base table's data (paper §4.3.2):
		// include it under the clone's authority for trusted engines.
		if spec.TableType == TableShallowClone && spec.BaseTable != ids.Nil {
			if base, ok := erm.GetEntity(v, spec.BaseTable); ok {
				if !ctx.TrustedEngine {
					// Reading a clone without base privileges requires a
					// trusted engine unless the user can read the base.
					baseChain, err := s.chainOf(ctx, v, base, "Get"+string(base.Type))
					if err != nil {
						return err
					}
					if err := s.authorizeReadWith(ctx, auth, abac, v, baseChain); err != nil {
						return fmt.Errorf("%w: shallow clone %s", ErrTrustedEngineRequired, full)
					}
				}
				if err := s.resolveOne(ctx, auth, abac, v, ms, req, resp, base.FullName, true, depth+1); err != nil {
					return err
				}
			}
		}
	case erm.TypeView:
		spec, err := ViewSpecOf(e)
		if err != nil {
			return err
		}
		ra.View = spec
		// Dependency resolution: include every referenced relation. For
		// dependencies the user cannot read directly, access flows through
		// the view's grant and requires a trusted engine.
		for _, dep := range spec.Dependencies {
			depChain, derr := s.resolveChain(v, ms, dep)
			if derr != nil {
				return fmt.Errorf("view %s: %w", full, derr)
			}
			userCanRead := s.authorizeReadWith(ctx, auth, abac, v, depChain) == nil
			if !userCanRead && !ctx.TrustedEngine {
				return fmt.Errorf("%w: view %s over %s", ErrTrustedEngineRequired, full, dep)
			}
			if err := s.resolveOne(ctx, auth, abac, v, ms, req, resp, dep, !userCanRead, depth+1); err != nil {
				return err
			}
		}
	case erm.TypeFunction:
		// Functions are composite securables too: EXECUTE on the function
		// carries authority over its dependencies (trusted engines only
		// when the caller lacks direct access), exactly like views.
		var spec FunctionSpec
		if err := e.DecodeSpec(&spec); err != nil {
			return err
		}
		for _, dep := range spec.Dependencies {
			depChain, derr := s.resolveChain(v, ms, dep)
			if derr != nil {
				return fmt.Errorf("function %s: %w", full, derr)
			}
			userCanRead := s.authorizeReadWith(ctx, auth, abac, v, depChain) == nil
			if !userCanRead && !ctx.TrustedEngine {
				return fmt.Errorf("%w: function %s over %s", ErrTrustedEngineRequired, full, dep)
			}
			if err := s.resolveOne(ctx, auth, abac, v, ms, req, resp, dep, !userCanRead, depth+1); err != nil {
				return err
			}
		}
	case erm.TypeVolume, erm.TypeRegisteredModel, erm.TypeModelVersion:
		if req.WithCredentials && e.StoragePath != "" && man != nil && man.DataReadPrivilege != "" {
			tc, err := s.vend(ctx, auth, v, abac, chain, req.Access)
			if err != nil {
				return err
			}
			ra.Credential = &tc
		}
	}
	resp.Assets[full] = ra
	return nil
}
