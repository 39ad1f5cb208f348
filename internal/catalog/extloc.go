package catalog

import (
	"fmt"

	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// This file implements external locations and storage credentials (paper
// §4.3.1): "administrators grant storage access exclusively to the catalog
// service by configuring UC external locations and storage credentials".
// An external location pairs a storage prefix with a credential; creating
// external assets under it requires a privilege on the location, and
// path-based temporary credentials fall back to location privileges for
// governed paths that have no asset yet.

// CreateStorageCredential registers a cloud principal abstraction.
func (s *Service) CreateStorageCredential(ctx Ctx, name string, spec StorageCredentialSpec, comment string) (*erm.Entity, error) {
	return s.CreateAsset(ctx, CreateRequest{
		Type: erm.TypeStorageCredential, Name: name, Comment: comment, Spec: &spec,
	})
}

// CreateExternalLocation registers a storage prefix governed through the
// named storage credential. External locations may not overlap each other.
func (s *Service) CreateExternalLocation(ctx Ctx, name, url, credentialName, comment string) (*erm.Entity, error) {
	if url == "" || credentialName == "" {
		return nil, fmt.Errorf("%w: external location needs url and credential", ErrInvalidArgument)
	}
	// The credential must exist (and be visible to the caller).
	if _, err := s.GetAsset(ctx, credentialName); err != nil {
		return nil, fmt.Errorf("storage credential %s: %w", credentialName, err)
	}
	return s.CreateAsset(ctx, CreateRequest{
		Type: erm.TypeExternalLocation, Name: name, Comment: comment,
		StoragePath: url,
		Spec:        &ExternalLocationSpec{CredentialName: credentialName, URL: url},
	})
}

// coveringExternalLocation finds the external location whose prefix covers
// path, if any.
func coveringExternalLocation(r erm.Reader, path string) (*erm.Entity, bool) {
	if _, id, ok := erm.RegisteredPrefix(r, erm.TableExtLoc, path); ok {
		if e, found := erm.GetEntity(r, id); found && e.State != erm.StateSoftDeleted {
			return e, true
		}
	}
	return nil, false
}

// authorizeExternalPath enforces who may register an external asset at
// path: a covering external location's CREATE TABLE (or ownership), or —
// for ungoverned prefixes — metastore ownership.
func (s *Service) authorizeExternalPath(ctx Ctx, r versionedReader, msEntity ids.ID, path string) error {
	auth := s.authorizer(ctx, r)
	if loc, ok := coveringExternalLocation(r, path); ok {
		if auth.IsOwner(loc.ID) {
			return nil
		}
		if d := auth.CheckNoGate(privilege.CreateTable, loc.ID); d.Allowed {
			return nil
		}
		return fmt.Errorf("%w: need CREATE TABLE on external location %s", ErrPermissionDenied, loc.FullName)
	}
	// Ungoverned prefix: only the metastore admin may register paths the
	// catalog has no configured location for.
	if auth.IsOwner(msEntity) {
		return nil
	}
	return fmt.Errorf("%w: no external location covers %s", ErrPermissionDenied, path)
}

// checkExtLocFree rejects a new external location overlapping an existing
// one (locations may contain asset paths, but never each other).
func checkExtLocFree(tx *store.Tx, path string) error {
	if _, id, ok := erm.RegisteredPrefix(tx, erm.TableExtLoc, path); ok {
		return fmt.Errorf("%w: %s is inside external location %s", ErrPathOverlap, path, id.Short())
	}
	if under, ok := firstUnder(tx, erm.TableExtLoc, path); ok {
		return fmt.Errorf("%w: %s contains external location at %s", ErrPathOverlap, path, under)
	}
	return nil
}

// extLocPathCredential vends a credential for an assetless path under an
// external location the principal holds file privileges on — the fallback
// behind TempCredentialForPath.
func (s *Service) extLocPathCredential(ctx Ctx, r versionedReader, path string, level cloudsim.AccessLevel) (TempCredential, error) {
	var tc TempCredential
	loc, ok := coveringExternalLocation(r, path)
	if !ok {
		return tc, fmt.Errorf("%w: no asset or external location governs path %s", ErrNotFound, path)
	}
	need := privilege.ReadFiles
	if level == cloudsim.AccessReadWrite {
		need = privilege.WriteFiles
	}
	chain, err := s.chainOf(ctx, r, loc, "TempCredentialForPath")
	if err != nil {
		return tc, err
	}
	if err := s.check(ctx, s.authorizer(ctx, r), r, &lazyABAC{}, need, chain, "TempCredentialForPath"); err != nil {
		return tc, err
	}
	// Down-scope to the requested path, not the whole location.
	cred, err := s.mint(ctx.Trace, path, level)
	if err != nil {
		return tc, err
	}
	return TempCredential{Asset: loc.ID, AssetName: loc.FullName, Credential: cred, Level: level}, nil
}
