package catalog

import (
	"fmt"
	"strings"
	"sync"

	"unitycatalog/internal/delta"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/events"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// CreateRequest describes a new asset of any registered type.
type CreateRequest struct {
	Type       erm.SecurableType
	Name       string
	ParentFull string // "" for metastore-level securables, "cat" or "cat.sch" otherwise
	Comment    string
	Properties map[string]string
	// StoragePath is the external location for EXTERNAL assets; leave empty
	// to have the catalog allocate managed storage (when supported).
	StoragePath string
	// Spec is the type-specific metadata (e.g. *TableSpec).
	Spec any
}

// CreateAsset creates an asset of any registered type, enforcing the
// manifest's hierarchy rules, the creator privilege on the parent, name
// validity and uniqueness, and the one-asset-per-path invariant.
func (s *Service) CreateAsset(ctx Ctx, req CreateRequest) (e *erm.Entity, err error) {
	defer func() { s.apiAudit(ctx, "Create"+string(req.Type), entityID(e), false, err) }()
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return nil, err
	}
	man, ok := s.reg.Manifest(req.Type)
	if !ok {
		return nil, fmt.Errorf("%w: unknown asset type %s", ErrInvalidArgument, req.Type)
	}
	if err := s.reg.ValidateName(req.Type, req.Name); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidArgument, err)
	}
	if req.Comment != "" {
		if fr, ok := man.Fields["comment"]; ok && fr.MaxLen > 0 && len(req.Comment) > fr.MaxLen {
			return nil, fmt.Errorf("%w: comment longer than %d", ErrInvalidArgument, fr.MaxLen)
		}
	}

	ms.writeMu.Lock()
	defer ms.writeMu.Unlock()

	v, err := s.view(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()

	// Resolve and validate the parent (the metastore entity when unnamed).
	parentChain, err := s.resolveParentChain(v, ms, req.ParentFull)
	if err != nil {
		return nil, err
	}
	parent := leaf(parentChain)
	if !s.reg.ValidParent(req.Type, parent.Type) {
		return nil, fmt.Errorf("%w: %s cannot contain %s", ErrInvalidArgument, parent.Type, req.Type)
	}
	if err := s.check(ctx, v, man.CreatePrivilege, parentChain, "Create"+string(req.Type)); err != nil {
		return nil, err
	}

	now := s.clk.Now()
	e = &erm.Entity{
		ID:         ids.New(),
		Type:       req.Type,
		Name:       req.Name,
		ParentID:   parent.ID,
		Owner:      ctx.Principal,
		Comment:    req.Comment,
		Properties: req.Properties,
		State:      erm.StateActive,
		CreatedAt:  now,
		UpdatedAt:  now,
	}
	if req.ParentFull == "" {
		e.FullName = req.Name
	} else {
		e.FullName = req.ParentFull + "." + req.Name
	}
	if req.Spec != nil {
		if err := e.EncodeSpec(req.Spec); err != nil {
			return nil, err
		}
	}

	// Storage assignment.
	if man.HasStorage {
		switch {
		case req.StoragePath != "":
			e.StoragePath = strings.TrimSuffix(req.StoragePath, "/")
			// Registering an external path requires authority over it:
			// a covering external location (or metastore admin for
			// ungoverned prefixes). External locations themselves are the
			// grant of that authority and skip the check.
			if req.Type != erm.TypeExternalLocation {
				if err := s.authorizeExternalPath(ctx, v, ms.info.EntityID, e.StoragePath); err != nil {
					return nil, err
				}
			}
		case man.SupportsManaged:
			if ms.info.RootPath == "" {
				return nil, fmt.Errorf("%w: metastore has no root path for managed storage", ErrInvalidArgument)
			}
			e.StoragePath = fmt.Sprintf("%s/%s/%s", ms.info.RootPath, strings.ToLower(string(req.Type)), e.ID)
			e.Managed = true
		}
	} else if req.StoragePath != "" {
		return nil, fmt.Errorf("%w: type %s has no storage", ErrInvalidArgument, req.Type)
	}

	group := groupFor(s.reg, req.Type)
	_, err = s.cache.UpdateT(ctx.Trace, ctx.Metastore, func(tx *store.Tx) error {
		// Name uniqueness within the group.
		if _, exists := tx.Get(erm.TableName, erm.NameKey(group, parent.ID, req.Name)); exists {
			return fmt.Errorf("%w: %s %q in %s", ErrAlreadyExists, req.Type, req.Name, parentLabel(parent))
		}
		// One-asset-per-path, checked authoritatively inside the transaction.
		// External locations check against their own index (they contain
		// asset paths but may not overlap each other).
		if e.StoragePath != "" {
			if req.Type == erm.TypeExternalLocation {
				if err := checkExtLocFree(tx, e.StoragePath); err != nil {
					return err
				}
			} else if err := checkPathFree(tx, e.StoragePath); err != nil {
				return err
			}
		}
		if err := erm.PutEntity(tx, e, group); err != nil {
			return err
		}
		stageEvent(tx, ctx, events.OpCreate, e, "")
		return nil
	})
	if err != nil {
		return nil, err
	}
	if e.StoragePath != "" && req.Type != erm.TypeExternalLocation {
		// External locations are containers of asset paths, not assets;
		// the trie only resolves paths to their unique governing asset.
		_ = ms.trie.Insert(e.StoragePath, e.ID)
	}
	return e, nil
}

func parentLabel(p *erm.Entity) string {
	if p.FullName != "" {
		return p.FullName
	}
	return string(p.Type)
}

func entityID(e *erm.Entity) ids.ID {
	if e == nil {
		return ids.Nil
	}
	return e.ID
}

// checkPathFree enforces the one-asset-per-path invariant inside a write
// transaction: no registered path may be a prefix of path, equal to it, or
// extend it.
func checkPathFree(tx *store.Tx, path string) error {
	// Any registered ancestor prefix (including exact match)?
	for _, prefix := range pathPrefixes(path) {
		if idb, ok := tx.Get(erm.TablePath, prefix); ok {
			return fmt.Errorf("%w: %s conflicts with asset %s at %s", ErrPathOverlap, path, erm.IndexedID(store.KV{Key: prefix, Value: idb}).Short(), prefix)
		}
	}
	// Any registered descendant?
	if kvs := tx.Scan(erm.TablePath, path+"/"); len(kvs) > 0 {
		return fmt.Errorf("%w: %s contains asset path %s", ErrPathOverlap, path, kvs[0].Key)
	}
	return nil
}

// pathPrefixes lists every segment-boundary prefix of a storage URL,
// including the URL itself, from shortest to longest.
// "s3://b/a/c" -> ["s3://b", "s3://b/a", "s3://b/a/c"].
func pathPrefixes(path string) []string {
	path = strings.TrimSuffix(path, "/")
	start := 0
	if i := strings.Index(path, "://"); i >= 0 {
		start = i + 3
	}
	var out []string
	for i := start; i < len(path); i++ {
		if path[i] == '/' {
			out = append(out, path[:i])
		}
	}
	out = append(out, path)
	return out
}

// GetAsset resolves a full name and returns the entity after authorizing the
// type's read privilege (with container usage gating).
func (s *Service) GetAsset(ctx Ctx, full string) (e *erm.Entity, err error) {
	defer func() { s.apiAudit(ctx, "GetAsset", entityID(e), true, err) }()
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return nil, err
	}
	v, err := s.view(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	chain, err := s.resolveChain(v, ms, full)
	if err != nil {
		return nil, err
	}
	if err := s.authorizeRead(ctx, v, chain); err != nil {
		return nil, err
	}
	return leaf(chain), nil
}

// authorizeRead checks the manifest read privilege for the entity chain ends
// in, treating container types without gating (their own privilege is the
// gate).
func (s *Service) authorizeRead(ctx Ctx, r versionedReader, chain []*erm.Entity) error {
	return s.authorizeReadWith(ctx, s.authorizer(ctx, r), r, chain)
}

// authorizeReadWith is authorizeRead against an already-built authorizer, so
// batched callers (Resolve's dependency closure) reuse one compiled snapshot
// across the whole request.
func (s *Service) authorizeReadWith(ctx Ctx, auth privilege.Authorizer, r versionedReader, chain []*erm.Entity) error {
	e := leaf(chain)
	man, ok := s.reg.Manifest(e.Type)
	if !ok || man.ReadPrivilege == "" {
		return nil
	}
	if e.Type == erm.TypeCatalog || e.Type == erm.TypeSchema {
		if err := checkWorkspaceBinding(ctx, chain); err != nil {
			return err
		}
		if d := auth.CheckNoGate(man.ReadPrivilege, e.ID); !d.Allowed {
			return fmt.Errorf("%w: %s", ErrPermissionDenied, d.Reason)
		}
		return nil
	}
	return s.check(ctx, r, man.ReadPrivilege, chain, "Get"+string(e.Type))
}

// visMasks caches each type's visibility mask — the read privilege plus
// every grantable privilege compiled to a bitset — keyed by manifest
// pointer (manifests are registered once and never mutated).
var visMasks sync.Map // *erm.TypeManifest -> privilege.PrivSet

func visMask(man *erm.TypeManifest) privilege.PrivSet {
	if m, ok := visMasks.Load(man); ok {
		return m.(privilege.PrivSet)
	}
	privs := make([]privilege.Privilege, 0, len(man.GrantablePrivileges)+1)
	if man.ReadPrivilege != "" {
		privs = append(privs, man.ReadPrivilege)
	}
	privs = append(privs, man.GrantablePrivileges...)
	m := privilege.PrivSetOf(privs...)
	visMasks.Store(man, m)
	return m
}

// visible reports whether the principal may know the asset exists: owners,
// admins, and holders of any grantable privilege on it (direct or
// inherited). One effective-set lookup and one bitset intersection replace
// the per-privilege ancestor walks; siblings in a listing share the
// authorizer's memoized ancestor state. e must have been read through r, the
// reader auth is bound to: the authorizer is handed e's row and does not read
// it again.
func (s *Service) visible(ctx Ctx, auth privilege.Authorizer, r erm.Reader, e *erm.Entity) bool {
	set, ok := auth.EffectiveSetOf(securableOf(e))
	if ok && set.HasAdmin() {
		return true
	}
	man, found := s.reg.Manifest(e.Type)
	if !found {
		return false
	}
	if ok && set.Intersects(visMask(man)) {
		return true
	}
	return s.abacGrants(ctx, r, man.ReadPrivilege, e.ID)
}

// UpdateRequest patches mutable asset fields. Nil pointers leave fields
// unchanged.
type UpdateRequest struct {
	Comment    *string
	Owner      *privilege.Principal
	Properties map[string]string // merged; empty-string value deletes a key
	// Spec replaces the type-specific metadata when non-nil.
	Spec any
}

// UpdateAsset applies an update after validating field rules from the
// manifest and authorizing the write (owner changes require ownership).
func (s *Service) UpdateAsset(ctx Ctx, full string, req UpdateRequest) (e *erm.Entity, err error) {
	defer func() { s.apiAudit(ctx, "UpdateAsset", entityID(e), false, err) }()
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return nil, err
	}
	ms.writeMu.Lock()
	defer ms.writeMu.Unlock()

	v, err := s.view(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	chain, err := s.resolveChain(v, ms, full)
	if err != nil {
		return nil, err
	}
	e = leaf(chain)
	man, _ := s.reg.Manifest(e.Type)

	if req.Owner != nil {
		if err := s.checkOwner(ctx, v, e.ID, "UpdateOwner"); err != nil {
			return nil, err
		}
	}
	if req.Comment != nil || req.Properties != nil || req.Spec != nil {
		wp := privilege.Modify
		if man != nil && man.WritePrivilege != "" {
			wp = man.WritePrivilege
		}
		if wp == privilege.Manage {
			if err := s.checkOwner(ctx, v, e.ID, "UpdateAsset"); err != nil {
				return nil, err
			}
		} else if err := s.check(ctx, v, wp, chain, "UpdateAsset"); err != nil {
			return nil, err
		}
	}
	if req.Comment != nil && man != nil {
		fr, ok := man.Fields["comment"]
		if !ok || !fr.Updatable {
			return nil, fmt.Errorf("%w: comment not updatable on %s", ErrInvalidArgument, e.Type)
		}
		if fr.MaxLen > 0 && len(*req.Comment) > fr.MaxLen {
			return nil, fmt.Errorf("%w: comment longer than %d", ErrInvalidArgument, fr.MaxLen)
		}
	}

	updated := e.Clone()
	if req.Comment != nil {
		updated.Comment = *req.Comment
	}
	if req.Owner != nil {
		updated.Owner = *req.Owner
	}
	if req.Properties != nil {
		if updated.Properties == nil {
			updated.Properties = map[string]string{}
		}
		for k, val := range req.Properties {
			if val == "" {
				delete(updated.Properties, k)
			} else {
				updated.Properties[k] = val
			}
		}
	}
	if req.Spec != nil {
		if err := updated.EncodeSpec(req.Spec); err != nil {
			return nil, err
		}
	}
	updated.UpdatedAt = s.clk.Now()

	_, err = s.cache.UpdateT(ctx.Trace, ctx.Metastore, func(tx *store.Tx) error {
		if _, ok := erm.GetEntity(tx, e.ID); !ok {
			return fmt.Errorf("%w: %s", ErrNotFound, full)
		}
		if err := erm.UpdateEntity(tx, updated); err != nil {
			return err
		}
		stageEvent(tx, ctx, events.OpUpdate, updated, "")
		return nil
	})
	if err != nil {
		return nil, err
	}
	return updated, nil
}

// --- typed convenience constructors ---

// CreateCatalog creates a regular catalog.
func (s *Service) CreateCatalog(ctx Ctx, name, comment string) (*erm.Entity, error) {
	return s.CreateAsset(ctx, CreateRequest{
		Type: erm.TypeCatalog, Name: name, Comment: comment,
		Spec: &CatalogSpec{Kind: CatalogRegular},
	})
}

// CreateSchema creates a schema inside a catalog.
func (s *Service) CreateSchema(ctx Ctx, catalogName, name, comment string) (*erm.Entity, error) {
	return s.CreateAsset(ctx, CreateRequest{
		Type: erm.TypeSchema, Name: name, ParentFull: catalogName, Comment: comment,
	})
}

// CreateTable creates a table in "catalog.schema". An empty storagePath
// allocates managed storage.
func (s *Service) CreateTable(ctx Ctx, schemaFull, name string, spec TableSpec, storagePath string) (*erm.Entity, error) {
	if len(spec.Columns) == 0 && spec.TableType != TableForeign {
		return nil, fmt.Errorf("%w: table needs at least one column", ErrInvalidArgument)
	}
	if spec.TableType == "" {
		if storagePath == "" {
			spec.TableType = TableManaged
		} else {
			spec.TableType = TableExternal
		}
	}
	if spec.Format == "" {
		spec.Format = FormatDelta
	}
	return s.CreateAsset(ctx, CreateRequest{
		Type: erm.TypeTable, Name: name, ParentFull: schemaFull,
		StoragePath: storagePath, Spec: &spec,
	})
}

// CreateView creates a view in "catalog.schema".
func (s *Service) CreateView(ctx Ctx, schemaFull, name string, spec ViewSpec) (*erm.Entity, error) {
	if spec.Definition == "" {
		return nil, fmt.Errorf("%w: view needs a definition", ErrInvalidArgument)
	}
	return s.CreateAsset(ctx, CreateRequest{
		Type: erm.TypeView, Name: name, ParentFull: schemaFull, Spec: &spec,
	})
}

// CreateVolume creates a volume in "catalog.schema". An empty storagePath
// allocates managed storage.
func (s *Service) CreateVolume(ctx Ctx, schemaFull, name, storagePath string) (*erm.Entity, error) {
	vt := "MANAGED"
	if storagePath != "" {
		vt = "EXTERNAL"
	}
	return s.CreateAsset(ctx, CreateRequest{
		Type: erm.TypeVolume, Name: name, ParentFull: schemaFull,
		StoragePath: storagePath, Spec: &VolumeSpec{VolumeType: vt},
	})
}

// CreateFunction creates a function in "catalog.schema".
func (s *Service) CreateFunction(ctx Ctx, schemaFull, name string, spec FunctionSpec) (*erm.Entity, error) {
	return s.CreateAsset(ctx, CreateRequest{
		Type: erm.TypeFunction, Name: name, ParentFull: schemaFull, Spec: &spec,
	})
}

// RenameAsset renames a leaf asset (or an empty container) within its
// parent, updating the name index atomically; full names of descendants are
// derived from parents, so containers with children cannot be renamed.
// Requires ownership.
func (s *Service) RenameAsset(ctx Ctx, full, newName string) (e *erm.Entity, err error) {
	defer func() { s.apiAudit(ctx, "RenameAsset", entityID(e), false, err) }()
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return nil, err
	}
	ms.writeMu.Lock()
	defer ms.writeMu.Unlock()
	v, err := s.view(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	cur, err := s.resolveEntity(v, ms, full)
	if err != nil {
		return nil, err
	}
	if err := s.reg.ValidateName(cur.Type, newName); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidArgument, err)
	}
	if err := s.checkOwner(ctx, v, cur.ID, "RenameAsset"); err != nil {
		return nil, err
	}
	live := 0
	for _, c := range erm.ListChildren(v, cur.ID, "") {
		if c.State != erm.StateSoftDeleted {
			live++
		}
	}
	if live > 0 {
		return nil, fmt.Errorf("%w: cannot rename %s with %d children", ErrNotEmpty, full, live)
	}

	group := groupFor(s.reg, cur.Type)
	renamed := cur.Clone()
	renamed.Name = newName
	if i := strings.LastIndex(cur.FullName, "."); i >= 0 {
		renamed.FullName = cur.FullName[:i+1] + newName
	} else {
		renamed.FullName = newName
	}
	renamed.UpdatedAt = s.clk.Now()

	_, err = s.cache.UpdateT(ctx.Trace, ctx.Metastore, func(tx *store.Tx) error {
		if _, taken := tx.Get(erm.TableName, erm.NameKey(group, cur.ParentID, newName)); taken {
			return fmt.Errorf("%w: %s %q", ErrAlreadyExists, cur.Type, newName)
		}
		tx.Delete(erm.TableName, erm.NameKey(group, cur.ParentID, cur.Name))
		tx.Put(erm.TableName, erm.NameKey(group, cur.ParentID, newName), erm.IDValue(cur.ID))
		if err := erm.UpdateEntity(tx, renamed); err != nil {
			return err
		}
		stageEvent(tx, ctx, events.OpUpdate, renamed, "renamed from "+cur.Name)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return renamed, nil
}

// CloneTable creates a shallow clone of srcFull as dstSchemaFull.dstName:
// a new governed table whose Delta log references the base table's data
// files without copying them (paper §4.3.2). The caller needs SELECT on the
// source and CREATE TABLE on the destination schema; afterwards, a grant on
// the clone carries authority over the referenced base data, so reading a
// clone without base privileges requires a trusted engine.
func (s *Service) CloneTable(ctx Ctx, srcFull, dstSchemaFull, dstName string) (e *erm.Entity, err error) {
	defer func() { s.apiAudit(ctx, "CloneTable", entityID(e), false, err) }()
	src, err := s.GetAsset(ctx, srcFull)
	if err != nil {
		return nil, err
	}
	srcSpec, err := TableSpecOf(src)
	if err != nil {
		return nil, err
	}
	if src.StoragePath == "" {
		return nil, fmt.Errorf("%w: %s has no storage to clone", ErrInvalidArgument, srcFull)
	}
	// Data-read authority over the source is required to mint a clone.
	v, err := s.view(ctx)
	if err != nil {
		return nil, err
	}
	chain, err := s.chainOf(ctx, v, src, "CloneTable")
	if err == nil {
		err = s.check(ctx, v, privilege.Select, chain, "CloneTable")
	}
	v.Close()
	if err != nil {
		return nil, err
	}
	base := delta.NewTable(src.StoragePath, delta.ServiceBlobs{Store: s.cloud})
	baseSnap, err := base.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("%w: source has no delta log: %v", ErrInvalidArgument, err)
	}
	spec := *srcSpec
	spec.TableType = TableShallowClone
	spec.BaseTable = src.ID
	spec.FGAC = privilege.FGACPolicy{} // policies do not transfer; clone grants stand alone
	e, err = s.CreateAsset(ctx, CreateRequest{
		Type: erm.TypeTable, Name: dstName, ParentFull: dstSchemaFull, Spec: &spec,
	})
	if err != nil {
		return nil, err
	}
	if _, err := delta.CloneFrom(delta.ServiceBlobs{Store: s.cloud}, e.StoragePath, dstName, baseSnap); err != nil {
		// Roll the entity back; the log never materialized.
		s.DeleteAsset(ctx, e.FullName, true)
		return nil, err
	}
	return e, nil
}

// SetWorkspaceBindings restricts a catalog to the given workspaces (empty
// unbinds it, making it reachable from all workspaces). Admin only.
func (s *Service) SetWorkspaceBindings(ctx Ctx, catalogName string, workspaces []string) error {
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return err
	}
	ms.writeMu.Lock()
	defer ms.writeMu.Unlock()
	v, err := s.view(ctx)
	if err != nil {
		return err
	}
	defer v.Close()
	e, err := s.resolveEntity(v, ms, catalogName)
	if err != nil {
		return err
	}
	if e.Type != erm.TypeCatalog {
		return fmt.Errorf("%w: %s is not a catalog", ErrInvalidArgument, catalogName)
	}
	if err := s.checkOwner(ctx, v, e.ID, "SetWorkspaceBindings"); err != nil {
		return err
	}
	var spec CatalogSpec
	if err := e.DecodeSpec(&spec); err != nil {
		return err
	}
	spec.WorkspaceBindings = workspaces
	upd := e.Clone()
	if err := upd.EncodeSpec(&spec); err != nil {
		return err
	}
	upd.UpdatedAt = s.clk.Now()
	_, err = s.cache.UpdateT(ctx.Trace, ctx.Metastore, func(tx *store.Tx) error {
		if err := erm.UpdateEntity(tx, upd); err != nil {
			return err
		}
		stageEvent(tx, ctx, events.OpUpdate, upd, "workspace bindings")
		return nil
	})
	return err
}

// TableSpecOf decodes a table entity's spec.
func TableSpecOf(e *erm.Entity) (*TableSpec, error) {
	if e.Type != erm.TypeTable {
		return nil, fmt.Errorf("%w: %s is a %s, not a table", ErrInvalidArgument, e.FullName, e.Type)
	}
	var spec TableSpec
	if err := e.DecodeSpec(&spec); err != nil {
		return nil, err
	}
	return &spec, nil
}

// ViewSpecOf decodes a view entity's spec.
func ViewSpecOf(e *erm.Entity) (*ViewSpec, error) {
	if e.Type != erm.TypeView {
		return nil, fmt.Errorf("%w: %s is a %s, not a view", ErrInvalidArgument, e.FullName, e.Type)
	}
	var spec ViewSpec
	if err := e.DecodeSpec(&spec); err != nil {
		return nil, err
	}
	return &spec, nil
}
