package catalog

import (
	"fmt"
	"time"

	"unitycatalog/internal/erm"
	"unitycatalog/internal/events"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/store"
)

// This file implements asset lifecycle (paper §4.2.1): soft deletion that
// propagates from parents to children, and a garbage collector that purges
// expired soft-deleted entities and cleans up their managed cloud storage.

// DeleteAsset soft-deletes the asset named by full. Containers must be empty
// unless force is set, in which case deletion cascades to all descendants.
// Requires ownership (or MANAGE) of the asset.
func (s *Service) DeleteAsset(ctx Ctx, full string, force bool) (err error) {
	var sec ids.ID
	defer func() { s.apiAudit(ctx, "DeleteAsset", sec, false, err) }()
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return err
	}
	v, err := s.view(ctx)
	if err != nil {
		return err
	}
	defer v.Close()
	e, err := s.resolveEntity(v, ms, full)
	if err != nil {
		return err
	}
	sec = e.ID
	if err := s.checkOwner(ctx, v, e.ID, "DeleteAsset"); err != nil {
		return err
	}

	now := s.clk.Now()
	var deleted []*erm.Entity
	_, err = s.cache.UpdateT(ctx.Trace, ctx.Metastore, func(tx *store.Tx) error {
		if err := s.softDeleteTree(tx, e.ID, force, now, &deleted); err != nil {
			return err
		}
		// One event per deleted entity, all at this commit's version, so
		// the search index drops each securable.
		for _, d := range deleted {
			stageEvent(tx, ctx, events.OpDelete, d, "")
		}
		return nil
	})
	if err != nil {
		return err
	}
	if s.tokenCache != nil {
		for _, d := range deleted {
			s.tokenCache.invalidateAsset(d.ID)
		}
	}
	return nil
}

// softDeleteTree marks the entity (and, with force, its subtree) soft
// deleted inside tx, so that its name and path rows, which the store derives
// from an entity that is not soft deleted, go with that write: names and
// paths become immediately reusable while the records linger for recovery.
func (s *Service) softDeleteTree(tx *store.Tx, id ids.ID, force bool, now time.Time, out *[]*erm.Entity) error {
	e, ok := erm.GetEntity(tx, id)
	if !ok {
		return fmt.Errorf("%w: entity %s", ErrNotFound, id.Short())
	}
	if e.State == erm.StateSoftDeleted {
		return nil
	}
	children := erm.ListChildren(tx, e.ID, "")
	live := 0
	for _, c := range children {
		if c.State != erm.StateSoftDeleted {
			live++
		}
	}
	if live > 0 && !force {
		return fmt.Errorf("%w: %s has %d children", ErrNotEmpty, e.FullName, live)
	}
	for _, c := range children {
		if c.State == erm.StateSoftDeleted {
			continue
		}
		if err := s.softDeleteTree(tx, c.ID, force, now, out); err != nil {
			return err
		}
	}
	e.State = erm.StateSoftDeleted
	e.DeletedAt = &now
	e.UpdatedAt = now
	if err := erm.PutEntity(tx, e); err != nil {
		return err
	}
	// Grants on a deleted securable and its lineage edges go immediately.
	erm.DeleteOwned(tx, e.ID, false)
	*out = append(*out, e)
	return nil
}

// GCResult summarizes one garbage-collection sweep.
type GCResult struct {
	PurgedEntities int
	DeletedObjects int
}

// RunGC purges soft-deleted entities older than the retention period with
// their tags, grants, lineage edges, the ABAC rules scoped to them and — for
// managed assets — cloud storage,
// and orphaned records whose parents vanished, with theirs. A view picks the
// candidates; the transaction purges those it still finds doomed.
func (s *Service) RunGC(msID string) (GCResult, error) {
	var res GCResult
	if _, err := s.meta(msID); err != nil {
		return res, err
	}
	v, err := s.viewMS(msID)
	if err != nil {
		return res, err
	}
	cutoff := s.clk.Now().Add(-s.gcRetention)
	doomed := func(r erm.Reader, e *erm.Entity) bool {
		if e.State == erm.StateSoftDeleted && e.DeletedAt != nil && e.DeletedAt.Before(cutoff) {
			return true
		}
		// Orphan check: an entity whose parent record is gone.
		if e.ParentID == ids.Nil {
			return false
		}
		_, ok := erm.GetEntity(r, e.ParentID)
		return !ok
	}
	var candidates []ids.ID
	for _, e := range erm.DecodeEntityRows(v.ScanRange(erm.TableEntity, "", "", 0)) {
		if e != nil && doomed(v, e) {
			candidates = append(candidates, e.ID)
		}
	}
	v.Close()
	if len(candidates) == 0 {
		return res, nil
	}

	var victims []*erm.Entity
	_, err = s.cache.Update(msID, func(tx *store.Tx) error {
		purged := map[ids.ID]bool{}
		for _, id := range candidates {
			// Another node may have restored it, or its parent, since v.
			e, ok := erm.GetEntity(tx, id)
			if !ok || !doomed(tx, e) {
				continue
			}
			victims = append(victims, e)
			purged[e.ID] = true
			erm.DeleteEntity(tx, e) // and its tags, grants and edges
		}
		if len(purged) > 0 {
			deleteScopedRules(tx, purged)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	for _, e := range victims {
		res.PurgedEntities++
		if e.Managed && e.StoragePath != "" {
			res.DeletedObjects += s.cloud.ServiceDeletePrefix(e.StoragePath)
		}
	}
	return res, nil
}

// Undelete restores a soft-deleted asset by ID if its name and path are
// still free and its parent is alive.
func (s *Service) Undelete(ctx Ctx, id ids.ID) (e *erm.Entity, err error) {
	defer func() { s.apiAudit(ctx, "Undelete", id, false, err) }()
	if _, err := s.meta(ctx.Metastore); err != nil {
		return nil, err
	}
	v, err := s.view(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	cur, ok := erm.GetEntity(v, id)
	if !ok {
		return nil, fmt.Errorf("%w: entity %s", ErrNotFound, id.Short())
	}
	if err := s.checkOwner(ctx, v, cur.ParentID, "Undelete"); err != nil {
		return nil, err
	}

	now := s.clk.Now()
	var restored *erm.Entity
	_, err = s.cache.UpdateT(ctx.Trace, ctx.Metastore, func(tx *store.Tx) error {
		if restored, ok = erm.GetEntity(tx, id); !ok {
			return fmt.Errorf("%w: entity %s", ErrNotFound, id.Short())
		}
		if restored.State != erm.StateSoftDeleted {
			return fmt.Errorf("%w: entity %s is not deleted", ErrInvalidArgument, id.Short())
		}
		parent, ok := erm.GetEntity(tx, restored.ParentID)
		if !ok || parent.State == erm.StateSoftDeleted {
			return fmt.Errorf("%w: parent of %s is gone", ErrNotFound, restored.FullName)
		}
		if err := checkStoragePath(restored.StoragePath); err != nil {
			return err
		}
		if err := checkStorageFree(tx, restored); err != nil {
			return err
		}
		restored.State = erm.StateActive
		restored.DeletedAt = nil
		restored.UpdatedAt = now
		// The store refuses the commit when the name was reused.
		if err := erm.PutEntity(tx, restored); err != nil {
			return err
		}
		stageEvent(tx, ctx, events.OpCreate, restored, "undelete")
		return nil
	})
	if err != nil {
		return nil, rowTaken(err, fmt.Errorf("%w: name %s was reused", ErrAlreadyExists, cur.Name))
	}
	return restored, nil
}

// deleteScopedRules deletes, inside tx, the ABAC rules whose scope is one of
// purged, with one scan of the rules: a rule's row is keyed by its own ID, so
// erm.DeleteOwned cannot name it beside its scope's other rows.
func deleteScopedRules(tx *store.Tx, purged map[ids.ID]bool) {
	for _, rule := range abacRules(tx) {
		if purged[rule.Scope] {
			tx.Delete(erm.TableABAC, string(rule.ID))
		}
	}
}
