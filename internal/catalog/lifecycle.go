package catalog

import (
	"fmt"
	"strings"
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
	ms.writeMu.Lock()
	defer ms.writeMu.Unlock()
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
		deleted = deleted[:0]
		if err := s.softDeleteTree(tx, e.ID, force, now, &deleted); err != nil {
			return err
		}
		// One event per deleted entity, all at this commit's version, so
		// second-tier consumers (search, lineage) de-index each securable.
		for _, d := range deleted {
			stageEvent(tx, ctx, events.OpDelete, d, "")
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, d := range deleted {
		if d.StoragePath != "" {
			ms.trie.Remove(d.StoragePath)
		}
		if s.tokenCache != nil {
			s.tokenCache.invalidateAsset(d.ID)
		}
	}
	return nil
}

// softDeleteTree marks the entity (and, with force, its subtree) soft
// deleted inside tx, removing name and path indexes so names and paths
// become immediately reusable while the records linger for recovery.
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
	group := groupFor(s.reg, e.Type)
	upd := e.Clone()
	upd.State = erm.StateSoftDeleted
	t := now
	upd.DeletedAt = &t
	upd.UpdatedAt = now
	if err := erm.UpdateEntity(tx, upd); err != nil {
		return err
	}
	// Free the name and path for reuse; keep the child index so GC can
	// find the record via its parent.
	tx.Delete(erm.TableName, erm.NameKey(group, e.ParentID, e.Name))
	if e.StoragePath != "" {
		if e.Type == erm.TypeExternalLocation {
			tx.Delete(erm.TableExtLoc, e.StoragePath)
		} else {
			tx.Delete(erm.TablePath, e.StoragePath)
		}
	}
	// Grants on a deleted securable are purged immediately.
	for _, kv := range tx.Scan(erm.TableGrant, erm.GrantPrefix(e.ID)) {
		tx.Delete(erm.TableGrant, kv.Key)
	}
	*out = append(*out, upd)
	return nil
}

// GCResult summarizes one garbage-collection sweep.
type GCResult struct {
	PurgedEntities int
	DeletedObjects int
}

// RunGC purges soft-deleted entities older than the retention period,
// removing their records, tags, and — for managed assets — their cloud
// storage. It also removes orphaned records whose parents vanished.
func (s *Service) RunGC(msID string) (GCResult, error) {
	var res GCResult
	ms, err := s.meta(msID)
	if err != nil {
		return res, err
	}
	ms.writeMu.Lock()
	defer ms.writeMu.Unlock()

	v, err := s.viewMS(msID)
	if err != nil {
		return res, err
	}
	cutoff := s.clk.Now().Add(-s.gcRetention)
	type victim struct {
		e *erm.Entity
	}
	var victims []victim
	for _, e := range erm.DecodeEntityRows(v.Scan(erm.TableEntity, "")) {
		if e == nil {
			continue
		}
		if e.State == erm.StateSoftDeleted && e.DeletedAt != nil && e.DeletedAt.Before(cutoff) {
			victims = append(victims, victim{e: e})
			continue
		}
		// Orphan check: a live entity whose parent record is gone.
		if e.ParentID != ids.Nil {
			if _, ok := erm.GetEntity(v, e.ParentID); !ok {
				victims = append(victims, victim{e: e})
			}
		}
	}
	v.Close()
	if len(victims) == 0 {
		return res, nil
	}

	_, err = s.cache.Update(msID, func(tx *store.Tx) error {
		for _, vic := range victims {
			e := vic.e
			group := groupFor(s.reg, e.Type)
			erm.DeleteEntity(tx, e, group)
			for _, kv := range tx.Scan(erm.TableTag, erm.TagPrefix(e.ID)) {
				tx.Delete(erm.TableTag, kv.Key)
				// Mirror the delete into the inverted index, whose keys
				// lead with the tag key rather than the securable.
				rest := strings.TrimPrefix(kv.Key, string(e.ID)+"\x00")
				column := ""
				if col, ok := strings.CutPrefix(rest, "col\x00"); ok {
					colName, tagKey, found := strings.Cut(col, "\x00")
					if !found {
						continue
					}
					column, rest = colName, tagKey
				}
				tx.Delete(erm.TableTagIdx, erm.TagIdxKey(rest, e.ID, column))
			}
			for _, kv := range tx.Scan(erm.TableGrant, erm.GrantPrefix(e.ID)) {
				tx.Delete(erm.TableGrant, kv.Key)
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	for _, vic := range victims {
		res.PurgedEntities++
		if vic.e.Managed && vic.e.StoragePath != "" {
			res.DeletedObjects += s.cloud.ServiceDeletePrefix(vic.e.StoragePath)
		}
	}
	return res, nil
}

// Undelete restores a soft-deleted asset by ID if its name and path are
// still free and its parent is alive.
func (s *Service) Undelete(ctx Ctx, id ids.ID) (e *erm.Entity, err error) {
	defer func() { s.apiAudit(ctx, "Undelete", id, false, err) }()
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
	cur, ok := erm.GetEntity(v, id)
	v.Close()
	if !ok {
		return nil, fmt.Errorf("%w: entity %s", ErrNotFound, id.Short())
	}
	if cur.State != erm.StateSoftDeleted {
		return nil, fmt.Errorf("%w: entity %s is not deleted", ErrInvalidArgument, id.Short())
	}
	vv, err := s.view(ctx)
	if err != nil {
		return nil, err
	}
	err = s.checkOwner(ctx, vv, cur.ParentID, "Undelete")
	vv.Close()
	if err != nil {
		return nil, err
	}

	group := groupFor(s.reg, cur.Type)
	restored := cur.Clone()
	restored.State = erm.StateActive
	restored.DeletedAt = nil
	restored.UpdatedAt = s.clk.Now()
	_, err = s.cache.UpdateT(ctx.Trace, ctx.Metastore, func(tx *store.Tx) error {
		parent, ok := erm.GetEntity(tx, cur.ParentID)
		if !ok || parent.State == erm.StateSoftDeleted {
			return fmt.Errorf("%w: parent of %s is gone", ErrNotFound, cur.FullName)
		}
		if _, taken := tx.Get(erm.TableName, erm.NameKey(group, cur.ParentID, cur.Name)); taken {
			return fmt.Errorf("%w: name %s was reused", ErrAlreadyExists, cur.Name)
		}
		if cur.StoragePath != "" {
			if cur.Type == erm.TypeExternalLocation {
				if err := checkExtLocFree(tx, cur.StoragePath); err != nil {
					return err
				}
			} else if err := checkPathFree(tx, cur.StoragePath); err != nil {
				return err
			}
		}
		if err := erm.PutEntity(tx, restored, group); err != nil {
			return err
		}
		stageEvent(tx, ctx, events.OpCreate, restored, "undelete")
		return nil
	})
	if err != nil {
		return nil, err
	}
	if restored.StoragePath != "" && restored.Type != erm.TypeExternalLocation {
		_ = ms.trie.Insert(strings.Clone(restored.StoragePath), restored.ID) // the trie outlives cur
	}
	return restored, nil
}
