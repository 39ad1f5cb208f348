package catalog

import (
	"fmt"
	"strings"

	"unitycatalog/internal/erm"
	"unitycatalog/internal/events"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/jsonstr"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// Grant gives principal a privilege on the securable named by full. Only the
// securable's owner (or a MANAGE holder, or a container admin) may grant.
func (s *Service) Grant(ctx Ctx, full string, p privilege.Principal, priv privilege.Privilege) (err error) {
	var sec ids.ID
	defer func() { s.apiAudit(ctx, "Grant", sec, false, err) }()
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return err
	}
	if !privilege.ValidPrivilege(string(priv)) {
		return fmt.Errorf("%w: unknown privilege %q", ErrInvalidArgument, priv)
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
	if err := s.checkOwner(ctx, v, e.ID, "Grant"); err != nil {
		return err
	}
	if man, ok := s.reg.Manifest(e.Type); ok && len(man.GrantablePrivileges) > 0 && priv != privilege.AllPrivileges {
		allowed := false
		for _, g := range man.GrantablePrivileges {
			if g == priv {
				allowed = true
				break
			}
		}
		if !allowed {
			return fmt.Errorf("%w: %s is not grantable on %s", ErrInvalidArgument, priv, e.Type)
		}
	}
	b := grantValue(privilege.Grant{Securable: e.ID, Principal: p, Privilege: priv, GrantedBy: ctx.Principal})
	_, err = s.cache.UpdateT(ctx.Trace, ctx.Metastore, func(tx *store.Tx) error {
		if !s.liveIn(tx, e) {
			return fmt.Errorf("%w: %s", ErrNotFound, full)
		}
		tx.Put(erm.TableGrant, erm.GrantKey(e.ID, p, priv), b)
		stageEvent(tx, ctx, events.OpGrant, e, string(priv)+" to "+string(p))
		return nil
	})
	return err
}

// grantValue is a grant's stored value: json.Marshal's bytes for g, built by
// hand. The WAL holds it, so it stays byte-identical to what json.Marshal
// wrote (grants_test.go holds the two together).
func grantValue(g privilege.Grant) []byte {
	b := make([]byte, 0, len(`{"securable_id":"","principal":"","privilege":"","granted_by":""}`)+
		len(g.Securable)+len(g.Principal)+len(g.Privilege)+len(g.GrantedBy))
	b = append(b, `{"securable_id":`...)
	b = jsonstr.Append(b, string(g.Securable))
	b = append(b, `,"principal":`...)
	b = jsonstr.Append(b, string(g.Principal))
	b = append(b, `,"privilege":`...)
	b = jsonstr.Append(b, string(g.Privilege))
	if g.GrantedBy != "" {
		b = append(b, `,"granted_by":`...)
		b = jsonstr.Append(b, string(g.GrantedBy))
	}
	return append(b, '}')
}

// Revoke removes a grant. Revocation does not invalidate already-vended
// temporary credentials (they expire on their own, as in the paper), but it
// does purge the token cache so no new reuse occurs.
func (s *Service) Revoke(ctx Ctx, full string, p privilege.Principal, priv privilege.Privilege) (err error) {
	var sec ids.ID
	defer func() { s.apiAudit(ctx, "Revoke", sec, false, err) }()
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
	if err := s.checkOwner(ctx, v, e.ID, "Revoke"); err != nil {
		return err
	}
	_, err = s.cache.UpdateT(ctx.Trace, ctx.Metastore, func(tx *store.Tx) error {
		if !s.liveIn(tx, e) {
			return fmt.Errorf("%w: %s", ErrNotFound, full)
		}
		key := erm.GrantKey(e.ID, p, priv)
		if _, ok := tx.Get(erm.TableGrant, key); !ok {
			return fmt.Errorf("%w: no such grant", ErrNotFound)
		}
		tx.Delete(erm.TableGrant, key)
		stageEvent(tx, ctx, events.OpRevoke, e, string(priv)+" from "+string(p))
		return nil
	})
	if err != nil {
		return err
	}
	if s.tokenCache != nil {
		s.tokenCache.invalidateAsset(e.ID)
	}
	return nil
}

// GrantsOn lists explicit grants on the securable (owner/admin only).
func (s *Service) GrantsOn(ctx Ctx, full string) (gs []privilege.Grant, err error) {
	defer func() { s.apiAudit(ctx, "GrantsOn", ids.Nil, true, err) }()
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return nil, err
	}
	v, err := s.view(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	e, err := s.resolveEntity(v, ms, full)
	if err != nil {
		return nil, err
	}
	if err := s.checkOwner(ctx, v, e.ID, "GrantsOn"); err != nil {
		return nil, err
	}
	return viewReader{v}.GrantsOn(e.ID), nil
}

// EffectivePrivileges lists the privileges ctx.Principal holds on full,
// including inherited ones.
func (s *Service) EffectivePrivileges(ctx Ctx, full string) (ps []privilege.Privilege, err error) {
	var e *erm.Entity
	defer func() { s.apiAudit(ctx, "EffectivePrivileges", entityID(e), true, err) }()
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return nil, err
	}
	v, err := s.view(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	if e, err = s.resolveEntity(v, ms, full); err != nil {
		return nil, err
	}
	return s.authorizer(ctx, v).EffectivePrivileges(e.ID), nil
}

// --- tags ---

// SetTag sets an entity-level tag (column == "") or a column tag.
func (s *Service) SetTag(ctx Ctx, full, column, key, value string) (err error) {
	var tagged *erm.Entity
	defer func() { s.apiAudit(ctx, "SetTag", entityID(tagged), false, err) }()
	if key == "" {
		return fmt.Errorf("%w: empty tag key", ErrInvalidArgument)
	}
	if strings.IndexByte(key, 0) >= 0 || strings.IndexByte(column, 0) >= 0 {
		// A tag's key reads back by its 0 bytes (erm.TagParts).
		return fmt.Errorf("%w: a tag key or column holds a 0 byte", ErrInvalidArgument)
	}
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
	if err := s.checkOwner(ctx, v, e.ID, "SetTag"); err != nil {
		return err
	}
	tagged = e
	tagKey := erm.TagKey(e.ID, key)
	if column != "" {
		tagKey = erm.ColumnTagKey(e.ID, column, key)
	}
	_, err = s.cache.UpdateT(ctx.Trace, ctx.Metastore, func(tx *store.Tx) error {
		if !s.liveIn(tx, e) {
			return fmt.Errorf("%w: %s", ErrNotFound, full)
		}
		tx.Put(erm.TableTag, tagKey, []byte(value))
		stageEvent(tx, ctx, events.OpTag, e, key+"="+value)
		return nil
	})
	return err
}

// UnsetTag removes a tag.
func (s *Service) UnsetTag(ctx Ctx, full, column, key string) (err error) {
	var tagged *erm.Entity
	defer func() { s.apiAudit(ctx, "UnsetTag", entityID(tagged), false, err) }()
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
	if err := s.checkOwner(ctx, v, e.ID, "UnsetTag"); err != nil {
		return err
	}
	tagged = e
	tagKey := erm.TagKey(e.ID, key)
	if column != "" {
		tagKey = erm.ColumnTagKey(e.ID, column, key)
	}
	_, err = s.cache.UpdateT(ctx.Trace, ctx.Metastore, func(tx *store.Tx) error {
		if !s.liveIn(tx, e) {
			return fmt.Errorf("%w: %s", ErrNotFound, full)
		}
		if _, ok := tx.Get(erm.TableTag, tagKey); !ok {
			return fmt.Errorf("%w: tag %s", ErrNotFound, key)
		}
		tx.Delete(erm.TableTag, tagKey)
		stageEvent(tx, ctx, events.OpTag, e, "unset "+key)
		return nil
	})
	return err
}

// Tags returns entity-level tags of full (requires read access).
func (s *Service) Tags(ctx Ctx, full string) (tags map[string]string, err error) {
	var e *erm.Entity
	defer func() { s.apiAudit(ctx, "Tags", entityID(e), true, err) }()
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
	e = leaf(chain)
	if err := s.authorizeRead(ctx, v, chain); err != nil {
		return nil, err
	}
	tags, _ = EntityTags(v, e.ID)
	return tags, nil
}

// EntityTags reads tags for an entity through r, without authorization (see
// LiveEntities): entity-level and column-level maps.
func EntityTags(r erm.Reader, id ids.ID) (entity map[string]string, columns map[string]map[string]string) {
	entity = map[string]string{}
	columns = map[string]map[string]string{}
	for _, kv := range r.Scan(erm.TableTag, erm.TagPrefix(id)) {
		_, column, key, ok := erm.TagParts(kv.Key)
		switch {
		case !ok:
		case column == "":
			entity[key] = string(kv.Value)
		default:
			if columns[column] == nil {
				columns[column] = map[string]string{}
			}
			columns[column][key] = string(kv.Value)
		}
	}
	return entity, columns
}

// --- ABAC rules ---

// CreateABACRule attaches a tag-driven policy to the scope securable named
// by scopeFull ("" for the whole metastore). Requires admin on the scope.
func (s *Service) CreateABACRule(ctx Ctx, scopeFull string, rule privilege.ABACRule) (out privilege.ABACRule, err error) {
	defer func() { s.apiAudit(ctx, "CreateABACRule", out.Scope, false, err) }()
	ms, err := s.meta(ctx.Metastore)
	if err != nil {
		return rule, err
	}
	if rule.TagKey == "" {
		return rule, fmt.Errorf("%w: ABAC rule needs a tag key", ErrInvalidArgument)
	}
	switch rule.Action {
	case privilege.ABACGrant, privilege.ABACDeny:
		if rule.Privilege == "" {
			return rule, fmt.Errorf("%w: %s rule needs a privilege", ErrInvalidArgument, rule.Action)
		}
	case privilege.ABACColumnMask:
		if rule.Mask == nil {
			return rule, fmt.Errorf("%w: COLUMN_MASK rule needs a mask", ErrInvalidArgument)
		}
	case privilege.ABACRowFilter:
		if rule.Filter == nil {
			return rule, fmt.Errorf("%w: ROW_FILTER rule needs a filter", ErrInvalidArgument)
		}
	default:
		return rule, fmt.Errorf("%w: unknown ABAC action %q", ErrInvalidArgument, rule.Action)
	}
	v, err := s.view(ctx)
	if err != nil {
		return rule, err
	}
	defer v.Close()
	scope := ms.info.EntityID
	var scopeEntity *erm.Entity
	if scopeFull != "" {
		if scopeEntity, err = s.resolveEntity(v, ms, scopeFull); err != nil {
			return rule, err
		}
		scope = scopeEntity.ID
	}
	if err := s.checkOwner(ctx, v, scope, "CreateABACRule"); err != nil {
		return rule, err
	}
	rule.ID = ids.New()
	rule.Scope = scope
	b, err := encodeJSON(rule)
	if err != nil {
		return rule, err
	}
	_, err = s.cache.UpdateT(ctx.Trace, ctx.Metastore, func(tx *store.Tx) error {
		if scopeEntity != nil && !s.liveIn(tx, scopeEntity) {
			return fmt.Errorf("%w: %s", ErrNotFound, scopeFull)
		}
		tx.Put(erm.TableABAC, string(rule.ID), b)
		stageEvent(tx, ctx, events.OpUpdate, nil, "abac rule "+rule.Name)
		return nil
	})
	if err != nil {
		return rule, err
	}
	return rule, nil
}

// DeleteABACRule removes a rule by ID.
func (s *Service) DeleteABACRule(ctx Ctx, ruleID ids.ID) (err error) {
	defer func() { s.apiAudit(ctx, "DeleteABACRule", ruleID, false, err) }()
	if _, err := s.meta(ctx.Metastore); err != nil {
		return err
	}
	v, err := s.view(ctx)
	if err != nil {
		return err
	}
	defer v.Close()
	b, ok := v.Get(erm.TableABAC, string(ruleID))
	if !ok {
		return fmt.Errorf("%w: abac rule %s", ErrNotFound, ruleID.Short())
	}
	var rule privilege.ABACRule
	if err := decodeJSON(b, &rule); err != nil {
		return err
	}
	if err := s.checkOwner(ctx, v, rule.Scope, "DeleteABACRule"); err != nil {
		return err
	}
	_, err = s.cache.UpdateT(ctx.Trace, ctx.Metastore, func(tx *store.Tx) error {
		if _, ok := tx.Get(erm.TableABAC, string(ruleID)); !ok {
			return fmt.Errorf("%w: abac rule %s", ErrNotFound, ruleID.Short())
		}
		tx.Delete(erm.TableABAC, string(ruleID))
		return nil
	})
	return err
}

// ABACRules lists all rules in the metastore.
func (s *Service) ABACRules(ctx Ctx) (rules []privilege.ABACRule, err error) {
	defer func() { s.apiAudit(ctx, "ABACRules", ids.Nil, true, err) }()
	v, err := s.view(ctx)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	return abacRules(v), nil
}

func abacRules(r erm.Reader) []privilege.ABACRule {
	kvs := r.ScanRange(erm.TableABAC, "", "", 0)
	out := make([]privilege.ABACRule, 0, len(kvs))
	for _, kv := range kvs {
		var rule privilege.ABACRule
		if err := decodeJSON(kv.Value, &rule); err == nil {
			out = append(out, rule)
		}
	}
	return out
}

// scopeChain returns the IDs of id and its ancestors up to the metastore.
func scopeChain(r erm.Reader, id ids.ID) []ids.ID {
	var chain []ids.ID
	cur := id
	for cur != ids.Nil {
		chain = append(chain, cur)
		e, ok := erm.GetEntity(r, cur)
		if !ok {
			break
		}
		cur = e.ParentID
	}
	return chain
}

// lazyABAC is the ABAC rules of one request's reader, read when a decision
// first needs them and kept for the rest of the request: a listing, a batch,
// a lineage walk or a resolve asks for every candidate it decides, and reads
// the table at most once. The zero value has read nothing.
type lazyABAC struct {
	rules []privilege.ABACRule
	read  bool
}

func (a *lazyABAC) get(r erm.Reader) []privilege.ABACRule {
	if !a.read {
		a.rules, a.read = abacRules(r), true
	}
	return a.rules
}

// abacGrants reports whether an ABAC GRANT rule dynamically confers priv on
// securable id to ctx.Principal (and no DENY rule blocks it). abac holds r's
// rules.
func (s *Service) abacGrants(ctx Ctx, r erm.Reader, abac *lazyABAC, priv privilege.Privilege, id ids.ID) bool {
	rules := abac.get(r)
	if len(rules) == 0 {
		return false
	}
	tags, colTags := EntityTags(r, id)
	// Merge column tags into the match set (a rule matching any tagged
	// column of the asset applies at the asset level for grants).
	merged := map[string]string{}
	for k, v := range tags {
		merged[k] = v
	}
	for _, ct := range colTags {
		for k, v := range ct {
			if _, ok := merged[k]; !ok {
				merged[k] = v
			}
		}
	}
	chain := map[ids.ID]bool{}
	for _, a := range scopeChain(r, id) {
		chain[a] = true
	}
	groups := s.groups.GroupsOf(ctx.Principal)
	granted, denied := false, false
	for _, rule := range rules {
		if !chain[rule.Scope] || !rule.AppliesTo(ctx.Principal, groups) || !rule.MatchesTags(merged) {
			continue
		}
		switch rule.Action {
		case privilege.ABACGrant:
			if rule.Privilege == priv || rule.Privilege == privilege.AllPrivileges {
				granted = true
			}
		case privilege.ABACDeny:
			if rule.Privilege == priv || rule.Privilege == privilege.AllPrivileges {
				denied = true
			}
		}
	}
	return granted && !denied
}

// abacFGAC collects ABAC-driven row filters and column masks applying to a
// table for a principal, based on the table's and its columns' tags. abac
// holds r's rules. Rules or tags r could not read are the backend's error,
// not an empty policy: a policy with a filter or a mask left out would hand
// an engine rows or raw storage the rules withhold.
func (s *Service) abacFGAC(ctx Ctx, r erm.Reader, abac *lazyABAC, e *erm.Entity) (privilege.FGACPolicy, error) {
	rules := abac.get(r)
	if len(rules) == 0 {
		return privilege.FGACPolicy{}, backendErr(r)
	}
	tags, colTags := EntityTags(r, e.ID)
	if err := backendErr(r); err != nil {
		return privilege.FGACPolicy{}, err
	}
	chain := map[ids.ID]bool{}
	for _, a := range scopeChain(r, e.ID) {
		chain[a] = true
	}
	groups := s.groups.GroupsOf(ctx.Principal)
	var out privilege.FGACPolicy
	for _, rule := range rules {
		if !chain[rule.Scope] || !rule.AppliesTo(ctx.Principal, groups) {
			continue
		}
		switch rule.Action {
		case privilege.ABACRowFilter:
			if rule.MatchesTags(tags) && rule.Filter != nil {
				out.RowFilters = append(out.RowFilters, *rule.Filter)
			}
		case privilege.ABACColumnMask:
			if rule.Mask == nil {
				continue
			}
			for col, ct := range colTags {
				if rule.MatchesTags(ct) {
					m := *rule.Mask
					m.Column = col
					out.ColumnMasks = append(out.ColumnMasks, m)
				}
			}
		}
	}
	return out, nil
}
