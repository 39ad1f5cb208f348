package privilege

import (
	"fmt"
	"sync"

	"unitycatalog/internal/ids"
)

// This file implements the compiled authorization fast path. The reference
// Engine re-walks the ancestor chain once for the checked privilege and once
// per container gate — O(depth²) hierarchy lookups per decision, each with a
// linear grant scan and a fresh group expansion. A Snapshot compiles the
// same rules once per (metadata version, principal): the group closure is
// expanded once, and per-securable effective privilege sets and
// container-gate verdicts are memoized, so every sibling under one schema
// shares a single ancestor evaluation and a decision becomes one map lookup
// plus one bitset AND.
//
// Semantics are exactly the reference engine's (ownership, MANAGE
// implication, usage gating, broken-hierarchy denials) — the differential
// property test in property_test.go holds the two engines equal on every
// (principal, privilege, securable) triple over randomized worlds. The one
// documented divergence: grants carrying an *invalid* privilege name (which
// the catalog layer never persists) are ignored here but matched literally
// by the reference engine.

// Authorizer is the per-principal decision interface shared by the compiled
// fast path and the reference engine (via Engine.For). The catalog layer
// programs against this so the naive engine remains a drop-in oracle.
type Authorizer interface {
	// Check decides priv on id with container usage gating.
	Check(priv Privilege, id ids.ID) Decision
	// CheckNoGate decides priv on id without container gating.
	CheckNoGate(priv Privilege, id ids.ID) Decision
	// CheckMany batch-evaluates Check over ids, one decision per id.
	CheckMany(priv Privilege, secIDs []ids.ID) []Decision
	// IsOwner reports ownership-or-MANAGE administrative rights over id.
	IsOwner(id ids.ID) bool
	// EffectivePrivileges lists privileges held on id, inherited included.
	EffectivePrivileges(id ids.ID) []Privilege
	// EffectiveSet returns the expanded (check-semantics) privilege set on
	// id including the admin pseudo-bit, and whether the securable exists.
	// List filtering intersects this with a per-type visibility mask.
	EffectiveSet(id ids.ID) (PrivSet, bool)
}

// Snapshot is the compiled per-principal authorization state, valid for one
// version of the securable hierarchy and grant set. It is safe for
// concurrent use and is designed to be cached across requests (see
// SnapshotCache); bind it to the current request's readers with Bind.
type Snapshot struct {
	principal Principal
	who       map[Principal]struct{} // principal + transitive group closure

	mu    sync.Mutex
	secs  map[ids.ID]secMemo
	effs  map[ids.ID]effMemo
	gates map[ids.ID]gateMemo
}

type secMemo struct {
	sec Securable
	ok  bool
}

// effMemo carries both privilege encodings for a securable: check has the
// implication rules expanded (plus the admin bit), report is the literal
// grant listing for EffectivePrivileges.
type effMemo struct {
	check  PrivSet
	report PrivSet
}

type gateMemo struct {
	allowed bool
	reason  string
}

// NewSnapshot compiles the principal's group closure once. The groups
// resolver is consulted only here; decisions later never re-expand groups.
func NewSnapshot(p Principal, groups GroupResolver) *Snapshot {
	if groups == nil {
		groups = NoGroups{}
	}
	gs := groups.GroupsOf(p)
	who := make(map[Principal]struct{}, len(gs)+1)
	who[p] = struct{}{}
	for _, g := range gs {
		who[g] = struct{}{}
	}
	return &Snapshot{
		principal: p,
		who:       who,
		secs:      map[ids.ID]secMemo{},
		effs:      map[ids.ID]effMemo{},
		gates:     map[ids.ID]gateMemo{},
	}
}

// Principal returns the principal the snapshot was compiled for.
func (s *Snapshot) Principal() Principal { return s.principal }

// Bind attaches the snapshot to a request's hierarchy and grant readers,
// returning the compiled engine. Memoized state persists across binds; the
// readers are only consulted for securables not yet compiled, so they must
// present the same metadata version the snapshot was keyed by.
func (s *Snapshot) Bind(h HierarchyResolver, g Store) *Compiled {
	return &Compiled{h: h, g: g, snap: s}
}

// NewCompiled builds a compiled engine with a fresh single-use snapshot.
func NewCompiled(h HierarchyResolver, g Store, groups GroupResolver, p Principal) *Compiled {
	return NewSnapshot(p, groups).Bind(h, g)
}

// Compiled is a Snapshot bound to concrete readers for one request.
type Compiled struct {
	h    HierarchyResolver
	g    Store
	snap *Snapshot
}

var _ Authorizer = (*Compiled)(nil)

// securable resolves and memoizes one securable. Caller holds snap.mu.
func (c *Compiled) securable(id ids.ID) (Securable, bool) {
	if m, ok := c.snap.secs[id]; ok {
		return m.sec, m.ok
	}
	sec, ok := c.h.Securable(id)
	c.snap.secs[id] = secMemo{sec: sec, ok: ok}
	return sec, ok
}

// direct compiles the securable's own grants and ownership into privilege
// sets. Caller holds snap.mu.
func (c *Compiled) direct(sec Securable) effMemo {
	var m effMemo
	if _, mine := c.snap.who[sec.Owner]; mine {
		ch, rep := ownerSets()
		m.check |= ch
		m.report |= rep
	}
	for _, g := range c.g.GrantsOn(sec.ID) {
		if _, mine := c.snap.who[g.Principal]; !mine {
			continue
		}
		ch, rep := grantSets(g.Privilege)
		m.check |= ch
		m.report |= rep
	}
	return m
}

// effective returns the memoized inherited privilege sets for id: the
// securable's direct sets unioned with its parent's effective sets, in one
// O(depth) walk shared by every descendant. A missing ancestor truncates
// inheritance exactly like the reference engine's holdsInherited. Caller
// holds snap.mu.
func (c *Compiled) effective(id ids.ID) (effMemo, bool) {
	sec, ok := c.securable(id)
	if !ok {
		return effMemo{}, false
	}
	if m, done := c.snap.effs[id]; done {
		return m, true
	}
	m := c.direct(sec)
	if sec.Parent != ids.Nil {
		if pm, pok := c.effective(sec.Parent); pok {
			m.check |= pm.check
			m.report |= pm.report
		}
	}
	c.snap.effs[id] = m
	return m, true
}

// gate returns the memoized container-gate verdict for the securable's
// ancestor chain: every enclosing CATALOG/SCHEMA must yield its usage
// privilege. Verdicts are shared by all securables under the same parent.
// Caller holds snap.mu.
func (c *Compiled) gate(sec Securable) gateMemo {
	if m, ok := c.snap.gates[sec.ID]; ok {
		return m
	}
	var m gateMemo
	switch {
	case sec.Parent == ids.Nil:
		m = gateMemo{allowed: true}
	default:
		parent, ok := c.securable(sec.Parent)
		if !ok {
			m = gateMemo{allowed: false, reason: "broken hierarchy"}
			break
		}
		if usage, gated := usageFor[parent.Type]; gated {
			pm, _ := c.effective(parent.ID)
			if !pm.check.Has(usage) {
				m = gateMemo{allowed: false, reason: fmt.Sprintf("missing %s on %s", usage, parent.ID.Short())}
				break
			}
		}
		m = c.gate(parent)
	}
	c.snap.gates[sec.ID] = m
	return m
}

// Check implements Authorizer with one memoized ancestor walk.
func (c *Compiled) Check(priv Privilege, id ids.ID) Decision {
	c.snap.mu.Lock()
	defer c.snap.mu.Unlock()
	return c.checkLocked(priv, id)
}

func (c *Compiled) checkLocked(priv Privilege, id ids.ID) Decision {
	d := Decision{Principal: c.snap.principal, Privilege: priv, Securable: id}
	sec, ok := c.securable(id)
	if !ok {
		d.Reason = "securable not found"
		return d
	}
	m, _ := c.effective(id)
	if !m.check.Has(priv) {
		d.Reason = fmt.Sprintf("missing %s", priv)
		return d
	}
	if g := c.gate(sec); !g.allowed {
		d.Reason = g.reason
		return d
	}
	d.Allowed = true
	d.Reason = "ok"
	return d
}

// CheckNoGate implements Authorizer.
func (c *Compiled) CheckNoGate(priv Privilege, id ids.ID) Decision {
	c.snap.mu.Lock()
	defer c.snap.mu.Unlock()
	d := Decision{Principal: c.snap.principal, Privilege: priv, Securable: id}
	if _, ok := c.securable(id); !ok {
		d.Reason = "securable not found"
		return d
	}
	m, _ := c.effective(id)
	if m.check.Has(priv) {
		d.Allowed = true
		d.Reason = "ok"
	} else {
		d.Reason = fmt.Sprintf("missing %s", priv)
	}
	return d
}

// CheckMany implements Authorizer: the whole batch shares one lock
// acquisition and every memoized ancestor evaluation.
func (c *Compiled) CheckMany(priv Privilege, secIDs []ids.ID) []Decision {
	c.snap.mu.Lock()
	defer c.snap.mu.Unlock()
	out := make([]Decision, len(secIDs))
	for i, id := range secIDs {
		out[i] = c.checkLocked(priv, id)
	}
	return out
}

// IsOwner implements Authorizer.
func (c *Compiled) IsOwner(id ids.ID) bool {
	c.snap.mu.Lock()
	defer c.snap.mu.Unlock()
	m, ok := c.effective(id)
	return ok && m.check.HasAdmin()
}

// EffectivePrivileges implements Authorizer.
func (c *Compiled) EffectivePrivileges(id ids.ID) []Privilege {
	c.snap.mu.Lock()
	defer c.snap.mu.Unlock()
	m, ok := c.effective(id)
	if !ok {
		return nil
	}
	return m.report.Privileges()
}

// EffectiveSet implements Authorizer.
func (c *Compiled) EffectiveSet(id ids.ID) (PrivSet, bool) {
	c.snap.mu.Lock()
	defer c.snap.mu.Unlock()
	m, ok := c.effective(id)
	return m.check, ok
}

// --- reference-engine bridge ---

// For adapts the reference engine to the Authorizer interface for one
// principal. It is the oracle the compiled path is verified against, here
// (property_test.go) and at the service level (catalog's authz_test.go).
func (e *Engine) For(p Principal) Authorizer { return naiveAuthorizer{e: e, p: p} }

type naiveAuthorizer struct {
	e *Engine
	p Principal
}

func (n naiveAuthorizer) Check(priv Privilege, id ids.ID) Decision {
	return n.e.Check(n.p, priv, id)
}

func (n naiveAuthorizer) CheckNoGate(priv Privilege, id ids.ID) Decision {
	return n.e.CheckNoGate(n.p, priv, id)
}

func (n naiveAuthorizer) CheckMany(priv Privilege, secIDs []ids.ID) []Decision {
	out := make([]Decision, len(secIDs))
	for i, id := range secIDs {
		out[i] = n.e.Check(n.p, priv, id)
	}
	return out
}

func (n naiveAuthorizer) IsOwner(id ids.ID) bool { return n.e.IsOwner(n.p, id) }

func (n naiveAuthorizer) EffectivePrivileges(id ids.ID) []Privilege {
	return n.e.EffectivePrivileges(n.p, id)
}

func (n naiveAuthorizer) EffectiveSet(id ids.ID) (PrivSet, bool) {
	if _, ok := n.e.Hierarchy.Securable(id); !ok {
		return 0, false
	}
	var set PrivSet
	for _, priv := range n.e.EffectivePrivileges(n.p, id) {
		// The listing reports ALL PRIVILEGES for owners and MANAGE holders;
		// expanding it (and MANAGE itself) reconstructs check semantics.
		if priv == AllPrivileges || priv == Manage {
			set |= allPrivsMask
		} else {
			set |= bitOf(priv)
		}
	}
	if n.e.IsOwner(n.p, id) {
		set |= adminBit
	}
	return set, true
}
