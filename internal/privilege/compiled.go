package privilege

import (
	"fmt"
	"strings"
	"sync"

	"unitycatalog/internal/ids"
)

// This file implements the compiled authorization fast path. The reference
// Engine re-walks the ancestor chain once for the checked privilege and once
// per container gate — O(depth²) hierarchy lookups per decision, each with a
// linear grant scan and a fresh group expansion. A Snapshot compiles the
// same rules once per principal: the group closure is expanded once, and
// per-securable effective privilege sets and container-gate verdicts are
// memoized, so every sibling under one schema shares a single ancestor
// evaluation and a decision becomes one map lookup plus one bitset AND.
//
// The memo describes one version of the hierarchy and grant set at a time.
// It follows the change log from version to version (advance): a commit
// costs it the entries of the securables the commit wrote, not the memo.
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
	// EffectiveSetOf is EffectiveSet(sec.ID) for a caller that has sec in
	// hand, read at the version the engine's hierarchy presents — a listing
	// filtering the page it has just decoded. The engine takes the caller's
	// word for it, so evaluating a securable it has not seen costs no second
	// read of its row.
	EffectiveSetOf(sec Securable) (PrivSet, bool)
}

// Snapshot is the compiled per-principal authorization state: the group
// closure, fixed at compilation, and a memo of evaluated securables that
// describes the hierarchy and grant set at one version. It is safe for
// concurrent use and is designed to be cached across requests and versions
// (see SnapshotCache); bind it to a request's readers with Bind.
type Snapshot struct {
	principal Principal
	who       map[Principal]struct{} // principal + transitive group closure

	mu      sync.Mutex
	version uint64 // the version memo describes; only ever grows
	memo    memo
}

// memo is what a snapshot has evaluated so far. Every entry was computed
// from readers pinned at the owning snapshot's version.
type memo struct {
	secs  map[ids.ID]secMemo
	effs  map[ids.ID]effMemo
	gates map[ids.ID]gateMemo
	// parents holds every id a memoized securable names as its parent.
	// The effs and gates of a securable fold in those of its ancestors, so
	// a change to an id in this set reaches entries filed under other ids.
	parents map[ids.ID]struct{}
}

func newMemo() memo {
	return memo{
		secs:    map[ids.ID]secMemo{},
		effs:    map[ids.ID]effMemo{},
		gates:   map[ids.ID]gateMemo{},
		parents: map[ids.ID]struct{}{},
	}
}

func (m *memo) size() int { return len(m.secs) + len(m.effs) + len(m.gates) }

// remember files sec, found by a hierarchy read or handed in by a caller, and
// returns it as filed. The memo outlives the request that read sec, whose
// Parent may be a substring of a whole page's backing string (erm's ownership
// rule), so the memo keeps a string of its own: the ID the parent itself is
// filed under where there is one — every sibling after the first — and a copy
// otherwise. ID is the caller's lookup key and Type and Owner are interned;
// they pin nothing.
func (m *memo) remember(sec Securable) Securable {
	if sec.Parent != ids.Nil {
		if p, ok := m.secs[sec.Parent]; ok && p.ok {
			sec.Parent = p.sec.ID
		} else {
			sec.Parent = ids.ID(strings.Clone(string(sec.Parent)))
		}
		m.parents[sec.Parent] = struct{}{}
	}
	m.secs[sec.ID] = secMemo{sec: sec, ok: true}
	return sec
}

// Drop forgets what the memo holds about id, a securable whose row or direct
// grants were written. It reports false when a memoized securable inherits
// from id: no set of keys short of the whole memo covers that change, and
// the caller must discard it.
func (m *memo) Drop(id ids.ID) bool {
	if _, inherited := m.parents[id]; inherited {
		return false
	}
	delete(m.secs, id)
	delete(m.effs, id)
	delete(m.gates, id)
	return true
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

// NewSnapshot compiles the principal's group closure once, with an empty
// memo at version 0. The groups resolver is consulted only here; decisions
// later never re-expand groups.
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
	return &Snapshot{principal: p, who: who, memo: newMemo()}
}

// Principal returns the principal the snapshot was compiled for.
func (s *Snapshot) Principal() Principal { return s.principal }

// Touched hands m each securable whose own row or direct grants scope's
// commits in (from, to] wrote, repeats allowed, until m.Drop returns false.
// It reports whether m dropped them all: false when one did not drop or when
// the change log no longer covers the range.
type Touched func(scope string, from, to uint64, m Dropper) bool

// Dropper is what Touched hands the securables it finds to: a snapshot's
// memo, which forgets each one it is handed.
type Dropper interface {
	Drop(id ids.ID) bool
}

// advanced says what advance did to the snapshot's memo.
type advanced int

const (
	advancedCurrent   advanced = iota // already described the version
	advancedPatched                   // followed the change log to it
	advancedDiscarded                 // moved to it with the memo dropped whole
	advancedAhead                     // describes a later version; untouched
)

// advance moves the snapshot forward to version to, keeping every memo
// entry the commits in between did not write, and returns what it did and
// how many entries it dropped. The memo is dropped whole when there is no
// log to follow (touched nil, or the log trimmed), when a container some
// entry inherits from was written, and when more commits separate the two
// versions than the memo has entries: patching costs O(commits), starting
// over at most O(entries).
func (s *Snapshot) advance(scope string, to uint64, touched Touched) (advanced, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.version == to:
		return advancedCurrent, 0
	case s.version > to:
		return advancedAhead, 0
	}
	from, size := s.version, s.memo.size()
	s.version = to
	if size == 0 {
		return advancedPatched, 0
	}
	if touched != nil && to-from <= uint64(size) {
		// The log is read under s.mu, as the hierarchy and grant readers
		// are: the lock is this principal's alone.
		if touched(scope, from, to, &s.memo) {
			return advancedPatched, size - s.memo.size()
		}
	}
	s.memo = newMemo()
	return advancedDiscarded, size
}

// Bind attaches the snapshot to a request's hierarchy and grant readers,
// which present the hierarchy and grants at version, and returns the
// compiled engine by value, so a caller can hold it inside the object that
// is also its readers and bind a request in one allocation. The engine reads
// and extends the snapshot's memo for as long as the snapshot describes that
// same version; from the moment it describes another, the engine evaluates
// on a memo of its own, so no entry computed at one version is ever read at
// another.
func (s *Snapshot) Bind(version uint64, h HierarchyResolver, g GrantScanner) Compiled {
	return Compiled{h: h, g: g, snap: s, version: version}
}

// NewCompiled builds a compiled engine with a fresh single-use snapshot.
func NewCompiled(h HierarchyResolver, g GrantScanner, groups GroupResolver, p Principal) *Compiled {
	c := NewSnapshot(p, groups).Bind(0, h, g)
	return &c
}

// GrantScanner is the compiled engine's grant reader. ScanGrants passes each
// grant on a securable to visit as its principal and privilege, which visit
// must not keep: a reader may hand out substrings of its own storage, and
// builds no Grant and no slice.
type GrantScanner interface {
	ScanGrants(id ids.ID, visit GrantVisitor)
}

// GrantVisitor receives the grants a GrantScanner reads.
type GrantVisitor interface {
	VisitGrant(p Principal, priv Privilege)
}

// Compiled is a Snapshot bound to concrete readers for one request.
type Compiled struct {
	h       HierarchyResolver
	g       GrantScanner
	snap    *Snapshot
	version uint64    // what h and g are pinned at
	own     *memo     // used once snap has left version; guarded by snap.mu
	fold    grantFold // direct's accumulator, inside the engine so that visiting allocates nothing; guarded by snap.mu
}

// grantFold folds the grants held by a principal in who into privilege sets.
type grantFold struct {
	who map[Principal]struct{}
	m   effMemo
}

// VisitGrant implements GrantVisitor.
func (f *grantFold) VisitGrant(p Principal, priv Privilege) {
	if _, mine := f.who[p]; mine {
		ch, rep := grantSets(priv)
		f.m.check |= ch
		f.m.report |= rep
	}
}

var _ Authorizer = (*Compiled)(nil)

// lock takes the snapshot's lock and returns the memo the engine may read
// and write: the snapshot's while it describes the readers' version, the
// engine's own otherwise (a request pinned to an old view, or one that
// raced an advance). Snapshot versions only grow, so an engine that has
// left the shared memo never returns to it.
func (c *Compiled) lock() *memo {
	c.snap.mu.Lock()
	if c.snap.version == c.version {
		return &c.snap.memo
	}
	if c.own == nil {
		m := newMemo()
		c.own = &m
	}
	return c.own
}

// securable resolves and memoizes one securable. Caller holds snap.mu.
func (c *Compiled) securable(m *memo, id ids.ID) (Securable, bool) {
	if sm, ok := m.secs[id]; ok {
		return sm.sec, sm.ok
	}
	sec, ok := c.h.Securable(id)
	if !ok {
		m.secs[id] = secMemo{}
		return sec, false
	}
	return m.remember(sec), true
}

// direct compiles the securable's own grants and ownership into privilege
// sets.
func (c *Compiled) direct(sec Securable) effMemo {
	f := &c.fold
	f.who, f.m = c.snap.who, effMemo{}
	if _, mine := f.who[sec.Owner]; mine {
		f.m.check, f.m.report = ownerSets()
	}
	c.g.ScanGrants(sec.ID, f)
	return f.m
}

// effective returns the memoized inherited privilege sets for id: the
// securable's direct sets unioned with its parent's effective sets, in one
// O(depth) walk shared by every descendant. A missing ancestor truncates
// inheritance exactly like the reference engine's holdsInherited. Caller
// holds snap.mu.
func (c *Compiled) effective(m *memo, id ids.ID) (effMemo, bool) {
	sec, ok := c.securable(m, id)
	if !ok {
		return effMemo{}, false
	}
	if em, done := m.effs[id]; done {
		return em, true
	}
	em := c.direct(sec)
	if sec.Parent != ids.Nil {
		if pm, pok := c.effective(m, sec.Parent); pok {
			em.check |= pm.check
			em.report |= pm.report
		}
	}
	m.effs[id] = em
	return em, true
}

// gate returns the memoized container-gate verdict for the securable's
// ancestor chain: every enclosing CATALOG/SCHEMA must yield its usage
// privilege. Verdicts are shared by all securables under the same parent.
// Caller holds snap.mu.
func (c *Compiled) gate(m *memo, sec Securable) gateMemo {
	if gm, ok := m.gates[sec.ID]; ok {
		return gm
	}
	var gm gateMemo
	switch {
	case sec.Parent == ids.Nil:
		gm = gateMemo{allowed: true}
	default:
		parent, ok := c.securable(m, sec.Parent)
		if !ok {
			gm = gateMemo{allowed: false, reason: "broken hierarchy"}
			break
		}
		if usage, gated := usageFor[parent.Type]; gated {
			pm, _ := c.effective(m, parent.ID)
			if !pm.check.Has(usage) {
				gm = gateMemo{allowed: false, reason: fmt.Sprintf("missing %s on %s", usage, parent.ID.Short())}
				break
			}
		}
		gm = c.gate(m, parent)
	}
	m.gates[sec.ID] = gm
	return gm
}

// Check implements Authorizer with one memoized ancestor walk.
func (c *Compiled) Check(priv Privilege, id ids.ID) Decision {
	m := c.lock()
	defer c.snap.mu.Unlock()
	return c.check(m, priv, id)
}

func (c *Compiled) check(m *memo, priv Privilege, id ids.ID) Decision {
	d := Decision{Principal: c.snap.principal, Privilege: priv, Securable: id}
	sec, ok := c.securable(m, id)
	if !ok {
		d.Reason = "securable not found"
		return d
	}
	em, _ := c.effective(m, id)
	if !em.check.Has(priv) {
		d.Reason = fmt.Sprintf("missing %s", priv)
		return d
	}
	if g := c.gate(m, sec); !g.allowed {
		d.Reason = g.reason
		return d
	}
	d.Allowed = true
	d.Reason = "ok"
	return d
}

// CheckNoGate implements Authorizer.
func (c *Compiled) CheckNoGate(priv Privilege, id ids.ID) Decision {
	m := c.lock()
	defer c.snap.mu.Unlock()
	d := Decision{Principal: c.snap.principal, Privilege: priv, Securable: id}
	if _, ok := c.securable(m, id); !ok {
		d.Reason = "securable not found"
		return d
	}
	em, _ := c.effective(m, id)
	if em.check.Has(priv) {
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
	m := c.lock()
	defer c.snap.mu.Unlock()
	out := make([]Decision, len(secIDs))
	for i, id := range secIDs {
		out[i] = c.check(m, priv, id)
	}
	return out
}

// IsOwner implements Authorizer.
func (c *Compiled) IsOwner(id ids.ID) bool {
	m := c.lock()
	defer c.snap.mu.Unlock()
	em, ok := c.effective(m, id)
	return ok && em.check.HasAdmin()
}

// EffectivePrivileges implements Authorizer.
func (c *Compiled) EffectivePrivileges(id ids.ID) []Privilege {
	m := c.lock()
	defer c.snap.mu.Unlock()
	em, ok := c.effective(m, id)
	if !ok {
		return nil
	}
	return em.report.Privileges()
}

// EffectiveSet implements Authorizer.
func (c *Compiled) EffectiveSet(id ids.ID) (PrivSet, bool) {
	m := c.lock()
	defer c.snap.mu.Unlock()
	em, ok := c.effective(m, id)
	return em.check, ok
}

// EffectiveSetOf implements Authorizer.
func (c *Compiled) EffectiveSetOf(sec Securable) (PrivSet, bool) {
	m := c.lock()
	defer c.snap.mu.Unlock()
	if _, seen := m.secs[sec.ID]; !seen {
		m.remember(sec)
	}
	em, ok := c.effective(m, sec.ID)
	return em.check, ok
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

func (n naiveAuthorizer) EffectiveSetOf(sec Securable) (PrivSet, bool) {
	return n.EffectiveSet(sec.ID)
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
