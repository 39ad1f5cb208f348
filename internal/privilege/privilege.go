// Package privilege implements the Unity Catalog privilege model of the
// paper's Section 3.3: SQL-style grants on securables, ownership with full
// administrative rights, the MANAGE privilege, hierarchical privilege
// inheritance down the securable tree, usage-privilege gating (USE CATALOG /
// USE SCHEMA), fine-grained access control policies (row filters and column
// masks), and attribute-based access control (ABAC) rules keyed on tags.
//
// The package is deliberately independent of the entity model: callers
// supply a HierarchyResolver that walks a securable's ancestor chain, so the
// same engine governs every asset type registered with the catalog.
package privilege

import (
	"fmt"
	"sort"
	"strings"

	"unitycatalog/internal/ids"
)

// Privilege names a grantable right, mirroring UC's SQL-style privileges.
type Privilege string

// Privileges recognized by the model. Create* privileges are checked on the
// parent container; usage privileges gate traversal of containers.
const (
	Select         Privilege = "SELECT"
	Modify         Privilege = "MODIFY"
	ReadVolume     Privilege = "READ VOLUME"
	WriteVolume    Privilege = "WRITE VOLUME"
	Execute        Privilege = "EXECUTE"
	UseCatalog     Privilege = "USE CATALOG"
	UseSchema      Privilege = "USE SCHEMA"
	UseConnection  Privilege = "USE CONNECTION"
	CreateCatalog  Privilege = "CREATE CATALOG"
	CreateSchema   Privilege = "CREATE SCHEMA"
	CreateTable    Privilege = "CREATE TABLE"
	CreateVolume   Privilege = "CREATE VOLUME"
	CreateFunction Privilege = "CREATE FUNCTION"
	CreateModel    Privilege = "CREATE MODEL"
	CreateShare    Privilege = "CREATE SHARE"
	ReadFiles      Privilege = "READ FILES"
	WriteFiles     Privilege = "WRITE FILES"
	Manage         Privilege = "MANAGE"
	AllPrivileges  Privilege = "ALL PRIVILEGES"
)

// Principal identifies a user, group, or service identity.
type Principal string

// Grant records that a principal holds a privilege on a securable.
type Grant struct {
	Securable ids.ID    `json:"securable_id"`
	Principal Principal `json:"principal"`
	Privilege Privilege `json:"privilege"`
	GrantedBy Principal `json:"granted_by,omitempty"`
}

// Securable is the minimal view of an entity the privilege engine needs.
type Securable struct {
	ID     ids.ID
	Type   string
	Parent ids.ID // Nil for metastore-level securables
	Owner  Principal
}

// HierarchyResolver returns a securable and, transitively, its ancestors.
// Implementations are provided by the catalog layer.
type HierarchyResolver interface {
	Securable(id ids.ID) (Securable, bool)
}

// GroupResolver expands a principal to the groups it belongs to (directly
// and transitively). The principal itself need not be included.
type GroupResolver interface {
	GroupsOf(p Principal) []Principal
}

// NoGroups is a GroupResolver with no group memberships.
type NoGroups struct{}

// GroupsOf returns nil.
func (NoGroups) GroupsOf(Principal) []Principal { return nil }

// Store abstracts grant persistence. The catalog layer persists grants in
// the metadata store; tests can use MemStore.
type Store interface {
	// GrantsOn returns all grants on the securable.
	GrantsOn(id ids.ID) []Grant
}

// MemStore is an in-memory grant store, useful in tests and as the working
// representation inside the core service cache.
type MemStore struct {
	grants map[ids.ID][]Grant
}

// NewMemStore returns an empty MemStore.
func NewMemStore() *MemStore { return &MemStore{grants: map[ids.ID][]Grant{}} }

// Add inserts a grant, deduplicating exact repeats.
func (m *MemStore) Add(g Grant) {
	for _, have := range m.grants[g.Securable] {
		if have.Principal == g.Principal && have.Privilege == g.Privilege {
			return
		}
	}
	m.grants[g.Securable] = append(m.grants[g.Securable], g)
}

// Remove deletes a grant; it reports whether the grant existed. The
// surviving grants are copied into a fresh slice rather than compacted in
// place, so slices previously handed out by GrantsOn keep their contents.
func (m *MemStore) Remove(sec ids.ID, p Principal, priv Privilege) bool {
	gs := m.grants[sec]
	for i, g := range gs {
		if g.Principal == p && g.Privilege == priv {
			rest := make([]Grant, 0, len(gs)-1)
			rest = append(rest, gs[:i]...)
			rest = append(rest, gs[i+1:]...)
			if len(rest) == 0 {
				delete(m.grants, sec)
			} else {
				m.grants[sec] = rest
			}
			return true
		}
	}
	return false
}

// GrantsOn returns grants on the securable.
func (m *MemStore) GrantsOn(id ids.ID) []Grant { return m.grants[id] }

// ScanGrants implements GrantScanner.
func (m *MemStore) ScanGrants(id ids.ID, visit GrantVisitor) {
	for _, g := range m.grants[id] {
		visit.VisitGrant(g.Principal, g.Privilege)
	}
}

// Engine makes access-control decisions.
type Engine struct {
	Hierarchy HierarchyResolver
	Grants    Store
	Groups    GroupResolver
}

// NewEngine constructs an Engine. A nil groups resolver means no groups.
func NewEngine(h HierarchyResolver, g Store, groups GroupResolver) *Engine {
	if groups == nil {
		groups = NoGroups{}
	}
	return &Engine{Hierarchy: h, Grants: g, Groups: groups}
}

// usageFor maps a container type to the usage privilege that gates access to
// securables inside it.
var usageFor = map[string]Privilege{
	"CATALOG": UseCatalog,
	"SCHEMA":  UseSchema,
}

// principals returns p plus all groups p belongs to.
func (e *Engine) principals(p Principal) []Principal {
	out := []Principal{p}
	out = append(out, e.Groups.GroupsOf(p)...)
	return out
}

// holdsDirect reports whether any of the principals holds priv (or ALL
// PRIVILEGES, or MANAGE where manageImplies) directly granted on sec, or owns
// sec.
func (e *Engine) holdsDirect(sec Securable, who []Principal, priv Privilege) bool {
	for _, p := range who {
		if sec.Owner == p {
			return true
		}
	}
	for _, g := range e.Grants.GrantsOn(sec.ID) {
		for _, p := range who {
			if g.Principal != p {
				continue
			}
			if g.Privilege == priv || g.Privilege == AllPrivileges || g.Privilege == Manage {
				return true
			}
		}
	}
	return false
}

// holdsInherited reports whether who holds priv on sec directly or via any
// ancestor (privilege inheritance down the hierarchy).
func (e *Engine) holdsInherited(sec Securable, who []Principal, priv Privilege) bool {
	cur := sec
	for {
		if e.holdsDirect(cur, who, priv) {
			return true
		}
		if cur.Parent == ids.Nil {
			return false
		}
		parent, ok := e.Hierarchy.Securable(cur.Parent)
		if !ok {
			return false
		}
		cur = parent
	}
}

// Decision is the result of an authorization check, carrying enough context
// for audit logging.
type Decision struct {
	Allowed   bool
	Principal Principal
	Privilege Privilege
	Securable ids.ID
	Reason    string
}

// Check decides whether principal may exercise priv on securable id. It
// enforces both the privilege itself (with inheritance) and the usage
// privileges on every enclosing container, per the paper's model: SELECT on
// a table requires USE SCHEMA on its schema and USE CATALOG on its catalog.
func (e *Engine) Check(p Principal, priv Privilege, id ids.ID) Decision {
	d := Decision{Principal: p, Privilege: priv, Securable: id}
	sec, ok := e.Hierarchy.Securable(id)
	if !ok {
		d.Reason = "securable not found"
		return d
	}
	who := e.principals(p)

	// Owners (of the securable or any ancestor, via MANAGE semantics) hold
	// everything on it, including usage on containers below them.
	if !e.holdsInherited(sec, who, priv) {
		d.Reason = fmt.Sprintf("missing %s", priv)
		return d
	}

	// Usage gating on ancestors. An owner of (or MANAGE holder on) a
	// container implicitly passes its own gate.
	cur := sec
	for cur.Parent != ids.Nil {
		parent, ok := e.Hierarchy.Securable(cur.Parent)
		if !ok {
			d.Reason = "broken hierarchy"
			return d
		}
		if usage, gated := usageFor[parent.Type]; gated {
			if !e.holdsInherited(parent, who, usage) {
				d.Reason = fmt.Sprintf("missing %s on %s", usage, parent.ID.Short())
				return d
			}
		}
		cur = parent
	}
	d.Allowed = true
	d.Reason = "ok"
	return d
}

// CheckNoGate is Check without container usage gating; used for operations
// on the containers themselves (e.g. USE CATALOG on a catalog) and for
// administrative checks.
func (e *Engine) CheckNoGate(p Principal, priv Privilege, id ids.ID) Decision {
	d := Decision{Principal: p, Privilege: priv, Securable: id}
	sec, ok := e.Hierarchy.Securable(id)
	if !ok {
		d.Reason = "securable not found"
		return d
	}
	if e.holdsInherited(sec, e.principals(p), priv) {
		d.Allowed = true
		d.Reason = "ok"
	} else {
		d.Reason = fmt.Sprintf("missing %s", priv)
	}
	return d
}

// IsOwner reports whether p owns the securable or any of its ancestors, or
// holds MANAGE on one of them — i.e. has administrative rights over it.
func (e *Engine) IsOwner(p Principal, id ids.ID) bool {
	sec, ok := e.Hierarchy.Securable(id)
	if !ok {
		return false
	}
	who := e.principals(p)
	cur := sec
	for {
		for _, w := range who {
			if cur.Owner == w {
				return true
			}
		}
		for _, g := range e.Grants.GrantsOn(cur.ID) {
			if g.Privilege != Manage {
				continue
			}
			for _, w := range who {
				if g.Principal == w {
					return true
				}
			}
		}
		if cur.Parent == ids.Nil {
			return false
		}
		parent, ok := e.Hierarchy.Securable(cur.Parent)
		if !ok {
			return false
		}
		cur = parent
	}
}

// EffectivePrivileges lists the privileges p holds on the securable,
// including inherited ones, sorted for stable output. Ownership and MANAGE
// both pass every privilege check (holdsDirect), so each also reports
// ALL PRIVILEGES here — the listing and the checks agree on what p can do.
func (e *Engine) EffectivePrivileges(p Principal, id ids.ID) []Privilege {
	sec, ok := e.Hierarchy.Securable(id)
	if !ok {
		return nil
	}
	who := e.principals(p)
	set := map[Privilege]bool{}
	cur := sec
	for {
		for _, w := range who {
			if cur.Owner == w {
				set[AllPrivileges] = true
			}
		}
		for _, g := range e.Grants.GrantsOn(cur.ID) {
			for _, w := range who {
				if g.Principal == w {
					set[g.Privilege] = true
					if g.Privilege == Manage {
						set[AllPrivileges] = true
					}
				}
			}
		}
		if cur.Parent == ids.Nil {
			break
		}
		parent, ok := e.Hierarchy.Securable(cur.Parent)
		if !ok {
			break
		}
		cur = parent
	}
	out := make([]Privilege, 0, len(set))
	for pr := range set {
		out = append(out, pr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String implements fmt.Stringer for decisions (useful in audit records).
func (d Decision) String() string {
	verdict := "DENY"
	if d.Allowed {
		verdict = "ALLOW"
	}
	return fmt.Sprintf("%s %s %s on %s (%s)", verdict, d.Principal, d.Privilege, d.Securable.Short(), d.Reason)
}

// ValidPrivilege reports whether s names a known privilege.
func ValidPrivilege(s string) bool {
	switch Privilege(strings.ToUpper(s)) {
	case Select, Modify, ReadVolume, WriteVolume, Execute, UseCatalog, UseSchema,
		UseConnection, CreateCatalog, CreateSchema, CreateTable, CreateVolume,
		CreateFunction, CreateModel, CreateShare, ReadFiles, WriteFiles, Manage, AllPrivileges:
		return true
	}
	return false
}
