// Package gen is the benchmark's own seeded generator: a catalog population,
// the principals and grants that govern it, and per-client operation streams
// with a model of what every request must return. Nothing here touches the
// program under test; the harness in perf/ builds the population through the
// catalog API and renders the operations as requests.
//
// internal/workload is deliberately not reused: workload.Generate records a
// function name the population never created (a second r.Intn(100) draw), so
// a Zipf-hot phantom yields a steady stream of 404s, and workload.Replay
// flips one global grant/revoke toggle across assets, so it revokes grants
// that were never made. A benchmark that gates on failures needs a generator
// whose every request has an expected status.
package gen

import (
	"fmt"
	"math/rand"
	"sort"
)

// Shape sizes a population. All four workloads use one of two shapes: Std
// (many schemas of equal size; fits the program's cache) or Scan (a few very
// large schemas; far larger than the cache cold_scan configures).
type Shape struct {
	Catalogs          int
	SchemasPerCatalog int
	TablesPerSchema   int
	ViewsPerSchema    int // each view depends on two tables of its schema
	// BigSchemas adds one extra schema of BigSchemaTables tables to each of
	// the first BigSchemas catalogs.
	BigSchemas      int
	BigSchemaTables int
	FGACEvery       int // every Nth table carries a row filter or column mask; 0 = none
	TagEvery        int // every Nth table carries the tag "tier"; 0 = none
	// HalfVisible grants each team every second schema instead of whole
	// catalogs, so a principal sees roughly half the schemas.
	HalfVisible bool
	// CacheCap caps the program's metadata cache (records per metastore);
	// 0 leaves the production default.
	CacheCap int
	// InMemory runs the store without a WAL.
	InMemory bool
}

// Std is the population of trace_read, ddl_write and query_path. It is sized
// so that building it takes just over 8,192 commits: the event history and
// the change-log ring are full when timing starts, and set-up spends as
// little time as possible past the point where every publish re-copies the
// history (ROADMAP item 1).
func Std() Shape {
	return Shape{Catalogs: 24, SchemasPerCatalog: 4, TablesPerSchema: 76, ViewsPerSchema: 4, FGACEvery: 10, TagEvery: 48}
}

// Scan is the population of cold_scan: three schemas of 2,000 tables and
// twenty of 90, about 7,800 assets of several records each, against a cache
// capped at 512 records. It stays just under 8,192 set-up commits for the
// reason given on Std.
//
// The cap is 512, not the 4,096 first planned: at 4,096 one scan's records
// survive into the next, so whether a client finds them depends on what the
// other client scanned in between, and the hit rate drifts from run to run
// on the same seed (allocations per request by 5 %, throughput by 15 %). At
// 512 a single page of a listing fills the cache: what hits is what is hot
// by structure (containers, grants), the same in every run.
func Scan() Shape {
	return Shape{Catalogs: 4, SchemasPerCatalog: 5, TablesPerSchema: 90, BigSchemas: 3, BigSchemaTables: 2000, TagEvery: 100, HalfVisible: true, CacheCap: 512, InMemory: true}
}

// Quick shrinks a shape for the smoke test.
func (s Shape) Quick() Shape {
	s.Catalogs = min(s.Catalogs, 4)
	s.SchemasPerCatalog = min(s.SchemasPerCatalog, 2)
	s.TablesPerSchema = min(s.TablesPerSchema, 12)
	s.BigSchemas = min(s.BigSchemas, 1)
	s.BigSchemaTables = min(s.BigSchemaTables, 250)
	s.CacheCap = min(s.CacheCap, 128)
	return s
}

// Principals. Users belong to teams and teams to orgs (two-level nesting);
// every read grant is held by a team or an org, so each check walks group
// inheritance. Stewards hold MANAGE on every catalog through their group
// and issue the writes. Engines are trusted machine identities with SELECT
// on everything. Nobody holds nothing: its reads must be refused.
const (
	Admin     = "admin"
	Nobody    = "nobody"
	Users     = 32
	Teams     = 8
	Orgs      = 2
	Stewards  = 4
	Engines   = 4
	Metastore = "ms1"
)

func User(i int) string    { return fmt.Sprintf("u%02d", i) }
func Team(i int) string    { return fmt.Sprintf("team%d", i) }
func Org(i int) string     { return fmt.Sprintf("org%d", i) }
func Steward(i int) string { return fmt.Sprintf("steward%d", i%Stewards) }
func Engine(i int) string  { return fmt.Sprintf("engine%d", i%Engines) }

const (
	StewardGroup = "stewards"
	EngineGroup  = "engines"
)

// Membership puts Member into Group.
type Membership struct{ Group, Member string }

// Memberships lists the directory's content.
func Memberships() []Membership {
	var out []Membership
	for u := 0; u < Users; u++ {
		out = append(out, Membership{Team(u * Teams / Users), User(u)})
	}
	for t := 0; t < Teams; t++ {
		out = append(out, Membership{Org(t * Orgs / Teams), Team(t)})
	}
	for i := 0; i < Stewards; i++ {
		out = append(out, Membership{StewardGroup, Steward(i)})
	}
	for i := 0; i < Engines; i++ {
		out = append(out, Membership{EngineGroup, Engine(i)})
	}
	return out
}

// Catalog, Schema and Leaf describe the namespace. ID and Path are filled in
// by the harness from what the program returned at set-up.
type Catalog struct {
	Name    string
	Schemas []int
}

type Schema struct {
	Name, Full string
	Catalog    int
	Tables     []int // leaf indexes, in creation order
	Views      []int
	Readers    []int // users who hold USE CATALOG, USE SCHEMA and SELECT here
	ID         string
}

type Leaf struct {
	Name, Full string
	Schema     int
	View       bool
	Deps       []int // a view's base tables
	FGAC       bool
	TagVal     string // value of the TagKey tag set-up puts on it; "" = untagged
	ID, Path   string
}

// GrantSpec is one grant made at set-up.
type GrantSpec struct{ Securable, Principal, Privilege string }

// Population is everything set-up creates.
type Population struct {
	Shape    Shape
	Catalogs []Catalog
	Schemas  []Schema
	Leaves   []Leaf
	Grants   []GrantSpec
	Tables   []int // leaf indexes of tables
	Views    []int // leaf indexes of views
	// rank maps a Zipf rank to a leaf (to a table, to a view): popular assets
	// are spread over the namespace and differ by seed (see rankLeaves).
	leafRank, tableRank, viewRank []int
}

// TagKey is the tag set-up puts on every TagEvery-th table.
const TagKey = "tier"

// TagValues are the values the tag takes, in rotation.
var TagValues = [...]string{"gold", "silver", "bronze"}

// NewPopulation lays out the namespace for shape. The layout depends on the
// shape only; seed decides which assets are popular.
func NewPopulation(shape Shape, seed int64) *Population {
	p := &Population{Shape: shape}
	addSchema := func(c int, name string, tables, views int) {
		si := len(p.Schemas)
		s := Schema{Name: name, Full: p.Catalogs[c].Name + "." + name, Catalog: c}
		for t := 0; t < tables; t++ {
			li := len(p.Leaves)
			nth := len(p.Tables)
			name := fmt.Sprintf("t_%04d", t)
			leaf := Leaf{
				Name: name, Full: s.Full + "." + name, Schema: si,
				FGAC: shape.FGACEvery > 0 && nth%shape.FGACEvery == shape.FGACEvery-1,
			}
			if shape.TagEvery > 0 && nth%shape.TagEvery == 0 {
				leaf.TagVal = TagValues[nth/shape.TagEvery%len(TagValues)]
			}
			p.Leaves = append(p.Leaves, leaf)
			s.Tables = append(s.Tables, li)
			p.Tables = append(p.Tables, li)
		}
		for v := 0; v < views && tables >= 2; v++ {
			li := len(p.Leaves)
			name := fmt.Sprintf("v_%02d", v)
			deps := []int{s.Tables[(2*v)%tables], s.Tables[(2*v+1)%tables]}
			p.Leaves = append(p.Leaves, Leaf{Name: name, Full: s.Full + "." + name, Schema: si, View: true, Deps: deps})
			s.Views = append(s.Views, li)
			p.Views = append(p.Views, li)
		}
		p.Catalogs[c].Schemas = append(p.Catalogs[c].Schemas, si)
		p.Schemas = append(p.Schemas, s)
	}
	for c := 0; c < shape.Catalogs; c++ {
		p.Catalogs = append(p.Catalogs, Catalog{Name: fmt.Sprintf("cat%02d", c)})
		for s := 0; s < shape.SchemasPerCatalog; s++ {
			addSchema(c, fmt.Sprintf("s%02d", s), shape.TablesPerSchema, shape.ViewsPerSchema)
		}
		if c < shape.BigSchemas {
			addSchema(c, "big", shape.BigSchemaTables, 0)
		}
	}
	p.layoutGrants()

	p.rankLeaves(seed)
	return p
}

// rankLeaves orders the leaves by popularity. Which leaf takes which rank is
// the seed's choice, but the kind of leaf at each rank is the same for every
// seed: with Zipf s=1.2 the most popular leaf draws a sixth of the traffic,
// and whether that leaf is a view or a table, carries a policy or not, is
// read by 4 users or by 16, would otherwise make runs with different seeds
// different workloads.
func (p *Population) rankLeaves(seed int64) {
	class := func(li int) int {
		l, c := &p.Leaves[li], 0
		if l.View {
			c |= 1
		}
		if l.FGAC {
			c |= 2
		}
		if len(p.Schemas[l.Schema].Readers) > Users/Teams {
			c |= 4
		}
		return c
	}
	r := rand.New(rand.NewSource(seed))
	byClass := map[int][]int{}
	for _, li := range r.Perm(len(p.Leaves)) {
		byClass[class(li)] = append(byClass[class(li)], li)
	}
	const patternSeed = 20250612 // any constant: fixes the kinds, not the leaves
	for _, like := range rand.New(rand.NewSource(patternSeed)).Perm(len(p.Leaves)) {
		c := class(like)
		li := byClass[c][0]
		byClass[c] = byClass[c][1:]
		p.leafRank = append(p.leafRank, li)
		if p.Leaves[li].View {
			p.viewRank = append(p.viewRank, li)
		} else {
			p.tableRank = append(p.tableRank, li)
		}
	}
}

// layoutGrants decides who may read what and records it twice: as the
// grants set-up makes and as each schema's Readers.
func (p *Population) layoutGrants() {
	grant := func(sec, who string, privs ...string) {
		for _, pr := range privs {
			p.Grants = append(p.Grants, GrantSpec{sec, who, pr})
		}
	}
	usersOfTeam := func(t int) []int {
		var out []int
		for u := 0; u < Users; u++ {
			if u*Teams/Users == t {
				out = append(out, u)
			}
		}
		return out
	}
	readers := make([]map[int]bool, len(p.Schemas))
	for i := range readers {
		readers[i] = map[int]bool{}
	}
	for c, cat := range p.Catalogs {
		grant(cat.Name, StewardGroup, "MANAGE")
		// USE SCHEMA is grantable on schemas only.
		grant(cat.Name, EngineGroup, "USE CATALOG", "SELECT")
		for _, si := range cat.Schemas {
			grant(p.Schemas[si].Full, EngineGroup, "USE SCHEMA")
		}
		switch {
		case p.Shape.HalfVisible:
			// Every team may enter every catalog and holds every second schema.
			for t := 0; t < Teams; t++ {
				grant(cat.Name, Team(t), "USE CATALOG")
				for _, si := range cat.Schemas {
					if (si+t)%2 == 0 {
						grant(p.Schemas[si].Full, Team(t), "USE SCHEMA", "SELECT")
						for _, u := range usersOfTeam(t) {
							readers[si][u] = true
						}
					}
				}
			}
		case c%3 == 0:
			// A third of the catalogs are open to a whole org at catalog level.
			o := (c / 3) % Orgs
			grant(cat.Name, Org(o), "USE CATALOG", "SELECT")
			for _, si := range cat.Schemas {
				grant(p.Schemas[si].Full, Org(o), "USE SCHEMA")
			}
			for t := 0; t < Teams; t++ {
				if t*Orgs/Teams == o {
					for _, si := range cat.Schemas {
						for _, u := range usersOfTeam(t) {
							readers[si][u] = true
						}
					}
				}
			}
		default:
			// The rest belong to one team, schema by schema.
			t := c % Teams
			grant(cat.Name, Team(t), "USE CATALOG")
			for _, si := range cat.Schemas {
				grant(p.Schemas[si].Full, Team(t), "USE SCHEMA", "SELECT")
				for _, u := range usersOfTeam(t) {
					readers[si][u] = true
				}
			}
		}
	}
	for si := range p.Schemas {
		for u := range readers[si] {
			p.Schemas[si].Readers = append(p.Schemas[si].Readers, u)
		}
		sort.Ints(p.Schemas[si].Readers)
	}
}

// Assets counts every securable set-up creates below the metastore.
func (p *Population) Assets() int { return len(p.Catalogs) + len(p.Schemas) + len(p.Leaves) }

// SetupCommits is the number of commits building the population takes: the
// metastore, every asset, every grant and every tag.
func (p *Population) SetupCommits() int {
	n := 1 + p.Assets() + len(p.Grants)
	for _, l := range p.Leaves {
		if l.TagVal != "" {
			n++
		}
	}
	return n
}

// CanRead reports whether user u reads schema si.
func (p *Population) CanRead(si, u int) bool {
	rs := p.Schemas[si].Readers
	i := sort.SearchInts(rs, u)
	return i < len(rs) && rs[i] == u
}
