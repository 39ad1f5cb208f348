package bench

// Authorization fast-path grid over the three hot decision shapes: the
// deep-chain Check straight against both privilege engines (the compiled
// snapshot and the reference Engine it is tested against), and schema
// listing and AuthorizeBatch through the catalog service, which has one
// authorization path. Shared by the `authz` experiment (human-readable
// table) and `make bench-authz`, which emits BENCH_authz.json.

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// AuthzCell is one measured cell of the authorization grid.
type AuthzCell struct {
	// Shape is the decision workload: check_deep8 (one privilege check on a
	// depth-8 chain), list_schema (ListAssets over an N-table schema), or
	// authorize_batch (AuthorizeBatch of 512 tables).
	Shape string `json:"shape"`
	// Engine is "naive" (the reference engine, check_deep8 only) or
	// "compiled" (the snapshot path the service serves from).
	Engine      string  `json:"engine"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchHierarchy and benchGroups give the privilege-level shape a direct
// in-memory world, mirroring the package's own fixtures.
type benchHierarchy map[ids.ID]privilege.Securable

func (m benchHierarchy) Securable(id ids.ID) (privilege.Securable, bool) {
	s, ok := m[id]
	return s, ok
}

type benchGroups map[privilege.Principal][]privilege.Principal

func (m benchGroups) GroupsOf(p privilege.Principal) []privilege.Principal { return m[p] }

// measureAuthz times ops sequential iterations of fn and reports
// per-operation nanoseconds and heap allocations.
func measureAuthz(ops int, fn func()) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(ops),
		float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// RunAuthzGrid measures every cell. Quick shrinks the iteration counts and
// the listed schema.
func RunAuthzGrid(quick bool) ([]AuthzCell, error) {
	checkOps, listTables, listOps, batchOps := 200_000, 10_000, 5, 200
	if quick {
		checkOps, listTables, listOps, batchOps = 50_000, 1_000, 3, 50
	}

	var cells []AuthzCell

	// Shape 1: deep-chain Check, straight against the privilege engines.
	h, g, groups, leaf := deepAuthzChain(8)
	for _, engine := range []string{"naive", "compiled"} {
		var check func() privilege.Decision
		if engine == "naive" {
			eng := privilege.NewEngine(h, g, groups)
			check = func() privilege.Decision { return eng.Check("alice", privilege.Select, leaf) }
		} else {
			eng := privilege.NewCompiled(h, g, groups, "alice")
			check = func() privilege.Decision { return eng.Check(privilege.Select, leaf) }
		}
		if d := check(); !d.Allowed {
			return nil, fmt.Errorf("check_deep8 %s: setup check denied: %v", engine, d)
		}
		ns, allocs := measureAuthz(checkOps, func() { check() })
		cells = append(cells, AuthzCell{Shape: "check_deep8", Engine: engine, Ops: checkOps, NsPerOp: ns, AllocsPerOp: allocs})
	}

	// Shapes 2+3: full catalog service, N-table schema, non-owner reader.
	svc, reader, tblIDs, err := authzService(listTables)
	if err != nil {
		return nil, fmt.Errorf("authz service: %w", err)
	}
	list := func() error {
		out, err := svc.ListAssets(reader, "cat.big", erm.TypeTable)
		if err == nil && len(out) != listTables {
			err = fmt.Errorf("listed %d of %d", len(out), listTables)
		}
		return err
	}
	if err := list(); err != nil {
		return nil, fmt.Errorf("list_schema: %w", err)
	}
	ns, allocs := measureAuthz(listOps, func() { list() })
	cells = append(cells, AuthzCell{Shape: "list_schema", Engine: "compiled", Ops: listOps, NsPerOp: ns, AllocsPerOp: allocs})

	batch := tblIDs
	if len(batch) > 512 {
		batch = batch[:512]
	}
	ns, allocs = measureAuthz(batchOps, func() {
		svc.AuthorizeBatch(reader, batch, privilege.Select)
	})
	cells = append(cells, AuthzCell{Shape: "authorize_batch", Engine: "compiled", Ops: batchOps, NsPerOp: ns, AllocsPerOp: allocs})
	return cells, nil
}

// deepAuthzChain builds a metastore→catalog→schema…→table chain with grants
// only at the catalog, so every check walks the whole chain.
func deepAuthzChain(depth int) (benchHierarchy, *privilege.MemStore, benchGroups, ids.ID) {
	h := benchHierarchy{}
	g := privilege.NewMemStore()
	root := ids.New()
	h[root] = privilege.Securable{ID: root, Type: "METASTORE", Owner: "root"}
	parent := root
	var leaf ids.ID
	for i := 0; i < depth; i++ {
		id := ids.New()
		typ := "SCHEMA"
		switch i {
		case 0:
			typ = "CATALOG"
		case depth - 1:
			typ = "TABLE"
		}
		h[id] = privilege.Securable{ID: id, Type: typ, Parent: parent, Owner: "root"}
		if i == 0 {
			for _, p := range []privilege.Privilege{privilege.UseCatalog, privilege.UseSchema, privilege.Select} {
				g.Add(privilege.Grant{Securable: id, Principal: "team", Privilege: p})
			}
		}
		parent = id
		leaf = id
	}
	return h, g, benchGroups{"alice": {"g0", "g1", "g2", "team"}}, leaf
}

// authzService builds a catalog with one schema of n tables and a reader
// granted usage + SELECT at the container level (visible but not owner).
func authzService(n int) (*catalog.Service, catalog.Ctx, []ids.ID, error) {
	db, err := store.Open(store.Options{})
	if err != nil {
		return nil, catalog.Ctx{}, nil, err
	}
	svc, err := catalog.New(catalog.Config{DB: db})
	if err != nil {
		return nil, catalog.Ctx{}, nil, err
	}
	if _, err := svc.CreateMetastore("authz", "authz", "region-1", "admin", "s3://root/authz"); err != nil {
		return nil, catalog.Ctx{}, nil, err
	}
	admin := catalog.Ctx{Principal: "admin", Metastore: "authz", TrustedEngine: true}
	if _, err := svc.CreateCatalog(admin, "cat", ""); err != nil {
		return nil, catalog.Ctx{}, nil, err
	}
	if _, err := svc.CreateSchema(admin, "cat", "big", ""); err != nil {
		return nil, catalog.Ctx{}, nil, err
	}
	cols := []catalog.ColumnInfo{{Name: "id", Type: "STRING", Nullable: true}}
	tblIDs := make([]ids.ID, 0, n)
	for i := 0; i < n; i++ {
		e, err := svc.CreateTable(admin, "cat.big", fmt.Sprintf("t%05d", i), catalog.TableSpec{Columns: cols}, "")
		if err != nil {
			return nil, catalog.Ctx{}, nil, err
		}
		tblIDs = append(tblIDs, e.ID)
	}
	for _, gr := range []struct {
		full string
		priv privilege.Privilege
	}{
		{"cat", privilege.UseCatalog},
		{"cat.big", privilege.UseSchema},
		{"cat.big", privilege.Select},
	} {
		if err := svc.Grant(admin, gr.full, "reader", gr.priv); err != nil {
			return nil, catalog.Ctx{}, nil, err
		}
	}
	return svc, catalog.Ctx{Principal: "reader", Metastore: "authz"}, tblIDs, nil
}

// AuthzExperiment renders the grid, with the compiled engine's speedup over
// the reference engine where both are measured.
func AuthzExperiment(o Options) (*Table, error) {
	cells, err := RunAuthzGrid(o.Quick)
	if err != nil {
		return nil, err
	}
	header, rows := AuthzCellRows(cells)
	t := &Table{
		ID:     "authz",
		Title:  "Authorization fast path: compiled snapshots vs reference engine",
		Paper:  "§4.4–4.5: authorization on the interactive hot path must stay sub-millisecond; batch APIs amortize checks across assets",
		Header: append(header, "speedup"),
	}
	naiveNs := map[string]float64{} // a shape's naive cell precedes its compiled one
	var findings []string
	for i, c := range cells {
		speed := "-"
		if c.Engine == "naive" {
			naiveNs[c.Shape] = c.NsPerOp
		} else if n, ok := naiveNs[c.Shape]; ok && c.NsPerOp > 0 {
			speed = fmt.Sprintf("%.1fx", n/c.NsPerOp)
			findings = append(findings, c.Shape+" "+speed)
		}
		t.Rows = append(t.Rows, append(rows[i], speed))
	}
	t.Finding = "compiled vs naive: " + strings.Join(findings, ", ")
	return t, nil
}
