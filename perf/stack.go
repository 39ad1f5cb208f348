package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"unitycatalog/internal/cache"
	"unitycatalog/internal/catalog"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/server"
	"unitycatalog/internal/store"
	"unitycatalog/perf/gen"
)

// stack is the program under test, assembled the way uc.Open assembles it
// (store.Open, catalog.New, server.NewWithConfig, every option at its
// production default) and served on a loopback listener. The only departures
// are the ones a workload states: a group directory, so that grants are held
// through nested groups, and cold_scan's cache cap and in-memory store.
type stack struct {
	db      *store.DB
	svc     *catalog.Service
	srv     *server.Server
	http    *http.Server
	served  chan struct{}
	addr    string
	walPath string // "" = in-memory store
	pop     *gen.Population
}

func openStack(shape gen.Shape, dir string) (*stack, error) {
	st := &stack{}
	opts := store.Options{}
	cacheOpts := cache.Options{MaxEntriesPerMetastore: shape.CacheCap}
	if !shape.InMemory {
		st.walPath = filepath.Join(dir, "perf.wal")
		if err := os.Remove(st.walPath); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		opts.WALPath = st.walPath
	}
	db, err := store.Open(opts)
	if err != nil {
		return nil, err
	}
	st.db = db
	groups := catalog.NewDirectory(0)
	for _, m := range gen.Memberships() {
		groups.AddMember(privilege.Principal(m.Group), privilege.Principal(m.Member))
	}
	st.svc, err = catalog.New(catalog.Config{DB: db, CacheOpts: cacheOpts, Groups: groups})
	if err != nil {
		db.Close()
		return nil, err
	}
	st.srv = server.NewWithConfig(st.svc, server.Config{})
	for i := 0; i < gen.Engines; i++ {
		st.srv.TrustEngine(privilege.Principal(gen.Engine(i)))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.addr = ln.Addr().String()
	st.http = &http.Server{Handler: st.srv}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		st.http.Serve(ln) // returns when close() shuts the server down
	}()
	return st, nil
}

// close stops serving and releases the stack; the WAL file stays.
func (st *stack) close() error {
	if st.http != nil {
		st.http.Close()
		<-st.served
	}
	st.srv.Close()
	st.srv.Lineage.Close()
	st.srv.Search.Close()
	return st.db.Close()
}

func adminCtx() catalog.Ctx {
	return catalog.Ctx{Principal: gen.Admin, Metastore: gen.Metastore}
}

// populate builds pop through the catalog.Service API, one commit per asset,
// grant and tag, and records the identifiers and storage paths the program
// chose.
func (st *stack) populate(pop *gen.Population) error {
	svc, ctx := st.svc, adminCtx()
	if _, err := svc.CreateMetastore(gen.Metastore, "main", "local", gen.Admin, "s3://perf/"+gen.Metastore); err != nil {
		return err
	}
	exempt := []privilege.Principal{}
	for o := 0; o < gen.Orgs; o++ {
		exempt = append(exempt, privilege.Principal(gen.Org(o)))
	}
	for c := range pop.Catalogs {
		cat := &pop.Catalogs[c]
		if _, err := svc.CreateCatalog(ctx, cat.Name, ""); err != nil {
			return err
		}
		for _, si := range cat.Schemas {
			sc := &pop.Schemas[si]
			e, err := svc.CreateSchema(ctx, cat.Name, sc.Name, "")
			if err != nil {
				return err
			}
			sc.ID = string(e.ID)
			for _, li := range sc.Tables {
				leaf := &pop.Leaves[li]
				spec := tableSpec()
				if leaf.FGAC {
					// Users are exempt through their org; engines are not, so
					// a resolve by an engine carries the policy.
					if li%2 == 0 {
						spec.FGAC.RowFilters = []privilege.RowFilter{{Columns: []string{"region"}, Predicate: "region = 'EU'", ExemptPrincipals: exempt}}
					} else {
						spec.FGAC.ColumnMasks = []privilege.ColumnMask{{Column: "amount", Kind: privilege.MaskNull, ExemptPrincipals: exempt}}
					}
				}
				e, err := svc.CreateTable(ctx, sc.Full, leaf.Name, spec, "")
				if err != nil {
					return err
				}
				leaf.ID, leaf.Path = string(e.ID), e.StoragePath
				if leaf.TagVal != "" {
					if err := svc.SetTag(ctx, leaf.Full, "", gen.TagKey, leaf.TagVal); err != nil {
						return err
					}
				}
			}
			for _, li := range sc.Views {
				leaf := &pop.Leaves[li]
				vs := catalog.ViewSpec{Definition: "SELECT * FROM " + pop.Leaves[leaf.Deps[0]].Full}
				for _, d := range leaf.Deps {
					vs.Dependencies = append(vs.Dependencies, pop.Leaves[d].Full)
				}
				e, err := svc.CreateView(ctx, sc.Full, leaf.Name, vs)
				if err != nil {
					return err
				}
				leaf.ID = string(e.ID)
			}
		}
	}
	for _, g := range pop.Grants {
		if err := svc.Grant(ctx, g.Securable, privilege.Principal(g.Principal), privilege.Privilege(g.Privilege)); err != nil {
			return fmt.Errorf("grant %v: %w", g, err)
		}
	}
	st.pop = pop
	// What set-up leaves in the cache depends on when the cache last chose to
	// reconcile in full (it does, every few hundred commits), so the resident
	// set after set-up is anything between 2,000 and 18,000 records. Empty it:
	// every run starts from the same state and warms itself up.
	return svc.Cache().ReconcileFull(gen.Metastore)
}

func tableSpec() catalog.TableSpec {
	var spec catalog.TableSpec
	for i, c := range gen.TableColumns {
		spec.Columns = append(spec.Columns, catalog.ColumnInfo{Name: c[0], Type: c[1], Nullable: i > 0, Position: i})
	}
	return spec
}

// setUp builds a fresh stack and its population and reports how long that
// took: the set-up a user of the system waits for.
func setUp(shape gen.Shape, seed int64, dir string) (*stack, time.Duration, error) {
	start := time.Now()
	st, err := openStack(shape, dir)
	if err != nil {
		return nil, 0, err
	}
	if err := st.populate(gen.NewPopulation(shape, seed)); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, time.Since(start), nil
}
