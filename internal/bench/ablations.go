package bench

import (
	"fmt"
	"time"

	"unitycatalog/internal/cache"
	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/pathtrie"
	"unitycatalog/internal/store"
)

// AblationBatching quantifies the §4.5 "caller-based optimization" of
// consolidating all metadata access for a query into one batched call: a
// chain of nested views over many base tables is resolved either with one
// Resolve call or with one GetAsset call per object. With a remote database
// (injected latency) and a cold cache, per-object access pays a round trip
// per securable.
func AblationBatching(o Options) (*Table, error) {
	o.Defaults()
	baseTables := 32
	if o.Quick {
		baseTables = 12
	}
	build := func() (*catalog.Service, catalog.Ctx, []string, string, error) {
		db, err := store.Open(store.Options{ReadLatency: dbReadLatency})
		if err != nil {
			return nil, catalog.Ctx{}, nil, "", err
		}
		svc, err := catalog.New(catalog.Config{DB: db})
		if err != nil {
			return nil, catalog.Ctx{}, nil, "", err
		}
		svc.CreateMetastore("ms-ab", "m", "r", "admin", "s3://root/ms-ab")
		admin := catalog.Ctx{Principal: "admin", Metastore: "ms-ab", TrustedEngine: true}
		svc.CreateCatalog(admin, "c", "")
		svc.CreateSchema(admin, "c", "s", "")
		var deps []string
		for i := 0; i < baseTables; i++ {
			name := fmt.Sprintf("base%03d", i)
			if _, err := svc.CreateTable(admin, "c.s", name, catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "x", Type: "BIGINT"}}}, ""); err != nil {
				return nil, catalog.Ctx{}, nil, "", err
			}
			deps = append(deps, "c.s."+name)
		}
		// A view over all base tables (the paper's "nested views that
		// depend on 100s of base tables" scenario, scaled).
		if _, err := svc.CreateView(admin, "c.s", "wide", catalog.ViewSpec{
			Definition: "SELECT x FROM " + deps[0], Dependencies: deps,
		}); err != nil {
			return nil, catalog.Ctx{}, nil, "", err
		}
		return svc, admin, deps, "c.s.wide", nil
	}

	// Batched: one Resolve covering the view and its dependency closure —
	// one network hop to the remote catalog service.
	svc1, admin1, _, view1, err := build()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	apiHop()
	resp, err := svc1.Resolve(admin1, catalog.ResolveRequest{Names: []string{view1}, WithCredentials: true})
	if err != nil {
		return nil, err
	}
	batched := time.Since(start)
	if len(resp.Assets) != baseTables+1 {
		return nil, fmt.Errorf("batched closure = %d assets", len(resp.Assets))
	}

	// Per-object: one GetAsset + credential call per securable, fresh
	// service (cold cache) for fairness.
	svc2, admin2, deps2, view2, err := build()
	if err != nil {
		return nil, err
	}
	start = time.Now()
	apiHop()
	if _, err := svc2.GetAsset(admin2, view2); err != nil {
		return nil, err
	}
	for _, d := range deps2 {
		apiHop()
		if _, err := svc2.GetAsset(admin2, d); err != nil {
			return nil, err
		}
		apiHop()
		if _, err := svc2.TempCredentialForAsset(admin2, d, cloudsim.AccessRead); err != nil {
			return nil, err
		}
	}
	perObject := time.Since(start)

	t := &Table{
		ID: "ablate-batch", Title: fmt.Sprintf("Batched vs per-object resolution of a view over %d base tables (cold cache, remote DB)", baseTables),
		Paper:  "§4.5: one batched API call per query; nested views over 100s of tables benefit most",
		Header: []string{"strategy", "api_calls", "latency_ms"},
		Rows: [][]string{
			{"batched_resolve", "1", f(float64(batched) / 1e6)},
			{"per_object", fi(1 + 2*baseTables), f(float64(perObject) / 1e6)},
		},
	}
	t.Finding = fmt.Sprintf("batching is %.1f× faster (%.1fms vs %.1fms) for the %d-table closure",
		float64(perObject)/float64(batched), float64(batched)/1e6, float64(perObject)/1e6, baseTables)
	return t, nil
}

// AblationReconcile compares the two cache reconciliation strategies of
// §4.5 — evict-everything vs change-log-driven selective invalidation —
// under a workload where another node writes a small fraction of keys
// between reads. Both rows drive the one production cache: the full-evict
// row catches up with (*Cache).ReconcileFull, the recovery a follower runs
// after losing events, the selective row with Refresh, the rule every
// conflict and first-miss validation follows.
func AblationReconcile(o Options) (*Table, error) {
	o.Defaults()
	keys := 2000
	rounds := 20
	if o.Quick {
		keys, rounds = 500, 8
	}
	run := func(reconcile func(node *cache.Cache, msID string) error) (time.Duration, cache.Metrics, error) {
		db, err := store.Open(store.Options{ReadLatency: dbReadLatency})
		if err != nil {
			return 0, cache.Metrics{}, err
		}
		defer db.Close()
		db.CreateMetastore("m")
		db.Update("m", func(tx *store.Tx) error {
			for i := 0; i < keys; i++ {
				tx.Put("t", fmt.Sprintf("k%05d", i), []byte("v"))
			}
			return nil
		})
		node := cache.New(db, cache.Options{})
		node.Own("m")
		// Warm.
		v, _ := node.NewView("m")
		for i := 0; i < keys; i++ {
			v.Get("t", fmt.Sprintf("k%05d", i))
		}
		v.Close()

		start := time.Now()
		for round := 0; round < rounds; round++ {
			// A foreign writer touches 1% of keys.
			db.Update("m", func(tx *store.Tx) error {
				for i := 0; i < keys/100; i++ {
					tx.Put("t", fmt.Sprintf("k%05d", (round*37+i)%keys), []byte("w"))
				}
				return nil
			})
			if err := reconcile(node, "m"); err != nil {
				return 0, cache.Metrics{}, err
			}
			// Read back a sample of keys.
			view, _ := node.NewView("m")
			for i := 0; i < keys/4; i++ {
				view.Get("t", fmt.Sprintf("k%05d", (i*13)%keys))
			}
			view.Close()
		}
		return time.Since(start), node.Metrics(), nil
	}

	fullDur, fullM, err := run((*cache.Cache).ReconcileFull)
	if err != nil {
		return nil, err
	}
	selDur, selM, err := run((*cache.Cache).Refresh)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "ablate-reconcile", Title: fmt.Sprintf("Cache reconciliation after foreign writes (%d keys, %d rounds of 1%% writes)", keys, rounds),
		Paper:  "§4.5: selective invalidation via the change-event system beats full eviction",
		Header: []string{"strategy", "total_ms", "db_misses", "hits"},
		Rows: [][]string{
			{"full_evict", f(float64(fullDur) / 1e6), f64(fullM.Misses), f64(fullM.Hits)},
			{"selective", f(float64(selDur) / 1e6), f64(selM.Misses), f64(selM.Hits)},
		},
	}
	t.Finding = fmt.Sprintf("selective reconciliation is %.1f× faster with %.0f× fewer DB reads (%d vs %d misses)",
		float64(fullDur)/float64(selDur), float64(fullM.Misses)/float64(selM.Misses), fullM.Misses, selM.Misses)
	return t, nil
}

// AblationPathIndex compares the in-memory URL-trie path resolution (§5's
// "URL-tries" complex-read index) against walking the persistent path index
// with one cache/DB lookup per path prefix — the two implementations the
// credential-by-path API can use, isolated from authorization and token
// minting.
func AblationPathIndex(o Options) (*Table, error) {
	o.Defaults()
	paths := 400
	if o.Quick {
		paths = 100
	}
	db, err := store.Open(store.Options{ReadLatency: dbReadLatency})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	db.CreateMetastore("m")
	node := cache.New(db, cache.Options{})
	node.Own("m")
	trie := pathtrie.New()

	var registered, probes []string
	node.Update("m", func(tx *store.Tx) error {
		for i := 0; i < paths; i++ {
			p := fmt.Sprintf("s3://deep/bucket/wh/area%02d/db%02d/t%04d", i%10, i%25, i)
			tx.Put("path", p, []byte(fmt.Sprintf("asset%04d", i)))
			if err := trie.Insert(p, i); err != nil {
				return err
			}
			registered = append(registered, p)
			probes = append(probes, p+"/year=2024/part-00000.dpf")
		}
		return nil
	})

	iters := 20
	// Trie resolution: longest-prefix match in memory.
	start := time.Now()
	for it := 0; it < iters; it++ {
		for _, p := range probes {
			if _, _, ok := trie.Resolve(p); !ok {
				return nil, fmt.Errorf("trie miss for %s", p)
			}
		}
	}
	trieDur := time.Since(start)

	// Index walk: probe every segment prefix against the (cached) path
	// index until one hits — what a trie-less implementation must do.
	prefixes := func(p string) []string {
		var out []string
		start := 0
		if i := indexOf(p, "://"); i >= 0 {
			start = i + 3
		}
		for i := start; i < len(p); i++ {
			if p[i] == '/' {
				out = append(out, p[:i])
			}
		}
		return append(out, p)
	}
	start = time.Now()
	for it := 0; it < iters; it++ {
		view, err := node.NewView("m")
		if err != nil {
			return nil, err
		}
		for _, p := range probes {
			found := false
			for _, pre := range prefixes(p) {
				if _, ok := view.Get("path", pre); ok {
					found = true
					break
				}
			}
			if !found {
				view.Close()
				return nil, fmt.Errorf("index walk miss for %s", p)
			}
		}
		view.Close()
	}
	walkDur := time.Since(start)

	n := paths * iters
	t := &Table{
		ID: "ablate-trie", Title: fmt.Sprintf("Path→asset resolution: URL trie vs per-prefix index probing (%d resolutions)", n),
		Paper:  "§5: URL-tries serve point lookups and path-overlap reads efficiently",
		Header: []string{"strategy", "resolutions", "total_ms", "ns_per_op"},
		Rows: [][]string{
			{"url_trie", fi(n), f(float64(trieDur) / 1e6), f(float64(trieDur.Nanoseconds()) / float64(n))},
			{"prefix_probe", fi(n), f(float64(walkDur) / 1e6), f(float64(walkDur.Nanoseconds()) / float64(n))},
		},
	}
	t.Finding = fmt.Sprintf("trie resolution %.1f× faster per lookup than per-prefix index probing", float64(walkDur)/float64(trieDur))
	return t, nil
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// AblationTokenCache measures credential vending with and without the token
// cache ("UC might cache unexpired tokens to accelerate future access").
func AblationTokenCache(o Options) (*Table, error) {
	o.Defaults()
	ops := 5000
	if o.Quick {
		ops = 1000
	}
	run := func(disable bool) (time.Duration, error) {
		db, err := store.Open(store.Options{ReadLatency: dbReadLatency})
		if err != nil {
			return 0, err
		}
		svc, err := catalog.New(catalog.Config{DB: db, DisableTokenCache: disable})
		if err != nil {
			return 0, err
		}
		// Real STS calls are remote (tens of ms); model a modest 2ms so the
		// ablation reflects what token reuse actually saves.
		svc.Cloud().STSLatency = 2 * time.Millisecond
		svc.CreateMetastore("ms-tok", "m", "r", "admin", "s3://root/ms-tok")
		admin := catalog.Ctx{Principal: "admin", Metastore: "ms-tok", TrustedEngine: true}
		svc.CreateCatalog(admin, "c", "")
		svc.CreateSchema(admin, "c", "s", "")
		for i := 0; i < 8; i++ {
			if _, err := svc.CreateTable(admin, "c.s", fmt.Sprintf("t%d", i), catalog.TableSpec{Columns: []catalog.ColumnInfo{{Name: "x", Type: "BIGINT"}}}, ""); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		for i := 0; i < ops; i++ {
			if _, err := svc.TempCredentialForAsset(admin, fmt.Sprintf("c.s.t%d", i%8), cloudsim.AccessRead); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	withCache, err := run(false)
	if err != nil {
		return nil, err
	}
	without, err := run(true)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "ablate-tokens", Title: fmt.Sprintf("Credential vending, token cache on/off (%d requests over 8 hot tables)", ops),
		Paper:  "§3.4: UC may cache unexpired tokens to accelerate future access; engines may reuse them too",
		Header: []string{"token_cache", "total_ms", "us_per_credential"},
		Rows: [][]string{
			{"on", f(float64(withCache) / 1e6), f(float64(withCache.Microseconds()) / float64(ops))},
			{"off", f(float64(without) / 1e6), f(float64(without.Microseconds()) / float64(ops))},
		},
	}
	t.Finding = fmt.Sprintf("token cache cuts credential latency %.1f× on hot assets", float64(without)/float64(withCache))
	return t, nil
}
