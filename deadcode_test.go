package unitycatalog_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAllowed are the exported names under internal/ that no non-test Go
// refers to and that stay anyway, keyed by package directory and name ("*":
// the whole package), with the reason. Only internal/ is checked: uc is the
// public facade and cmd/, examples/ and perf/ are programs.
var deadAllowed = map[string]string{
	"internal/client *":                        "the Go client is a public surface for programs outside this module",
	"internal/bench *":                         "the experiment harness's arms and results are named by the command line and EXPERIMENTS.md",
	"internal/audit SetSink":                   "seam: a test routes the audit log's records to its own sink",
	"internal/audit SetClock":                  "seam: tests run the audit log on a fake clock",
	"internal/catalog SetClock":                "seam: tests run the directory on a fake clock",
	"internal/clock NewFake":                   "seam: the fake clock every time-dependent test drives",
	"internal/clock Advance":                   "seam: the fake clock every time-dependent test drives",
	"internal/cloudsim SetFaults":              "seam: fault injection into the simulated cloud",
	"internal/cloudsim SetFaultFunc":           "seam: fault injection into the simulated cloud",
	"internal/faults AddRule":                  "seam: the injector's schedule, built by the fault tests",
	"internal/faults Schedule":                 "seam: the injector's schedule, built by the fault tests",
	"internal/faults SetEnabled":               "seam: the injector's schedule, built by the fault tests",
	"internal/faults InjectedTotal":            "seam: what the injector injected, read by the fault tests",
	"internal/server SetFaults":                "seam: fault injection behind the HTTP server",
	"internal/store SetFaults":                 "seam: fault injection into the database after Open",
	"internal/obs Rearm":                       "seam: re-arms the flight recorder between incidents in its tests",
	"internal/cache EntryCount":                "observer: the records a cache holds, read by the cache tests",
	"internal/cache EachDecoded":               "observer: the shared-entity differentials compare every decoded form",
	"internal/search DocCount":                 "observer: documents the search index holds",
	"internal/cloudsim ObjectCount":            "observer: objects the simulated cloud holds",
	"internal/events Lag":                      "observer: a follower's lag behind the event log",
	"internal/events Resyncs":                  "observer: a follower's resyncs",
	"internal/obs Folds":                       "observer: label folds of a metric family",
	"internal/obs Active":                      "observer: whether a span records",
	"internal/hms TableCount":                  "observer: tables the Hive metastore holds",
	"internal/workload CountByType":            "observer: a generated population's assets by type",
	"internal/delta LiveRecords":               "observer: a table's rows under its deletion vectors",
	"internal/server Flight":                   "observer: the server's flight recorder",
	"internal/erm Types":                       "observer: the registered asset types",
	"internal/catalog RemoveMember":            "operation of the group directory, driven by its tests",
	"internal/catalog CreateExternalLocation":  "operation the paper names (§4.3), driven by its tests",
	"internal/catalog CreateStorageCredential": "operation the paper names (§4.3), driven by its tests",
	"internal/catalog OverlappingPaths":        "operation: the paths overlapping a path, driven by its tests",
	"internal/catalog ListAssetsPage":          "operation: a listing page as a value, beside ListAssetsPageFunc that the server streams",
	"internal/catalog QueryAssetsPage":         "operation: a query page as a value, beside QueryAssetsPageFunc that the server streams",
	"internal/cloudsim MintCredential":         "operation of the simulated cloud's credential service",
	"internal/hms DropDatabase":                "operation of the Hive metastore API",
	"internal/hms ExternalTable":               "one of Hive's table kinds, which a client's JSON carries",
	"internal/hms VirtualView":                 "one of Hive's table kinds, which a client's JSON carries",
	"internal/mlregistry GetModelVersion":      "operation of the model registry API",
	"internal/mlregistry ListArtifacts":        "operation of the model registry API",
	"internal/optimize RunOnce":                "operation: one pass of the optimizer without its loop",
	"internal/sharing AddTableToShare":         "operation of Delta Sharing, driven by its tests",
	"internal/sharing GrantShare":              "operation of Delta Sharing, driven by its tests",
	"internal/store DropMetastore":             "operation: the database's metastore lifecycle, logged and replayed",
	"internal/txn NewCoordinator":              "operation: multi-statement transactions (§4.3), driven by their tests",
	"internal/txn Stage":                       "operation: multi-statement transactions (§4.3), driven by their tests",
	"internal/privilege NewCompiled":           "operation: compiles an authorization snapshot without a cache",
	"internal/privilege For":                   "operation: a compiled snapshot's decision for one securable",
	"internal/privilege NewMemStore":           "operation: the in-memory grant store the privilege tests run on",
	"internal/privilege UnmarshalFGAC":         "operation: decodes a table's row filter and column masks",
	"internal/obs SetDetail":                   "operation: a span's detail after it started",
	"internal/erm ChildKey":                    "the child table's row key (ChildPrefix's), which the store derives",
}

// interfaceMethods are method names that a type exports to satisfy an
// interface of the standard library or of the program, which calls them
// without naming the type.
var interfaceMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true, "As": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true, "Read": true, "Write": true, "Close": true,
}

// TestNoDeadExports lists the exported functions, methods, types, struct
// fields and constants declared in non-test Go under internal/ whose name no
// non-test Go in the module uses anywhere but where it is declared, and fails
// on any that deadAllowed does not name, and on an entry of deadAllowed that
// names something used or gone. It matches by name, not by type: a
// name that something else shares counts as used, so what it reports is dead
// for certain and what it misses is left to review. Fields of structs that
// carry struct tags are skipped: encoding/json reaches them by reflection.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		dir, name string
		pos       token.Pos
	}
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	used := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		mine := strings.HasPrefix(dir, "internal/")
		add := func(id *ast.Ident) {
			declIdents[id] = true
			if mine && id.IsExported() {
				decls = append(decls, decl{dir, id.Name, id.Pos()})
			}
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				if dl.Recv == nil || !interfaceMethods[dl.Name.Name] {
					add(dl.Name)
				}
			case *ast.GenDecl:
				for _, spec := range dl.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						add(sp.Name)
						if st, ok := sp.Type.(*ast.StructType); ok {
							for _, fl := range st.Fields.List {
								if fl.Tag != nil {
									continue
								}
								for _, n := range fl.Names {
									add(n)
								}
							}
						}
					case *ast.ValueSpec:
						if dl.Tok == token.CONST {
							for _, n := range sp.Names {
								add(n)
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				used[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	stale := map[string]bool{}
	for k := range deadAllowed {
		if !strings.HasSuffix(k, " *") {
			stale[k] = true
		}
	}
	for _, d := range decls {
		if used[d.name] > 0 {
			continue
		}
		delete(stale, d.dir+" "+d.name)
		if _, ok := deadAllowed[d.dir+" *"]; ok {
			continue
		}
		if _, ok := deadAllowed[d.dir+" "+d.name]; ok {
			continue
		}
		dead = append(dead, fset.Position(d.pos).String()+": "+d.name)
	}
	for k := range stale {
		dead = append(dead, "deadAllowed names "+k+", which is used or gone: drop the entry")
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: an exported name referred to nowhere but its declaration; delete it, or name it in deadAllowed with a reason", d)
	}
}
