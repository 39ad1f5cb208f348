package catalog

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"unitycatalog/internal/audit"
	"unitycatalog/internal/cache"
	"unitycatalog/internal/clock"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/faults"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// TestWorkspaceBindingFailsClosedInOutage: a workspace-bound catalog stays
// enforced when the store is unreachable. The table and its schema are in the
// cache, alice's authorization memo and her vended token are warm, the
// catalog's record has been evicted, and the outage has outlasted
// MaxStaleness — so the one record that says "not from this workspace" cannot
// be read. Until PR 20 the binding walk stopped at the unreadable ancestor and
// passed, and the memo and the token cache answered a request from the wrong
// workspace with a credential.
func TestWorkspaceBindingFailsClosedInOutage(t *testing.T) {
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	fc := clock.NewFake(time.Unix(1000, 0))
	svc, err := New(Config{DB: db, CacheOpts: cache.Options{
		MaxEntriesPerMetastore: 48, Clock: fc, MaxStaleness: time.Minute,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateMetastore("ms1", "main", "us-east-1", "admin", "s3://metastore-root/ms1"); err != nil {
		t.Fatal(err)
	}
	admin := Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
	tbl := seedNamespace(t, svc, admin)
	for _, g := range []struct {
		on   string
		priv privilege.Privilege
	}{{"sales", privilege.UseCatalog}, {"sales.raw", privilege.UseSchema}, {"sales.raw.orders", privilege.Select}} {
		if err := svc.Grant(admin, g.on, "alice", g.priv); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.SetWorkspaceBindings(admin, "sales", []string{"ws-us"}); err != nil {
		t.Fatal(err)
	}
	schema, err := svc.GetAsset(Ctx{Principal: "admin", Metastore: "ms1", Workspace: "ws-us"}, "sales.raw")
	if err != nil {
		t.Fatal(err)
	}
	catalogID := schema.ParentID
	path := tbl.StoragePath + "/part-0.parquet"
	us := Ctx{Principal: "alice", Metastore: "ms1", Workspace: "ws-us"}
	eu := Ctx{Principal: "alice", Metastore: "ms1", Workspace: "ws-eu"}

	// Healthy: the bound workspace is served, the other refused by name.
	if _, err := svc.TempCredentialForPath(us, path, cloudsim.AccessRead); err != nil {
		t.Fatalf("bound workspace, healthy: %v", err)
	}
	if _, err := svc.TempCredentialForPath(eu, path, cloudsim.AccessRead); !errors.Is(err, ErrWorkspaceBinding) {
		t.Fatalf("wrong workspace, healthy: %v, want ErrWorkspaceBinding", err)
	}

	// Push the catalog's record out of the 48-record cache with reads of
	// absent keys, re-reading the table and the schema as we go, until the
	// cache holds those two decoded and the catalog not at all.
	decoded := func() map[ids.ID]bool {
		held := map[ids.ID]bool{}
		svc.cache.EachDecoded("ms1", func(table, key string, _ []byte, _ any) {
			if table == erm.TableEntity {
				held[ids.ID(key)] = true
			}
		})
		return held
	}
	for i := 0; ; i++ {
		if held := decoded(); held[tbl.ID] && held[schema.ID] && !held[catalogID] {
			break
		}
		if i == 10000 {
			t.Fatalf("could not evict the catalog's record alone: cache holds %v", decoded())
		}
		v, err := svc.viewMS("ms1")
		if err != nil {
			t.Fatal(err)
		}
		v.Get("junk", fmt.Sprintf("k%05d", i))
		erm.GetEntity(v, tbl.ID)
		erm.GetEntity(v, schema.ID)
		v.Close()
	}
	memo := svc.AuthzMetrics()

	// The store goes away and stays away past the staleness bound.
	db.SetFaults(faults.New(1).AddRule(faults.Rule{Class: faults.Unavailable, P: 1, RetryAfter: time.Second}))
	fc.Advance(2 * time.Minute)

	tc, err := svc.TempCredentialForPath(eu, path, cloudsim.AccessRead)
	if err == nil {
		t.Fatalf("wrong workspace served a credential for %s during the outage", tc.AssetName)
	}
	if !faults.Is(err, faults.Unavailable) || errors.Is(err, ErrNotFound) {
		t.Fatalf("wrong workspace during the outage: %v, want the backend failure", err)
	}
	if _, err := svc.GetAsset(eu, "sales.raw.orders"); !faults.Is(err, faults.Unavailable) {
		t.Fatalf("by name during the outage: %v, want the backend failure", err)
	}
	// Refused and audited, like any other denial.
	denials := svc.Audit().Filter(func(r audit.Record) bool {
		return r.Kind == audit.KindAuthz && !r.Allowed && r.Detail == "ancestor unreadable" && r.Securable == tbl.ID
	})
	if len(denials) != 1 || denials[0].Principal != "alice" {
		t.Fatalf("audit holds %d 'ancestor unreadable' denials for the table, want alice's one: %+v", len(denials), denials)
	}
	// The memo was warm throughout: nothing above was refused because the
	// authorization snapshot had to be rebuilt.
	if after := svc.AuthzMetrics(); after.Builds != memo.Builds {
		t.Fatalf("authorization snapshots rebuilt during the outage (%d -> %d): the memo was not warm", memo.Builds, after.Builds)
	}

	// The store returns: the bound workspace is served again, the other
	// refused by the binding itself.
	db.SetFaults(nil)
	if _, err := svc.TempCredentialForPath(us, path, cloudsim.AccessRead); err != nil {
		t.Fatalf("bound workspace after recovery: %v", err)
	}
	if _, err := svc.TempCredentialForPath(eu, path, cloudsim.AccessRead); !errors.Is(err, ErrWorkspaceBinding) {
		t.Fatalf("wrong workspace after recovery: %v, want ErrWorkspaceBinding", err)
	}
}
