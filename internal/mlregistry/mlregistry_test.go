package mlregistry

import (
	"errors"
	"testing"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

func setup(t *testing.T) (*Registry, *ArtifactRepository, catalog.Ctx) {
	t.Helper()
	db, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := catalog.New(catalog.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	svc.CreateMetastore("ms1", "main", "r", "admin", "s3://root/ms1")
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1"}
	svc.CreateCatalog(admin, "ml", "")
	svc.CreateSchema(admin, "ml", "prod", "")
	return New(svc), NewArtifactRepository(svc), admin
}

func TestModelLifecycle(t *testing.T) {
	reg, _, admin := setup(t)
	model, err := reg.CreateRegisteredModel(admin, "ml.prod", "churn", "churn prediction")
	if err != nil {
		t.Fatal(err)
	}
	if model.FullName != "ml.prod.churn" || model.StoragePath == "" {
		t.Fatalf("model = %+v", model)
	}
	// Versions are numbered sequentially.
	v1, err := reg.CreateModelVersion(admin, "ml.prod.churn", "run-1", "s3://mlflow/run-1")
	if err != nil || v1.Version != 1 || v1.Status != StatusPending {
		t.Fatalf("v1 = %+v, %v", v1, err)
	}
	v2, err := reg.CreateModelVersion(admin, "ml.prod.churn", "run-2", "")
	if err != nil || v2.Version != 2 {
		t.Fatalf("v2 = %+v, %v", v2, err)
	}
	if v1.StoragePath == v2.StoragePath {
		t.Fatal("versions share storage")
	}
	// Finalize v1 and read it back.
	if err := reg.FinalizeModelVersion(admin, "ml.prod.churn", 1, StatusReady); err != nil {
		t.Fatal(err)
	}
	got, err := reg.GetModelVersion(admin, "ml.prod.churn", 1)
	if err != nil || got.Status != StatusReady || got.RunID != "run-1" {
		t.Fatalf("get v1 = %+v, %v", got, err)
	}
	if err := reg.FinalizeModelVersion(admin, "ml.prod.churn", 2, "BOGUS"); !errors.Is(err, catalog.ErrInvalidArgument) {
		t.Fatalf("bogus status: %v", err)
	}
	// Listing is in version order.
	vs, err := reg.ListModelVersions(admin, "ml.prod.churn")
	if err != nil || len(vs) != 2 || vs[0].Version != 1 || vs[1].Version != 2 {
		t.Fatalf("versions = %+v, %v", vs, err)
	}
}

func TestAliases(t *testing.T) {
	reg, _, admin := setup(t)
	reg.CreateRegisteredModel(admin, "ml.prod", "ranker", "")
	reg.CreateModelVersion(admin, "ml.prod.ranker", "", "")
	reg.CreateModelVersion(admin, "ml.prod.ranker", "", "")
	if err := reg.SetAlias(admin, "ml.prod.ranker", "champion", 2); err != nil {
		t.Fatal(err)
	}
	v, err := reg.ResolveAlias(admin, "ml.prod.ranker", "champion")
	if err != nil || v != 2 {
		t.Fatalf("alias = %d, %v", v, err)
	}
	if _, err := reg.ResolveAlias(admin, "ml.prod.ranker", "missing"); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("missing alias: %v", err)
	}
}

func TestArtifactsViaCredentialVending(t *testing.T) {
	reg, art, admin := setup(t)
	reg.CreateRegisteredModel(admin, "ml.prod", "churn", "")
	reg.CreateModelVersion(admin, "ml.prod.churn", "run-1", "")

	weights := []byte("model-weights-bytes")
	if err := art.UploadArtifact(admin, "ml.prod.churn", 1, "model.bin", weights); err != nil {
		t.Fatal(err)
	}
	if err := art.UploadArtifact(admin, "ml.prod.churn", 1, "MLmodel", []byte("flavor: sklearn")); err != nil {
		t.Fatal(err)
	}
	got, err := art.DownloadArtifact(admin, "ml.prod.churn", 1, "model.bin")
	if err != nil || string(got) != string(weights) {
		t.Fatalf("download = %q, %v", got, err)
	}
	names, err := art.ListArtifacts(admin, "ml.prod.churn", 1)
	if err != nil || len(names) != 2 {
		t.Fatalf("artifacts = %v, %v", names, err)
	}
}

func TestModelAccessControl(t *testing.T) {
	reg, art, admin := setup(t)
	reg.CreateRegisteredModel(admin, "ml.prod", "churn", "")
	reg.CreateModelVersion(admin, "ml.prod.churn", "", "")
	art.UploadArtifact(admin, "ml.prod.churn", 1, "model.bin", []byte("w"))

	// Unprivileged principals cannot reach model metadata or artifacts.
	eve := catalog.Ctx{Principal: "eve", Metastore: "ms1"}
	if _, err := reg.GetModelVersion(eve, "ml.prod.churn", 1); !errors.Is(err, catalog.ErrPermissionDenied) {
		t.Fatalf("metadata leak: %v", err)
	}
	if _, err := art.DownloadArtifact(eve, "ml.prod.churn", 1, "model.bin"); !errors.Is(err, catalog.ErrPermissionDenied) {
		t.Fatalf("artifact leak: %v", err)
	}
	// EXECUTE (+ usage) unlocks read access, like any other asset type.
	svc := reg.Service
	svc.Grant(admin, "ml", "eve", privilege.UseCatalog)
	svc.Grant(admin, "ml.prod", "eve", privilege.UseSchema)
	svc.Grant(admin, "ml.prod.churn", "eve", privilege.Execute)
	if _, err := reg.GetModelVersion(eve, "ml.prod.churn", 1); err != nil {
		t.Fatalf("after grant: %v", err)
	}
	if _, err := art.DownloadArtifact(eve, "ml.prod.churn", 1, "model.bin"); err != nil {
		t.Fatalf("artifact after grant: %v", err)
	}
	// But not write access.
	if err := art.UploadArtifact(eve, "ml.prod.churn", 1, "x", []byte("y")); !errors.Is(err, catalog.ErrPermissionDenied) {
		t.Fatalf("write leak: %v", err)
	}
}
