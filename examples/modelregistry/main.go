// Model registry (paper §4.2.3): Unity Catalog acting as an MLflow-style
// model registry. Registered models live in the same three-level namespace
// as tables, inherit the same governance, and their artifacts move through
// the same credential-vending machinery.
package main

import (
	"errors"
	"fmt"
	"log"

	"unitycatalog/internal/mlregistry"
	"unitycatalog/uc"
)

func main() {
	cat, err := uc.Open(uc.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer cat.Close()
	cat.CreateMetastore("ms1", "main", "us-east-1", "admin", "s3://acme/ms1")
	admin := cat.Session("admin", "ms1")
	adminCtx := admin.Ctx()

	admin.CreateCatalog("ml", "machine learning assets")
	admin.CreateSchema("ml", "prod", "")

	// The RestStore analogue: registry operations on UC asset APIs.
	reg := cat.Models
	if _, err := reg.CreateRegisteredModel(adminCtx, "ml.prod", "churn", "churn prediction model"); err != nil {
		log.Fatal(err)
	}

	// Train twice: each run registers a new version with managed artifact
	// storage allocated by the catalog.
	art := cat.Artifacts
	for run := 1; run <= 2; run++ {
		mv, err := reg.CreateModelVersion(adminCtx, "ml.prod.churn", fmt.Sprintf("run-%d", run), "s3://mlflow/exp/7")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered version %d (artifacts at %s)\n", mv.Version, mv.StoragePath)

		// The ArtifactRepository analogue: uploads go through a temporary
		// credential vended for exactly this model version's path.
		weights := []byte(fmt.Sprintf("weights-for-run-%d", run))
		if err := art.UploadArtifact(adminCtx, "ml.prod.churn", mv.Version, "model.bin", weights); err != nil {
			log.Fatal(err)
		}
		if err := art.UploadArtifact(adminCtx, "ml.prod.churn", mv.Version, "MLmodel", []byte("flavor: sklearn")); err != nil {
			log.Fatal(err)
		}
		if err := reg.FinalizeModelVersion(adminCtx, "ml.prod.churn", mv.Version, mlregistry.StatusReady); err != nil {
			log.Fatal(err)
		}
	}

	// Promote version 2 to champion via an alias and resolve it back.
	if err := reg.SetAlias(adminCtx, "ml.prod.churn", "champion", 2); err != nil {
		log.Fatal(err)
	}
	v, _ := reg.ResolveAlias(adminCtx, "ml.prod.churn", "champion")
	fmt.Printf("champion alias -> version %d\n", v)

	// A serving service with EXECUTE can download the champion's artifacts;
	// a stranger cannot.
	admin.Grant("ml", "serving-svc", uc.UseCatalog)
	admin.Grant("ml.prod", "serving-svc", uc.UseSchema)
	admin.Grant("ml.prod.churn", "serving-svc", uc.Execute)
	serving := uc.Ctx{Principal: "serving-svc", Metastore: "ms1"}
	data, err := art.DownloadArtifact(serving, "ml.prod.churn", v, "model.bin")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving-svc fetched %q via vended credential\n", data)
	if _, err := art.DownloadArtifact(uc.Ctx{Principal: "stranger", Metastore: "ms1"}, "ml.prod.churn", v, "model.bin"); errors.Is(err, uc.ErrPermissionDenied) {
		fmt.Println("stranger denied artifact access ✓")
	}

	// Models are ordinary securables: listable, searchable, auditable.
	versions, _ := reg.ListModelVersions(adminCtx, "ml.prod.churn")
	fmt.Printf("versions: %d (all %s)\n", len(versions), versions[0].Status)
	cat.Search.Sync() // the search index follows change events asynchronously
	hits, _ := cat.Search.Search(adminCtx, "churn", 0)
	fmt.Printf("discovery search for 'churn': %d hit(s)\n", len(hits))
}
