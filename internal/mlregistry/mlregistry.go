// Package mlregistry extends Unity Catalog into an MLflow-style model
// registry (paper §4.2.3). The paper's integration required two pieces and
// this package mirrors both:
//
//   - the catalog side: RegisteredModel and ModelVersion asset types (added
//     through the ERM registry) whose namespace, permissions, lifecycle,
//     auditing, and credential vending all come from the shared
//     entity-relationship machinery; and
//   - the client side: Registry, the analogue of MLflow's RestStore
//     (a model-registry endpoint backed by UC's registered-model APIs), and
//     ArtifactRepository, the analogue of MLflow's ArtifactRepository
//     (reads and writes model artifacts in cloud storage using UC's model
//     temporary-credentials API).
package mlregistry

import (
	"fmt"
	"strconv"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
)

// Version statuses.
const (
	StatusPending = "PENDING_REGISTRATION"
	StatusReady   = "READY"
	StatusFailed  = "FAILED_REGISTRATION"
)

// Registry is the RestStore analogue: model-registry operations implemented
// on UC's registered-model asset APIs.
type Registry struct {
	Service *catalog.Service
}

// New returns a Registry over the catalog service.
func New(svc *catalog.Service) *Registry { return &Registry{Service: svc} }

// CreateRegisteredModel registers a new model under "catalog.schema".
func (r *Registry) CreateRegisteredModel(ctx catalog.Ctx, schemaFull, name, comment string) (*erm.Entity, error) {
	return r.Service.CreateAsset(ctx, catalog.CreateRequest{
		Type: erm.TypeRegisteredModel, Name: name, ParentFull: schemaFull, Comment: comment,
		Spec: &catalog.ModelSpec{NextVersion: 1},
	})
}

// ModelVersion describes one version of a registered model.
type ModelVersion struct {
	Model       string `json:"model"` // full name
	Version     int    `json:"version"`
	Status      string `json:"status"`
	RunID       string `json:"run_id,omitempty"`
	Source      string `json:"source,omitempty"`
	StoragePath string `json:"storage_path"`
	Comment     string `json:"comment,omitempty"`
}

// CreateModelVersion allocates the next version number for the model and a
// managed storage location for its artifacts, in PENDING state.
func (r *Registry) CreateModelVersion(ctx catalog.Ctx, modelFull, runID, source string) (ModelVersion, error) {
	var mv ModelVersion
	model, err := r.Service.GetAsset(ctx, modelFull)
	if err != nil {
		return mv, err
	}
	var spec catalog.ModelSpec
	if err := model.DecodeSpec(&spec); err != nil {
		return mv, err
	}
	if spec.NextVersion == 0 {
		spec.NextVersion = 1
	}
	version := spec.NextVersion

	entity, err := r.Service.CreateAsset(ctx, catalog.CreateRequest{
		Type: erm.TypeModelVersion, Name: strconv.Itoa(version), ParentFull: modelFull,
		Spec: &catalog.ModelVersionSpec{Version: version, Status: StatusPending, RunID: runID, Source: source},
	})
	if err != nil {
		return mv, err
	}
	spec.NextVersion = version + 1
	if _, err := r.Service.UpdateAsset(ctx, modelFull, catalog.UpdateRequest{Spec: &spec}); err != nil {
		return mv, err
	}
	return ModelVersion{
		Model: modelFull, Version: version, Status: StatusPending,
		RunID: runID, Source: source, StoragePath: entity.StoragePath,
	}, nil
}

// FinalizeModelVersion transitions a version out of PENDING once its
// artifacts are uploaded.
func (r *Registry) FinalizeModelVersion(ctx catalog.Ctx, modelFull string, version int, status string) error {
	if status != StatusReady && status != StatusFailed {
		return fmt.Errorf("%w: bad status %q", catalog.ErrInvalidArgument, status)
	}
	full := fmt.Sprintf("%s.%d", modelFull, version)
	e, err := r.Service.GetAsset(ctx, full)
	if err != nil {
		return err
	}
	var spec catalog.ModelVersionSpec
	if err := e.DecodeSpec(&spec); err != nil {
		return err
	}
	spec.Status = status
	_, err = r.Service.UpdateAsset(ctx, full, catalog.UpdateRequest{Spec: &spec})
	return err
}

// GetModelVersion fetches one version's details.
func (r *Registry) GetModelVersion(ctx catalog.Ctx, modelFull string, version int) (ModelVersion, error) {
	full := fmt.Sprintf("%s.%d", modelFull, version)
	e, err := r.Service.GetAsset(ctx, full)
	if err != nil {
		return ModelVersion{}, err
	}
	var spec catalog.ModelVersionSpec
	if err := e.DecodeSpec(&spec); err != nil {
		return ModelVersion{}, err
	}
	return ModelVersion{
		Model: modelFull, Version: spec.Version, Status: spec.Status,
		RunID: spec.RunID, Source: spec.Source, StoragePath: e.StoragePath, Comment: e.Comment,
	}, nil
}

// ListModelVersions lists a model's versions in ascending order.
func (r *Registry) ListModelVersions(ctx catalog.Ctx, modelFull string) ([]ModelVersion, error) {
	children, err := r.Service.ListAssets(ctx, modelFull, erm.TypeModelVersion)
	if err != nil {
		return nil, err
	}
	out := make([]ModelVersion, 0, len(children))
	for _, c := range children {
		var spec catalog.ModelVersionSpec
		if err := c.DecodeSpec(&spec); err != nil {
			continue
		}
		out = append(out, ModelVersion{Model: modelFull, Version: spec.Version, Status: spec.Status,
			RunID: spec.RunID, Source: spec.Source, StoragePath: c.StoragePath, Comment: c.Comment})
	}
	// Children list sorts by name (string); re-sort numerically.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Version > out[j].Version; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out, nil
}

// SetAlias points an alias (e.g. "champion") at a version, stored as a model
// property — the aliasing mechanism UC's registry exposes.
func (r *Registry) SetAlias(ctx catalog.Ctx, modelFull, alias string, version int) error {
	_, err := r.Service.UpdateAsset(ctx, modelFull, catalog.UpdateRequest{
		Properties: map[string]string{"alias." + alias: strconv.Itoa(version)},
	})
	return err
}

// ResolveAlias returns the version an alias points to.
func (r *Registry) ResolveAlias(ctx catalog.Ctx, modelFull, alias string) (int, error) {
	e, err := r.Service.GetAsset(ctx, modelFull)
	if err != nil {
		return 0, err
	}
	v, ok := e.Properties["alias."+alias]
	if !ok {
		return 0, fmt.Errorf("%w: alias %q", catalog.ErrNotFound, alias)
	}
	return strconv.Atoi(v)
}

// ArtifactRepository is the MLflow ArtifactRepository analogue: it moves
// model artifacts in and out of cloud storage using temporary credentials
// vended by UC for the model version (never standing credentials).
type ArtifactRepository struct {
	Service *catalog.Service
	Cloud   *cloudsim.Store
}

// NewArtifactRepository returns a repository over the service's cloud.
func NewArtifactRepository(svc *catalog.Service) *ArtifactRepository {
	return &ArtifactRepository{Service: svc, Cloud: svc.Cloud()}
}

// versionFull returns the model version's full name.
func versionFull(modelFull string, version int) string {
	return fmt.Sprintf("%s.%d", modelFull, version)
}

// UploadArtifact writes an artifact file under the model version's storage.
func (a *ArtifactRepository) UploadArtifact(ctx catalog.Ctx, modelFull string, version int, name string, data []byte) error {
	tc, err := a.Service.TempCredentialForAsset(ctx, versionFull(modelFull, version), cloudsim.AccessReadWrite)
	if err != nil {
		return err
	}
	return a.Cloud.Put(tc.Credential.Token, tc.Credential.Scope+"/"+name, data)
}

// DownloadArtifact reads an artifact file.
func (a *ArtifactRepository) DownloadArtifact(ctx catalog.Ctx, modelFull string, version int, name string) ([]byte, error) {
	tc, err := a.Service.TempCredentialForAsset(ctx, versionFull(modelFull, version), cloudsim.AccessRead)
	if err != nil {
		return nil, err
	}
	return a.Cloud.Get(tc.Credential.Token, tc.Credential.Scope+"/"+name)
}

// ListArtifacts lists artifact names for a version.
func (a *ArtifactRepository) ListArtifacts(ctx catalog.Ctx, modelFull string, version int) ([]string, error) {
	tc, err := a.Service.TempCredentialForAsset(ctx, versionFull(modelFull, version), cloudsim.AccessRead)
	if err != nil {
		return nil, err
	}
	infos, err := a.Cloud.List(tc.Credential.Token, tc.Credential.Scope)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(infos))
	for _, info := range infos {
		out = append(out, info.Path[len(tc.Credential.Scope)+1:])
	}
	return out, nil
}
