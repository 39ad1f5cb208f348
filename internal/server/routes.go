package server

// The route table. Every endpoint declares its pattern and handler in one
// place instead of ad-hoc HandleFunc calls; buildMux is a mechanical walk
// over the table.

import (
	"net/http"

	"unitycatalog/internal/iceberg"
)

// route is one entry of the server's route table.
type route struct {
	pattern string
	h       http.HandlerFunc
}

func (s *Server) routes() []route {
	return []route{
		// --- generic asset CRUD ---
		{pattern: "POST " + apiPrefix + "/assets", h: s.handleCreateAsset},
		{pattern: "GET " + apiPrefix + "/assets/{full}", h: s.handleGetAsset},
		{pattern: "PATCH " + apiPrefix + "/assets/{full}", h: s.handleUpdateAsset},
		{pattern: "DELETE " + apiPrefix + "/assets/{full}", h: s.handleDeleteAsset},
		{pattern: "GET " + apiPrefix + "/assets", h: s.handleListAssets},

		// --- typed conveniences matching the public UC API shape ---
		{pattern: "POST " + apiPrefix + "/catalogs", h: s.handleCreateCatalog},
		{pattern: "GET " + apiPrefix + "/catalogs", h: s.handleListCatalogs},
		{pattern: "POST " + apiPrefix + "/schemas", h: s.handleCreateSchema},
		{pattern: "POST " + apiPrefix + "/tables", h: s.handleCreateTable},

		// --- governance ---
		{pattern: "POST " + apiPrefix + "/grants", h: s.handleGrant},
		{pattern: "DELETE " + apiPrefix + "/grants", h: s.handleRevoke},
		{pattern: "GET " + apiPrefix + "/grants/{full}", h: s.handleGrantsOn},
		{pattern: "GET " + apiPrefix + "/effective-privileges/{full}", h: s.handleEffective},
		{pattern: "POST " + apiPrefix + "/tags", h: s.handleSetTag},
		{pattern: "DELETE " + apiPrefix + "/tags", h: s.handleUnsetTag},
		{pattern: "POST " + apiPrefix + "/abac-rules", h: s.handleCreateABAC},
		{pattern: "GET " + apiPrefix + "/abac-rules", h: s.handleListABAC},
		{pattern: "DELETE " + apiPrefix + "/abac-rules/{id}", h: s.handleDeleteABAC},

		// --- query path ---
		{pattern: "POST " + apiPrefix + "/resolve", h: s.handleResolve},
		{pattern: "POST " + apiPrefix + "/authorize-batch", h: s.handleAuthorizeBatch},
		{pattern: "POST " + apiPrefix + "/temporary-credentials", h: s.handleTempCredentials},

		// --- metadata query / discovery ---
		{pattern: "POST " + apiPrefix + "/query-assets", h: s.handleQueryAssets},
		{pattern: "GET " + apiPrefix + "/search", h: s.handleSearch},
		{pattern: "POST " + apiPrefix + "/lineage", h: s.handleSubmitLineage},
		{pattern: "GET " + apiPrefix + "/lineage/{id}", h: s.handleQueryLineage},

		// --- model registry ---
		{pattern: "POST " + apiPrefix + "/models", h: s.handleCreateModel},
		{pattern: "POST " + apiPrefix + "/models/{full}/versions", h: s.handleCreateModelVersion},
		{pattern: "GET " + apiPrefix + "/models/{full}/versions", h: s.handleListModelVersions},
		{pattern: "PATCH " + apiPrefix + "/models/{full}/versions/{version}", h: s.handleFinalizeModelVersion},

		// --- Delta Sharing protocol ---
		{pattern: "GET /delta-sharing/shares", h: s.handleListShares},
		{pattern: "GET /delta-sharing/shares/{share}/schemas", h: s.handleListShareSchemas},
		{pattern: "GET /delta-sharing/shares/{share}/schemas/{schema}/tables", h: s.handleListShareTables},
		{pattern: "GET /delta-sharing/shares/{share}/schemas/{schema}/tables/{table}/query", h: s.handleQueryShareTable},

		// --- Iceberg REST facade, one per metastore path segment ---
		{pattern: "/iceberg/{ms}/", h: s.handleIceberg},

		// --- extended surface: volume files ---
		{pattern: "PUT " + apiPrefix + "/volumes/{full}/files/{name...}", h: s.handlePutVolumeFile},
		{pattern: "GET " + apiPrefix + "/volumes/{full}/files/{name...}", h: s.handleGetVolumeFile},
		{pattern: "DELETE " + apiPrefix + "/volumes/{full}/files/{name...}", h: s.handleDeleteVolumeFile},
		{pattern: "GET " + apiPrefix + "/volumes/{full}/files", h: s.handleListVolumeFiles},

		// --- extended surface: table management ---
		{pattern: "POST " + apiPrefix + "/tables/{full}/clone", h: s.handleCloneTable},
		{pattern: "POST " + apiPrefix + "/assets/{full}/rename", h: s.handleRenameAsset},
		{pattern: "POST " + apiPrefix + "/tables/{full}/optimize", h: s.handleOptimizeTable},

		// --- extended surface: catalog administration ---
		{pattern: "PUT " + apiPrefix + "/catalogs/{name}/workspace-bindings", h: s.handleSetBindings},
		{pattern: "POST " + apiPrefix + "/undelete/{id}", h: s.handleUndelete},
		{pattern: "POST " + apiPrefix + "/gc", h: s.handleGC},

		// --- operational ---
		{pattern: "GET " + apiPrefix + "/stats", h: s.handleStats},
		{pattern: "GET /healthz", h: s.handleHealthz},
	}
}

func (s *Server) buildMux() {
	m := http.NewServeMux()
	s.mux = m
	for _, rt := range s.routes() {
		m.HandleFunc(rt.pattern, rt.h)
	}
	s.mountOps(m)
}

func (s *Server) handleIceberg(w http.ResponseWriter, r *http.Request) {
	msID := r.PathValue("ms")
	ice := iceberg.New(s.Service, msID)
	http.StripPrefix("/iceberg/"+msID, ice.Handler()).ServeHTTP(w, r)
}
