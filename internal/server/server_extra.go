package server

import (
	"fmt"
	"io"
	"net/http"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/optimize"
)

// This file adds the extended REST surface: volume file operations, shallow
// clones, renames, workspace bindings, lifecycle tooling (undelete, GC),
// and predictive-optimization triggers. Routes live in the table in
// routes.go.

func (s *Server) handlePutVolumeFile(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", catalog.ErrInvalidArgument, err))
		return
	}
	if err := s.Service.WriteVolumeFile(s.ctx(r), r.PathValue("full"), r.PathValue("name"), data); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) handleGetVolumeFile(w http.ResponseWriter, r *http.Request) {
	data, err := s.Service.ReadVolumeFile(s.ctx(r), r.PathValue("full"), r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set(hdrContentType, "application/octet-stream")
	w.Write(data)
}

func (s *Server) handleDeleteVolumeFile(w http.ResponseWriter, r *http.Request) {
	if err := s.Service.DeleteVolumeFile(s.ctx(r), r.PathValue("full"), r.PathValue("name")); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListVolumeFiles(w http.ResponseWriter, r *http.Request) {
	files, err := s.Service.ListVolumeFiles(s.ctx(r), r.PathValue("full"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"files": files})
}

func (s *Server) handleCloneTable(w http.ResponseWriter, r *http.Request) {
	var req struct {
		TargetSchema string `json:"target_schema"`
		TargetName   string `json:"target_name"`
	}
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	e, err := s.Service.CloneTable(s.ctx(r), r.PathValue("full"), req.TargetSchema, req.TargetName)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, e)
}

func (s *Server) handleRenameAsset(w http.ResponseWriter, r *http.Request) {
	var req struct {
		NewName string `json:"new_name"`
	}
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	e, err := s.Service.RenameAsset(s.ctx(r), r.PathValue("full"), req.NewName)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, e)
}

func (s *Server) handleOptimizeTable(w http.ResponseWriter, r *http.Request) {
	opt := optimize.New(s.Service, optimize.Options{})
	rep, err := opt.OptimizeTable(s.ctx(r), r.PathValue("full"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleSetBindings(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Workspaces []string `json:"workspaces"`
	}
	if err := readJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if err := s.Service.SetWorkspaceBindings(s.ctx(r), r.PathValue("name"), req.Workspaces); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleUndelete(w http.ResponseWriter, r *http.Request) {
	e, err := s.Service.Undelete(s.ctx(r), ids.ID(r.PathValue("id")))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, e)
}

func (s *Server) handleGC(w http.ResponseWriter, r *http.Request) {
	ctx := s.ctx(r)
	// GC is an administrative sweep: require metastore admin rights.
	info, err := s.Service.Metastore(ctx.Metastore)
	if err != nil {
		writeErr(w, err)
		return
	}
	if info.Owner != ctx.Principal {
		writeErr(w, fmt.Errorf("%w: GC requires the metastore owner", catalog.ErrPermissionDenied))
		return
	}
	res, err := s.Service.RunGC(ctx.Metastore)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
