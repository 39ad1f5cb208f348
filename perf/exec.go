package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/jsonenc"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/server"
	"unitycatalog/perf/gen"
)

// boundary is a place a request can enter the program: the socket, the HTTP
// handler, or the catalog service. The timed window always uses the socket;
// the traced run rotates operations over all three and subtracts.
type boundary interface {
	name() string
	do(req *request) (resp response, start time.Time, took time.Duration, err error)
}

// renderer turns operations into requests, reusing its buffers.
type renderer struct {
	pop    *gen.Population
	target []byte
	body   []byte
	req    request
}

var createSpecJSON = func() []byte {
	b, err := json.Marshal(tableSpec())
	if err != nil {
		panic(err)
	}
	return b
}()

func appendJSONStrings(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, s)
	}
	return append(b, ']')
}

// request renders op (or, for a listing, its page after token). inm is the
// validator to revalidate with, if the caller holds one.
func (r *renderer) request(op *gen.Op, token, inm string) *request {
	t, b := append(r.target[:0], apiPrefix...), r.body[:0]
	method := "POST"
	field := func(first bool, key, val string) {
		if !first {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, key)
		b = append(b, ':')
		b = strconv.AppendQuote(b, val)
	}
	switch op.Kind {
	case gen.GetAsset:
		method, t = "GET", append(append(t, "/assets/"...), op.Full...)
	case gen.DeleteAsset:
		method, t = "DELETE", append(append(t, "/assets/"...), op.Full...)
	case gen.UpdateAsset:
		method, t = "PATCH", append(append(t, "/assets/"...), op.Full...)
		b = append(b, '{')
		field(true, "comment", op.Comment)
		b = append(b, '}')
	case gen.ListPage:
		method = "GET"
		t = append(append(t, "/assets?parent="...), op.Full...)
		t = append(t, "&type=TABLE&maxResults="...)
		t = strconv.AppendInt(t, gen.PageSize, 10)
		if token != "" {
			t = append(append(t, "&pageToken="...), token...)
		}
	case gen.Resolve:
		t = append(t, "/resolve"...)
		b = append(b, `{"Names":`...)
		b = appendJSONStrings(b, op.Names)
		b = append(b, '}')
	case gen.QueryAssets:
		t = append(t, "/query-assets"...)
		b = append(b, '{')
		field(true, "type", op.Filter.Type)
		for _, kv := range [...][2]string{
			{"catalog_name", op.Filter.Catalog}, {"schema_name", op.Filter.Schema}, {"name_prefix", op.Filter.NamePrefix},
			{"tag_key", op.Filter.TagKey}, {"tag_value", op.Filter.TagValue},
		} {
			if kv[1] != "" {
				field(false, kv[0], kv[1])
			}
		}
		b = append(b, `,"max_results":`...)
		b = strconv.AppendInt(b, gen.PageSize, 10)
		b = append(b, '}')
	case gen.TempCreds:
		t = append(t, "/temporary-credentials"...)
		b = append(b, '{')
		if op.Path != "" {
			field(true, "path", op.Path)
		} else {
			field(true, "asset", op.Full)
		}
		field(false, "operation", "READ")
		b = append(b, '}')
	case gen.AuthorizeBatch:
		t = append(t, "/authorize-batch"...)
		b = append(b, `{"asset_ids":[`...)
		for i, li := range op.Leaves {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, r.pop.Leaves[li].ID)
		}
		b = append(b, `],"privilege":"SELECT"}`...)
	case gen.Grant:
		if op.Revoke {
			method = "DELETE"
		}
		t = append(t, "/grants"...)
		b = append(b, '{')
		field(true, "securable", op.Full)
		field(false, "principal", op.Grantee)
		field(false, "privilege", "SELECT")
		b = append(b, '}')
	case gen.SetTag:
		t = append(t, "/tags"...)
		b = append(b, '{')
		field(true, "securable", op.Full)
		field(false, "key", op.TagKey)
		field(false, "value", op.TagVal)
		b = append(b, '}')
	case gen.CreateTable:
		t = append(t, "/tables"...)
		b = append(b, '{')
		field(true, "schema_full", op.Full)
		field(false, "name", op.Name)
		b = append(b, `,"spec":`...)
		b = append(b, createSpecJSON...)
		b = append(b, '}')
	}
	r.target, r.body = t, b
	r.req = request{op: op, method: method, target: t, inm: inm, token: token}
	if len(b) > 0 {
		r.req.body = b
	}
	return &r.req
}

// --- server boundary: direct dispatch into the handler ---

// recorder is the response writer of the server boundary: it keeps the
// status, the ETag and the body, and nothing else.
type recorder struct {
	h      http.Header
	status int
	buf    []byte
}

func (r *recorder) Header() http.Header  { return r.h }
func (r *recorder) WriteHeader(code int) { r.status = code }
func (r *recorder) Write(p []byte) (int, error) {
	r.buf = append(r.buf, p...)
	return len(p), nil
}

type serverBoundary struct {
	srv *server.Server
	rec recorder
	// mallocs is the number of heap objects the last dispatch allocated,
	// from runtime.MemStats read outside the timed interval: exact for the
	// request, because ReadMemStats flushes every allocation cache and the
	// traced run dispatches sequentially. (runtime/metrics would be cheaper
	// but only accounts for small objects a span at a time.)
	mallocs uint64
	ms      runtime.MemStats
}

func newServerBoundary(srv *server.Server) *serverBoundary {
	return &serverBoundary{srv: srv, rec: recorder{h: http.Header{}}}
}

func (s *serverBoundary) name() string { return "server" }

func (s *serverBoundary) heapObjects() uint64 {
	runtime.ReadMemStats(&s.ms)
	return s.ms.Mallocs
}

func (s *serverBoundary) do(req *request) (response, time.Time, time.Duration, error) {
	hr, err := http.NewRequest(req.method, "http://perf"+string(req.target), nil)
	if err != nil {
		return response{}, time.Time{}, 0, err
	}
	if req.body != nil {
		hr.Body = readCloser{bytes.NewReader(req.body)}
		hr.ContentLength = int64(len(req.body))
		hr.Header.Set("Content-Type", "application/json")
	}
	hr.Header.Set("Authorization", "Bearer "+req.op.User)
	hr.Header.Set("X-UC-Metastore", gen.Metastore)
	if req.inm != "" {
		hr.Header.Set("If-None-Match", req.inm)
	}
	clear(s.rec.h)
	s.rec.status, s.rec.buf = http.StatusOK, s.rec.buf[:0]

	before := s.heapObjects()
	start := time.Now()
	s.srv.ServeHTTP(&s.rec, hr)
	took := time.Since(start)
	s.mallocs = s.heapObjects() - before
	return response{status: s.rec.status, body: s.rec.buf, etag: s.rec.h.Get("ETag")}, start, took, nil
}

type readCloser struct{ *bytes.Reader }

func (readCloser) Close() error { return nil }

// --- catalog boundary: the matching catalog.Service method ---

type catalogBoundary struct {
	svc *catalog.Service
	pop *gen.Population
	buf []byte
	// Kept for the encoder probes: the last objects the service returned.
	lastEntity  *erm.Entity
	lastResolve *catalog.ResolveResponse
}

func (c *catalogBoundary) name() string { return "catalog" }

func isEngine(user string) bool { return len(user) > 6 && user[:6] == "engine" }

// statusOf maps a service error to the status internal/server gives it.
func statusOf(err error, ok int) int {
	switch {
	case err == nil:
		return ok
	case errors.Is(err, catalog.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, catalog.ErrPermissionDenied), errors.Is(err, catalog.ErrTrustedEngineRequired), errors.Is(err, catalog.ErrWorkspaceBinding):
		return http.StatusForbidden
	case errors.Is(err, catalog.ErrAlreadyExists), errors.Is(err, catalog.ErrPathOverlap), errors.Is(err, catalog.ErrNotEmpty):
		return http.StatusConflict
	case errors.Is(err, catalog.ErrInvalidArgument):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// do calls the service method for req's route and times only that call. The
// result is encoded afterwards, with the encoders the server uses, so the
// same checks read it.
func (c *catalogBoundary) do(req *request) (response, time.Time, time.Duration, error) {
	op := req.op
	ctx := catalog.Ctx{Principal: privilege.Principal(op.User), Metastore: gen.Metastore, TrustedEngine: isEngine(op.User)}
	svc := c.svc
	b := c.buf[:0]
	var (
		err   error
		took  time.Duration
		okay  = http.StatusOK
		start = time.Now()
	)
	switch op.Kind {
	case gen.GetAsset:
		e, gerr := svc.GetAsset(ctx, op.Full)
		took, err = time.Since(start), gerr
		if err == nil {
			c.lastEntity = e
			b = jsonenc.AppendEntity(b, e)
		}
	case gen.Resolve:
		r, rerr := svc.Resolve(ctx, catalog.ResolveRequest{Names: op.Names})
		took, err = time.Since(start), rerr
		if err == nil {
			c.lastResolve = r
			b = jsonenc.AppendResolveResponse(b, r)
		}
	case gen.ListPage, gen.QueryAssets:
		var ents []*erm.Entity
		emit := func(e *erm.Entity) { ents = append(ents, e) }
		var next string
		if op.Kind == gen.ListPage {
			next, err = svc.ListAssetsPageFunc(ctx, op.Full, erm.TypeTable, gen.PageSize, req.token, emit)
		} else {
			f := op.Filter
			next, err = svc.QueryAssetsPageFunc(ctx, catalog.Filter{
				Type: erm.SecurableType(f.Type), CatalogName: f.Catalog, SchemaName: f.Schema, NamePrefix: f.NamePrefix,
				TagKey: f.TagKey, TagValue: f.TagValue, MaxResults: gen.PageSize, PageToken: req.token,
			}, emit)
		}
		took = time.Since(start)
		if err == nil {
			b = append(b, `{"assets":[`...)
			for i, e := range ents {
				if i > 0 {
					b = append(b, ',')
				}
				b = jsonenc.AppendEntity(b, e)
			}
			b = append(b, ']')
			if next != "" {
				b = append(b, `,"nextPageToken":`...)
				b = jsonenc.AppendString(b, next)
			}
			b = append(b, '}')
		}
	case gen.TempCreds:
		var tc catalog.TempCredential
		if op.Path != "" {
			tc, err = svc.TempCredentialForPath(ctx, op.Path, cloudsim.AccessRead)
		} else {
			tc, err = svc.TempCredentialForAsset(ctx, op.Full, cloudsim.AccessRead)
		}
		took = time.Since(start)
		if err == nil {
			b = jsonenc.AppendTempCredential(b, &tc)
		}
	case gen.AuthorizeBatch:
		list := make([]ids.ID, len(op.Leaves))
		for i, li := range op.Leaves {
			list[i] = ids.ID(c.pop.Leaves[li].ID)
		}
		start = time.Now()
		allowed, aerr := svc.AuthorizeBatch(ctx, list, privilege.Select)
		took, err = time.Since(start), aerr
		if err == nil {
			b = append(b, `{"allowed":[`...)
			for i, a := range allowed {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendBool(b, a)
			}
			b = append(b, "]}"...)
		}
	case gen.UpdateAsset:
		e, uerr := svc.UpdateAsset(ctx, op.Full, catalog.UpdateRequest{Comment: &op.Comment})
		took, err = time.Since(start), uerr
		if err == nil {
			b = jsonenc.AppendEntity(b, e)
		}
	case gen.Grant:
		okay = http.StatusNoContent
		if op.Revoke {
			err = svc.Revoke(ctx, op.Full, privilege.Principal(op.Grantee), privilege.Select)
		} else {
			err = svc.Grant(ctx, op.Full, privilege.Principal(op.Grantee), privilege.Select)
		}
		took = time.Since(start)
	case gen.SetTag:
		okay = http.StatusNoContent
		err = svc.SetTag(ctx, op.Full, "", op.TagKey, op.TagVal)
		took = time.Since(start)
	case gen.CreateTable:
		okay = http.StatusCreated
		spec := tableSpec()
		start = time.Now()
		e, cerr := svc.CreateTable(ctx, op.Full, op.Name, spec, "")
		took, err = time.Since(start), cerr
		if err == nil {
			b = jsonenc.AppendEntity(b, e)
		}
	case gen.DeleteAsset:
		okay = http.StatusNoContent
		err = svc.DeleteAsset(ctx, op.Full, false)
		took = time.Since(start)
	}
	c.buf = b
	return response{status: statusOf(err, okay), body: b}, start, took, nil
}
