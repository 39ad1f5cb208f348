package server

// Response encoding for the HTTP front end. Hot routes (resolve,
// authorize-batch, temp-credentials, get-asset, list/query pages, healthz)
// encode through internal/jsonenc's pooled append-style encoders — zero
// allocations in steady state, byte-identical to encoding/json — while the
// long tail keeps the generic reflection path. encoding/json is also the
// byte-identity oracle the pooled encoders are tested against
// (encoding_internal_test.go, conditional_test.go).
//
// All paths marshal the full body before touching the response header, so an
// encoding failure becomes a clean 500 (counted by uc_http_encode_errors and
// surfaced in the access log) instead of a 200 with a truncated body, and
// every response carries Content-Length.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/jsonenc"
)

// sendJSON writes a fully encoded JSON body with Content-Length.
func sendJSON(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set(hdrContentType, "application/json")
	h.Set(hdrContentLength, strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// sendPooled writes the buffer's contents and returns it to the pool.
func sendPooled(w http.ResponseWriter, status int, buf *jsonenc.Buffer) {
	sendJSON(w, status, buf.B)
	jsonenc.Put(buf)
}

// writeJSON is the generic response writer for the non-hot routes.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		encodeFail(w, err)
		return
	}
	sendJSON(w, status, b)
}

// encodeFail reports a response-encoding failure as a 500 with an error
// body, records the cause for the access log, and bumps
// uc_http_encode_errors.
func encodeFail(w http.ResponseWriter, err error) {
	err = fmt.Errorf("response encoding failed: %w", err)
	if sw, ok := w.(*statusWriter); ok {
		sw.err = err
		if sw.srv != nil {
			sw.srv.encodeErrors.Inc()
		}
	}
	b, _ := json.Marshal(errorBody{Error: err.Error(), Code: http.StatusInternalServerError})
	sendJSON(w, http.StatusInternalServerError, b)
}

func readJSON(r *http.Request, v any) error {
	_, err := readJSONHash(r, v)
	return err
}

// readJSONHash decodes the request body into v (unknown fields rejected,
// like readJSON always has) and returns the FNV-1a hash of the raw bytes,
// which conditional POST routes fold into their cache validator. The body is
// staged through a pooled buffer so the read itself does not allocate in
// steady state.
func readJSONHash(r *http.Request, v any) (uint64, error) {
	buf := jsonenc.Get()
	defer jsonenc.Put(buf)
	b := buf.B
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("%w: bad request body: %v", catalog.ErrInvalidArgument, err)
		}
	}
	buf.B = b
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return 0, fmt.Errorf("%w: bad request body: %v", catalog.ErrInvalidArgument, err)
	}
	return fnv1a(b), nil
}

// fnv1a is the 64-bit FNV-1a hash, inlined to stay allocation-free.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// appendEntities appends a []*erm.Entity array (nil emits null, matching
// encoding/json on a nil slice).
func appendEntities(dst []byte, es []*erm.Entity) []byte {
	if es == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, e := range es {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonenc.AppendEntity(dst, e)
	}
	return append(dst, ']')
}

// assetStream builds a {"assets":[...],"nextPageToken":...} body
// element-by-element as the keyset scan emits entities, so paginated
// responses never materialize a page slice. With zero emissions the assets
// field is null, matching the naive encoding of a nil slice.
type assetStream struct {
	buf *jsonenc.Buffer
	n   int
}

func newAssetStream() *assetStream {
	b := jsonenc.Get()
	b.B = append(b.B, `{"assets":`...)
	return &assetStream{buf: b}
}

func (as *assetStream) emit(e *erm.Entity) {
	if as.n == 0 {
		as.buf.B = append(as.buf.B, '[')
	} else {
		as.buf.B = append(as.buf.B, ',')
	}
	as.buf.B = jsonenc.AppendEntity(as.buf.B, e)
	as.n++
}

// finish closes the body, appending the continuation token when present, and
// returns the complete response bytes (still owned by the stream's buffer).
func (as *assetStream) finish(next string) []byte {
	if as.n == 0 {
		as.buf.B = append(as.buf.B, "null"...)
	} else {
		as.buf.B = append(as.buf.B, ']')
	}
	if next != "" {
		as.buf.B = append(as.buf.B, `,"nextPageToken":`...)
		as.buf.B = jsonenc.AppendString(as.buf.B, next)
	}
	as.buf.B = append(as.buf.B, '}')
	return as.buf.B
}

func (as *assetStream) close() {
	jsonenc.Put(as.buf)
	as.buf = nil
}

// appendHealthz encodes the healthz body. The wal and authz sections carry
// Go field names (their structs have no json tags); the differential test
// keeps this in lockstep with encoding/json.
func appendHealthz(dst []byte, h *healthzResponse) []byte {
	dst = append(dst, `{"status":`...)
	dst = jsonenc.AppendString(dst, h.Status)
	dst = append(dst, `,"degraded":{"cache":`...)
	dst = jsonenc.AppendBool(dst, h.Degraded.Cache)
	dst = append(dst, `,"wal":`...)
	dst = jsonenc.AppendBool(dst, h.Degraded.WAL)
	dst = append(dst, `},"wal":{"Batches":`...)
	dst = jsonenc.AppendInt(dst, h.WAL.Batches)
	dst = append(dst, `,"Entries":`...)
	dst = jsonenc.AppendInt(dst, h.WAL.Entries)
	dst = append(dst, `,"Syncs":`...)
	dst = jsonenc.AppendInt(dst, h.WAL.Syncs)
	dst = append(dst, `,"MaxBatch":`...)
	dst = jsonenc.AppendInt(dst, h.WAL.MaxBatch)
	dst = append(dst, `},"cache":`...)
	if h.Cache == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range h.Cache {
			if i > 0 {
				dst = append(dst, ',')
			}
			mh := &h.Cache[i]
			dst = append(dst, `{"metastore_id":`...)
			dst = jsonenc.AppendString(dst, mh.MetastoreID)
			dst = append(dst, `,"degraded":`...)
			dst = jsonenc.AppendBool(dst, mh.Degraded)
			dst = append(dst, `,"known_version":`...)
			dst = jsonenc.AppendUint(dst, mh.KnownVersion)
			dst = append(dst, `,"since_last_sync":`...)
			dst = jsonenc.AppendInt(dst, int64(mh.SinceLastSync))
			dst = append(dst, `,"entries":`...)
			dst = jsonenc.AppendInt(dst, mh.Entries)
			dst = append(dst, `,"decoded_hits":`...)
			dst = jsonenc.AppendInt(dst, mh.DecodedHits)
			dst = append(dst, `,"decodes":`...)
			dst = jsonenc.AppendInt(dst, mh.Decodes)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"authz":{"Hits":`...)
	dst = jsonenc.AppendInt(dst, h.Authz.Hits)
	dst = append(dst, `,"Misses":`...)
	dst = jsonenc.AppendInt(dst, h.Authz.Misses)
	dst = append(dst, `,"Builds":`...)
	dst = jsonenc.AppendInt(dst, h.Authz.Builds)
	dst = append(dst, `,"Invalidations":`...)
	dst = jsonenc.AppendInt(dst, h.Authz.Invalidations)
	dst = append(dst, `,"Expirations":`...)
	dst = jsonenc.AppendInt(dst, h.Authz.Expirations)
	dst = append(dst, `,"Evictions":`...)
	dst = jsonenc.AppendInt(dst, h.Authz.Evictions)
	dst = append(dst, `,"Entries":`...)
	dst = jsonenc.AppendInt(dst, h.Authz.Entries)
	dst = append(dst, `,"Patches":`...)
	dst = jsonenc.AppendInt(dst, h.Authz.Patches)
	dst = append(dst, `,"MemoDropped":`...)
	dst = jsonenc.AppendInt(dst, h.Authz.MemoDropped)
	return append(dst, "}}"...)
}
