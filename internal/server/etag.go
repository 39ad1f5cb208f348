package server

// Version-keyed conditional GET. The cache layer already tracks each
// metastore's known version, and every metadata write bumps it, so that
// version is a perfect change detector for read responses: as long as it is
// unchanged (and the authz time bucket has not rolled), a repeat of the same
// request by the same principal would produce the same bytes. The server
// therefore stamps an ETag derived from (version, principal, request) on
// cacheable responses and answers If-None-Match revalidations with 304 — no
// service call, no encode work, no body.
//
// Group-membership changes do not bump the metastore version (grants and
// hierarchy changes do), so validators additionally carry a coarse time
// bucket bounded by Config.ETagMaxAge. A revoked group member keeps reading
// cached bodies for at most one bucket — the same staleness contract the
// compiled-authz snapshot TTL already accepts.
//
// Credential-bearing responses are never conditional: vended tokens expire
// on their own clock, independent of the metastore version. Those responses
// are marked Cache-Control: no-store instead.

import (
	"net/http"
	"strconv"
	"strings"
)

// appendETag computes the validator for the current request: the metastore
// version in the clear (useful when debugging with curl), then an FNV-1a
// fold of the request identity (principal, metastore, workspace, method,
// path, query, body hash), then the ETagMaxAge time bucket of the catalog's
// clock. It appends the tag, at most maxETag bytes, to dst.
func (s *Server) appendETag(dst []byte, version uint64, r *http.Request, bodyHash uint64) []byte {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	mix(r.Header.Get(hdrAuthorization))
	mix(r.Header.Get(hdrMetastore))
	mix(r.Header.Get(hdrWorkspace))
	mix(r.Method)
	mix(r.URL.Path)
	mix(r.URL.RawQuery)
	h ^= bodyHash
	h *= 1099511628211
	bucket := uint64(s.Service.Clock().Now().UnixNano()) / uint64(s.cfg.ETagMaxAge)
	b := append(dst, `"v`...)
	b = strconv.AppendUint(b, version, 10)
	b = append(b, '-')
	b = strconv.AppendUint(b, h, 36)
	b = append(b, '-')
	b = strconv.AppendUint(b, bucket, 36)
	return append(b, '"')
}

// conditional stamps the current validator onto the response and, when the
// client's If-None-Match still matches it, short-circuits with 304 Not
// Modified (returning true). A 304 implies the client obtained the same
// validator earlier — same principal, same request, same metastore version,
// same time bucket — so skipping the service call cannot leak anything the
// client has not already seen.
func (s *Server) conditional(w http.ResponseWriter, r *http.Request, bodyHash uint64) bool {
	if s.cfg.ETagMaxAge <= 0 {
		return false
	}
	v, err := s.Service.MetastoreVersion(r.Header.Get(hdrMetastore))
	if err != nil {
		return false
	}
	var buf [maxETag]byte
	etag := headerValue(w, valETag, s.appendETag(buf[:0], v, r, bodyHash))
	tag := etag[0]
	h := w.Header()
	h[hdrETag] = etag
	h[hdrCacheControl] = revalidate
	if inm := r.Header.Get(hdrIfNoneMatch); inm != "" && etagMatch(inm, tag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// etagMatch reports whether the If-None-Match header (a comma-separated
// validator list, possibly weak-prefixed or "*") matches tag.
func etagMatch(header, tag string) bool {
	for header != "" {
		f, rest, _ := strings.Cut(header, ",")
		header = rest
		f = strings.TrimPrefix(strings.TrimSpace(f), "W/")
		if f == tag || f == "*" {
			return true
		}
	}
	return false
}
