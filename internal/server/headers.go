package server

// Header names the server reads or writes, spelled in MIME-canonical form
// (textproto.CanonicalMIMEHeaderKey): http.Header's Get and Set canonicalise
// the name they are given, and for a name that is neither canonical already
// nor one of net/textproto's common headers that is a fresh string on every
// call — six a request when these were spelled "X-UC-…". Header names are
// case-insensitive on the wire, so clients may go on sending either spelling;
// the documentation keeps the "X-UC-" one.
const (
	hdrAuthorization = "Authorization"
	hdrMetastore     = "X-Uc-Metastore"
	hdrWorkspace     = "X-Uc-Workspace"
	hdrIfNoneMatch   = "If-None-Match"
	hdrETag          = "Etag"
	hdrCacheControl  = "Cache-Control"
	hdrContentType   = "Content-Type"
	hdrContentLength = "Content-Length"
	hdrRetryAfter    = "Retry-After"
)
