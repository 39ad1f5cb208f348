package server

import (
	"net/textproto"
	"testing"

	"unitycatalog/internal/obs"
)

// TestHeaderNamesCanonical: every header name the server reads or writes is
// already in the form http.Header keys take, so no Get or Set has to build it.
// A name spelled otherwise ("X-UC-Metastore", "ETag") still works — and
// allocates its canonical form on every request that touches it.
func TestHeaderNamesCanonical(t *testing.T) {
	for _, k := range []string{
		hdrAuthorization, hdrMetastore, hdrWorkspace, hdrIfNoneMatch, hdrETag,
		hdrCacheControl, hdrContentType, hdrContentLength, hdrRetryAfter,
		obs.TraceIDHeader, obs.ParentSpanHeader, obs.SampledHeader,
	} {
		if c := textproto.CanonicalMIMEHeaderKey(k); c != k {
			t.Errorf("header name %q is not canonical (want %q)", k, c)
		}
	}
}
