package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"unitycatalog/internal/cache"
	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/jsonenc"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

func newTestServer(t *testing.T) *Server {
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
	s := NewWithConfig(svc, Config{})
	t.Cleanup(func() { s.Lineage.Close(); s.Search.Close() })
	return s
}

// TestAppendHealthzMatchesJSON pins the hand-written healthz encoder to the
// reflection encoding of the same struct, byte for byte.
func TestAppendHealthzMatchesJSON(t *testing.T) {
	cases := []healthzResponse{
		{Status: "ok"},
		{
			Status:   "degraded",
			Degraded: healthzDegraded{Cache: true, WAL: true},
			WAL:      store.WALStats{Batches: 12, Entries: 340, Syncs: 11, MaxBatch: 64},
			Cache: []cache.MetastoreHealth{
				{MetastoreID: "ms1", Degraded: true, KnownVersion: 42, SinceLastSync: 1500 * time.Millisecond, Entries: 7, DecodedHits: 31, Decodes: 5},
				{MetastoreID: "ms2", KnownVersion: 1, Entries: 0},
			},
			Authz: privilege.SnapshotCacheMetrics{Hits: 9, Misses: 2, Builds: 3, Invalidations: 1, Expirations: 4, Evictions: 5, Entries: 6, Patches: 7, MemoDropped: 8},
		},
	}
	for i, resp := range cases {
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		got := appendHealthz(nil, &resp)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestAssetStreamMatchesJSON pins the streaming page envelope to the map
// encoding the naive path produces ("assets" sorts before "nextPageToken").
func TestAssetStreamMatchesJSON(t *testing.T) {
	ts := time.Date(2026, 8, 1, 10, 0, 0, 0, time.UTC)
	ents := []*erm.Entity{
		{ID: "id-1", Type: erm.TypeTable, Name: "t1", FullName: "c.s.t1", Owner: "admin", State: erm.StateActive, CreatedAt: ts, UpdatedAt: ts},
		{ID: "id-2", Type: erm.TypeTable, Name: "t2", FullName: "c.s.t2", Owner: "admin", Comment: `with "quotes" <&>`, State: erm.StateActive, CreatedAt: ts, UpdatedAt: ts},
	}
	cases := []struct {
		name string
		emit []*erm.Entity
		next string
	}{
		{"empty", nil, ""},
		{"page", ents, ""},
		{"page_with_token", ents, "c.s.t2"},
	}
	for _, tc := range cases {
		st := newAssetStream()
		for _, e := range tc.emit {
			st.emit(e)
		}
		got := append([]byte(nil), st.finish(tc.next)...)
		st.close()

		naive := map[string]any{"assets": tc.emit}
		if tc.next != "" {
			naive["nextPageToken"] = tc.next
		}
		want, err := json.Marshal(naive)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, want)
		}
	}
}

// TestWriteJSONSurfacesEncodeErrors: an unencodable body must become a 500
// with an error body, set the access-log error, and bump the counter —
// not a 200 with half a payload.
func TestWriteJSONSurfacesEncodeErrors(t *testing.T) {
	s := newTestServer(t)
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec, srv: s, status: 200}

	writeJSON(sw, 200, math.NaN()) // json.Marshal rejects NaN

	if rec.Code != 500 {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if sw.err == nil {
		t.Fatal("statusWriter.err not set: access log would miss the failure")
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Code != 500 {
		t.Fatalf("error body = %s (%v)", rec.Body.Bytes(), err)
	}
	if n := s.encodeErrors.Load(); n != 1 {
		t.Fatalf("uc_http_encode_errors = %d, want 1", n)
	}

	// The happy path must not touch the counter.
	writeJSON(&statusWriter{ResponseWriter: httptest.NewRecorder(), srv: s, status: 200}, 200, map[string]int{"ok": 1})
	if n := s.encodeErrors.Load(); n != 1 {
		t.Fatalf("counter moved on success: %d", n)
	}
}

func TestEtagMatch(t *testing.T) {
	cases := []struct {
		header, tag string
		want        bool
	}{
		{`"v1-a-b"`, `"v1-a-b"`, true},
		{`"v1-a-b"`, `"v2-a-b"`, false},
		{`W/"v1-a-b"`, `"v1-a-b"`, true},
		{`"x", "v1-a-b"`, `"v1-a-b"`, true},
		{`*`, `"anything"`, true},
		{``, `"v1-a-b"`, false},
	}
	for _, tc := range cases {
		if got := etagMatch(tc.header, tc.tag); got != tc.want {
			t.Errorf("etagMatch(%q, %q) = %v, want %v", tc.header, tc.tag, got, tc.want)
		}
	}
}

// TestReadJSONHashStability: the body hash feeding the ETag must be stable
// for identical bodies and distinct for different ones.
func TestReadJSONHashStability(t *testing.T) {
	h1 := fnv1a([]byte(`{"Names":["a"]}`))
	h2 := fnv1a([]byte(`{"Names":["a"]}`))
	h3 := fnv1a([]byte(`{"Names":["b"]}`))
	if h1 != h2 || h1 == h3 {
		t.Fatalf("fnv1a: %x %x %x", h1, h2, h3)
	}
}

// TestPooledEncoderAllocsGate pins the core promise of the jsonenc path:
// encoding an entity into a pooled buffer allocates nothing.
func TestPooledEncoderAllocsGate(t *testing.T) {
	ts := time.Date(2026, 8, 1, 10, 0, 0, 0, time.UTC)
	e := &erm.Entity{ID: "id-1", Type: erm.TypeTable, Name: "t1", FullName: "c.s.t1", Owner: "admin", State: erm.StateActive, CreatedAt: ts, UpdatedAt: ts}
	allocs := testing.AllocsPerRun(200, func() {
		buf := jsonenc.Get()
		buf.B = jsonenc.AppendEntity(buf.B, e)
		jsonenc.Put(buf)
	})
	if allocs != 0 {
		t.Fatalf("pooled entity encode allocates %.1f/op, want 0", allocs)
	}
}
