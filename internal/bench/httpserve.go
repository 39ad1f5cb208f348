package bench

// HTTP hot-path grid: the full server stack measured two ways. A sequential
// direct-dispatch phase drives ServeHTTP on one goroutine and reads the
// runtime allocation counter around it, producing exact allocs/request per
// route for a fresh response (the pooled jsonenc encoders) and for the
// conditional-GET revalidation path (304, zero encode work). A
// connection-scale phase then runs 1k and 10k concurrent clients
// over real TCP — each client a goroutine holding one keep-alive connection,
// replaying a read-heavy request mix — and reports p50/p99 latency and QPS
// per arm. Shared by the `http` experiment and `make bench-http`, which
// emits BENCH_http.json.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/server"
	"unitycatalog/internal/store"
)

// HTTPCell is one measured cell of the HTTP grid.
type HTTPCell struct {
	// Shape is "allocs_<route>" for the direct-dispatch phase or
	// "tcp_<mix>_<clients>c" for the connection-scale phase.
	Shape string `json:"shape"`
	// Encoding is "pooled" (a fresh jsonenc-encoded response) or
	// "pooled_304" (conditional revalidation).
	Encoding string  `json:"encoding"`
	Clients  int     `json:"clients,omitempty"`
	Requests int     `json:"requests"`
	Secs     float64 `json:"secs"`
	QPS      float64 `json:"qps,omitempty"`
	P50us    float64 `json:"p50_us,omitempty"`
	P99us    float64 `json:"p99_us,omitempty"`
	// AllocsPerReq is exact (sequential direct dispatch, GC'd runtime
	// counter delta / N) and only set in the allocs phase.
	AllocsPerReq float64 `json:"allocs_per_req,omitempty"`
}

// HTTPCellRows shapes the HTTP grid for WriteAligned.
func HTTPCellRows(cells []HTTPCell) ([]string, [][]string) {
	header := []string{"shape", "encoding", "clients", "requests", "secs", "qps", "p50_us", "p99_us", "allocs/req"}
	rows := make([][]string, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, []string{
			c.Shape, c.Encoding, fi(c.Clients), fi(c.Requests), f(c.Secs),
			fmt.Sprintf("%.0f", c.QPS), f(c.P50us), f(c.P99us), f(c.AllocsPerReq),
		})
	}
	return header, rows
}

const httpBenchPrefix = "/api/2.1/unity-catalog"

// httpBenchWorld builds one populated catalog and a server over it (a long
// ETag max-age keeps validators stable for the whole run). Returns the
// server, the asset IDs of the created tables, and a cleanup func.
func httpBenchWorld(tables int) (srv *server.Server, assetIDs []string, cleanup func(), err error) {
	db, err := store.Open(store.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	svc, err := catalog.New(catalog.Config{DB: db})
	if err != nil {
		db.Close()
		return nil, nil, nil, err
	}
	if _, err := svc.CreateMetastore("ms1", "m", "r", "admin", "s3://root/ms1"); err != nil {
		db.Close()
		return nil, nil, nil, err
	}
	admin := catalog.Ctx{Principal: "admin", Metastore: "ms1", TrustedEngine: true}
	if _, err := svc.CreateCatalog(admin, "sales", ""); err != nil {
		db.Close()
		return nil, nil, nil, err
	}
	if _, err := svc.CreateSchema(admin, "sales", "raw", ""); err != nil {
		db.Close()
		return nil, nil, nil, err
	}
	spec := catalog.TableSpec{Columns: []catalog.ColumnInfo{
		{Name: "id", Type: "BIGINT"}, {Name: "region", Type: "STRING"},
		{Name: "amount", Type: "DOUBLE"}, {Name: "ts", Type: "TIMESTAMP"},
	}}
	for i := 0; i < tables; i++ {
		e, terr := svc.CreateTable(admin, "sales.raw", fmt.Sprintf("t%d", i), spec, "")
		if terr != nil {
			db.Close()
			return nil, nil, nil, terr
		}
		assetIDs = append(assetIDs, string(e.ID))
	}
	srv = server.NewWithConfig(svc, server.Config{SampleEvery: -1, SlowThreshold: -1, ETagMaxAge: time.Hour})
	cleanup = func() {
		srv.Lineage.Close()
		srv.Search.Close()
		db.Close()
	}
	return srv, assetIDs, cleanup, nil
}

// --- direct-dispatch alloc phase ---

// nullRW discards the response body; the header map is reused (cleared by
// the measurement loop) so the writer itself adds no per-request allocs.
type nullRW struct {
	hdr    http.Header
	status int
}

func (w *nullRW) Header() http.Header         { return w.hdr }
func (w *nullRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullRW) WriteHeader(c int)           { w.status = c }

// benchRequest builds a reusable request: rewind resets the body so the
// same request can be dispatched repeatedly without re-allocating it.
func benchRequest(method, path string, body []byte, extra map[string]string) (*http.Request, func()) {
	r := httptest.NewRequest(method, path, nil)
	var br *bytes.Reader
	if body != nil {
		br = bytes.NewReader(body)
		r.Body = io.NopCloser(br)
		r.Header.Set("Content-Type", "application/json")
	}
	r.Header.Set("Authorization", "Bearer admin")
	r.Header.Set("X-UC-Metastore", "ms1")
	for k, v := range extra {
		r.Header.Set(k, v)
	}
	return r, func() {
		if br != nil {
			br.Seek(0, io.SeekStart)
		}
	}
}

// measureAllocs dispatches the request n times on one goroutine and returns
// the exact heap allocations per request (mallocs delta / n). wantStatus
// guards against measuring an error path by mistake.
func measureAllocs(h http.Handler, r *http.Request, rewind func(), n, wantStatus int) (float64, error) {
	rw := &nullRW{hdr: http.Header{}}
	for i := 0; i < 32; i++ {
		rewind()
		clear(rw.hdr)
		h.ServeHTTP(rw, r)
	}
	if rw.status != wantStatus {
		return 0, fmt.Errorf("%s %s: status %d, want %d", r.Method, r.URL.Path, rw.status, wantStatus)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		rewind()
		clear(rw.hdr)
		h.ServeHTTP(rw, r)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// etagOf performs one request against the server and returns the validator
// it stamped.
func etagOf(h http.Handler, method, path string, body []byte) (string, error) {
	r, _ := benchRequest(method, path, body, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		return "", fmt.Errorf("%s %s: status %d body %s", method, path, rec.Code, rec.Body.String())
	}
	tag := rec.Header().Get("ETag")
	if tag == "" {
		return "", fmt.Errorf("%s %s: no ETag on response", method, path)
	}
	return tag, nil
}

// allocRoute is one route of the direct-dispatch phase.
type allocRoute struct {
	name        string
	method      string
	path        string
	body        []byte
	conditional bool // also measure the 304 revalidation arm
}

func httpAllocRoutes(assetIDs []string) []allocRoute {
	resolveBody := []byte(`{"Names":["sales.raw.t0","sales.raw.t1","sales.raw.t2"]}`)
	queryBody := []byte(`{"type":"TABLE","catalog_name":"sales","max_results":20}`)
	authzBody := []byte(`{"asset_ids":["` + strings.Join(assetIDs[:8], `","`) + `"],"privilege":"SELECT"}`)
	credBody := []byte(`{"asset":"sales.raw.t0","operation":"READ"}`)
	return []allocRoute{
		{name: "resolve", method: "POST", path: httpBenchPrefix + "/resolve", body: resolveBody, conditional: true},
		{name: "get_asset", method: "GET", path: httpBenchPrefix + "/assets/sales.raw.t0", conditional: true},
		{name: "list_page", method: "GET", path: httpBenchPrefix + "/assets?parent=sales.raw&type=TABLE&maxResults=20", conditional: true},
		{name: "query_page", method: "POST", path: httpBenchPrefix + "/query-assets", body: queryBody, conditional: true},
		{name: "authorize_batch", method: "POST", path: httpBenchPrefix + "/authorize-batch", body: authzBody, conditional: true},
		{name: "temp_creds", method: "POST", path: httpBenchPrefix + "/temporary-credentials", body: credBody},
		{name: "healthz", method: "GET", path: "/healthz"},
	}
}

func runAllocPhase(srv *server.Server, assetIDs []string, n int) ([]HTTPCell, error) {
	type arm struct {
		encoding string
		extra    map[string]string
		status   int
	}
	var cells []HTTPCell
	for _, rt := range httpAllocRoutes(assetIDs) {
		arms := []arm{{"pooled", nil, http.StatusOK}}
		if rt.conditional {
			tag, err := etagOf(srv, rt.method, rt.path, rt.body)
			if err != nil {
				return nil, err
			}
			arms = append(arms, arm{"pooled_304", map[string]string{"If-None-Match": tag}, http.StatusNotModified})
		}
		for _, arm := range arms {
			r, rewind := benchRequest(rt.method, rt.path, rt.body, arm.extra)
			t0 := time.Now()
			allocs, err := measureAllocs(srv, r, rewind, n, arm.status)
			if err != nil {
				return nil, fmt.Errorf("allocs %s/%s: %w", rt.name, arm.encoding, err)
			}
			cells = append(cells, HTTPCell{
				Shape: "allocs_" + rt.name, Encoding: arm.encoding,
				Requests: n, Secs: time.Since(t0).Seconds(), AllocsPerReq: allocs,
			})
		}
	}
	return cells, nil
}

// --- connection-scale TCP phase ---

// raiseNoFile lifts RLIMIT_NOFILE toward need (both ends of every client
// connection live in this process, so 10k clients costs >20k descriptors)
// and returns the resulting soft limit.
func raiseNoFile(need uint64) uint64 {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return 1024
	}
	if lim.Cur >= need {
		return lim.Cur
	}
	want := lim
	want.Cur = need
	if want.Max < need {
		want.Max = need // root may raise the hard limit too
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &want); err != nil {
		// Could not touch the hard limit: take everything the soft limit
		// is allowed to reach.
		want = lim
		want.Cur = lim.Max
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &want); err != nil {
			return lim.Cur
		}
	}
	return want.Cur
}

// rawRequest renders one reusable HTTP/1.1 keep-alive request.
func rawRequest(method, pathAndQuery string, extra map[string]string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: bench\r\nAuthorization: Bearer admin\r\nX-UC-Metastore: ms1\r\n", method, pathAndQuery)
	for k, v := range extra {
		fmt.Fprintf(&b, "%s: %s\r\n", k, v)
	}
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
		b.Write(body)
	} else {
		b.WriteString("\r\n")
	}
	return b.Bytes()
}

// readResponse consumes one response from the stream: status line, headers,
// then the Content-Length body (none on 304).
func readResponse(br *bufio.Reader) (status int, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 {
		return 0, fmt.Errorf("short status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	clen := 0
	for {
		h, err := br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(h) <= 2 { // blank line: end of headers
			break
		}
		if len(h) > 16 && (h[0] == 'C' || h[0] == 'c') && string(h[:15]) == "Content-Length:" {
			clen, _ = strconv.Atoi(strings.TrimSpace(string(h[15 : len(h)-2])))
		}
	}
	if status != http.StatusNotModified && clen > 0 {
		if _, err := br.Discard(clen); err != nil {
			return 0, err
		}
	}
	return status, nil
}

// dialRetry absorbs transient accept-queue overflow during the connect
// storm of the 10k-client arm.
func dialRetry(addr string) (net.Conn, error) {
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		var c net.Conn
		c, err = net.Dial("tcp", addr)
		if err == nil {
			return c, nil
		}
		time.Sleep(time.Duration(attempt+1) * 2 * time.Millisecond)
	}
	return nil, err
}

// runTCPArm serves h on a loopback listener and hammers it with `clients`
// concurrent keep-alive connections, each issuing perClient requests from
// the mix. Returns wall seconds and the merged per-request latencies (µs).
func runTCPArm(h http.Handler, clients, perClient int, mix [][]byte) (float64, []float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	defer hs.Close()
	addr := ln.Addr().String()

	lats := make([][]float64, clients)
	errs := make([]error, clients)
	startCh := make(chan struct{})
	var ready, done sync.WaitGroup
	for c := 0; c < clients; c++ {
		ready.Add(1)
		done.Add(1)
		go func(c int) {
			defer done.Done()
			conn, err := dialRetry(addr)
			if err != nil {
				errs[c] = err
				ready.Done()
				return
			}
			defer conn.Close()
			br := bufio.NewReaderSize(conn, 4096)
			lat := make([]float64, 0, perClient)
			ready.Done()
			<-startCh
			for i := 0; i < perClient; i++ {
				req := mix[(c+i)%len(mix)]
				t0 := time.Now()
				if _, err := conn.Write(req); err != nil {
					errs[c] = err
					return
				}
				status, err := readResponse(br)
				if err != nil {
					errs[c] = err
					return
				}
				if status >= 400 {
					errs[c] = fmt.Errorf("client %d request %d: status %d", c, i, status)
					return
				}
				lat = append(lat, float64(time.Since(t0).Microseconds()))
			}
			lats[c] = lat
		}(c)
	}
	ready.Wait()
	t0 := time.Now()
	close(startCh)
	done.Wait()
	secs := time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			return 0, nil, err
		}
	}
	merged := make([]float64, 0, clients*perClient)
	for _, l := range lats {
		merged = append(merged, l...)
	}
	return secs, merged, nil
}

// tcpMix renders the read-heavy request mix: 6 resolve, 3 get-asset over a
// popularity-skewed table choice, 1 list page. With conditional=true every
// template carries the server's validator, so the server answers the whole
// mix with 304s.
func tcpMix(srv *server.Server, conditional bool) ([][]byte, error) {
	resolveBody := []byte(`{"Names":["sales.raw.t0","sales.raw.t1","sales.raw.t2"]}`)
	listPath := httpBenchPrefix + "/assets?parent=sales.raw&type=TABLE&maxResults=20"
	// Popularity-skewed table choice for get-asset: t0 dominates, with a
	// tail, approximating the Zipf-like re-access skew of Figure 5.
	hotTables := []string{"t0", "t0", "t0", "t1", "t1", "t2", "t3", "t4"}
	type tmpl struct {
		method, path string
		body         []byte
		weight       int
	}
	var templates []tmpl
	templates = append(templates, tmpl{"POST", httpBenchPrefix + "/resolve", resolveBody, 6})
	for i, tb := range hotTables[:3] {
		templates = append(templates, tmpl{"GET", httpBenchPrefix + "/assets/sales.raw." + tb, nil, 1 + (2 - i)})
	}
	templates = append(templates, tmpl{"GET", listPath, nil, 1})

	var mix [][]byte
	for _, t := range templates {
		var extra map[string]string
		if conditional {
			tag, err := etagOf(srv, t.method, t.path, t.body)
			if err != nil {
				return nil, err
			}
			extra = map[string]string{"If-None-Match": tag}
		}
		raw := rawRequest(t.method, t.path, extra, t.body)
		for i := 0; i < t.weight; i++ {
			mix = append(mix, raw)
		}
	}
	return mix, nil
}

// RunHTTPGrid measures the full grid: exact allocs/request per route, then
// the connection-scale arms.
func RunHTTPGrid(quick bool) ([]HTTPCell, error) {
	allocN := 2000
	clientScales := []int{1000, 10000}
	perClient := map[int]int{1000: 24, 10000: 4}
	if quick {
		allocN = 400
		clientScales = []int{128, 1024}
		perClient = map[int]int{128: 16, 1024: 4}
	}

	srv, assetIDs, cleanup, err := httpBenchWorld(48)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	cells, err := runAllocPhase(srv, assetIDs, allocN)
	if err != nil {
		return nil, err
	}

	freshMix, err := tcpMix(srv, false)
	if err != nil {
		return nil, err
	}
	condMix, err := tcpMix(srv, true)
	if err != nil {
		return nil, err
	}
	for _, clients := range clientScales {
		// Each connection costs two descriptors (client + accepted side).
		limit := raiseNoFile(uint64(2*clients) + 2048)
		if maxClients := int((limit - 1024) / 2); clients > maxClients {
			clients = maxClients
		}
		n := perClient[clients]
		if n == 0 {
			n = 8
		}
		arms := []struct {
			shape    string
			encoding string
			mix      [][]byte
		}{
			{"tcp_fresh", "pooled", freshMix},
			{"tcp_cond", "pooled_304", condMix},
		}
		for _, arm := range arms {
			secs, lats, err := runTCPArm(srv, clients, n, arm.mix)
			if err != nil {
				return nil, fmt.Errorf("tcp %s/%s %dc: %w", arm.shape, arm.encoding, clients, err)
			}
			sorted := sortFloats(lats)
			cells = append(cells, HTTPCell{
				Shape: fmt.Sprintf("%s_%dc", arm.shape, clients), Encoding: arm.encoding,
				Clients: clients, Requests: len(lats), Secs: secs,
				QPS:   float64(len(lats)) / secs,
				P50us: percentile(sorted, 50), P99us: percentile(sorted, 99),
			})
		}
	}
	return cells, nil
}

// HTTPExperiment renders the grid.
func HTTPExperiment(o Options) (*Table, error) {
	cells, err := RunHTTPGrid(o.Quick)
	if err != nil {
		return nil, err
	}
	header, rows := HTTPCellRows(cells)
	t := &Table{
		ID:     "http",
		Title:  "HTTP hot path: pooled encoders + conditional GET at connection scale",
		Paper:  "the catalog as a high-QPS metadata server (§4.5, §6.2): response encoding and validator-based caching off the critical path",
		Header: header,
		Rows:   rows,
	}
	var freshResolve, condResolve float64
	for _, c := range cells {
		if c.Shape == "allocs_resolve" {
			switch c.Encoding {
			case "pooled":
				freshResolve = c.AllocsPerReq
			case "pooled_304":
				condResolve = c.AllocsPerReq
			}
		}
	}
	if condResolve > 0 {
		t.Finding = fmt.Sprintf("resolve allocs/req: fresh %.0f → revalidated 304 %.0f (%.1fx)",
			freshResolve, condResolve, freshResolve/condResolve)
	}
	return t, nil
}
