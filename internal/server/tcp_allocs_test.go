package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"testing"
)

// What a warm request allocates in the whole process when it is served
// through net/http over a loopback keep-alive connection, as the benchmark's
// client sends it. The server's own are one envelope, one catalog request
// state, a GET's route match and a POST body's decoded strings; the rest,
// about 22 for a GET and 26 for a POST, are net/http's, net/textproto's,
// net/url's and context's (the request, its header map and URL, the
// response's header map and the clone WriteHeader makes of it, the body's
// reader). A body read to its end is closed, so net/http adds no discard of
// its own after a POST. TestTCPRequestAllocs fails at 10 % over; `make allocs`
// prints the figures.
const (
	tcpGetAssetAllocs = 25 // 31 before one object per layer
	tcpTempCredAllocs = 30 // 35
	tcp304Allocs      = 31 // 34
)

// TestTCPRequestAllocs gates allocations per request, counted for the whole
// process, of a GET by name, a temporary-credentials POST and a resolve POST
// revalidated to a 304, each served by an http.Server on loopback to a raw
// keep-alive client that allocates nothing itself. TestHotRequestAllocs calls
// ServeHTTP with a replayed body, so it cannot see what net/http does around
// the handler.
func TestTCPRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("counts pooled allocations")
	}
	srv, _ := readerStack(t, Config{SampleEvery: -1, SlowThreshold: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	c, err := dialRaw(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()

	resolve := `{"Names":["sales.raw.orders"]}`
	status, etag, err := c.do(rawRequest("POST", "resolve", resolve, ""))
	if err != nil || status != http.StatusOK || etag == "" {
		t.Fatalf("resolve: %d, ETag %q, %v", status, etag, err)
	}
	for _, r := range []struct {
		what     string
		req      []byte
		status   int
		recorded float64
	}{
		{"GET by name", rawRequest("GET", "assets/sales.raw.orders", "", ""), http.StatusOK, tcpGetAssetAllocs},
		{"credential POST", rawRequest("POST", "temporary-credentials", `{"asset":"sales.raw.orders","operation":"READ"}`, ""), http.StatusOK, tcpTempCredAllocs},
		{"304 resolve", rawRequest("POST", "resolve", resolve, etag), http.StatusNotModified, tcp304Allocs},
	} {
		got, err := c.allocsPerRequest(r.req, r.status, 2000)
		if err != nil {
			t.Fatalf("%s: %v", r.what, err)
		}
		t.Logf("%s over TCP: %.2f allocations per request in the process (recorded %.0f)", r.what, got, r.recorded)
		if got > 1.10*r.recorded {
			t.Errorf("%s over TCP: %.2f allocations per request, more than 10 %% over the recorded %.0f", r.what, got, r.recorded)
		}
	}
}

// rawRequest renders a request by "reader" on ms1 as HTTP/1.1, with a body
// when body is not "" and a validator when inm is not "".
func rawRequest(method, route, body, inm string) []byte {
	b := fmt.Appendf(nil, "%s %s/%s HTTP/1.1\r\nHost: uc\r\nAuthorization: Bearer reader\r\nX-UC-Metastore: ms1\r\n", method, apiPrefix, route)
	if inm != "" {
		b = fmt.Appendf(b, "If-None-Match: %s\r\n", inm)
	}
	if body != "" {
		b = fmt.Appendf(b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	return append(append(b, "\r\n"...), body...)
}

// rawConn is one keep-alive connection that sends pre-rendered requests and
// reads each response to its end into one reused buffer.
type rawConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dialRaw(addr string) (*rawConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawConn{c: c, br: bufio.NewReaderSize(c, 64<<10), body: make([]byte, 0, 64<<10)}, nil
}

func (c *rawConn) close() { c.c.Close() }

// allocsPerRequest sends req n times after a warm-up, each answered with
// status, and returns the process's heap allocations per request.
func (c *rawConn) allocsPerRequest(req []byte, status, n int) (float64, error) {
	for i := 0; i < 100; i++ {
		if got, _, err := c.do(req); err != nil || got != status {
			return 0, fmt.Errorf("warm-up: status %d, %v", got, err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if got, _, err := c.send(req); err != nil || got != status {
			return 0, fmt.Errorf("status %d, %v", got, err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// do sends req and returns the response's status and ETag.
func (c *rawConn) do(req []byte) (int, string, error) {
	status, etag, err := c.send(req)
	return status, string(etag), err
}

// send writes req and reads the response, allocating nothing: the ETag is
// valid until the next request.
func (c *rawConn) send(req []byte) (status int, etag []byte, err error) {
	if _, err = c.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	status = digits(line[9:12])
	length := 0
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			length = digits(value)
		case bytes.EqualFold(name, []byte("ETag")):
			etag = append(c.body[:0], value...)
		}
	}
	if _, err = io.ReadFull(c.br, c.body[len(etag):len(etag)+length]); err != nil {
		return 0, nil, err
	}
	return status, etag, nil
}

// digits is the decimal number b spells, without strconv's string.
func digits(b []byte) int {
	n := 0
	for _, d := range b {
		n = n*10 + int(d-'0')
	}
	return n
}
