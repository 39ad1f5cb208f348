package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"unitycatalog/perf/gen"
)

const apiPrefix = "/api/2.1/unity-catalog"

// request is one HTTP request, held both as what goes on the wire and as the
// operation it came from (the catalog boundary calls the service with the
// operation's arguments instead of sending anything).
type request struct {
	op     *gen.Op
	method string
	target []byte // path and query
	body   []byte
	inm    string // If-None-Match validator, "" = unconditional
	token  string // continuation token of a listing, "" = first page
}

// response is what came back. body is only valid until the connection's (or
// boundary's) next request.
type response struct {
	status int
	body   []byte
	etag   string
}

// conn is one keep-alive HTTP/1.1 connection driven with pre-rendered
// requests. It is not internal/client on purpose: that client decodes JSON
// on the harness's side of the same two cores and retries what fails.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte
	rbuf []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

func (c *conn) name() string { return "tcp" }

// render writes req as HTTP/1.1 into the connection's buffer.
func (c *conn) render(req *request) {
	b := c.wbuf[:0]
	b = append(b, req.method...)
	b = append(b, ' ')
	b = append(b, req.target...)
	b = append(b, " HTTP/1.1\r\nHost: perf\r\nAuthorization: Bearer "...)
	b = append(b, req.op.User...)
	b = append(b, "\r\nX-UC-Metastore: "+gen.Metastore+"\r\n"...)
	if req.inm != "" {
		b = append(b, "If-None-Match: "...)
		b = append(b, req.inm...)
		b = append(b, "\r\n"...)
	}
	if req.body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(req.body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, req.body...)
	c.wbuf = b
}

// do sends the rendered request and reads the whole response, timed from the
// first byte written to the last byte read.
func (c *conn) do(req *request) (resp response, start time.Time, took time.Duration, err error) {
	c.render(req)
	start = time.Now()
	if _, err = c.c.Write(c.wbuf); err != nil {
		return resp, start, 0, err
	}
	resp, err = c.read()
	return resp, start, time.Since(start), err
}

var (
	hdrContentLength = []byte("content-length:")
	hdrETag          = []byte("etag:")
	hdrChunked       = []byte("transfer-encoding:")
)

func (c *conn) read() (response, error) {
	var resp response
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return resp, err
	}
	if len(line) < 12 {
		return resp, fmt.Errorf("short status line %q", line)
	}
	if resp.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return resp, fmt.Errorf("bad status line %q", line)
	}
	length := 0
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return resp, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		switch {
		case hasPrefixFold(line, hdrContentLength):
			if length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(hdrContentLength):]))); err != nil {
				return resp, fmt.Errorf("bad content-length %q", line)
			}
		case hasPrefixFold(line, hdrETag):
			resp.etag = string(bytes.TrimSpace(line[len(hdrETag):]))
		case hasPrefixFold(line, hdrChunked):
			return resp, fmt.Errorf("unexpected %s", line)
		}
	}
	if cap(c.rbuf) < length {
		c.rbuf = make([]byte, length, length*2)
	}
	c.rbuf = c.rbuf[:length]
	if _, err = io.ReadFull(c.br, c.rbuf); err != nil {
		return resp, err
	}
	resp.body = c.rbuf
	return resp, nil
}

func hasPrefixFold(line, lowerPrefix []byte) bool {
	return len(line) >= len(lowerPrefix) && bytes.EqualFold(line[:len(lowerPrefix)], lowerPrefix)
}
