package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"unitycatalog/perf/gen"
)

// sample is one timed request of the timed window.
type sample struct {
	end, dur int64 // ns; end is relative to the start of the window
	kind     gen.Kind
}

// span is one request of the traced run: which operation, where it entered
// the program, and when.
type span struct {
	Op       int    `json:"op"`
	Boundary string `json:"name"`
	Route    string `json:"route"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	kind     gen.Kind
	mallocs  uint64
	bytesOut int
	status   int
}

// sampleBodies is how often a response body is decoded and compared in full;
// statuses, counts and continuation tokens are checked on every response.
const sampleBodies = 64

// client is one closed-loop caller: it sends a request, waits for the reply,
// checks it, and only then sends the next.
type client struct {
	stream     *gen.Stream
	rend       renderer
	validators []string // query slot -> ETag held for it

	attempted int
	failed    int
	refused   int // reads by the principal without grants that came back 403
	errs      []string

	origin  time.Time // start of the window or of the traced run
	record  bool
	samples []sample
	tracing bool
	spans   []span
	opID    int
	// distinct credential tokens seen while tracing
	tokens map[uint64]struct{}
	creds  int
}

func newClient(st *stack, wl gen.Workload, seed int64, id, clients int) *client {
	c := &client{
		stream: gen.NewStream(wl, st.pop, seed, id, clients),
		rend:   renderer{pop: st.pop},
		tokens: map[uint64]struct{}{},
	}
	c.validators = make([]string, c.stream.Queries())
	return c
}

func (c *client) fail(op *gen.Op, format string, args ...any) bool {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf("%s %s by %s: %s", op.Kind, op.Full, op.User, fmt.Sprintf(format, args...)))
	}
	return false
}

// run executes the stream through b until the deadline passes.
func (c *client) run(b boundary, deadline time.Time) {
	for time.Now().Before(deadline) {
		c.step(b)
	}
}

// step executes the next operation through b and acknowledges it if it did
// what the model expects.
func (c *client) step(b boundary) {
	op := c.stream.Next()
	c.opID++
	if c.exec(b, op) {
		c.stream.Ack(op)
	}
}

// exec sends op (every page of it, for a walk) through b and checks what
// comes back.
func (c *client) exec(b boundary, op *gen.Op) bool {
	token, total := "", 0
	var seen map[string]bool
	_, direct := b.(*catalogBoundary) // below the HTTP layer there is nothing to revalidate
	for {
		inm := ""
		if op.Query >= 0 && !direct {
			inm = c.validators[op.Query]
		}
		req := c.rend.request(op, token, inm)
		resp, start, took, err := b.do(req)
		c.attempted++
		if err != nil {
			return c.fail(op, "transport: %v", err)
		}
		switch {
		case c.record:
			c.samples = append(c.samples, sample{end: int64(start.Add(took).Sub(c.origin)), dur: int64(took), kind: op.Kind})
		case c.tracing:
			sp := span{Op: c.opID, Boundary: b.name(), Route: op.Kind.String(),
				Start: int64(start.Sub(c.origin)), End: int64(start.Add(took).Sub(c.origin)),
				kind: op.Kind, bytesOut: len(resp.body), status: resp.status}
			if sb, ok := b.(*serverBoundary); ok {
				sp.mallocs = sb.mallocs
			}
			c.spans = append(c.spans, sp)
		}
		if resp.status != op.Expect && !(resp.status == 304 && inm != "") {
			return c.fail(op, "status %d, model expects %d: %s", resp.status, op.Expect, clip(resp.body))
		}
		if op.Expect == 403 {
			c.refused++
		}
		if op.Query >= 0 && resp.etag != "" {
			c.validators[op.Query] = resp.etag
		}
		deep := c.attempted%sampleBodies == 0 || seen != nil
		if resp.status != 200 && resp.status != 201 {
			return true
		}
		switch op.Kind {
		case gen.ListPage, gen.QueryAssets:
			total += bytes.Count(resp.body, []byte(`{"id":"`))
			if deep {
				if seen == nil {
					seen = map[string]bool{}
				}
				if !c.checkPage(op, resp.body, seen) {
					return false
				}
			}
			if token = nextPageToken(resp.body); token != "" && op.Walk {
				continue
			}
			if total != op.Count {
				return c.fail(op, "%d entities, model expects %d", total, op.Count)
			}
			return true
		case gen.AuthorizeBatch:
			if want := allowedAll(len(op.Leaves)); string(resp.body) != want {
				return c.fail(op, "body %s, model expects %s", clip(resp.body), want)
			}
			return true
		case gen.TempCreds:
			if c.tracing {
				c.noteToken(resp.body)
			}
		}
		if deep || op.CheckComment {
			return c.checkBody(op, resp.body)
		}
		return true
	}
}

func clip(b []byte) string {
	if len(b) > 160 {
		b = b[:160]
	}
	return string(b)
}

func allowedAll(n int) string {
	return `{"allowed":[` + strings.TrimSuffix(strings.Repeat("true,", n), ",") + "]}"
}

// nextPageToken extracts the continuation token, which the program puts last
// in the body, without decoding the page.
func nextPageToken(body []byte) string {
	const key = `,"nextPageToken":"`
	tail := body[max(0, len(body)-512):]
	i := bytes.LastIndex(tail, []byte(key))
	if i < 0 {
		return ""
	}
	tail = tail[i+len(key):]
	if j := bytes.IndexByte(tail, '"'); j >= 0 {
		return string(tail[:j])
	}
	return ""
}

// noteToken remembers a vended token, to count how many were reused.
func (c *client) noteToken(body []byte) {
	const key = `"token":"`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return
	}
	rest := body[i+len(key):]
	if j := bytes.IndexByte(rest, '"'); j >= 0 {
		h := fnv.New64a()
		h.Write(rest[:j])
		c.tokens[h.Sum64()] = struct{}{}
		c.creds++
	}
}

type entityBody struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Type     string `json:"type"`
	FullName string `json:"full_name"`
	Comment  string `json:"comment"`
}

// checkPage decodes one page of a listing or query: every entity has the
// right type and name and none repeats across the pages of the walk.
func (c *client) checkPage(op *gen.Op, body []byte, seen map[string]bool) bool {
	var page struct {
		Assets []entityBody `json:"assets"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		return c.fail(op, "undecodable page: %v", err)
	}
	scope := op.Full
	if op.Kind == gen.QueryAssets {
		scope = op.Filter.Catalog
		if op.Filter.Schema != "" {
			scope += "." + op.Filter.Schema
		}
	}
	for _, e := range page.Assets {
		if seen[e.FullName] {
			return c.fail(op, "%s listed twice", e.FullName)
		}
		seen[e.FullName] = true
		if e.Type != "TABLE" || !strings.HasPrefix(e.FullName, scope) || !strings.HasPrefix(e.Name, op.Filter.NamePrefix) {
			return c.fail(op, "unexpected entity %+v", e)
		}
	}
	return true
}

// checkBody decodes a single-object response and compares it with the model.
func (c *client) checkBody(op *gen.Op, body []byte) bool {
	switch op.Kind {
	case gen.GetAsset, gen.UpdateAsset, gen.CreateTable:
		var e entityBody
		if err := json.Unmarshal(body, &e); err != nil {
			return c.fail(op, "undecodable entity: %v", err)
		}
		want, comment, check := op.Full, op.WantComment, op.CheckComment || op.WantComment != ""
		switch op.Kind {
		case gen.UpdateAsset:
			comment, check = op.Comment, true
		case gen.CreateTable:
			want = op.Full + "." + op.Name
		}
		if e.FullName != want || e.Name != want[strings.LastIndexByte(want, '.')+1:] {
			return c.fail(op, "entity %s, asked for %s", e.FullName, want)
		}
		if check && e.Comment != comment {
			return c.fail(op, "comment %q, last acknowledged %q", e.Comment, comment)
		}
	case gen.Resolve:
		var r struct {
			Assets map[string]struct {
				Entity entityBody       `json:"entity"`
				FGAC   *json.RawMessage `json:"fgac"`
			} `json:"assets"`
			Version uint64 `json:"metastore_version"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return c.fail(op, "undecodable resolve: %v", err)
		}
		if len(r.Assets) != len(op.Closure) || r.Version == 0 {
			return c.fail(op, "%d assets at version %d, model expects %d", len(r.Assets), r.Version, len(op.Closure))
		}
		for _, li := range op.Closure {
			leaf := &c.rend.pop.Leaves[li]
			a, ok := r.Assets[leaf.Full]
			if !ok || a.Entity.ID != leaf.ID {
				return c.fail(op, "closure lacks %s", leaf.Full)
			}
			// Engines are not exempt from fine-grained policies and must be
			// handed them; users are exempt and must not see any.
			if (a.FGAC != nil) != (leaf.FGAC && isEngine(op.User)) {
				return c.fail(op, "fine-grained policy on %s: got %v", leaf.Full, a.FGAC != nil)
			}
		}
	case gen.TempCreds:
		var tc struct {
			AssetName  string `json:"asset_name"`
			Credential struct {
				Token string `json:"token"`
				Scope string `json:"scope"`
			} `json:"credential"`
		}
		if err := json.Unmarshal(body, &tc); err != nil {
			return c.fail(op, "undecodable credential: %v", err)
		}
		if tc.AssetName != op.Full || tc.Credential.Token == "" || (op.Path != "" && !strings.HasPrefix(op.Path, tc.Credential.Scope)) {
			return c.fail(op, "credential for %s scoped %s", tc.AssetName, tc.Credential.Scope)
		}
	}
	return true
}
