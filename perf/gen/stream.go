package gen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
)

// Workload names one of the four traffic mixes.
type Workload int

const (
	TraceRead Workload = iota
	DDLWrite
	ColdScan
	QueryPath
)

var workloadNames = [...]string{"trace_read", "ddl_write", "cold_scan", "query_path"}

func (w Workload) String() string { return workloadNames[w] }

// Workloads lists all four in reporting order.
func Workloads() []Workload { return []Workload{TraceRead, DDLWrite, ColdScan, QueryPath} }

// ParseWorkload finds a workload by name.
func ParseWorkload(name string) (Workload, bool) {
	for i, n := range workloadNames {
		if n == name {
			return Workload(i), true
		}
	}
	return 0, false
}

// Shape is the population the workload runs over.
func (w Workload) Shape() Shape {
	if w == ColdScan {
		return Scan()
	}
	return Std()
}

// Kind is a route of the program, as the per-layer table names it. Grant and
// revoke share one name, as do credentials by name and by path.
type Kind uint8

const (
	GetAsset Kind = iota
	Resolve
	ListPage
	QueryAssets
	TempCreds
	AuthorizeBatch
	UpdateAsset
	Grant
	SetTag
	CreateTable
	DeleteAsset
	NumKinds
)

var kindNames = [NumKinds]string{
	"get_asset", "resolve", "list_page", "query_assets", "temp_creds", "authorize_batch",
	"update_asset", "grant", "set_tag", "create_table", "delete_asset",
}

func (k Kind) String() string { return kindNames[k] }

// Mutating reports whether requests of this kind write.
func (k Kind) Mutating() bool { return k >= UpdateAsset }

// Filter is the body of a query-assets request.
type Filter struct {
	Type, Catalog, Schema, NamePrefix, TagKey, TagValue string
}

// PageSize is maxResults on every listing and query.
const PageSize = 100

// Op is one operation: what to send and what must come back.
type Op struct {
	Kind Kind
	User string
	// Full is the asset addressed: the asset itself, the parent of a
	// listing, or the schema a table is created in.
	Full string
	// Path, when set, asks for credentials by storage path instead of name.
	Path    string
	Names   []string // resolve
	Closure []int    // resolve: leaves the response must contain
	Query   int      // resolve: slot of the validator the harness may hold; -1 = none
	Leaves  []int    // authorize-batch: leaves whose IDs are checked
	Revoke  bool     // grant: revoke instead
	Grantee string
	Comment string
	TagKey  string
	TagVal  string
	Name    string // create-table: the new table
	Filter  Filter
	Walk    bool // list-page: follow continuation tokens to the end

	// Expect is the status the model predicts (200 also admits a 304 to a
	// conditional request). Count is the number of entities a listing or
	// query must return over all its pages.
	Expect int
	Count  int
	// CheckComment asks for the body to be decoded on every execution and
	// its comment compared with WantComment (read-your-writes).
	CheckComment bool
	WantComment  string
}

func (o *Op) digest(h interface{ Write([]byte) (int, error) }) {
	// Storage paths hold identifiers the program draws at random; only
	// whether the request goes by path belongs to the stream's identity.
	fmt.Fprintf(h, "%d|%s|%s|%v|%s|%v|%d|%v|%s|%s|%s|%s|%s|%+v|%v|%d|%d|%v|%s\n",
		o.Kind, o.User, o.Full, o.Path != "", strings.Join(o.Names, ","), o.Leaves, o.Query, o.Revoke, o.Grantee,
		o.Comment, o.TagKey, o.TagVal, o.Name, o.Filter, o.Walk, o.Expect, o.Count, o.CheckComment, o.WantComment)
}

// query is one entry of query_path's catalogue of repeated queries.
type query struct {
	names   []string
	closure []int // every leaf the response holds
	tables  []int // the tables among them: one credential each
	engine  string
}

// lastWrite remembers the asset a ddl_write client wrote last.
type lastWrite struct {
	full    string
	deleted bool
}

// Stream produces one client's operations. Streams of different clients
// share the population and write to disjoint parts of it, so each client's
// model is exact without any locking.
type Stream struct {
	wl      Workload
	pop     *Population
	r       *rand.Rand
	client  int
	model   *Model
	queue   []Op
	cur     Op
	seq     int
	own     []int // tables this client may write, most popular first
	zLeaf   *rand.Zipf
	zTable  *rand.Zipf
	zOwn    *rand.Zipf
	zQuery  *rand.Zipf
	queries []query
	last    *lastWrite

	// Choices with fixed shares (which kind of operation comes next) turn on
	// wheels, so the shares hold over any stretch of the stream.
	top, tableOp, viewOp, byPath, variant *wheel
	scan                                  [3]weyl // cold_scan: targets of walks, queries and point reads
}

// wheel picks among weighted choices in smooth weighted round-robin order:
// the shares hold over every stretch of the stream, not only in the limit, so
// runs with different seeds differ in what they address, not in how much of
// each operation they issue. The seed sets the starting phase.
type wheel struct {
	w, cur []float64
	sum    float64
}

func newWheel(r *rand.Rand, weights ...float64) *wheel {
	w := &wheel{w: weights, cur: make([]float64, len(weights))}
	for i, x := range weights {
		w.sum += x
		w.cur[i] = r.Float64() * x
	}
	return w
}

func (w *wheel) next() int {
	best := 0
	for i := range w.cur {
		w.cur[i] += w.w[i]
		if w.cur[i] > w.cur[best] {
			best = i
		}
	}
	w.cur[best] -= w.sum
	return best
}

// weyl visits 0..n-1 in an order that is uniform over every stretch: each
// index once per n steps, consecutive steps far apart. cold_scan addresses
// its assets this way, so no asset is hot and every run scans the big and
// the small schemas in the same proportion.
type weyl struct{ at, stride, n int }

func newWeyl(r *rand.Rand, n int) weyl {
	stride := int(float64(n)*0.6180339887) | 1
	for gcd(stride, n) != 1 {
		stride += 2
	}
	return weyl{at: r.Intn(n), stride: stride, n: n}
}

func (w *weyl) next() int {
	w.at = (w.at + w.stride) % w.n
	return w.at
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// zipfS is the skew of every popularity choice (§6.1 traffic is heavy-tailed).
const zipfS = 1.2

// writeShare is the share of requests that write in trace_read (paper §6.1:
// 98.2 % reads).
const writeShare = 0.018

// NewStream returns client's stream out of clients for one workload and seed.
func NewStream(wl Workload, pop *Population, seed int64, client, clients int) *Stream {
	s := &Stream{
		wl: wl, pop: pop, client: client, model: newModel(),
		r: rand.New(rand.NewSource(seed*7919 + int64(wl)*104729 + int64(client) + 1)),
	}
	for i, t := range pop.tableRank {
		if i%clients == client {
			s.own = append(s.own, t)
		}
	}
	zipf := func(n int) *rand.Zipf { return rand.NewZipf(s.r, zipfS, 1, uint64(n-1)) }
	s.zLeaf = zipf(len(pop.Leaves))
	s.zTable = zipf(len(pop.Tables))
	s.zOwn = zipf(len(s.own))
	s.byPath = newWheel(s.r, 1-pathShare, pathShare)
	switch wl {
	case TraceRead:
		// A visit is three requests, a write one; q makes writes writeShare
		// of all requests. One visit in a hundred is the refused principal's.
		const q = 3 * writeShare / (1 + 2*writeShare)
		s.top = newWheel(s.r, 0.99*(1-q), q/2, q/4, q/4, 0.01*(1-q))
		s.tableOp = newWheel(s.r, 40, 20, 15, 25)
		s.viewOp = newWheel(s.r, 40, 20, 15) // a view has no storage to vend credentials for
	case DDLWrite:
		s.top = newWheel(s.r, 20, 15, 15, 15, 10, 5, 20)
	case ColdScan:
		// Half the requests are list pages, a fifth queries, the rest point
		// reads. A walk is several requests, so it is drawn less often.
		pages := 0.0
		for _, t := range pop.Tables {
			pages += float64(pagesOf(len(pop.Schemas[pop.Leaves[t].Schema].Tables)))
		}
		pages /= float64(len(pop.Tables))
		s.top = newWheel(s.r, 50/pages, 20, 30)
		s.variant = newWheel(s.r, 2, 1, 1)
		for i := range s.scan {
			s.scan[i] = newWeyl(s.r, len(pop.Tables))
		}
	case QueryPath:
		s.buildQueries()
		s.zQuery = zipf(len(s.queries))
		s.top = newWheel(s.r, 9, 1)
	}
	return s
}

func pagesOf(n int) int { return max(1, (n+PageSize-1)/PageSize) }

// Model returns the client's model of what it has written.
func (s *Stream) Model() *Model { return s.model }

// Next returns the next operation. The pointer is valid until the next call.
func (s *Stream) Next() *Op {
	if len(s.queue) > 0 {
		s.cur = s.queue[0]
		s.queue = s.queue[1:]
		return &s.cur
	}
	switch s.wl {
	case TraceRead:
		s.cur = s.nextTraceRead()
	case DDLWrite:
		s.cur = s.nextDDL()
	case ColdScan:
		s.cur = s.nextColdScan()
	case QueryPath:
		s.cur = s.nextQuery()
	}
	return &s.cur
}

// Ack records that the program acknowledged op.
func (s *Stream) Ack(op *Op) {
	if !op.Kind.Mutating() {
		return
	}
	s.model.apply(op)
	if s.wl == DDLWrite {
		full := op.Full
		if op.Kind == CreateTable {
			full = op.Full + "." + op.Name
		}
		s.last = &lastWrite{full: full, deleted: op.Kind == DeleteAsset}
	}
}

func (s *Stream) reader(schema int) string {
	rs := s.pop.Schemas[schema].Readers
	return User(rs[s.r.Intn(len(rs))])
}

func (s *Stream) get(full, user string) Op {
	return Op{Kind: GetAsset, User: user, Full: full, Expect: 200, Query: -1}
}

func (s *Stream) creds(leaf int, user string) Op {
	op := Op{Kind: TempCreds, User: user, Full: s.pop.Leaves[leaf].Full, Expect: 200, Query: -1}
	if s.byPath.next() == 1 {
		op.Path = s.pop.Leaves[leaf].Path + "/part-00000.parquet"
	}
	return op
}

// pathShare is the share of credential requests made by storage path (§6.1).
const pathShare = 0.07

// --- trace_read ---

func (s *Stream) nextTraceRead() Op {
	choice := s.top.next()
	switch choice {
	case 1:
		return s.update()
	case 2:
		return s.grantOrRevoke(false)
	case 3:
		return s.grantOrRevoke(true)
	}
	li := s.pop.leafRank[s.zLeaf.Uint64()]
	leaf := &s.pop.Leaves[li]
	if choice == 4 {
		// A principal without grants must be refused, however hot the asset.
		op := s.get(leaf.Full, Nobody)
		op.Expect = 403
		return op
	}
	schema := &s.pop.Schemas[leaf.Schema]
	user := s.reader(leaf.Schema)
	// Container chain first, as a client that browses to the asset does.
	s.queue = append(s.queue[:0], s.get(schema.Full, user), s.leafRead(li, user))
	return s.get(s.pop.Catalogs[schema.Catalog].Name, user)
}

func (s *Stream) leafRead(li int, user string) Op {
	leaf := &s.pop.Leaves[li]
	ops := s.tableOp
	if leaf.View {
		ops = s.viewOp
	}
	switch ops.next() {
	case 0:
		op := s.get(leaf.Full, user)
		if c, ok := s.model.Comments[leaf.Full]; ok {
			op.WantComment = c // checked when the harness samples this body
		}
		return op
	case 1:
		return Op{Kind: Resolve, User: user, Names: []string{leaf.Full}, Closure: append([]int{li}, leaf.Deps...), Expect: 200, Query: -1}
	case 2:
		sc := &s.pop.Schemas[leaf.Schema]
		return Op{Kind: ListPage, User: user, Full: sc.Full, Expect: 200, Count: min(PageSize, len(sc.Tables)), Query: -1}
	}
	return s.creds(li, user)
}

// --- writes shared by trace_read and ddl_write ---

func (s *Stream) ownTable() *Leaf { return &s.pop.Leaves[s.own[s.zOwn.Uint64()]] }

func (s *Stream) update() Op {
	s.seq++
	return Op{Kind: UpdateAsset, User: Steward(s.client), Full: s.ownTable().Full,
		Comment: fmt.Sprintf("c%d-%d", s.client, s.seq), Expect: 200, Query: -1}
}

// grantOrRevoke revokes a grant the model holds, or grants when it holds
// none (or when asked to): every revoke has a grant to remove.
func (s *Stream) grantOrRevoke(revoke bool) Op {
	op := Op{Kind: Grant, User: Steward(s.client), Expect: 204, Query: -1}
	if revoke && len(s.model.grantList) > 0 {
		g := s.model.grantList[s.r.Intn(len(s.model.grantList))]
		op.Full, op.Grantee, op.Revoke = g.full, g.grantee, true
		return op
	}
	op.Full, op.Grantee = s.ownTable().Full, User(s.r.Intn(Users))
	return op
}

// --- ddl_write ---

// TableColumns is the schema of every table the benchmark creates.
var TableColumns = [...][2]string{{"id", "BIGINT"}, {"region", "STRING"}, {"amount", "DOUBLE"}, {"ts", "TIMESTAMP"}}

func (s *Stream) create() Op {
	s.seq++
	return Op{Kind: CreateTable, User: Steward(s.client), Full: s.pop.Schemas[s.r.Intn(len(s.pop.Schemas))].Full,
		Name: fmt.Sprintf("w%d_%06d", s.client, s.seq), Expect: 201, Query: -1}
}

func (s *Stream) nextDDL() Op {
	switch s.top.next() {
	case 0:
		return s.create()
	case 1:
		return s.update()
	case 2:
		return s.grantOrRevoke(false)
	case 3:
		return s.grantOrRevoke(true)
	case 4:
		s.seq++
		return Op{Kind: SetTag, User: Steward(s.client), Full: s.ownTable().Full,
			TagKey: "perf", TagVal: fmt.Sprintf("v%d", s.seq), Expect: 204, Query: -1}
	case 5:
		if n := len(s.model.alive); n > 0 {
			return Op{Kind: DeleteAsset, User: Steward(s.client), Full: s.model.alive[s.r.Intn(n)], Expect: 204, Query: -1}
		}
		return s.create()
	}
	// Read back the asset this client wrote last.
	if s.last == nil {
		return s.get(s.ownTable().Full, Steward(s.client))
	}
	op := s.get(s.last.full, Steward(s.client))
	if s.last.deleted {
		op.Expect = 404
		return op
	}
	op.CheckComment, op.WantComment = true, s.model.Comments[s.last.full]
	return op
}

// --- cold_scan ---

func (s *Stream) nextColdScan() Op {
	kind := s.top.next()
	li := s.pop.Tables[s.scan[kind].next()]
	leaf := &s.pop.Leaves[li]
	sc := &s.pop.Schemas[leaf.Schema]
	ui := sc.Readers[s.r.Intn(len(sc.Readers))]
	user := User(ui)
	switch kind {
	case 0:
		return Op{Kind: ListPage, User: user, Full: sc.Full, Walk: true, Expect: 200, Count: len(sc.Tables), Query: -1}
	case 1:
		op := Op{Kind: QueryAssets, User: user, Expect: 200, Query: -1}
		cat := s.pop.Catalogs[sc.Catalog]
		switch s.variant.next() {
		case 0: // name-index range inside one schema
			op.Filter = Filter{Type: "TABLE", Catalog: cat.Name, Schema: sc.Name, NamePrefix: leaf.Name[:4]}
			op.Count = prefixCount(leaf.Name[:4], len(sc.Tables))
		case 1: // schema-by-schema walk of one catalog
			op.Filter = Filter{Type: "TABLE", Catalog: cat.Name, NamePrefix: leaf.Name[:5]}
			for _, si := range cat.Schemas {
				if s.pop.CanRead(si, ui) {
					op.Count += prefixCount(leaf.Name[:5], len(s.pop.Schemas[si].Tables))
				}
			}
		default: // inverted tag index
			v := TagValues[s.r.Intn(len(TagValues))]
			op.Filter = Filter{Type: "TABLE", TagKey: TagKey, TagValue: v}
			for _, t := range s.pop.Tables {
				if l := &s.pop.Leaves[t]; l.TagVal == v && s.pop.CanRead(l.Schema, ui) {
					op.Count++
				}
			}
		}
		op.Count = min(op.Count, PageSize)
		return op
	}
	return s.get(leaf.Full, user)
}

// prefixCount counts the names t_0000 .. t_(n-1) that start with prefix
// ("t_" and two or three digits).
func prefixCount(prefix string, n int) int {
	digits := prefix[2:]
	lo := 0
	for _, d := range digits {
		lo = lo*10 + int(d-'0')
	}
	span := 1
	for i := len(digits); i < 4; i++ {
		lo *= 10
		span *= 10
	}
	return max(0, min(n, lo+span)-lo)
}

// --- query_path ---

// buildQueries draws the catalogue of queries engines repeat: each resolves
// two to four tables and one view in a single call. Its shape (how many
// names, of which popularity) is the same for every seed and client; the
// seed decides, through the ranking, which assets those are.
func (s *Stream) buildQueries() {
	r := rand.New(rand.NewSource(15485863))
	zt := rand.NewZipf(r, zipfS, 1, uint64(len(s.pop.Tables)-1))
	zv := rand.NewZipf(r, zipfS, 1, uint64(len(s.pop.Views)-1))
	n := min(512, len(s.pop.Tables)/2)
	for qi := 0; qi < n; qi++ {
		var q query
		seen := map[int]bool{}
		add := func(li int, direct bool) {
			if seen[li] {
				return
			}
			seen[li] = true
			q.closure = append(q.closure, li)
			if direct {
				q.names = append(q.names, s.pop.Leaves[li].Full)
			}
			if !s.pop.Leaves[li].View {
				q.tables = append(q.tables, li)
			}
		}
		for want := 2 + r.Intn(3); len(q.names) < want; {
			add(s.pop.tableRank[zt.Uint64()], true)
		}
		v := s.pop.viewRank[zv.Uint64()]
		add(v, true)
		for _, d := range s.pop.Leaves[v].Deps {
			add(d, false)
		}
		q.engine = Engine(qi)
		s.queries = append(s.queries, q)
	}
}

func (s *Stream) nextQuery() Op {
	qi := int(s.zQuery.Uint64())
	q := &s.queries[qi]
	s.queue = s.queue[:0]
	for _, t := range q.tables {
		s.queue = append(s.queue, s.creds(t, q.engine))
	}
	if s.top.next() == 1 {
		leaves := append([]int(nil), q.tables...)
		for len(leaves) < 8 {
			leaves = append(leaves, s.pop.tableRank[s.zTable.Uint64()])
		}
		s.queue = append(s.queue, Op{Kind: AuthorizeBatch, User: q.engine, Leaves: leaves[:8], Expect: 200, Query: -1})
	}
	return Op{Kind: Resolve, User: q.engine, Names: q.names, Closure: q.closure, Query: qi, Expect: 200}
}

// Queries is the size of the query catalogue (validator slots).
func (s *Stream) Queries() int { return len(s.queries) }

// Hash folds the next n operations into one number, acknowledging each, so
// tests can tell whether two streams are the same.
func (s *Stream) Hash(n int) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		op := s.Next()
		op.digest(h)
		s.Ack(op)
	}
	return h.Sum64()
}
