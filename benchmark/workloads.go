package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/ref"
	"blog/internal/server"
	gen "blog/internal/workload"
)

// Input shape constants. They are part of the benchmark's definition:
// changing one changes what every recorded number means.
const (
	familyDepth, familyBranch = 6, 3 // FamilyTree: 1093 persons
	cyclicNodes, cyclicChords = 64, 32
	sessionLen                = 16   // queries per learning session
	sessionSpan               = 4    // persons a session's queries stay within
	assertEvery               = 8    // tabled_write: every 8th operation asserts
	mixedRate                 = 2000 // mixed_open: offered requests per second
	mixedSenders              = 2    // mixed_open: connections taking due requests
	warmOps                   = 36   // operations each client runs in set-up
)

//go:embed expected/queens5.txt
var queens5 string

type opKind int

const (
	opQuery opKind = iota
	opAssert
	opSessionStart
	opSessionEnd
)

// query is one distinct request a workload can send, with the answer set
// the program must return for it.
type query struct {
	class string // point, tabled or search: the latency class in mixed_open
	req   server.QueryRequest
	body  []byte          // req on the wire
	want  map[string]bool // expected solution texts, as a set
}

// op is one operation of a client's stream.
type op struct {
	kind   opKind
	q      *query // opQuery
	clause string // opAssert
}

// pool is one class of a traffic mix. A mix of several classes is dealt
// from a shuffled deck holding `share` cards of each pool, so every deck's
// worth of requests has exactly the stated mix: with independent draws the
// count of the rare, expensive class would swing the per-query costs from
// seed to seed.
type pool struct {
	share   int
	queries []*query
}

// minRepQueries is the least a repetition is sized to, whatever --seconds
// says: a 99th percentile needs ten samples beyond it.
const minRepQueries = 1000

type workload struct {
	name, why string
	clients   int
	rate      float64 // offered requests per second; 0 means closed loop
	// qps sizes a closed loop's repetitions: the queries per second, all
	// clients together, that the commit defining the benchmark sustained on
	// the machine it was defined on, rounded. It is a constant, never
	// re-tuned, so that a repetition is the same work on every commit.
	qps float64
	// ladderN is how many queries the traced ladder replays through each
	// rung in a 10-second run: fewer where one query costs milliseconds.
	ladderN int
	build   func(seed int64) (*instance, error)
}

// instance is a workload with its inputs generated from one seed.
type instance struct {
	w       *workload
	seed    int64
	src     string // the logic program the service loads
	pools   []pool
	tabled  []*query // queries whose tables set-up materialises first
	session bool     // ops come in sessions: start, sessionLen queries, end
	chords  []string // edge clauses not yet in the cyclic graph, shuffled
	asserts bool     // every assertEvery-th operation asserts the next chord
}

var workloads = []*workload{
	{name: "point_dfs", clients: 2, qps: 20000, ladderN: 2000, build: buildPoint,
		why: "cheap point query: HTTP, JSON, parse, admission, obs hooks and rendering dominate, the engine does a fifth of the work"},
	{name: "search_deep", clients: 2, qps: 1100, ladderN: 300, build: buildSearch("dfs", 0),
		why: "exhaustive queens(5,Qs) by DFS: the resolution core does over 90% of the work, so service-path changes predict no move"},
	{name: "parallel_or", clients: 1, qps: 230, ladderN: 150, build: buildSearch("parallel", 2),
		why: "the same queens(5,Qs) on 2 OR-parallel workers over persistent Env: the paper's parallel-speedup claim as a number"},
	{name: "best_session", clients: 2, qps: 16000, ladderN: 1600, build: buildSession,
		why: "learning sessions of 16 best-first queries: the paper's core loop through weights, session merge and the registry"},
	{name: "tabled_read", clients: 2, qps: 4500, ladderN: 1000, build: buildTabled(false),
		why: "replay of 64 complete 64-answer tables: table hit, answer binding and encoding of a large response"},
	{name: "tabled_write", clients: 2, qps: 780, ladderN: 200, build: buildTabled(true),
		why: "the same reads with every 8th operation an assert that dirties all tables, so reads re-derive their fixpoint"},
	{name: "mixed_open", clients: mixedSenders, rate: mixedRate, ladderN: 2000, build: buildMixed,
		why: "open loop at a fixed 2000 req/s of 90% point, 8% tabled, 2% search: the only workload where slow queries queue in front of fast ones"},
}

// repQueries is how many queries one repetition of a run of the given
// length sends: what the defining commit answered in its share of the run,
// or what the open loop offers in it.
func (w *workload) repQueries(seconds float64) int {
	perSec := w.qps
	if w.rate > 0 {
		perSec = w.rate
	}
	return max(minRepQueries, int(perSec*seconds/repetitions))
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func newQuery(class string, req server.QueryRequest, want map[string]bool) *query {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of strings, ints and bools always marshals
	}
	return &query{class: class, req: req, body: body, want: want}
}

// familyQueries builds one gf(pK,G) query per person of the family tree.
// The expected sets come from the bottom-up oracle in internal/ref, which
// shares no code with the resolution engine. The oracle evaluates every
// rule to fixpoint, so the anc/2 closure (unused here, ~6000 facts) is
// left out of the text it is given.
func familyQueries(strategy string, learn bool) (src string, qs []*query, err error) {
	src = gen.FamilyTree(familyDepth, familyBranch)
	var oracleSrc strings.Builder
	persons := 0
	for _, line := range strings.SplitAfter(src, "\n") {
		if !strings.HasPrefix(line, "anc(") {
			oracleSrc.WriteString(line)
		}
		if strings.HasPrefix(line, "f(") {
			persons++ // every person but the root has exactly one f link
		}
	}
	persons++
	db, _, err := kb.LoadString(oracleSrc.String())
	if err != nil {
		return "", nil, fmt.Errorf("oracle program: %w", err)
	}
	model, err := ref.Eval(db)
	if err != nil {
		return "", nil, fmt.Errorf("oracle: %w", err)
	}
	goals, err := parse.Query("gf(X,G)")
	if err != nil {
		return "", nil, err
	}
	want := make([]map[string]bool, persons)
	for i := range want {
		want[i] = map[string]bool{}
	}
	for _, ans := range model.Answers(goals) { // "X = p3, G = p31"
		x, g, ok := strings.Cut(strings.TrimPrefix(ans, "X = p"), ", ")
		k, convErr := strconv.Atoi(x)
		if !ok || convErr != nil || k < 0 || k >= persons {
			return "", nil, fmt.Errorf("oracle answer %q not understood", ans)
		}
		want[k][g] = true
	}
	for k := 0; k < persons; k++ {
		qs = append(qs, newQuery("point", server.QueryRequest{
			Goal: fmt.Sprintf("gf(p%d,G)", k), Strategy: strategy, Learn: learn,
		}, want[k]))
	}
	return src, qs, nil
}

func buildPoint(seed int64) (*instance, error) {
	src, qs, err := familyQueries("dfs", false)
	if err != nil {
		return nil, err
	}
	return &instance{src: src, pools: []pool{{1, qs}}}, nil
}

func buildSession(seed int64) (*instance, error) {
	src, qs, err := familyQueries("best", true)
	if err != nil {
		return nil, err
	}
	return &instance{src: src, pools: []pool{{1, qs}}, session: true}, nil
}

func queensQuery(strategy string, workers int) *query {
	want := map[string]bool{}
	for _, line := range strings.Split(queens5, "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			want[line] = true
		}
	}
	return newQuery("search", server.QueryRequest{Goal: "queens(5,Qs)", Strategy: strategy, Workers: workers}, want)
}

func buildSearch(strategy string, workers int) func(int64) (*instance, error) {
	return func(seed int64) (*instance, error) {
		return &instance{src: gen.NQueens, pools: []pool{{1, []*query{queensQuery(strategy, workers)}}}}, nil
	}
}

var edgeFact = regexp.MustCompile(`edge\(v(\d+),v(\d+)\)\.`)

// cyclicSeed fixes the cyclic graph and the order of the chords asserted
// into it. They are constants of the benchmark, not inputs drawn from
// --seed (which draws the source each read asks about): the cost of a
// fixpoint depends on the shape of the graph, and with a graph per seed
// ten seeds spread allocs_per_query on tabled_write by 6-10%.
const cyclicSeed = 1

// cyclicQueries builds the tabled path(vK,Z) query for each of the 64
// sources. The graph holds a ring over all nodes, so it is strongly
// connected whatever the chords are and whatever is asserted later: the
// answer set of every query is always all 64 nodes.
func cyclicQueries() (src string, qs []*query, chords []string) {
	src = gen.Cyclic(cyclicNodes, cyclicChords, cyclicSeed)
	all := map[string]bool{}
	for z := 0; z < cyclicNodes; z++ {
		all[fmt.Sprintf("Z = v%d", z)] = true
	}
	for k := 0; k < cyclicNodes; k++ {
		qs = append(qs, newQuery("tabled", server.QueryRequest{Goal: fmt.Sprintf("path(v%d,Z)", k), Tabled: true}, all))
	}
	present := map[[2]int]bool{}
	for _, m := range edgeFact.FindAllStringSubmatch(src, -1) {
		i, _ := strconv.Atoi(m[1])
		j, _ := strconv.Atoi(m[2])
		present[[2]int{i, j}] = true
	}
	for i := 0; i < cyclicNodes; i++ {
		for j := 0; j < cyclicNodes; j++ {
			if i != j && !present[[2]int{i, j}] {
				chords = append(chords, fmt.Sprintf("edge(v%d,v%d).", i, j))
			}
		}
	}
	rng := rand.New(rand.NewSource(cyclicSeed))
	rng.Shuffle(len(chords), func(a, b int) { chords[a], chords[b] = chords[b], chords[a] })
	return src, qs, chords
}

func buildTabled(write bool) func(int64) (*instance, error) {
	return func(seed int64) (*instance, error) {
		src, qs, chords := cyclicQueries()
		return &instance{src: src, pools: []pool{{1, qs}}, tabled: qs, chords: chords, asserts: write}, nil
	}
}

func buildMixed(seed int64) (*instance, error) {
	family, points, err := familyQueries("dfs", false)
	if err != nil {
		return nil, err
	}
	cyclic, tabled, chords := cyclicQueries()
	return &instance{
		src:    family + cyclic + gen.NQueens,
		pools:  []pool{{45, points}, {4, tabled}, {1, []*query{queensQuery("dfs", 0)}}},
		tabled: tabled,
		chords: chords,
	}, nil
}

// generate builds the workload's inputs for seed.
func (w *workload) generate(seed int64) (*instance, error) {
	in, err := w.build(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	in.w, in.seed = w, seed
	return in, nil
}

// stream is one client's deterministic sequence of operations.
type stream struct {
	in     *instance
	rng    *rand.Rand
	client int
	n      int   // operations issued so far
	base   int   // first person of the current session's neighbourhood
	deck   []int // pool indices still to deal from the current deck
}

func (in *instance) stream(client int) *stream {
	return &stream{in: in, client: client, rng: rand.New(rand.NewSource(in.seed*1_000_003 + int64(client)))}
}

func (s *stream) next() op {
	in, n := s.in, s.n
	s.n++
	switch {
	case in.session:
		qs := in.pools[0].queries
		switch n % (sessionLen + 2) {
		case 0:
			s.base = s.rng.Intn(len(qs) / 2)
			return op{kind: opSessionStart}
		case sessionLen + 1:
			return op{kind: opSessionEnd}
		}
		return op{q: qs[s.base+s.rng.Intn(sessionSpan)]}
	case in.asserts && n%assertEvery == assertEvery-1:
		// Clients take interleaved slices of the shuffled chord list, so no
		// chord is asserted twice until the list (about 3900 long) wraps.
		k := (n/assertEvery)*in.w.clients + s.client
		return op{kind: opAssert, clause: in.chords[k%len(in.chords)]}
	}
	if len(in.pools) == 1 {
		qs := in.pools[0].queries
		return op{q: qs[s.rng.Intn(len(qs))]}
	}
	if len(s.deck) == 0 {
		for i, p := range in.pools {
			for k := 0; k < p.share; k++ {
				s.deck = append(s.deck, i)
			}
		}
		s.rng.Shuffle(len(s.deck), func(a, b int) { s.deck[a], s.deck[b] = s.deck[b], s.deck[a] })
	}
	qs := in.pools[s.deck[0]].queries
	s.deck = s.deck[1:]
	return op{q: qs[s.rng.Intn(len(qs))]}
}

// digest hashes the first n operations of every client's stream, so two
// runs can be checked for identical inputs.
func (in *instance) digest(n int) string {
	h := sha256.New()
	h.Write([]byte(in.src))
	for c := 0; c < in.w.clients; c++ {
		s := in.stream(c)
		for i := 0; i < n; i++ {
			o := s.next()
			fmt.Fprintf(h, "%d|%d|%s|", c, o.kind, o.clause)
			if o.q != nil {
				h.Write(o.q.body)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
