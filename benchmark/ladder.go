package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"blog"
	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/obs"
	"blog/internal/par"
	"blog/internal/parse"
	"blog/internal/search"
	"blog/internal/server"
	"blog/internal/session"
	"blog/internal/solve"
	"blog/internal/table"
	"blog/internal/term"
	"blog/internal/vm"
	"blog/internal/weights"
)

// The ladder replays one client's request stream on one goroutine through
// each layer boundary of the service in turn, innermost first, timing the
// call into the layer's public function from outside. rungParent names the
// rung whose call contains each rung's call; a rung's self time is its
// median minus the medians of the rungs it contains, so the self times sum
// to the loopback figure by construction. They are differences of separate
// calls on the same inputs, not nested spans of one call.
var rungNames = []string{
	"parse.query", "search.run", "solve.do", "blog.query", "blog.query_obs",
	"wire.decode", "wire.encode", "server.handler", "server.loopback",
}

var rungParent = map[string]string{
	"parse.query":     "blog.query",
	"search.run":      "solve.do",
	"solve.do":        "blog.query",
	"blog.query":      "blog.query_obs",
	"blog.query_obs":  "server.handler",
	"wire.decode":     "server.handler",
	"wire.encode":     "server.handler",
	"server.handler":  "server.loopback",
	"server.loopback": "",
}

// solutionCap is server.Config's default SolutionCap, which the handler
// passes to every query as MaxSolutions.
const solutionCap = 1024

// span is one timed call into a rung. The request index is the identifier
// the spans of one request share across rungs.
type span struct {
	request    int
	rung       int
	start, end time.Duration // since the ladder began
}

// rungRun is one rung ready to replay: how its fixture applies the
// stream's state-changing operations, and the timed call between an
// untimed prepare and an untimed verify.
type rungRun struct {
	assert       func(clause string) error
	sessionStart func() error
	sessionEnd   func() error
	prep         func(q *query) error
	call         func(q *query) error
	verify       func(q *query) error
	close        func()
}

type rungResult struct {
	ns     []float64 // per query
	allocs float64   // per query
	opNs   map[opKind][]float64
}

type ladder struct {
	in     *instance
	ops    []op // warmOps untimed operations, then the replayed ones
	began  time.Time
	spans  []span
	engine engineCounts // from the loopback rung's replies
	par    struct {
		migrations, acquires uint64
		imbalance            []float64
	}
}

func newLadder(in *instance, queries int) *ladder {
	l := &ladder{in: in, began: time.Now()}
	s := in.stream(0)
	for n := 0; n < queries || in.session && len(l.ops)%(sessionLen+2) != 0; {
		o := s.next()
		l.ops = append(l.ops, o)
		if o.kind == opQuery && len(l.ops) > warmOps {
			n++
		}
	}
	l.spans = make([]span, 0, (len(rungNames)+1)*len(l.ops))
	return l
}

// step puts one operation through rung i.
func (l *ladder) step(i int, r *rungRun, res *rungResult, o op, timed bool) error {
	if o.kind != opQuery {
		do := r.sessionStart
		switch o.kind {
		case opAssert:
			do = func() error { return r.assert(o.clause) }
		case opSessionEnd:
			do = r.sessionEnd
		}
		start := time.Now()
		if err := do(); err != nil {
			return fmt.Errorf("%s: %w", l.rungName(i), err)
		}
		if timed {
			res.opNs[o.kind] = append(res.opNs[o.kind], float64(time.Since(start)))
		}
		return nil
	}
	if err := r.prep(o.q); err != nil {
		return fmt.Errorf("%s: %w", l.rungName(i), err)
	}
	a0, start := mallocs(), time.Now()
	err := r.call(o.q)
	d := time.Since(start)
	a1 := mallocs()
	if err == nil {
		err = r.verify(o.q)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", l.rungName(i), err)
	}
	if timed {
		at := start.Sub(l.began)
		l.spans = append(l.spans, span{len(res.ns), i, at, at + d})
		res.ns = append(res.ns, float64(d))
		res.allocs += float64(a1 - a0)
	}
	return nil
}

// dfsBaseline names the extra rung a parallel workload gets: the same
// search by sequential DFS, which par.seq_ratio divides by.
const dfsBaseline = "search.run.dfs"

func (l *ladder) rungName(i int) string {
	if i == len(rungNames) {
		return dfsBaseline
	}
	return rungNames[i]
}

func noop() error { return nil }

// stateless is a rung whose call needs no program state.
func stateless(call, verify func(q *query) error) *rungRun {
	return &rungRun{
		assert: func(string) error { return nil }, sessionStart: noop, sessionEnd: noop,
		prep: func(*query) error { return nil }, call: call, verify: verify, close: func() {},
	}
}

func (q *query) strategy() blog.Strategy {
	name := q.req.Strategy
	if name == "" {
		name = "best" // server.Config's DefaultStrategy
	}
	s, err := blog.ParseStrategy(name)
	if err != nil {
		panic(err) // the workloads only name real strategies
	}
	return s
}

func (l *ladder) parseRung() (*rungRun, error) {
	var goals []term.Term
	return stateless(
		func(q *query) (err error) { goals, err = parse.Query(q.req.Goal); return err },
		func(q *query) error {
			if len(goals) != 1 {
				return fmt.Errorf("%s parsed into %d goals", q.req.Goal, len(goals))
			}
			return nil
		}), nil
}

// inner is the fixture under the facade: the database, table space and
// weight stores that blog.Program holds privately, built the same way.
type inner struct {
	db     *kb.DB
	space  *table.Space
	global *weights.Table
	sess   *session.Session
}

func newInner(src string) (*inner, error) {
	db, _, err := kb.LoadString(src)
	if err != nil {
		return nil, err
	}
	vm.For(db)
	cfg := weights.DefaultConfig()
	return &inner{db: db, space: table.NewSpace(db, table.Config{MaxDepth: cfg.A}), global: weights.NewTable(cfg)}, nil
}

func (f *inner) store() weights.Store {
	if f.sess != nil {
		return f.sess
	}
	return f.global
}

func (f *inner) assert(clause string) error {
	prog, err := parse.Source(clause)
	if err != nil {
		return err
	}
	for _, c := range prog.Clauses {
		f.db.Assert(c.Head, c.Body)
	}
	return nil
}

// innerRung times run, a call into search, par or solve, on pre-parsed
// goals; run leaves the solutions in sols/vars/exhausted for verify.
func (l *ladder) innerRung(run func(f *inner, q *query, goals []term.Term) ([]engine.Solution, []*term.Var, bool, error)) (*rungRun, error) {
	f, err := newInner(l.in.src)
	if err != nil {
		return nil, err
	}
	var (
		goals     []term.Term
		sols      []engine.Solution
		vars      []*term.Var
		exhausted bool
	)
	return &rungRun{
		assert:       f.assert,
		sessionStart: func() error { f.sess = session.New(f.global); return nil },
		sessionEnd:   func() error { f.sess.End(); f.sess = nil; return nil },
		prep:         func(q *query) (err error) { goals, err = parse.Query(q.req.Goal); return err },
		call:         func(q *query) (err error) { sols, vars, exhausted, err = run(f, q, goals); return err },
		verify: func(q *query) error {
			texts := make([]string, len(sols))
			for i, s := range sols {
				texts[i] = s.Format(vars)
			}
			return q.checkTexts(texts, exhausted)
		},
		close: f.space.Close,
	}, nil
}

// searchRun is the strategy's engine entry: search.Run for the sequential
// strategies, par.Run for the parallel one. asDFS forces sequential DFS,
// the baseline par.seq_ratio divides by.
func (l *ladder) searchRun(asDFS bool) func(*inner, *query, []term.Term) ([]engine.Solution, []*term.Var, bool, error) {
	return func(f *inner, q *query, goals []term.Term) ([]engine.Solution, []*term.Var, bool, error) {
		var tb engine.Tabler // a nil interface, not a typed nil, when untabled
		if q.req.Tabled && f.db.HasTabled() {
			tb = f.space.NewHandle()
		}
		strat := q.strategy()
		if strat == blog.Parallel && !asDFS {
			res, err := par.Run(context.Background(), f.db, f.store(), goals, par.Options{
				Workers: q.req.Workers, MaxSolutions: solutionCap, Learn: q.req.Learn, Tabler: tb,
			})
			if err != nil {
				return nil, nil, false, err
			}
			l.par.migrations += res.Stats.Migrations
			l.par.acquires += res.Stats.NetworkAcquires
			var sum, max float64
			for _, e := range res.Stats.PerWorkerExpanded {
				sum += float64(e)
				if float64(e) > max {
					max = float64(e)
				}
			}
			if sum > 0 {
				l.par.imbalance = append(l.par.imbalance, max*float64(len(res.Stats.PerWorkerExpanded))/sum)
			}
			return res.Solutions, res.QueryVars, res.Exhausted, nil
		}
		sstrat := search.DFS
		switch {
		case asDFS:
		case strat == blog.BFS:
			sstrat = search.BFS
		case strat == blog.BestFirst:
			sstrat = search.BestFirst
		}
		res, err := search.Run(context.Background(), f.db, f.store(), goals, search.Options{
			Strategy: sstrat, MaxSolutions: solutionCap, Learn: q.req.Learn, Tabler: tb,
		})
		if err != nil {
			return nil, nil, false, err
		}
		return res.Solutions, res.QueryVars, res.Exhausted, nil
	}
}

func solveDo(f *inner, q *query, goals []term.Term) ([]engine.Solution, []*term.Var, bool, error) {
	req := &solve.Request{
		DB: f.db, Store: f.store(), Goals: goals, Strategy: q.strategy(),
		MaxSolutions: solutionCap, Learn: q.req.Learn, Workers: q.req.Workers,
	}
	if q.req.Tabled && f.db.HasTabled() {
		req.Tables = f.space
	}
	resp, err := solve.Do(context.Background(), req)
	if err != nil {
		return nil, nil, false, err
	}
	return resp.Solutions, resp.QueryVars, resp.Exhausted, nil
}

// facade is the blog.Program fixture.
type facade struct {
	prog *blog.Program
	sess *blog.Session
}

// options are the blog options server.QueryRequest turns into.
func (f *facade) options(q *query) []blog.Option {
	opts := []blog.Option{blog.MaxSolutions(solutionCap)}
	if q.req.Learn {
		opts = append(opts, blog.Learn())
	}
	if q.req.Workers > 0 {
		opts = append(opts, blog.Workers(q.req.Workers))
	}
	if q.req.Tabled {
		opts = append(opts, blog.Tabled())
	}
	if f.sess != nil {
		opts = append(opts, blog.InSession(f.sess))
	}
	return opts
}

func verifyResult(q *query, res *blog.Result) error {
	texts := make([]string, len(res.Solutions))
	for i, s := range res.Solutions {
		texts[i] = s.String()
	}
	return q.checkTexts(texts, res.Exhausted)
}

// facadeRung times Program.QueryContext; withObs adds what the server
// always adds around it: a per-query profiler merged into the process
// profile, and a live-inspector entry.
func (l *ladder) facadeRung(withObs bool) (*rungRun, error) {
	prog, err := blog.LoadString(l.in.src)
	if err != nil {
		return nil, err
	}
	f := &facade{prog: prog}
	var (
		opts []blog.Option
		res  *blog.Result
		live = obs.NewRegistry()
		prof = obs.NewProfiler()
	)
	call := func(q *query) (err error) {
		res, err = prog.QueryContext(context.Background(), q.req.Goal, q.strategy(), opts...)
		return err
	}
	if withObs {
		call = func(q *query) (err error) {
			strat := q.strategy()
			lv := live.Add(q.req.Goal, strat.String(), nil)
			qprof := blog.NewProfiler()
			res, err = prog.QueryContext(context.Background(), q.req.Goal, strat,
				append(opts, blog.Profiled(qprof), blog.Monitor(lv))...)
			live.Remove(lv)
			prof.Merge(qprof)
			return err
		}
	}
	return &rungRun{
		assert:       prog.Assert,
		sessionStart: func() error { f.sess = prog.NewSession(0); return nil },
		sessionEnd:   func() error { f.sess.End(); f.sess = nil; return nil },
		prep:         func(q *query) error { opts = f.options(q); return nil },
		call:         call,
		verify:       func(q *query) error { return verifyResult(q, res) },
		close:        func() {},
	}, nil
}

func (l *ladder) decodeRung() (*rungRun, error) {
	var req server.QueryRequest
	return stateless(
		func(q *query) error {
			req = server.QueryRequest{}
			dec := json.NewDecoder(bytes.NewReader(q.body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				return err
			}
			return blog.ValidateQuery(req.Goal)
		},
		func(q *query) error {
			if req != q.req {
				return fmt.Errorf("decoded %+v, sent %+v", req, q.req)
			}
			return nil
		}), nil
}

// encodeRung times building a server.QueryResponse from a finished result
// and encoding it the way the handler's writeJSON does.
func (l *ladder) encodeRung() (*rungRun, error) {
	prog, err := blog.LoadString(l.in.src)
	if err != nil {
		return nil, err
	}
	f := &facade{prog: prog}
	var (
		res *blog.Result
		buf bytes.Buffer
	)
	r := stateless(
		func(q *query) error {
			resp := server.QueryResponse{
				Solutions: make([]server.Solution, 0, len(res.Solutions)),
				Exhausted: res.Exhausted, Expanded: res.Expanded, Generated: res.Generated, Failures: res.Failures,
				Strategy: q.strategy().String(), ElapsedMs: 0.123, RequestID: "q-000001", VMDispatched: res.VMDispatched,
				TablesCreated: res.TablesCreated, TableAnswers: res.TableAnswers, TableHits: res.TableHits,
				RederivationsAvoided: res.RederivationsAvoided,
			}
			for _, s := range res.Solutions {
				resp.Solutions = append(resp.Solutions, server.Solution{Bindings: s.Bindings, Text: s.String(), Bound: s.Bound, Depth: s.Depth})
			}
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			return enc.Encode(resp)
		},
		func(q *query) error { var a answer; return q.check(http.StatusOK, buf.Bytes(), &a) })
	// The result to encode comes from an untimed query; asserts and
	// sessions are skipped because they change no answer set.
	r.prep = func(q *query) (err error) {
		res, err = prog.QueryContext(context.Background(), q.req.Goal, q.strategy(), f.options(q)...)
		return err
	}
	return r, nil
}

// serverRung times a request through the whole service: Server.ServeHTTP
// with an in-memory response writer, or one client over the loopback
// socket (building the request is then the client's share of the call).
func (l *ladder) serverRung(loopback bool) (*rungRun, error) {
	svc, err := startService(l.in.src)
	if err != nil {
		return nil, err
	}
	c := newDirectClient(svc.srv)
	if loopback {
		c = newClient(svc.url)
	}
	var (
		req    *http.Request
		status int
		body   []byte
		a      answer
	)
	r := &rungRun{
		assert:       svc.prog.Assert,
		sessionStart: c.sessionStart,
		sessionEnd:   c.sessionEnd,
		prep:         func(q *query) (err error) { req, err = c.request(http.MethodPost, c.path, q.body); return err },
		call:         func(*query) (err error) { status, body, err = c.send(req); return err },
		verify:       func(q *query) error { return q.check(status, body, &a) },
		close:        func() { c.close(); svc.stop() },
	}
	if loopback {
		r.prep = func(*query) error { return nil }
		r.call = func(q *query) (err error) { status, body, err = c.do(http.MethodPost, c.path, q.body); return err }
		r.verify = func(q *query) error {
			if err := q.check(status, body, &a); err != nil {
				return err
			}
			l.engine.add(&a)
			return nil
		}
	}
	return r, nil
}

// run climbs the ladder and returns each rung's result by name.
func (l *ladder) run() (map[string]rungResult, error) {
	builders := []func() (*rungRun, error){
		l.parseRung,
		func() (*rungRun, error) { return l.innerRung(l.searchRun(false)) },
		func() (*rungRun, error) { return l.innerRung(solveDo) },
		func() (*rungRun, error) { return l.facadeRung(false) },
		func() (*rungRun, error) { return l.facadeRung(true) },
		l.decodeRung,
		l.encodeRung,
		func() (*rungRun, error) { return l.serverRung(false) },
		func() (*rungRun, error) { return l.serverRung(true) },
	}
	if l.in.pools[0].queries[0].strategy() == blog.Parallel {
		builders = append(builders, func() (*rungRun, error) { return l.innerRung(l.searchRun(true)) })
	}
	var rungs []*rungRun
	for i, build := range builders {
		r, err := build()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.rungName(i), err)
		}
		defer r.close()
		rungs = append(rungs, r)
	}
	results := make([]rungResult, len(rungs))
	for i := range results {
		results[i].opNs = map[opKind][]float64{}
	}
	// Every rung has its own fixture and sees every operation in order, but
	// not in one pass per rung: the stream is cut into as many blocks as
	// there are rungs, and block b starts at rung b. Whatever drifts while
	// the ladder runs — heap size and with it collector frequency above all
	// — then falls on every rung alike, where a pass per rung would charge
	// it to whichever rung ran first.
	for i, r := range rungs {
		for _, q := range l.in.tabled {
			if err := l.step(i, r, &results[i], op{q: q}, false); err != nil {
				return nil, err
			}
		}
		for _, o := range l.ops[:warmOps] {
			if err := l.step(i, r, &results[i], o, false); err != nil {
				return nil, err
			}
		}
	}
	timed := l.ops[warmOps:]
	block := (len(timed) + len(rungs) - 1) / len(rungs)
	if l.in.session {
		block += (sessionLen + 2 - block%(sessionLen+2)) % (sessionLen + 2) // whole sessions
	}
	for b := 0; b*block < len(timed); b++ {
		ops := timed[b*block : min((b+1)*block, len(timed))]
		for k := range rungs {
			i := (b + k) % len(rungs)
			for _, o := range ops {
				if err := l.step(i, rungs[i], &results[i], o, true); err != nil {
					return nil, err
				}
			}
		}
	}
	out := map[string]rungResult{}
	for i, res := range results {
		res.allocs /= float64(len(res.ns))
		out[l.rungName(i)] = res
	}
	return out, nil
}

// writeTrace writes the recorded spans, one JSON object per line.
func (l *ladder) writeTrace(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+l.in.w.name+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range l.spans {
		rung := l.rungName(s.rung)
		parent := rungParent[rung]
		fmt.Fprintf(w, `{"workload":%q,"request":%d,"rung":%q,"parent_rung":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			l.in.w.name, s.request, rung, parent, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanOverheadNs is what recording one span costs: two clock reads and an
// append into the pre-sized slice.
func spanOverheadNs() float64 {
	const n = 200_000
	spans := make([]span, 0, n)
	began := time.Now()
	for i := 0; i < n; i++ {
		start := time.Now()
		d := time.Since(start)
		at := start.Sub(began)
		spans = append(spans, span{i, 0, at, at + d})
	}
	return float64(time.Since(began)) / float64(len(spans))
}
