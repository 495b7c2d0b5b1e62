package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"blog"
	"blog/internal/obs"
	"blog/internal/workload"
)

// encodeJSON is what every writer here used to send: encoding/json with
// HTML escaping off.
func encodeJSON(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// wireSolutionOf is a facade Solution on the wire, built field by field.
func wireSolutionOf(s blog.Solution) Solution {
	return Solution{Bindings: s.Bindings, Text: s.String(), Bound: s.Bound, Depth: s.Depth}
}

// encodedQueryBody is a one-shot body as encoding/json writes it for the
// QueryResponse of res, with elapsed_ms 0 and no request_id.
func encodedQueryBody(t testing.TB, res *blog.Result, strategy, session string) []byte {
	resp := QueryResponse{
		Solutions:            make([]Solution, 0, len(res.Solutions)),
		Exhausted:            res.Exhausted,
		Expanded:             res.Expanded,
		Generated:            res.Generated,
		Failures:             res.Failures,
		Strategy:             strategy,
		VMDispatched:         res.VMDispatched,
		Session:              session,
		TablesCreated:        res.TablesCreated,
		TableAnswers:         res.TableAnswers,
		TableHits:            res.TableHits,
		RederivationsAvoided: res.RederivationsAvoided,
		TablesTruncated:      res.TablesTruncated,
		AnswersSubsumed:      res.AnswersSubsumed,
		AnswersImproved:      res.AnswersImproved,
	}
	for _, s := range res.Solutions {
		resp.Solutions = append(resp.Solutions, wireSolutionOf(s))
	}
	return encodeJSON(t, resp)
}

// encodedStream is a stream body as encoding/json writes its StreamEvent
// lines for the solutions of res, without request_id.
func encodedStream(t testing.TB, res *blog.Result) []byte {
	var out []byte
	for _, sol := range res.Solutions {
		ws := wireSolutionOf(sol)
		out = append(out, encodeJSON(t, StreamEvent{Solution: &ws})...)
	}
	return append(out, encodeJSON(t, StreamEvent{
		Done: true, Exhausted: res.Exhausted, Solutions: len(res.Solutions), Expanded: res.Expanded, VMDispatched: res.VMDispatched,
		TablesCreated: res.TablesCreated, TableAnswers: res.TableAnswers, TableHits: res.TableHits,
		RederivationsAvoided: res.RederivationsAvoided, TablesTruncated: res.TablesTruncated,
		AnswersSubsumed: res.AnswersSubsumed, AnswersImproved: res.AnswersImproved,
	})...)
}

var (
	elapsedField   = regexp.MustCompile(`"elapsed_ms":[-+.e0-9]+`)
	requestIDField = regexp.MustCompile(`,"request_id":"q-[0-9]+"`)
	// anonymousVar: a _G variable's serial differs between two programs
	// loaded in one process.
	anonymousVar = regexp.MustCompile(`_G[0-9]+`)
)

// comparable drops what a served body and a rebuilt one cannot share.
func comparable(body []byte) string {
	body = elapsedField.ReplaceAll(body, []byte(`"elapsed_ms":0`))
	body = requestIDField.ReplaceAll(body, nil)
	return string(anonymousVar.ReplaceAll(body, []byte("_G")))
}

// escapesSrc names atoms that exercise every string escape: quote,
// backslash, newline, tab, the other control characters, DEL, U+2028 and
// U+2029, non-ASCII text, an invalid UTF-8 byte and HTML's specials, plus
// compounds whose functors need quotes.
const escapesSrc = "s('say \"hi\"').\n" +
	"s('back\\\\slash').\n" +
	"s('two\\nlines').\n" +
	"s('tab\\there').\n" +
	"s('ctl\x01\x1f\x7f\b\f\r').\n" +
	"s('line\u2028sep').\n" +
	"s('para\u2029sep').\n" +
	"s('héllo wörld').\n" +
	"s('bad\xffbyte').\n" +
	"s('<&>').\n" +
	"s('it''s').\n" +
	"l([a,'b c'|'t\"']).\n" +
	"c('x\"y'(1), '[]'(2), '!'(3)).\n"

// wireStep is one step of a byte-identity case: a query, or a clause
// asserted into both programs before the next query.
type wireStep struct {
	req    QueryRequest
	assert string
}

// TestWireBodiesMatchEncodingJSON holds both writers to the bytes
// encoding/json writes for the wire types. Each case runs its steps
// against a served program and, in step, against a second program through
// the facade, whose results are encoded as server.Solution /
// QueryResponse / StreamEvent values by encoding/json. The bodies must be
// equal byte for byte apart from elapsed_ms and request_id.
func TestWireBodiesMatchEncodingJSON(t *testing.T) {
	family := workload.FamilyTree(6, 3)
	cyclic := workload.Cyclic(64, 32, 1)
	point := func(k int, strategy string) wireStep {
		return wireStep{req: QueryRequest{Goal: fmt.Sprintf("gf(p%d,G)", k), Strategy: strategy}}
	}
	tabled := func(k int) wireStep {
		return wireStep{req: QueryRequest{Goal: fmt.Sprintf("path(v%d,Z)", k), Tabled: true}}
	}
	queens := func(strategy string, workers int) wireStep {
		return wireStep{req: QueryRequest{Goal: "queens(5,Qs)", Strategy: strategy, Workers: workers}}
	}
	query := func(goal, strategy string) wireStep {
		return wireStep{req: QueryRequest{Goal: goal, Strategy: strategy}}
	}
	var learning []wireStep
	for round := 0; round < 2; round++ {
		for k := 4; k < 8; k++ {
			learning = append(learning, wireStep{req: QueryRequest{Goal: fmt.Sprintf("gf(p%d,G)", k), Strategy: "best", Learn: true}})
		}
	}
	cases := []struct {
		name    string
		src     string
		steps   []wireStep
		session bool // the one-shot queries go to a learning session
	}{
		{"point_dfs", family, []wireStep{point(3, "dfs"), point(40, "dfs")}, false},
		{"search_deep", workload.NQueens, []wireStep{queens("dfs", 0)}, false},
		{"parallel_or", workload.NQueens, []wireStep{queens("parallel", 2)}, false},
		{"best_session", family, learning, true},
		{"tabled_read", cyclic, []wireStep{tabled(3), tabled(3), tabled(17)}, false},
		{"tabled_write", cyclic, []wireStep{tabled(3), {assert: "edge(v3,v64)."}, tabled(3)}, false},
		{"mixed_open", family + cyclic + workload.NQueens, []wireStep{point(5, "dfs"), tabled(9), queens("dfs", 0)}, false},
		{"capped", family + cyclic, []wireStep{
			{req: QueryRequest{Goal: "anc(p0,X)", Strategy: "bfs", MaxSolutions: 5}},
			{req: QueryRequest{Goal: "path(v1,Z)", Tabled: true, MaxSolutions: 3}},
		}, false},
		{"ground", family, []wireStep{query("f(p0,p1)", "dfs"), query("gf(p0,p4)", "best")}, false},
		{"zero answers", family, []wireStep{query("gf(nobody,G)", "dfs"), query("f(p1,p0)", "dfs")}, false},
		{"variable order", "p(b,a,c).\np(a,b,d).\n", []wireStep{query("p(Y,X,_)", "dfs")}, false},
		{"escapes", escapesSrc, []wireStep{query("s(X)", "dfs"), query("l(L)", "bfs"), query("c(A,B,C)", "best")}, false},
		{"parallel", family, []wireStep{{req: QueryRequest{Goal: "gf(p2,G)", Strategy: "parallel", Workers: 2}}}, false},
		{"clause variables", "mk(f(A,B,A)).\n", []wireStep{
			query("mk(Q), A = 1", "dfs"),
			query("copy_term(f(X,Y), Z), X = 1", "best"),
			query("mk(Q), mk(R)", "bfs"),
			{req: QueryRequest{Goal: "mk(Q), mk(R)", Strategy: "parallel", Workers: 2}},
		}, false},
	}
	for _, c := range cases {
		endpoints := []string{"/query", "/query/stream"}
		if c.session {
			endpoints = endpoints[:1]
		}
		for _, endpoint := range endpoints {
			name := c.name + " on " + endpoint
			s, ts := newTestServer(t, c.src, Config{})
			ref := mustProgram(t, c.src)
			url := ts.URL + endpoint
			var sess *blog.Session
			var sessionID string
			if c.session {
				var info SessionInfo
				resp, data := postJSON(t, ts.Client(), ts.URL+"/sessions", struct{}{})
				if resp.StatusCode != http.StatusCreated || json.Unmarshal(data, &info) != nil {
					t.Fatalf("%s: session create: %d %s", name, resp.StatusCode, data)
				}
				sessionID, sess = info.ID, ref.NewSession(0)
				url = ts.URL + "/sessions/" + info.ID + "/query"
			}
			fractional := false
			for i, step := range c.steps {
				if step.assert != "" {
					if err := s.program.Assert(step.assert); err != nil {
						t.Fatal(err)
					}
					if err := ref.Assert(step.assert); err != nil {
						t.Fatal(err)
					}
					continue
				}
				resp, got := postJSON(t, ts.Client(), url, step.req)
				stratName := step.req.Strategy
				if stratName == "" {
					stratName = s.cfg.DefaultStrategy
				}
				strat, err := blog.ParseStrategy(stratName)
				if err != nil {
					t.Fatal(err)
				}
				maxSol := s.cfg.SolutionCap
				if step.req.MaxSolutions > 0 {
					maxSol = step.req.MaxSolutions
				}
				opts := wireOptions(step.req, maxSol)
				if sess != nil {
					opts = append(opts, blog.InSession(sess))
				}
				var want []byte
				wantStatus, wantType := http.StatusOK, "application/json"
				if endpoint == "/query/stream" && (strat == blog.Parallel || step.req.AndParallel) {
					want, wantStatus = encodeJSON(t, ErrorResponse{Error: errUnstreamable.Error()}), http.StatusBadRequest
				} else if res, err := ref.QueryContext(context.Background(), step.req.Goal, strat, opts...); err != nil {
					t.Fatal(err)
				} else if endpoint == "/query" {
					want = encodedQueryBody(t, res, strat.String(), sessionID)
					for _, sol := range res.Solutions {
						fractional = fractional || sol.Bound != math.Trunc(sol.Bound)
					}
				} else {
					want, wantType = encodedStream(t, res), "application/x-ndjson"
				}
				if resp.StatusCode != wantStatus || resp.Header.Get("Content-Type") != wantType {
					t.Errorf("%s step %d: status %d %q, want %d %q", name, i, resp.StatusCode, resp.Header.Get("Content-Type"), wantStatus, wantType)
				}
				if comparable(got) != comparable(want) {
					t.Errorf("%s step %d: bodies differ\nserved:        %s\nencoding/json: %s", name, i, got, want)
				}
			}
			if c.session && !fractional {
				t.Errorf("%s: no learned bound is fractional; the case does not exercise float text", name)
			}
		}
	}
}

// TestQueryResponseEncodesSolutionsFirst pins the layout the one-shot
// writer splices its rendered array into: a QueryResponse with every field
// set still encodes `{"solutions":[]` first.
func TestQueryResponseEncodesSolutionsFirst(t *testing.T) {
	body := encodeJSON(t, QueryResponse{
		Solutions: []Solution{}, Exhausted: true, Expanded: 1, Strategy: "dfs", ElapsedMs: 1.5,
		RequestID: "q-000001", VMDispatched: 1, Session: "s-1", TablesCreated: 1, AnswersImproved: 1,
		Trace: &obs.Span{Name: "query"},
	})
	if !bytes.HasPrefix(body, []byte(solutionsOpen+"]")) {
		t.Fatalf("QueryResponse encodes as %s", body)
	}
}

// FuzzAppendJSONString holds the string escaper, and closeJSONString's
// in-place fast path, to encoding/json's output for the same string.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "plain", `q"b\s`, "\b\f\n\r\t\x00\x1f\x7f", "\u2028\u2029", "héllo", "\xff\xfe", "<&>", "\xe2\x80", "\xed\xa0\x80"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := strings.TrimSuffix(string(encodeJSON(t, s)), "\n")
		if got := appendJSONString(nil, s); string(got) != want {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
		if got := closeJSONString(append([]byte(`x"`), s...), 2); string(got[1:]) != want {
			t.Fatalf("closeJSONString(%q) = %s, want %s", s, got[1:], want)
		}
	})
}

// FuzzAppendJSONFloat holds the bound's text to json.Marshal's for every
// finite float64; NaN and the infinities, which json.Marshal refuses, are
// written as null.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, 16, 5.333333333333333, -2.5, 1e-6, 9.99e-7, 1e-7,
		123456789.125, 1e20, 1e21, 1.5e300, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		got := appendJSONFloat(nil, v)
		want, err := json.Marshal(v)
		if err != nil {
			want = []byte("null")
		}
		if string(got) != string(want) {
			t.Fatalf("appendJSONFloat(%v) = %s, want %s", v, got, want)
		}
	})
}

// wireOptions is the reference reading of a request as blog Options, the
// facade's own path, which the server's Settings must run the same as.
func wireOptions(q QueryRequest, maxSolutions int) []blog.Option {
	opts := []blog.Option{blog.MaxSolutions(maxSolutions)}
	if q.MaxExpansions > 0 {
		opts = append(opts, blog.MaxExpansions(q.MaxExpansions))
	}
	if q.MaxDepth > 0 {
		opts = append(opts, blog.MaxDepth(q.MaxDepth))
	}
	if q.Learn {
		opts = append(opts, blog.Learn())
	}
	if q.Prune {
		opts = append(opts, blog.Prune())
	}
	if q.PruneSlack > 0 {
		opts = append(opts, blog.PruneSlack(q.PruneSlack))
	}
	if q.AndParallel {
		opts = append(opts, blog.AndParallel())
	}
	if q.Workers > 0 {
		opts = append(opts, blog.Workers(q.Workers))
	}
	if q.Tabled {
		opts = append(opts, blog.Tabled())
	}
	return opts
}

// memWriter is an in-memory http.ResponseWriter reused across requests.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (m *memWriter) Header() http.Header         { return m.header }
func (m *memWriter) WriteHeader(status int)      { m.status = status }
func (m *memWriter) Write(p []byte) (int, error) { return m.body.Write(p) }

// TestQueryBodyAllocationBudget is the allocation guard for the one-shot
// path: ServeHTTP of each row's request into a reused in-memory writer.
// The tabled row replays a complete 64-answer table under blogd's default
// strategy (best-first, on the persistent Env); the dfs rows are the trail
// machine's search and point shapes; the session row learns best-first in
// a session; the parallel row runs two OR-parallel workers. Answers render
// from the run's live bindings, the goal is parsed once into its terms,
// the body is read into the writer's buffer and decoded in place, a run
// has one context and its settings are a value, and the trail machine
// renames its root from its pools, so no row pays per answer, per option,
// per root term or per request byte. Each sequential budget is 1.2x its
// measurement.
func TestQueryBodyAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	rows := []struct {
		name, src, body, want string
		session               bool // post to a session's query endpoint
		budget                float64
	}{
		// Measured 19; 36 with encoding/json's decoder and a heap parse,
		// 61 with a context per layer, option closures and an open list
		// grown from nothing, 351 with detached answers.
		{"tabled default strategy", workload.Cyclic(64, 32, 1), `{"goal":"path(v3,Z)","tabled":true}`, `"text":"Z = v63"`, false, 22},
		// Measured 14; 32 with encoding/json's decoder and a heap parse,
		// 33 with a trail run header of its own, 59 before, 220 with
		// detached answers. A profiler that allocates again fails here.
		{"queens dfs", workload.NQueens, `{"goal":"queens(5,Qs)","strategy":"dfs"}`, `"exhausted":true`, false, 16},
		// Measured 14; 32 with encoding/json's decoder and a heap parse,
		// 33 with a trail run header of its own, 58 before, 79 with
		// detached answers.
		{"point dfs", workload.FamilyTree(6, 3), `{"goal":"gf(p700,G)","strategy":"dfs"}`, `"exhausted":true`, false, 16},
		// Measured 19 in a warm session; 37 with encoding/json's decoder
		// and a heap parse, 59 before.
		{"session best learn", workload.FamilyTree(6, 3), `{"goal":"gf(p700,G)","strategy":"best","learn":true}`, `"exhausted":true`, true, 22},
		// Measured 41 (60 with encoding/json's decoder, a heap parse and
		// a network grown from nil, 88 with a heap root chain, a
		// context.AfterFunc and heap frames for exported variables, 270
		// while each answer and exported chain took a heap object per
		// copied cell, 290 while each answer carried a copy of its arc
		// chain and a map of its bindings, 309 before): worker headers and
		// chunks, whose count follows the scheduling; the budget, 1.5x,
		// leaves room for that, as the par package's own guard does, not
		// for an object per node or per cell.
		{"parallel queens", workload.NQueens, `{"goal":"queens(5,Qs)","strategy":"parallel","workers":2}`, `"exhausted":true`, false, 61},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			s := New(Config{Program: mustProgram(t, r.src)})
			target := "/query"
			if r.session {
				e, _, err := s.sessions.create(s.program, 0)
				if err != nil {
					t.Fatal(err)
				}
				target = "/sessions/" + e.id + "/query"
			}
			body := []byte(r.body)
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, target, rd)
			w := &memWriter{header: http.Header{}}
			serve := func() {
				rd.Reset(body)
				w.body.Reset()
				s.ServeHTTP(w, req)
				if w.status != http.StatusOK || !bytes.Contains(w.body.Bytes(), []byte(r.want)) {
					t.Fatalf("status %d: %s", w.status, w.body.Bytes())
				}
			}
			serve() // completes any table and warms the pools
			got := testing.AllocsPerRun(200, serve)
			t.Logf("%.1f allocations per query", got)
			if got > r.budget {
				t.Errorf("one-shot query allocated %.1f times, budget %.0f", got, r.budget)
			}
		})
	}
}
