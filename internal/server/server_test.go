package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"blog"
	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/ref"
	"blog/internal/workload"
)

func mustProgram(t testing.TB, src string) *blog.Program {
	t.Helper()
	p, err := blog.LoadString(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newTestServer(t testing.TB, src string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Program = mustProgram(t, src)
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t testing.TB, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func queryResp(t testing.TB, client *http.Client, url string, req QueryRequest) QueryResponse {
	t.Helper()
	resp, data := postJSON(t, client, url, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, data)
	}
	var out QueryResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad response body %q: %v", data, err)
	}
	return out
}

func solutionTexts(sols []Solution) []string {
	out := make([]string, 0, len(sols))
	for _, s := range sols {
		out = append(out, s.Text)
	}
	sort.Strings(out)
	return out
}

const loopSrc = "loop :- loop.\n"

func TestQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, workload.FamilyTree(3, 2), Config{})
	got := queryResp(t, ts.Client(), ts.URL+"/query", QueryRequest{Goal: "gf(p0,G)", Strategy: "dfs"})
	if len(got.Solutions) == 0 || !got.Exhausted {
		t.Fatalf("response = %+v", got)
	}
	if got.Strategy != "dfs" {
		t.Errorf("strategy echoed as %q", got.Strategy)
	}
	// Bindings carried per solution.
	if got.Solutions[0].Bindings["G"] == "" {
		t.Errorf("solution lacks G binding: %+v", got.Solutions[0])
	}
}

func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, workload.FamilyTree(2, 2), Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty goal", `{}`, http.StatusBadRequest},
		{"parse error", `{"goal":"gf(p0,"}`, http.StatusBadRequest},
		{"bad strategy", `{"goal":"gf(p0,G)","strategy":"dijkstra"}`, http.StatusBadRequest},
		{"unknown field", `{"goal":"gf(p0,G)","bogus":1}`, http.StatusBadRequest},
		{"not json", `gf(p0,G)`, http.StatusBadRequest},
		{"compiled field", `{"goal":"gf(p0,G)","compiled":false}`, http.StatusBadRequest},
		{"occurs_check field", `{"goal":"gf(p0,G)","occurs_check":true}`, http.StatusBadRequest},
		{"nested too deep", `{"goal":"X = ` + strings.Repeat("f(", 10_001) + "a" + strings.Repeat(")", 10_001) + `"}`, http.StatusBadRequest},
		{"nested to the cap", `{"goal":"X = ` + strings.Repeat("f(", 10_000) + "a" + strings.Repeat(")", 10_000) + `"}`, http.StatusOK},
	}
	for _, c := range cases {
		resp, err := ts.Client().Post(ts.URL+"/query", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	// AndParallel composed with Parallel is a solver-level rejection.
	resp, data := postJSON(t, ts.Client(), ts.URL+"/query",
		QueryRequest{Goal: "gf(p0,G)", Strategy: "parallel", AndParallel: true})
	if resp.StatusCode != http.StatusInternalServerError && resp.StatusCode != http.StatusBadRequest {
		t.Errorf("parallel+and_parallel: status %d (%s)", resp.StatusCode, data)
	}
}

// TestParallelPruneIsBadRequest: prune and prune_slack under the parallel
// strategy answer 400 on both endpoints, since its workers share no
// incumbent bound; the same pruned query runs under dfs.
func TestParallelPruneIsBadRequest(t *testing.T) {
	_, ts := newTestServer(t, "p(a). p(X) :- q(X). q(b). q(X) :- r(X). r(c).", Config{})
	for _, endpoint := range []string{"/query", "/query/stream"} {
		for _, req := range []QueryRequest{
			{Goal: "p(X)", Strategy: "parallel", Prune: true},
			{Goal: "p(X)", Strategy: "parallel", PruneSlack: 0.5},
		} {
			resp, data := postJSON(t, ts.Client(), ts.URL+endpoint, req)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "parallel does not prune") {
				t.Errorf("%s %+v: status %d (%s)", endpoint, req, resp.StatusCode, data)
			}
		}
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/query", QueryRequest{Goal: "p(X)", Strategy: "dfs", Prune: true})
	if resp.StatusCode != http.StatusOK || strings.Count(string(data), `"text"`) != 1 {
		t.Errorf("dfs prune: status %d (%s)", resp.StatusCode, data)
	}
}

func TestQueryTimeout(t *testing.T) {
	s, ts := newTestServer(t, loopSrc, Config{})
	resp, data := postJSON(t, ts.Client(), ts.URL+"/query", QueryRequest{
		Goal: "loop", Strategy: "dfs", TimeoutMs: 30,
		MaxDepth: 1 << 30, MaxExpansions: 1 << 50,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, data)
	}
	if s.metrics.timeouts.Load() == 0 {
		t.Error("timeout counter not bumped")
	}
	// The worker slot must be free again.
	waitFor(t, func() bool { return s.pool.InFlight() == 0 })
}

func TestStreamEndpoint(t *testing.T) {
	_, ts := newTestServer(t, workload.FamilyTree(3, 2), Config{})
	raw, _ := json.Marshal(QueryRequest{Goal: "anc(p0,X)", Strategy: "bfs"})
	resp, err := ts.Client().Post(ts.URL+"/query/stream", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var solutions int
	var sawDone bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case ev.Solution != nil:
			if sawDone {
				t.Fatal("solution after terminal line")
			}
			solutions++
		case ev.Done:
			sawDone = true
			if !ev.Exhausted || ev.Error != "" {
				t.Errorf("terminal line = %+v", ev)
			}
			if ev.Solutions != solutions {
				t.Errorf("terminal count %d, streamed %d", ev.Solutions, solutions)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawDone || solutions == 0 {
		t.Fatalf("stream ended with %d solutions, done=%v", solutions, sawDone)
	}

	// Direct comparison with the one-shot endpoint.
	oneShot := queryResp(t, ts.Client(), ts.URL+"/query", QueryRequest{Goal: "anc(p0,X)", Strategy: "bfs"})
	if len(oneShot.Solutions) != solutions {
		t.Errorf("stream served %d solutions, one-shot %d", solutions, len(oneShot.Solutions))
	}

	// Parallel and AND-parallel runs cannot stream: a clear 400 with one
	// message, not a silent drop.
	var msgs []string
	for _, req := range []QueryRequest{
		{Goal: "anc(p0,X)", Strategy: "parallel"},
		{Goal: "anc(p0,X)", Strategy: "dfs", AndParallel: true},
	} {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/query/stream", req)
		var body ErrorResponse
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(data, &body) != nil || body.Error == "" {
			t.Errorf("%+v stream: status %d %s, want 400 with an error", req, resp.StatusCode, data)
		}
		msgs = append(msgs, body.Error)
	}
	if msgs[0] != msgs[1] {
		t.Errorf("refusals differ: %q (parallel) %q (and_parallel)", msgs[0], msgs[1])
	}
}

// TestSaturationReturns429 drives the admission controller to its limit
// and verifies overload fails fast, then that cancelling the hogs
// releases their slots for new work.
func TestSaturationReturns429(t *testing.T) {
	s, ts := newTestServer(t, loopSrc+workload.FamilyTree(2, 2),
		Config{MaxConcurrent: 1, QueueLen: 1, DefaultTimeout: time.Minute})
	client := ts.Client()

	slow := QueryRequest{Goal: "loop", Strategy: "dfs", MaxDepth: 1 << 30, MaxExpansions: 1 << 50}
	raw, _ := json.Marshal(slow)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // one occupies the worker, one fills the queue
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(raw))
			req.Header.Set("Content-Type", "application/json")
			resp, err := client.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	waitFor(t, func() bool { return s.pool.InFlight() == 1 && s.pool.Queued() == 1 })

	// Pool and queue are full: this request must be rejected immediately.
	start := time.Now()
	resp, data := postJSON(t, client, ts.URL+"/query", QueryRequest{Goal: "gf(p0,G)", Strategy: "dfs"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, data)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("saturated request took %v, want fast fail", elapsed)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 should carry Retry-After")
	}
	if s.metrics.rejected.Load() == 0 {
		t.Error("rejection counter not bumped")
	}

	// Abandoning the hogs must free the worker for real queries.
	cancel()
	wg.Wait()
	waitFor(t, func() bool { return s.pool.InFlight() == 0 && s.pool.Queued() == 0 })
	got := queryResp(t, client, ts.URL+"/query", QueryRequest{Goal: "gf(p0,G)", Strategy: "dfs"})
	if len(got.Solutions) == 0 {
		t.Error("post-saturation query found no solutions")
	}
}

// TestServerConcurrentLoad is the -race load test: many concurrent
// clients, mixed strategies, some with deadlines that cancel mid-search,
// against one shared Program — results must match direct blog.Query and
// no goroutine may leak.
func TestServerConcurrentLoad(t *testing.T) {
	src := workload.FamilyTree(4, 3) + loopSrc
	// Direct reference answers on an identical, separately loaded program.
	ref := mustProgram(t, src)
	want := map[string][]string{}
	for _, q := range []string{"anc(p0,X)", "gf(p0,G)"} {
		res, err := ref.Query(q, blog.DFS)
		if err != nil {
			t.Fatal(err)
		}
		var texts []string
		for _, s := range res.Solutions {
			texts = append(texts, s.String())
		}
		sort.Strings(texts)
		want[q] = texts
	}

	before := runtime.NumGoroutine()
	prog := mustProgram(t, src)
	s := New(Config{Program: prog, MaxConcurrent: 4, QueueLen: 64, DefaultTimeout: 30 * time.Second})
	ts := httptest.NewServer(s)
	client := ts.Client()

	type job struct {
		req  QueryRequest
		kind string // "exact", "timeout"
	}
	var jobs []job
	strategies := []string{"dfs", "bfs", "best", "parallel"}
	for i := 0; i < 40; i++ {
		strat := strategies[i%len(strategies)]
		goal := "anc(p0,X)"
		if i%2 == 1 {
			goal = "gf(p0,G)"
		}
		q := QueryRequest{Goal: goal, Strategy: strat}
		if strat == "parallel" {
			q.Workers = 2
		}
		if i%5 == 0 {
			q.AndParallel = strat != "parallel"
		}
		jobs = append(jobs, job{req: q, kind: "exact"})
	}
	for i := 0; i < 8; i++ { // deadline queries that cancel mid-search
		jobs = append(jobs, job{req: QueryRequest{
			Goal: "loop", Strategy: strategies[i%len(strategies)],
			TimeoutMs: 25, MaxDepth: 1 << 30, MaxExpansions: 1 << 50, Workers: 2,
		}, kind: "timeout"})
	}

	var wg sync.WaitGroup
	errCh := make(chan error, len(jobs))
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			resp, data := postJSON(t, client, ts.URL+"/query", j.req)
			switch j.kind {
			case "exact":
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("%v: status %d (%s)", j.req, resp.StatusCode, data)
					return
				}
				var out QueryResponse
				if err := json.Unmarshal(data, &out); err != nil {
					errCh <- err
					return
				}
				got := solutionTexts(out.Solutions)
				if strings.Join(got, ";") != strings.Join(want[j.req.Goal], ";") {
					errCh <- fmt.Errorf("%v: solutions %v, want %v", j.req, got, want[j.req.Goal])
				}
			case "timeout":
				if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusTooManyRequests {
					errCh <- fmt.Errorf("loop query: status %d (%s), want 504 or 429", resp.StatusCode, data)
				}
			}
		}(j)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Every slot released, nothing queued.
	waitFor(t, func() bool { return s.pool.InFlight() == 0 && s.pool.Queued() == 0 })

	// Shut the server down and verify no goroutine outlives its query.
	ts.Close()
	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionLearningAcrossQueries verifies the section-5 behavior as a
// server object: weight learning within one HTTP session is visible to
// that session's later queries, and ending the session merges into the
// global table.
func TestSessionLearningAcrossQueries(t *testing.T) {
	s, ts := newTestServer(t, workload.DeepFailure(6, 4), Config{})
	client := ts.Client()

	resp, data := postJSON(t, client, ts.URL+"/sessions", map[string]any{"alpha": 1.0})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: status %d (%s)", resp.StatusCode, data)
	}
	var info SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.Alpha != 1.0 {
		t.Fatalf("session info = %+v", info)
	}

	q := QueryRequest{Goal: "top(W)", Strategy: "best", Learn: true, MaxDepth: 64, MaxSolutions: 1}
	url := ts.URL + "/sessions/" + info.ID + "/query"
	first := queryResp(t, client, url, q)
	second := queryResp(t, client, url, q)
	if first.Session != info.ID || second.Session != info.ID {
		t.Errorf("session ids echoed as %q, %q", first.Session, second.Session)
	}
	if second.Expanded >= first.Expanded {
		t.Errorf("learning not observable: first expanded %d, second %d",
			first.Expanded, second.Expanded)
	}

	// Learning stayed session-local: the global table is untouched...
	if n := s.program.LearnedArcs(); n != 0 {
		t.Fatalf("global table gained %d arcs before session end", n)
	}
	// ...and a session-less query does not see the speedup.
	global := queryResp(t, client, ts.URL+"/query", q)
	if global.Expanded < first.Expanded {
		t.Errorf("global query expanded %d < first session query %d — leaked learning",
			global.Expanded, first.Expanded)
	}

	// GET /sessions reflects the query counters.
	resp, data = postJSON(t, client, ts.URL+"/sessions", map[string]any{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("second session: status %d", resp.StatusCode)
	}
	listResp, err := client.Get(ts.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list []SessionInfo
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	if len(list) != 2 {
		t.Fatalf("sessions listed: %d, want 2", len(list))
	}
	if list[0].ID != info.ID || list[0].Queries != 2 || list[0].Successes != 2 {
		t.Errorf("session listing = %+v", list[0])
	}

	// End the session: conservative merge into the global table.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+info.ID, nil)
	delResp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(delResp.Body)
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("end session: status %d (%s)", delResp.StatusCode, data)
	}
	var end SessionEndResponse
	if err := json.Unmarshal(data, &end); err != nil {
		t.Fatal(err)
	}
	if end.Adopted+end.Averaged+end.InfinitiesKept == 0 {
		t.Errorf("merge wrote nothing: %+v", end)
	}
	if end.Queries != 2 || end.Successes != 2 {
		t.Errorf("end counters = %+v", end)
	}
	if s.program.LearnedArcs() == 0 {
		t.Error("global table empty after merge")
	}
	// The session is gone.
	resp, _ = postJSON(t, client, url, q)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("query on ended session: status %d, want 404", resp.StatusCode)
	}
}

// TestSessionAlpha: a session reports the alpha it merges with. 0 or an
// omitted alpha keeps the default; a value outside (0, 1], which the
// session would ignore, is refused.
func TestSessionAlpha(t *testing.T) {
	_, ts := newTestServer(t, workload.FamilyTree(2, 2), Config{})
	cases := []struct {
		body   string
		status int
		alpha  float64
	}{
		{`{"alpha":5}`, http.StatusBadRequest, 0},
		{`{"alpha":-3}`, http.StatusBadRequest, 0},
		{`{"alpha":0}`, http.StatusCreated, 0.5},
		{`{}`, http.StatusCreated, 0.5},
		{`{"alpha":1}`, http.StatusCreated, 1},
	}
	for _, c := range cases {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/sessions", json.RawMessage(c.body))
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d (%s), want %d", c.body, resp.StatusCode, data, c.status)
			continue
		}
		var info SessionInfo
		var fail ErrorResponse
		switch {
		case c.status != http.StatusCreated:
			if json.Unmarshal(data, &fail) != nil || !strings.HasPrefix(fail.Error, "bad alpha") {
				t.Errorf("%s: body %s, want a bad alpha error", c.body, data)
			}
		case json.Unmarshal(data, &info) != nil || info.Alpha != c.alpha:
			t.Errorf("%s: body %s, want alpha %v", c.body, data, c.alpha)
		}
	}
}

func TestSessionLimit(t *testing.T) {
	_, ts := newTestServer(t, workload.FamilyTree(2, 2), Config{MaxSessions: 2})
	client := ts.Client()
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, client, ts.URL+"/sessions", map[string]any{})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("session %d: status %d (%s)", i, resp.StatusCode, data)
		}
	}
	resp, _ := postJSON(t, client, ts.URL+"/sessions", map[string]any{})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-limit session: status %d, want 429", resp.StatusCode)
	}
}

func TestHealthzMetricsStats(t *testing.T) {
	s, ts := newTestServer(t, workload.FamilyTree(3, 2), Config{})
	client := ts.Client()
	queryResp(t, client, ts.URL+"/query", QueryRequest{Goal: "gf(p0,G)"})

	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" {
		t.Errorf("healthz = %+v", h)
	}

	resp, err = client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"blogd_queries_total 1",
		"blogd_rejected_total 0",
		"blogd_query_duration_seconds_bucket{le=\"+Inf\"} 1",
		"blogd_query_duration_seconds_sum ",
		"blogd_query_duration_seconds_count 1",
		"blogd_pool_workers",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, "blogd_latency_ms") {
		t.Errorf("legacy latency summary still exposed in:\n%s", text)
	}
	if s.metrics.solutions.Load() == 0 {
		t.Error("solution counter not bumped")
	}

	resp, err = client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st ProgramStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Clauses == 0 || st.Preds == 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestOccursCheckOverHTTP: the occurs check holds on every strategy
// through the wire, including parallel.
func TestOccursCheckOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, "p :- eq(Y, f(Y)).\neq(X, X).\n", Config{})
	for _, strat := range []string{"dfs", "bfs", "best", "parallel"} {
		got := queryResp(t, ts.Client(), ts.URL+"/query",
			QueryRequest{Goal: "p", Strategy: strat})
		if len(got.Solutions) != 0 {
			t.Errorf("%s: occurs check admitted %d solutions over HTTP", strat, len(got.Solutions))
		}
	}
}

// cyclicSrc adds to tabledSrc a path/2 clause whose body binds X to a
// term containing X; eq/2 lets the cycle arise in a clause head.
const cyclicSrc = tabledSrc + `
path(X, Y) :- eq(X, f(X)), eq(Y, X).
eq(Z, Z).
`

// TestCyclicUnificationKeepsServing: a query that could only succeed by
// binding a variable to a term containing it answers 200 with no
// solutions, on both query endpoints and every strategy, and the same
// server goes on answering. In a tabled production the cyclic branch
// derives nothing, so the table holds exactly the bottom-up oracle's
// answers for the acyclic clauses.
func TestCyclicUnificationKeepsServing(t *testing.T) {
	_, ts := newTestServer(t, cyclicSrc, Config{})
	client := ts.Client()
	alive := func(after string) {
		t.Helper()
		got := queryResp(t, client, ts.URL+"/query", QueryRequest{Goal: "edge(a, X)", Strategy: "dfs"})
		if texts := solutionTexts(got.Solutions); len(texts) != 1 || texts[0] != "X = b" {
			t.Fatalf("after %s: plain query answered %v", after, texts)
		}
	}

	cases := []struct {
		goal       string
		strategies []string
		want       int
	}{
		{"X = f(X)", []string{"dfs", "bfs", "best"}, 0},
		{"X = f(X), Y = f(Y), X = Y", []string{"dfs", "bfs", "best"}, 0},
		{"X = f(X), X == X", []string{"dfs", "bfs", "best"}, 0},
		{"eq(Y, g(Y))", []string{"dfs", "bfs", "best", "parallel"}, 0},
		{"X \\= f(X)", []string{"dfs", "bfs", "best"}, 1},
	}
	for _, tc := range cases {
		for _, strat := range tc.strategies {
			name := fmt.Sprintf("%s %q", strat, tc.goal)
			req := QueryRequest{Goal: tc.goal, Strategy: strat}
			got := queryResp(t, client, ts.URL+"/query", req)
			if len(got.Solutions) != tc.want || !got.Exhausted {
				t.Errorf("%s: /query %d solutions (exhausted=%v), want %d", name, len(got.Solutions), got.Exhausted, tc.want)
			}
			alive(name)
			if strat == "parallel" {
				continue // the stream serves sequential strategies only
			}
			code, sols, final := streamQuery(t, ts.URL, client, req)
			if code != http.StatusOK || len(sols) != tc.want || final.Error != "" {
				t.Errorf("%s: stream status %d, %d solutions, error %q", name, code, len(sols), final.Error)
			}
			alive(name + " stream")
		}
	}

	db, _, err := kb.LoadString(tabledSrc)
	if err != nil {
		t.Fatal(err)
	}
	model, err := ref.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	goals, err := parse.Query("path(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	want := model.Answers(goals)
	sort.Strings(want)
	for _, strat := range []string{"dfs", "bfs", "best", "parallel"} {
		req := QueryRequest{Goal: "path(X, Y)", Strategy: strat, Tabled: true}
		got := queryResp(t, client, ts.URL+"/query", req)
		if texts := solutionTexts(got.Solutions); !got.Exhausted || fmt.Sprint(texts) != fmt.Sprint(want) {
			t.Errorf("tabled %s: %v (exhausted=%v), oracle %v", strat, texts, got.Exhausted, want)
		}
		if strat != "parallel" {
			_, sols, _ := streamQuery(t, ts.URL, client, req)
			if texts := solutionTexts(sols); fmt.Sprint(texts) != fmt.Sprint(want) {
				t.Errorf("tabled %s stream: %v, oracle %v", strat, texts, want)
			}
		}
		alive("tabled " + strat)
	}
}

// TestWorkersClamped: a hostile workers count cannot make one admitted
// request spawn unbounded goroutines.
func TestWorkersClamped(t *testing.T) {
	s, _ := newTestServer(t, workload.FamilyTree(2, 2), Config{MaxWorkers: 4})
	r := httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"goal":"gf(p0,G)","strategy":"parallel","workers":1000000}`))
	var q query
	if !s.decodeQuery(httptest.NewRecorder(), r, &q) {
		t.Fatal("decode failed")
	}
	if q.Workers != 4 || q.set.Workers != 4 {
		t.Errorf("workers = %d (run with %d), want clamped to 4", q.Workers, q.set.Workers)
	}
	// Negative worker counts fall back to the engine default.
	r = httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"goal":"gf(p0,G)","strategy":"parallel","workers":-3}`))
	if !s.decodeQuery(httptest.NewRecorder(), r, &q) || q.Workers != 0 || q.set.Workers != 0 {
		t.Errorf("negative workers decoded to %d (run with %d), want 0", q.Workers, q.set.Workers)
	}
}

// TestSessionIdleEviction: sessions abandoned without DELETE are evicted
// after SessionTTL — merging their weights — so the registry limit cannot
// be pinned forever.
func TestSessionIdleEviction(t *testing.T) {
	s, ts := newTestServer(t, workload.DeepFailure(4, 3),
		Config{MaxSessions: 1, SessionTTL: 50 * time.Millisecond})
	client := ts.Client()

	resp, data := postJSON(t, client, ts.URL+"/sessions", map[string]any{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d (%s)", resp.StatusCode, data)
	}
	var first SessionInfo
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	// Learn something so the eviction has a merge to perform.
	queryResp(t, client, ts.URL+"/sessions/"+first.ID+"/query",
		QueryRequest{Goal: "top(W)", Strategy: "best", Learn: true, MaxSolutions: 1, MaxDepth: 64})

	// At the limit and still fresh: creation is refused.
	resp, _ = postJSON(t, client, ts.URL+"/sessions", map[string]any{})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fresh session evicted too early: status %d", resp.StatusCode)
	}

	time.Sleep(80 * time.Millisecond) // idle past the TTL
	resp, data = postJSON(t, client, ts.URL+"/sessions", map[string]any{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create after TTL: status %d (%s)", resp.StatusCode, data)
	}
	// The idle session is gone and its learning was merged.
	resp, _ = postJSON(t, client, ts.URL+"/sessions/"+first.ID+"/query",
		QueryRequest{Goal: "top(W)"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted session still answers: status %d", resp.StatusCode)
	}
	if s.program.LearnedArcs() == 0 {
		t.Error("eviction dropped the session's learning instead of merging")
	}
	if s.metrics.sessionsEnded.Load() != 1 {
		t.Errorf("sessionsEnded = %d, want 1", s.metrics.sessionsEnded.Load())
	}
}

// TestTimeoutMsOverflowClamps: a huge timeout_ms must clamp to
// MaxTimeout, not overflow time.Duration into an already-expired context.
func TestTimeoutMsOverflowClamps(t *testing.T) {
	_, ts := newTestServer(t, workload.FamilyTree(2, 2), Config{})
	got := queryResp(t, ts.Client(), ts.URL+"/query",
		QueryRequest{Goal: "gf(p0,G)", Strategy: "dfs", TimeoutMs: 1 << 62})
	if len(got.Solutions) == 0 || !got.Exhausted {
		t.Errorf("overflowing timeout_ms broke the query: %+v", got)
	}
}

// TestSessionEndWaitsForInFlightQuery: a DELETE racing an active query
// merges only after that query released the session, so its learning is
// not dropped.
func TestSessionEndWaitsForInFlightQuery(t *testing.T) {
	s, _ := newTestServer(t, workload.FamilyTree(2, 2), Config{})
	e, _, err := s.sessions.create(s.program, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.sessions.acquire(e.id); err != nil {
		t.Fatal(err)
	}
	removed, err := s.sessions.remove(e.id)
	if err != nil {
		t.Fatal(err)
	}
	idle := make(chan struct{})
	go func() {
		s.sessions.waitIdle(removed)
		close(idle)
	}()
	select {
	case <-idle:
		t.Fatal("waitIdle returned while a query still held the session")
	case <-time.After(50 * time.Millisecond):
	}
	s.sessions.release(removed)
	select {
	case <-idle:
	case <-time.After(2 * time.Second):
		t.Fatal("waitIdle did not return after release")
	}
}

// TestEndAllSessionsMergesOnShutdown: live sessions drain and merge, the
// path blogd takes before -weights-out.
func TestEndAllSessionsMergesOnShutdown(t *testing.T) {
	s, ts := newTestServer(t, workload.DeepFailure(4, 3), Config{})
	resp, data := postJSON(t, ts.Client(), ts.URL+"/sessions", map[string]any{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	var info SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	queryResp(t, ts.Client(), ts.URL+"/sessions/"+info.ID+"/query",
		QueryRequest{Goal: "top(W)", Strategy: "best", Learn: true, MaxSolutions: 1, MaxDepth: 64})
	if n := s.EndAllSessions(); n != 1 {
		t.Fatalf("EndAllSessions merged %d, want 1", n)
	}
	if s.program.LearnedArcs() == 0 {
		t.Error("shutdown drain dropped session learning")
	}
	if s.sessions.len() != 0 {
		t.Error("registry not drained")
	}
}

const tabledSrc = `
:- table path/2.
path(X, Z) :- path(X, Y), edge(Y, Z).
path(X, Y) :- edge(X, Y).
edge(a, b). edge(b, c). edge(c, a). edge(c, d).
`

// TestTabledQueries drives the tabled request flag end to end: a
// left-recursive program only the tabled engine can finish, per-response
// counters, the /metrics exposition and the /stats table inventory.
func TestTabledQueries(t *testing.T) {
	_, ts := newTestServer(t, tabledSrc, Config{})
	client := ts.Client()

	for _, strategy := range []string{"dfs", "bfs", "best", "parallel"} {
		got := queryResp(t, client, ts.URL+"/query", QueryRequest{Goal: "path(a,R)", Strategy: strategy, Tabled: true})
		if len(got.Solutions) != 4 || !got.Exhausted {
			t.Fatalf("%s: %d solutions (exhausted=%v), want complete 4", strategy, len(got.Solutions), got.Exhausted)
		}
	}
	// The first run created the table; later ones hit it.
	got := queryResp(t, client, ts.URL+"/query", QueryRequest{Goal: "path(a,R)", Tabled: true})
	if got.TableHits != 1 || got.RederivationsAvoided != 4 {
		t.Fatalf("counters = %+v, want one hit replaying 4 answers", got)
	}

	resp, data := postJSON(t, client, ts.URL+"/query", QueryRequest{Goal: "path(a,R)", Strategy: "dfs", Tabled: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	_ = data

	// The streaming path serves tabled queries too, reports the table
	// counters on its terminal line, and counts toward the metrics.
	sresp0, sdata := postJSON(t, client, ts.URL+"/query/stream", QueryRequest{Goal: "path(a,R)", Strategy: "dfs", Tabled: true})
	if sresp0.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", sresp0.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(string(sdata)), "\n")
	var terminal StreamEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &terminal); err != nil {
		t.Fatalf("bad terminal line %q: %v", lines[len(lines)-1], err)
	}
	if !terminal.Done || !terminal.Exhausted || terminal.Solutions != 4 {
		t.Fatalf("terminal = %+v, want done, exhausted, 4 solutions", terminal)
	}
	if terminal.TableHits != 1 || terminal.RederivationsAvoided != 4 {
		t.Fatalf("terminal table counters = %+v, want one hit replaying 4 answers", terminal)
	}

	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"blogd_tabled_queries_total 7",
		"blogd_tables_created_total 1",
		"blogd_table_answers_total 4",
		"blogd_tables_active 1",
	} {
		if !strings.Contains(string(mbody), want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, mbody)
		}
	}

	sresp, err := client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats ProgramStats
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if len(stats.TabledPreds) != 1 || stats.TabledPreds[0] != "path/2" {
		t.Errorf("tabled_preds = %v", stats.TabledPreds)
	}
	if stats.Tables != 1 || stats.TableAnswers != 4 {
		t.Errorf("tables = %d answers = %d, want 1 and 4", stats.Tables, stats.TableAnswers)
	}

	// Without the flag the same goal is the depth-capped, incomplete run:
	// at depth 4 only the 1- and 2-edge paths have proofs.
	untabled := queryResp(t, client, ts.URL+"/query", QueryRequest{Goal: "path(a,R)", Strategy: "dfs", MaxDepth: 4})
	if len(untabled.Solutions) >= 4 {
		t.Errorf("untabled depth-capped run found %d solutions, want an incomplete set", len(untabled.Solutions))
	}
}

const minTabledSrc = `
:- table shortest/3 min(3).
shortest(X,Z,C) :- shortest(X,Y,A), edge(Y,Z,B), C is A + B.
shortest(X,Y,C) :- edge(X,Y,C).
edge(a,b,4).
edge(a,c,1).
edge(c,b,1).
edge(b,a,1).
`

// TestSubsumedTabledQueries drives the min(N) answer-subsumption mode end
// to end over HTTP: minimal costs per reachable pair under every
// strategy, the answers_subsumed / answers_improved response counters,
// the stream terminal line, the /metrics exposition and the annotated
// /stats directive listing.
func TestSubsumedTabledQueries(t *testing.T) {
	_, ts := newTestServer(t, minTabledSrc, Config{})
	client := ts.Client()

	want := []string{"Y = a, C = 3", "Y = b, C = 2", "Y = c, C = 1"}
	first := true
	for _, strategy := range []string{"dfs", "bfs", "best", "parallel"} {
		got := queryResp(t, client, ts.URL+"/query", QueryRequest{Goal: "shortest(a,Y,C)", Strategy: strategy, Tabled: true})
		if fmt.Sprint(solutionTexts(got.Solutions)) != fmt.Sprint(want) || !got.Exhausted {
			t.Fatalf("%s: solutions = %v (exhausted=%v), want the minima %v", strategy, solutionTexts(got.Solutions), got.Exhausted, want)
		}
		if first && (got.AnswersSubsumed == 0 || got.AnswersImproved == 0) {
			t.Fatalf("%s: producing response = %+v, want answers_subsumed and answers_improved > 0", strategy, got)
		}
		first = false
	}

	// The streaming terminal line carries the subsumption counters; a
	// fresh server so the stream is the producing run.
	_, ts2 := newTestServer(t, minTabledSrc, Config{})
	sresp, sdata := postJSON(t, ts2.Client(), ts2.URL+"/query/stream", QueryRequest{Goal: "shortest(a,Y,C)", Strategy: "dfs", Tabled: true})
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", sresp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(string(sdata)), "\n")
	var terminal StreamEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &terminal); err != nil {
		t.Fatalf("bad terminal line %q: %v", lines[len(lines)-1], err)
	}
	if !terminal.Done || terminal.Solutions != 3 {
		t.Fatalf("terminal = %+v, want done with 3 minima", terminal)
	}
	if terminal.AnswersSubsumed == 0 || terminal.AnswersImproved == 0 {
		t.Fatalf("terminal = %+v, want subsumption counters on the producing stream", terminal)
	}

	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, counter := range []string{"blogd_table_answers_subsumed_total", "blogd_table_answers_improved_total"} {
		found := false
		for _, line := range strings.Split(string(mbody), "\n") {
			var v int
			if n, _ := fmt.Sscanf(line, counter+" %d", &v); n == 1 && v > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("metrics missing a positive %s:\n%s", counter, mbody)
		}
	}

	statsResp, err := client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats ProgramStats
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if len(stats.TabledPreds) != 1 || stats.TabledPreds[0] != "shortest/3 min(3)" {
		t.Errorf("tabled_preds = %v, want the annotated min directive", stats.TabledPreds)
	}
}
