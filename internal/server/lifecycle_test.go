package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"blog"
	"blog/internal/metrics"
	"blog/internal/obs"
	"blog/internal/workload"
)

// streamQuery posts req to /query/stream and splits the NDJSON reply into
// its solution lines and the terminal line.
func streamQuery(t testing.TB, ts string, client *http.Client, req QueryRequest) (int, []Solution, StreamEvent) {
	t.Helper()
	resp, data := postJSON(t, client, ts+"/query/stream", req)
	var sols []Solution
	var final StreamEvent
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, final
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev StreamEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case final.Done:
			t.Fatalf("line after the terminal line: %q", line)
		case ev.Solution != nil:
			sols = append(sols, *ev.Solution)
		default:
			final = ev
		}
	}
	if !final.Done {
		t.Fatalf("stream ended without a terminal line: %s", data)
	}
	return resp.StatusCode, sols, final
}

// TestQueryAndStreamAgree: /query and /query/stream are one lifecycle
// with two writers, so the same goal must come back with the same
// solutions in the same order, the same exhausted flag and the same work
// and table counters — including exhausted=false when max_solutions
// stopped the run, even on the last solution there was. A learning run
// leaves the same learned arcs behind, and a traced run returns the same
// span phases with the same search counts.
func TestQueryAndStreamAgree(t *testing.T) {
	src := tabledSrc + "f(a).\nf(b).\n" + workload.FamilyTree(3, 2)
	cases := []struct {
		name      string
		req       QueryRequest
		exhausted bool
	}{
		{"plain", QueryRequest{Goal: "anc(p0,X)", Strategy: "best"}, true},
		{"tabled", QueryRequest{Goal: "path(a,R)", Strategy: "dfs", Tabled: true}, true},
		{"capped", QueryRequest{Goal: "anc(p0,X)", Strategy: "dfs", MaxSolutions: 2}, false},
		{"capped at the total, dfs", QueryRequest{Goal: "f(X)", Strategy: "dfs", MaxSolutions: 2}, false},
		{"capped at the total, bfs", QueryRequest{Goal: "f(X)", Strategy: "bfs", MaxSolutions: 2}, false},
		{"capped at the total, best", QueryRequest{Goal: "f(X)", Strategy: "best", MaxSolutions: 2}, false},
		{"learning", QueryRequest{Goal: "anc(p0,X)", Strategy: "best", Learn: true}, true},
		{"traced", QueryRequest{Goal: "path(a,R)", Strategy: "dfs", Tabled: true, Trace: true}, true},
	}
	for _, c := range cases {
		// A fresh server per endpoint, so both runs meet cold tables and
		// untrained weights.
		_, one := newTestServer(t, src, Config{})
		batch := queryResp(t, one.Client(), one.URL+"/query", c.req)
		_, two := newTestServer(t, src, Config{})
		status, sols, final := streamQuery(t, two.URL, two.Client(), c.req)
		if status != http.StatusOK {
			t.Fatalf("%s: stream status %d", c.name, status)
		}
		if len(batch.Solutions) == 0 || !reflect.DeepEqual(batch.Solutions, sols) || final.Solutions != len(sols) {
			t.Errorf("%s: /query served %+v, stream %+v (terminal count %d)", c.name, batch.Solutions, sols, final.Solutions)
		}
		if batch.Exhausted != c.exhausted || final.Exhausted != c.exhausted {
			t.Errorf("%s: exhausted = %v (/query) %v (stream), want %v", c.name, batch.Exhausted, final.Exhausted, c.exhausted)
		}
		type counters struct{ expanded, vm, created, answers, hits, replayed, truncated, subsumed, improved uint64 }
		b := counters{batch.Expanded, batch.VMDispatched, batch.TablesCreated, batch.TableAnswers, batch.TableHits,
			batch.RederivationsAvoided, batch.TablesTruncated, batch.AnswersSubsumed, batch.AnswersImproved}
		s := counters{final.Expanded, final.VMDispatched, final.TablesCreated, final.TableAnswers, final.TableHits,
			final.RederivationsAvoided, final.TablesTruncated, final.AnswersSubsumed, final.AnswersImproved}
		if b != s || b.expanded == 0 || (c.req.Tabled && b.created == 0) {
			t.Errorf("%s: counters differ: /query %+v, stream %+v", c.name, b, s)
		}
		if c.req.Learn {
			var oneStats, twoStats ProgramStats
			getJSON(t, one.Client(), one.URL+"/stats", &oneStats)
			getJSON(t, two.Client(), two.URL+"/stats", &twoStats)
			if oneStats.LearnedArcs == 0 || oneStats.LearnedArcs != twoStats.LearnedArcs {
				t.Errorf("%s: learned arcs %d (/query) %d (stream), want equal and non-zero", c.name, oneStats.LearnedArcs, twoStats.LearnedArcs)
			}
		}
		if c.req.Trace {
			if batch.Trace == nil || final.Trace == nil {
				t.Fatalf("%s: trace %v (/query) %v (stream), want both", c.name, batch.Trace, final.Trace)
			}
			if b, s := spanPhases(batch.Trace), spanPhases(final.Trace); !reflect.DeepEqual(b, s) {
				t.Errorf("%s: span phases %v (/query) %v (stream)", c.name, b, s)
			}
			b, s := findSpan(batch.Trace, "search"), findSpan(final.Trace, "search")
			if b == nil || s == nil || b.Counts["expanded"] == 0 || !reflect.DeepEqual(b.Counts, s.Counts) {
				t.Errorf("%s: search spans %+v (/query) %+v (stream), want equal counts", c.name, b, s)
			}
		}
	}
}

// spanPhases lists the names in a span tree, depth first.
func spanPhases(sp *obs.Span) []string {
	names := []string{sp.Name}
	for _, c := range sp.Children {
		names = append(names, spanPhases(c)...)
	}
	return names
}

// findSpan is the first span named name in a span tree, depth first.
func findSpan(sp *obs.Span, name string) *obs.Span {
	if sp.Name == name {
		return sp
	}
	for _, c := range sp.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

// TestQueryErrorClassification drives the one error classifier through
// both writers: every way a run can fail maps to the same message and the
// same counter on /query and /query/stream; /query carries the verdict as
// its HTTP status, the stream (whose 200 is already out) as the terminal
// line's error. The deadline and the inspector's kill reach every engine:
// the trail machine (dfs), the Env frontier (best) and the OR-parallel
// workers, whose parked ones only the running worker's failure wakes, at
// its next context poll (on /query alone: a stream refuses parallel
// runs).
func TestQueryErrorClassification(t *testing.T) {
	src := loopSrc + "bad(X) :- Y is X + Z, Y > 0.\n" + workload.DAG(18, 8, 4, 1)
	deadline := func(strategy string) QueryRequest {
		return QueryRequest{Goal: "loop", Strategy: strategy, Workers: 2, TimeoutMs: 30, MaxDepth: 1 << 30, MaxExpansions: 1 << 50}
	}
	endless := func(strategy string) QueryRequest {
		return QueryRequest{Goal: "path(n0_0, missing)", Strategy: strategy, Workers: 2, MaxExpansions: 1 << 40}
	}
	timeouts := func(m *serverMetrics) *metrics.Counter { return &m.timeouts }
	killed := func(m *serverMetrics) *metrics.Counter { return &m.killed }
	both, oneShot := []string{"/query", "/query/stream"}, []string{"/query"}
	cases := []struct {
		name      string
		req       QueryRequest
		kill      bool
		status    int
		msg       string // "" = any non-empty engine message
		counter   func(*serverMetrics) *metrics.Counter
		endpoints []string
	}{
		{"deadline", deadline("dfs"), false, http.StatusGatewayTimeout, "query timed out", timeouts, both},
		{"deadline best", deadline("best"), false, http.StatusGatewayTimeout, "query timed out", timeouts, both},
		{"deadline parallel", deadline("parallel"), false, http.StatusGatewayTimeout, "query timed out", timeouts, oneShot},
		{"inspector kill", endless("dfs"), true, http.StatusGone, obs.ErrKilled.Error(), killed, both},
		{"inspector kill best", endless("best"), true, http.StatusGone, obs.ErrKilled.Error(), killed, both},
		{"inspector kill parallel", endless("parallel"), true, http.StatusGone, obs.ErrKilled.Error(), killed, oneShot},
		{"budget", QueryRequest{Goal: "loop", Strategy: "dfs", MaxDepth: 1 << 30, MaxExpansions: 10}, false,
			http.StatusUnprocessableEntity, "expansions limit of 10 exceeded", func(m *serverMetrics) *metrics.Counter { return &m.budgetStops }, both},
		{"engine error", QueryRequest{Goal: "bad(1)", Strategy: "dfs"}, false,
			http.StatusInternalServerError, "", func(m *serverMetrics) *metrics.Counter { return &m.errors }, both},
	}
	for _, c := range cases {
		var messages []string
		for _, endpoint := range c.endpoints {
			name := c.name + " on " + endpoint
			s, ts := newTestServer(t, src, Config{DefaultTimeout: time.Minute})
			killed := make(chan struct{})
			go func() {
				defer close(killed)
				if c.kill {
					killFirstLiveQuery(t, ts.URL, ts.Client())
				}
			}()
			var msg, requestID string
			if endpoint == "/query" {
				resp, data := postJSON(t, ts.Client(), ts.URL+endpoint, c.req)
				var body ErrorResponse
				if err := json.Unmarshal(data, &body); err != nil {
					t.Fatalf("%s: bad body %q: %v", name, data, err)
				}
				if resp.StatusCode != c.status {
					t.Errorf("%s: status %d (%s), want %d", name, resp.StatusCode, data, c.status)
				}
				msg, requestID = body.Error, body.RequestID
			} else {
				status, sols, final := streamQuery(t, ts.URL, ts.Client(), c.req)
				if status != http.StatusOK || len(sols) != 0 || final.Exhausted {
					t.Errorf("%s: status %d, %d solutions, terminal %+v", name, status, len(sols), final)
				}
				msg, requestID = final.Error, final.RequestID
			}
			if msg == "" || (c.msg != "" && msg != c.msg) {
				t.Errorf("%s: error %q, want %q", name, msg, c.msg)
			}
			if requestID == "" {
				t.Errorf("%s: failure carries no request_id", name)
			}
			if got := c.counter(s.metrics).Load(); got != 1 {
				t.Errorf("%s: its counter reads %d, want 1", name, got)
			}
			// A run the budget stopped did its work on the VM, and both
			// writers account for it.
			if c.name == "budget" && s.metrics.vmDispatch.Load() == 0 {
				t.Errorf("%s: vm dispatches not counted", name)
			}
			if other := s.metrics.timeouts.Load() + s.metrics.killed.Load() + s.metrics.budgetStops.Load() +
				s.metrics.errors.Load() + s.metrics.cancelled.Load() + s.metrics.badRequests.Load(); other != 1 {
				t.Errorf("%s: %d outcome counters moved, want exactly one", name, other)
			}
			<-killed
			waitFor(t, func() bool { return s.pool.InFlight() == 0 })
			messages = append(messages, msg)
		}
		if len(messages) == 2 && messages[0] != messages[1] {
			t.Errorf("%s: /query says %q, stream says %q", c.name, messages[0], messages[1])
		}
	}
}

// TestOneShotFailureAfterAnswers: a one-shot run that fails after its
// writer rendered answers sends the failure's error body alone, byte for
// byte: no partial solutions.
func TestOneShotFailureAfterAnswers(t *testing.T) {
	const src = "nat(0).\nnat(N) :- nat(M), N is M + 1.\n"
	for _, strategy := range []string{"dfs", "best"} {
		req := QueryRequest{Goal: "nat(X)", Strategy: strategy, MaxExpansions: 40}
		s, ts := newTestServer(t, src, Config{})
		// The same run through the facade: answers first, then the budget.
		strat, err := blog.ParseStrategy(strategy)
		if err != nil {
			t.Fatal(err)
		}
		g, err := blog.ParseGoal(req.Goal)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		_, err = s.program.QueryEach(context.Background(), g, strat, func(blog.Answer) error { n++; return nil },
			blog.MaxSolutions(s.cfg.SolutionCap), blog.MaxExpansions(req.MaxExpansions))
		if !errors.Is(err, blog.ErrBudget) || n == 0 {
			t.Fatalf("%s: %d answers, err %v; want answers, then the budget", strategy, n, err)
		}
		resp, body := postJSON(t, ts.Client(), ts.URL+"/query", req)
		want := `{"error":"expansions limit of 40 exceeded","request_id":"q-000001"}` + "\n"
		if resp.StatusCode != http.StatusUnprocessableEntity || string(body) != want {
			t.Errorf("%s: status %d body %q, want %d %q", strategy, resp.StatusCode, body, http.StatusUnprocessableEntity, want)
		}
	}
}

// TestAnswerVariableNames: in an answer, a variable that is not one of the
// query's own prints as _G<serial> on every strategy and both writers, the
// same serial exactly where the same variable occurs, in the text and the
// bindings alike.
func TestAnswerVariableNames(t *testing.T) {
	cases := []struct{ goal, want string }{
		{"mk(Q), A = 1", "Q = f(_G#0,_G#1,_G#0), A = 1"},
		{"copy_term(f(X,Y), Z), X = 1", "X = 1, Y = Y, Z = f(_G#0,_G#1)"},
		{"mk(Q), mk(R)", "Q = f(_G#0,_G#1,_G#0), R = f(_G#2,_G#3,_G#2)"},
	}
	serial := regexp.MustCompile(`_G[0-9]+`)
	pattern := func(text string) string {
		seen := map[string]string{}
		return serial.ReplaceAllStringFunc(text, func(s string) string {
			if p, ok := seen[s]; ok {
				return p
			}
			seen[s] = fmt.Sprintf("_G#%d", len(seen))
			return seen[s]
		})
	}
	_, ts := newTestServer(t, "mk(f(A,B,A)).\n", Config{})
	for _, strategy := range []string{"dfs", "best", "parallel"} {
		for _, c := range cases {
			req := QueryRequest{Goal: c.goal, Strategy: strategy, Workers: 2}
			sols := queryResp(t, ts.Client(), ts.URL+"/query", req).Solutions
			if strategy != "parallel" {
				_, streamed, _ := streamQuery(t, ts.URL, ts.Client(), req)
				sols = append(sols, streamed...)
			}
			if len(sols) == 0 {
				t.Errorf("%s %s: no answer", strategy, c.goal)
			}
			for _, sol := range sols {
				if got := pattern(sol.Text); got != c.want {
					t.Errorf("%s %s: %q, want the pattern %q", strategy, c.goal, sol.Text, c.want)
				}
				for name, v := range sol.Bindings {
					if !strings.Contains(sol.Text, name+" = "+v) {
						t.Errorf("%s %s: binding %s = %s is not in the text %q", strategy, c.goal, name, v, sol.Text)
					}
				}
			}
		}
	}
}

// killFirstLiveQuery waits for a query to show up in the inspector and
// cancels it the way an operator would.
func killFirstLiveQuery(t *testing.T, ts string, client *http.Client) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(ts + "/debug/queries")
		if err != nil {
			t.Error(err)
			return
		}
		var live []LiveQuery
		err = json.NewDecoder(resp.Body).Decode(&live)
		resp.Body.Close()
		if err != nil {
			t.Error(err)
			return
		}
		if len(live) == 0 {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		req, _ := http.NewRequest(http.MethodDelete, ts+"/debug/queries/"+live[0].ID, nil)
		resp, err = client.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("DELETE %s: status %d", live[0].ID, resp.StatusCode)
		}
		return
	}
	t.Error("no query ever appeared in /debug/queries")
}
