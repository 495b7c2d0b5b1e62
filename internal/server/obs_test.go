package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"blog/internal/workload"
)

// spanNames flattens a span tree's names depth-first.
func spanNames(s map[string]any, out *[]string) {
	if s == nil {
		return
	}
	if n, ok := s["name"].(string); ok {
		*out = append(*out, n)
	}
	if kids, ok := s["children"].([]any); ok {
		for _, k := range kids {
			if m, ok := k.(map[string]any); ok {
				spanNames(m, out)
			}
		}
	}
}

func TestQueryTraceFlag(t *testing.T) {
	_, ts := newTestServer(t, workload.FamilyTree(3, 2), Config{})
	// Without the flag the trace field stays absent.
	got := queryResp(t, ts.Client(), ts.URL+"/query", QueryRequest{Goal: "gf(p0,G)", Strategy: "dfs"})
	if got.Trace != nil {
		t.Fatalf("untraced response carries trace: %+v", got.Trace)
	}
	// With it the span tree comes back: query > parse/compile/search.
	resp, data := postJSON(t, ts.Client(), ts.URL+"/query",
		QueryRequest{Goal: "gf(p0,G)", Strategy: "dfs", Trace: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	tr, ok := raw["trace"].(map[string]any)
	if !ok {
		t.Fatalf("no trace in %s", data)
	}
	var names []string
	spanNames(tr, &names)
	// The goal is parsed once, while the request is decoded, and that
	// parse is the trace's parse phase: first under the root.
	if got := strings.Join(names, " "); !strings.HasPrefix(got, "query parse compile search") {
		t.Errorf("span tree %v, want query > parse, compile, search in that order", names)
	}
}

func TestProfileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, workload.FamilyTree(3, 2), Config{})
	// Empty before any query.
	resp, data := get(t, ts.Client(), ts.URL+"/profile")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var prof ProfileResponse
	if err := json.Unmarshal(data, &prof); err != nil {
		t.Fatal(err)
	}
	if len(prof.Preds) != 0 {
		t.Fatalf("profile before any query: %+v", prof.Preds)
	}
	queryResp(t, ts.Client(), ts.URL+"/query", QueryRequest{Goal: "gf(p0,G)", Strategy: "dfs"})
	queryResp(t, ts.Client(), ts.URL+"/query", QueryRequest{Goal: "anc(p0,X)", Strategy: "dfs"})
	resp, data = get(t, ts.Client(), ts.URL+"/profile?n=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	prof = ProfileResponse{}
	if err := json.Unmarshal(data, &prof); err != nil {
		t.Fatal(err)
	}
	if len(prof.Preds) == 0 || len(prof.Preds) > 3 {
		t.Fatalf("profile rows = %d, want 1..3: %s", len(prof.Preds), data)
	}
	if prof.TotalNanos == 0 {
		t.Error("profile attributed no time")
	}
	seen := map[string]bool{}
	for _, p := range prof.Preds {
		seen[p.Pred] = p.Expansions > 0
	}
	if !seen["gf/2"] && !seen["anc/2"] && !seen["f/2"] {
		t.Errorf("no familiar predicate in profile: %s", data)
	}
}

// TestProfileExactUnderConcurrency runs queries from several clients at
// once, so the per-query profilers come from the pool and go back to it
// while other queries run: the merged profile must count exactly the
// expansions and VM dispatches the responses report, no query's counts
// lost or merged twice.
func TestProfileExactUnderConcurrency(t *testing.T) {
	s, _ := newTestServer(t, workload.NQueens, Config{MaxConcurrent: 4, QueueLen: 64})
	strategies := []string{"dfs", "bfs", "best", "parallel"}
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		expanded   uint64
		dispatched uint64
	)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				body, err := json.Marshal(QueryRequest{Goal: "queens(4,Qs)", Strategy: strategies[(c+i)%4], Workers: 2})
				if err != nil {
					t.Error(err)
					return
				}
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
				var res QueryResponse
				if err := json.Unmarshal(w.Body.Bytes(), &res); w.Code != http.StatusOK || err != nil {
					t.Errorf("status %d, err %v: %s", w.Code, err, w.Body.Bytes())
					return
				}
				mu.Lock()
				expanded += res.Expanded
				dispatched += res.VMDispatched
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var exp, vmd uint64
	for _, pp := range s.prof.Snapshot() {
		exp += pp.Expansions
		vmd += pp.VMDispatches
	}
	if exp != expanded || vmd != dispatched {
		t.Errorf("merged profile counts %d expansions, %d dispatches; responses %d, %d", exp, vmd, expanded, dispatched)
	}
}

func TestMetricsHistogram(t *testing.T) {
	_, ts := newTestServer(t, workload.FamilyTree(2, 2), Config{})
	queryResp(t, ts.Client(), ts.URL+"/query", QueryRequest{Goal: "gf(p0,G)"})
	_, data := get(t, ts.Client(), ts.URL+"/metrics")
	body := string(data)
	for _, want := range []string{
		`blogd_query_duration_seconds_bucket{le="0.1"} `,
		"blogd_query_duration_seconds_bucket{le=\"+Inf\"} 1\n",
		"blogd_query_duration_seconds_sum ",
		"blogd_query_duration_seconds_count 1\n",
		"blogd_killed_total 0\n",
		"blogd_slow_queries_total 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics lack %q:\n%s", want, body)
		}
	}
}

// TestMetricsNames pins the exposition's series, in order: every blogd_*
// line's name and labels, the histogram's buckets as one entry.
func TestMetricsNames(t *testing.T) {
	_, ts := newTestServer(t, workload.FamilyTree(2, 2), Config{})
	_, data := get(t, ts.Client(), ts.URL+"/metrics")
	var got []string
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, _, _ := strings.Cut(line, " ")
		if b, _, ok := strings.Cut(name, "_bucket{"); ok {
			name = b + "_bucket"
		}
		if len(got) == 0 || got[len(got)-1] != name {
			got = append(got, name)
		}
	}
	want := []string{
		"queries_total", "solutions_total", "stream_solutions_total", "rejected_total",
		"bad_requests_total", "timeouts_total", "cancelled_total", "budget_stops_total",
		`limit_stops_total{limit="expansions"}`, `limit_stops_total{limit="table_answers"}`,
		`limit_stops_total{limit="negation_expansions"}`, `limit_stops_total{limit="builtin_term"}`,
		"errors_total", "killed_total", "slow_queries_total", "sessions_created_total",
		"sessions_ended_total", "sessions_active", "tabled_queries_total", "vm_dispatch_total",
		"par_network_acquires_total", "par_chains_published_total", "par_migrations_total",
		"par_startup_expanded_total", "par_grain_chains_total", "par_grain_expansions_total",
		"par_grain_max", "open_list_highwater", "tables_created_total", "table_answers_total",
		"table_hits_total", "rederivations_avoided_total", "table_answers_subsumed_total",
		"table_answers_improved_total", "tables_dirtied_total", "tables_revalidated_total",
		"tables_extended_total", "tables_active", "table_retained_bytes",
		`tables_by_state{state="producing"}`, `tables_by_state{state="complete"}`,
		`tables_by_state{state="truncated"}`, `tables_by_state{state="dirty"}`,
		"pool_frames_highwater", "pool_compounds_highwater", "journal_events_total",
		"journal_events_overwritten_total", "in_flight", "queue_depth", "pool_workers",
		"pool_queue_capacity", "query_duration_seconds_bucket", "query_duration_seconds_sum",
		"query_duration_seconds_count",
	}
	for i := range want {
		want[i] = "blogd_" + want[i]
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("series\n got %v\nwant %v", got, want)
	}
}

// TestMetricsParallelNetwork: the OR-parallel network's traffic, start-up
// and grain reach /metrics. In a two-worker gf(p0,G) one worker takes the
// root off the network and publishes its second gf/2 alternative for the
// other, which is still without work; every published chain is drained,
// so the grain counts one chain per publication. A DFS query adds
// nothing.
func TestMetricsParallelNetwork(t *testing.T) {
	_, ts := newTestServer(t, workload.FamilyTree(2, 2), Config{})
	queryResp(t, ts.Client(), ts.URL+"/query", QueryRequest{Goal: "gf(p0,G)", Strategy: "dfs"})
	_, data := get(t, ts.Client(), ts.URL+"/metrics")
	for _, name := range []string{"par_network_acquires_total", "par_startup_expanded_total",
		"par_grain_chains_total", "par_grain_expansions_total", "par_grain_max"} {
		if !strings.Contains(string(data), "blogd_"+name+" 0\n") {
			t.Errorf("a DFS query moved blogd_%s:\n%s", name, data)
		}
	}
	queryResp(t, ts.Client(), ts.URL+"/query", QueryRequest{Goal: "gf(p0,G)", Strategy: "parallel", Workers: 2})
	_, data = get(t, ts.Client(), ts.URL+"/metrics")
	for _, re := range []string{
		`(?m)^blogd_par_network_acquires_total [1-9]`,
		`(?m)^blogd_par_chains_published_total [1-9]`,
		`(?m)^blogd_par_migrations_total 0$`,
		`(?m)^blogd_par_startup_expanded_total [1-9]`,
		`(?m)^blogd_par_grain_expansions_total [1-9]`,
		`(?m)^blogd_par_grain_max [1-9]`,
	} {
		if !regexp.MustCompile(re).Match(data) {
			t.Errorf("metrics do not match %s:\n%s", re, data)
		}
	}
	value := func(name string) string {
		m := regexp.MustCompile(`(?m)^blogd_` + name + ` (\d+)$`).FindSubmatch(data)
		if m == nil {
			t.Fatalf("no blogd_%s:\n%s", name, data)
		}
		return string(m[1])
	}
	if chains, published := value("par_grain_chains_total"), value("par_chains_published_total"); chains != published {
		t.Errorf("%s published chains drained as %s grains", published, chains)
	}
}

// TestMetricsOpenList: a best-first query's open-list high-water mark is
// the open_max count on its search span and raises /metrics' gauge to it;
// a DFS query, which keeps no open list, stamps no open_max and leaves the
// gauge at 0. The /query body gains no field for it.
func TestMetricsOpenList(t *testing.T) {
	_, ts := newTestServer(t, workload.FamilyTree(2, 2), Config{})
	openMax := func(strategy string) (any, []byte) {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/query",
			QueryRequest{Goal: "gf(p0,G)", Strategy: strategy, Trace: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var raw map[string]any
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatal(err)
		}
		tr, _ := raw["trace"].(map[string]any)
		kids, _ := tr["children"].([]any)
		for _, k := range kids {
			if sp, _ := k.(map[string]any); sp["name"] == "search" {
				counts, _ := sp["counts"].(map[string]any)
				return counts["open_max"], data
			}
		}
		t.Fatalf("no search span in %s", data)
		return nil, nil
	}
	if got, _ := openMax("dfs"); got != nil {
		t.Errorf("a DFS search span carries open_max %v", got)
	}
	_, data := get(t, ts.Client(), ts.URL+"/metrics")
	if !strings.Contains(string(data), "blogd_open_list_highwater 0\n") {
		t.Errorf("a DFS query moved the open-list gauge:\n%s", data)
	}
	got, body := openMax("best")
	n, ok := got.(float64)
	if !ok || n < 1 {
		t.Fatalf("best-first search span open_max = %v in %s", got, body)
	}
	if strings.Contains(string(body[:bytes.Index(body, []byte(`"trace"`))]), "open") {
		t.Errorf("the /query body carries an open-list field: %s", body)
	}
	_, data = get(t, ts.Client(), ts.URL+"/metrics")
	if want := fmt.Sprintf("blogd_open_list_highwater %d\n", int(n)); !strings.Contains(string(data), want) {
		t.Errorf("metrics lack %q:\n%s", want, data)
	}
}

// TestDebugQueriesAndKill drives the live inspector end to end: a stuck
// query shows up in GET /debug/queries, DELETE cancels it, the victim's
// own request answers 410 Gone and the kill is counted.
func TestDebugQueriesAndKill(t *testing.T) {
	// A DFS for an absent node in a dense DAG: exponentially many paths
	// within the depth bound, so the search runs until killed.
	_, ts := newTestServer(t, workload.DAG(18, 8, 4, 1), Config{DefaultTimeout: time.Minute})
	type result struct {
		status int
		body   string
	}
	done := make(chan result, 1)
	go func() {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/query",
			QueryRequest{Goal: "path(n0_0, missing)", Strategy: "dfs", MaxExpansions: 1 << 40})
		done <- result{resp.StatusCode, string(data)}
	}()

	// Wait for the query to appear in the inspector.
	var victim LiveQuery
	deadline := time.Now().Add(10 * time.Second)
	for victim.ID == "" {
		if time.Now().After(deadline) {
			t.Fatal("query never appeared in /debug/queries")
		}
		_, data := get(t, ts.Client(), ts.URL+"/debug/queries")
		var list []LiveQuery
		if err := json.Unmarshal(data, &list); err != nil {
			t.Fatalf("bad listing %q: %v", data, err)
		}
		if len(list) > 0 {
			victim = list[0]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if victim.Goal != "path(n0_0, missing)" || victim.Strategy != "dfs" {
		t.Errorf("listing = %+v, want the path goal under dfs", victim)
	}

	// Killing an unknown id is a 404 and leaves the victim running.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/debug/queries/q-999999", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown id: status %d", resp.StatusCode)
	}

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/debug/queries/"+victim.ID, nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s: status %d: %s", victim.ID, resp.StatusCode, data)
	}
	var kr KillResponse
	if err := json.Unmarshal(data, &kr); err != nil {
		t.Fatal(err)
	}
	if kr.ID != victim.ID || !kr.Killed {
		t.Errorf("kill response = %+v", kr)
	}

	got := <-done
	if got.status != http.StatusGone {
		t.Fatalf("victim got %d (%s), want 410 Gone", got.status, got.body)
	}
	if !strings.Contains(got.body, "cancelled via inspector") {
		t.Errorf("victim body %q lacks the kill cause", got.body)
	}

	// The registry is empty again and the kill was counted.
	_, data = get(t, ts.Client(), ts.URL+"/debug/queries")
	if string(data) != "[]\n" && string(data) != "[]" {
		t.Errorf("inspector still lists queries: %s", data)
	}
	_, data = get(t, ts.Client(), ts.URL+"/metrics")
	if !strings.Contains(string(data), "blogd_killed_total 1\n") {
		t.Errorf("killed_total not incremented:\n%s", data)
	}
}

// syncWriter serializes writes from the server's slog handler.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

func TestSlowQueryLog(t *testing.T) {
	var buf syncWriter
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	_, ts := newTestServer(t, workload.FamilyTree(3, 2),
		Config{Logger: logger, SlowQuery: time.Nanosecond})
	queryResp(t, ts.Client(), ts.URL+"/query", QueryRequest{Goal: "gf(p0,G)", Strategy: "dfs"})
	out := buf.String()
	for _, want := range []string{"slow query", "request_id=q-", "goal=", "spans=", "hot_preds="} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query log lacks %q:\n%s", want, out)
		}
	}
	_, data := get(t, ts.Client(), ts.URL+"/metrics")
	if !strings.Contains(string(data), "blogd_slow_queries_total 1\n") {
		t.Errorf("slow_queries_total not incremented:\n%s", data)
	}
}

func get(t testing.TB, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
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
