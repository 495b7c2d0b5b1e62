package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"blog"
	"blog/internal/obs"
)

// limitSrc trips every limit: spin fails 8^7 branches, and nat/1 tabled
// derives integers without end.
const limitSrc = `c(1). c(2). c(3). c(4). c(5). c(6). c(7). c(8).
spin :- c(_), c(_), c(_), c(_), c(_), c(_), c(_), fail.
:- table nat/1.
nat(0).
nat(N) :- nat(M), N is M + 1.
`

// TestLimitStops: each limit a query can pass answers 422 with a body
// naming the limit and its bound. It bumps blogd_budget_stops_total and
// its own limit's blogd_limit_stops_total series and no other, leaves
// blogd_errors_total at 0, and reaches the journal as one
// query_over_limit event with the request ID and the limit's name.
func TestLimitStops(t *testing.T) {
	cases := []struct {
		req   QueryRequest
		limit string
		bound uint64
	}{
		{QueryRequest{Goal: "spin", Strategy: "dfs", MaxExpansions: 50}, "expansions", 50},
		{QueryRequest{Goal: "nat(X)", Strategy: "dfs", Tabled: true}, "table_answers", 2_000_000},
		{QueryRequest{Goal: `\+(spin)`}, "negation_expansions", 100_000},
		{QueryRequest{Goal: "between(1,100000000000,X)"}, "builtin_term", 1_000_000},
		{QueryRequest{Goal: "length(L,100000000000)"}, "builtin_term", 1_000_000},
		{QueryRequest{Goal: "functor(F,f,100000000000)"}, "builtin_term", 1_000_000},
	}
	for _, c := range cases {
		s, ts := newTestServer(t, limitSrc, Config{DefaultTimeout: time.Minute})
		resp, data := postJSON(t, ts.Client(), ts.URL+"/query", c.req)
		var body ErrorResponse
		if err := json.Unmarshal(data, &body); err != nil {
			t.Fatalf("%s: bad body %q: %v", c.req.Goal, data, err)
		}
		want := fmt.Sprintf("%s limit of %d exceeded", c.limit, c.bound)
		if resp.StatusCode != http.StatusUnprocessableEntity || body.Error != want {
			t.Errorf("%s: status %d error %q, want %d %q", c.req.Goal, resp.StatusCode, body.Error, http.StatusUnprocessableEntity, want)
		}
		_, metrics := get(t, ts.Client(), ts.URL+"/metrics")
		series := []string{"blogd_budget_stops_total 1\n", "blogd_errors_total 0\n"}
		for l := range blog.NumLimits {
			n := 0
			if l.String() == c.limit {
				n = 1
			}
			series = append(series, fmt.Sprintf("blogd_limit_stops_total{limit=%q} %d\n", l, n))
		}
		for _, line := range series {
			if !strings.Contains(string(metrics), line) {
				t.Errorf("%s: /metrics lacks %q", c.req.Goal, line)
			}
		}
		var over []blog.Event
		for _, ev := range s.journal.Events(0) {
			if ev.Kind == obs.KindQueryOverLimit {
				over = append(over, ev)
			}
		}
		if len(over) != 1 || over[0].RequestID != body.RequestID || over[0].Detail != c.limit {
			t.Errorf("%s: query_over_limit events %+v, want one for %s naming %s", c.req.Goal, over, body.RequestID, c.limit)
		}
	}
}
