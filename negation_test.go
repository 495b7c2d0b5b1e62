package blog

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"blog/internal/engine"
)

var everyStrategy = []Strategy{DFS, BFS, BestFirst, Parallel}

// TestNegationAgreesAcrossStrategies: \+ filtering over program clauses
// and \+ over a tabled goal answer identically under the four strategies.
func TestNegationAgreesAcrossStrategies(t *testing.T) {
	p, err := LoadString(`
		:- table path/2.
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- path(X, Y), edge(Y, Z).
		edge(a, b). edge(b, c).
		p(a).
		item(a). item(b). item(c). item(d).
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query string
		opts  []Option
		want  string
	}{
		{`item(X), \+(p(X))`, nil, "[X = b X = c X = d]"},
		{`item(X), \+(path(a, X))`, []Option{Tabled()}, "[X = a X = d]"},
	} {
		for _, s := range everyStrategy {
			res, err := p.Query(c.query, s, c.opts...)
			if err != nil {
				t.Fatalf("%s under %v: %v", c.query, s, err)
			}
			got := make([]string, len(res.Solutions))
			for i, sol := range res.Solutions {
				got[i] = sol.String()
			}
			sort.Strings(got)
			if fmt.Sprint(got) != c.want {
				t.Errorf("%s under %v: %v, want %s", c.query, s, got, c.want)
			}
		}
	}
}

// TestNegationBudgetEveryStrategy: a \+ whose proof attempt outgrows the
// negation budget (8^7 branches, every one failing) ends the query with
// the negation_expansions LimitError under every strategy.
func TestNegationBudgetEveryStrategy(t *testing.T) {
	p, err := LoadString(`
		c(1). c(2). c(3). c(4). c(5). c(6). c(7). c(8).
		spin :- c(_), c(_), c(_), c(_), c(_), c(_), c(_), fail.
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range everyStrategy {
		want := engine.LimitError{Limit: engine.NegationExpansions, Bound: 100_000}
		if _, err := p.Query(`\+(spin)`, s); !errors.Is(err, want) {
			t.Errorf("%v: err %v, want %v", s, err, want)
		}
	}
}

// TestNegationDepthBudget pins the depth bound of \+: the nested proof
// starts at depth 0 with the full MaxDepth, not with what the enclosing
// chain has left. deep(8) reaches \+(p3) after 9 arcs; p3 needs 3 more,
// which the full bound of 10 allows, so \+(p3) fails and the query has no
// solution. Under a remaining-budget rule (1 arc) it would have one, as
// shallow(8), the same chain ending in an unprovable \+ argument, has.
func TestNegationDepthBudget(t *testing.T) {
	p, err := LoadString(`
		deep(0) :- \+(p3).
		deep(N) :- N > 0, M is N - 1, deep(M).
		shallow(0) :- \+(p0).
		shallow(N) :- N > 0, M is N - 1, shallow(M).
		p3 :- p2.
		p2 :- p1.
		p1.
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range everyStrategy {
		for query, want := range map[string]int{"deep(8)": 0, "shallow(8)": 1} {
			res, err := p.Query(query, s, MaxDepth(10))
			if err != nil {
				t.Fatalf("%s under %v: %v", query, s, err)
			}
			if len(res.Solutions) != want {
				t.Errorf("%s under %v: %d solutions, want %d", query, s, len(res.Solutions), want)
			}
		}
	}
}
