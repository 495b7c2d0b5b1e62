package blog

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"

	"blog/internal/term"
)

// pooledPatternSrc makes two fully bound tabled calls from one clause
// body: p(a)'s body goal q(f(a)) is built in a run's pooled compounds,
// and backtracking hands that compound to p(c)'s q(f(c)).
const pooledPatternSrc = `
:- table q/1.
q(f(a)).  q(f(c)).
p(X) :- q(f(X)).
r :- p(a), fail.
r :- p(c).
`

// TestTablePatternSurvivesBacktrack: a table's call pattern is copied out
// of the run that created it, so a compound the run recycles at backtrack
// cannot rename the table. The listing names both calls, and a snapshot
// of the space loads both tables and answers each call once.
func TestTablePatternSurvivesBacktrack(t *testing.T) {
	for _, c := range []struct {
		name  string
		strat Strategy
		opts  []Option
	}{
		{"dfs", DFS, nil},
		{"parallel", Parallel, []Option{Workers(2)}},
	} {
		p, err := LoadString(pooledPatternSrc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Query("r", c.strat, append(c.opts, Tabled())...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(res.Solutions) != 1 {
			t.Fatalf("%s: r answered %d times, want 1", c.name, len(res.Solutions))
		}
		var calls []string
		for _, ti := range p.Tables() {
			calls = append(calls, ti.Call)
		}
		sort.Strings(calls)
		if got := fmt.Sprint(calls); got != "[q(f(a)) q(f(c))]" {
			t.Errorf("%s: Tables() lists %s, want [q(f(a)) q(f(c))]", c.name, got)
		}
		var buf bytes.Buffer
		if _, err := p.SaveTables(&buf); err != nil {
			t.Fatal(err)
		}
		fresh, err := LoadString(pooledPatternSrc)
		if err != nil {
			t.Fatal(err)
		}
		loaded, skipped, err := fresh.LoadTables(&buf)
		if err != nil || loaded != 2 || skipped != 0 {
			t.Errorf("%s: LoadTables = %d loaded, %d skipped, %v; want 2, 0", c.name, loaded, skipped, err)
		}
		for _, goal := range []string{"q(f(c))", "p(c)", "q(f(a))", "p(a)"} {
			res, err := fresh.Query(goal, c.strat, append(c.opts, Tabled())...)
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, goal, err)
			}
			if len(res.Solutions) != 1 {
				t.Errorf("%s: %s answered %d times after the restore, want 1", c.name, goal, len(res.Solutions))
			}
		}
	}
}

// TestAnswerValueSharesVariables: the values of one answer share one
// renaming, so a variable that occurs in two of them is one variable in
// both, on every strategy.
func TestAnswerValueSharesVariables(t *testing.T) {
	p, err := LoadString("p(f(Z), g(Z)).\n")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ParseGoal("p(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{DFS, BFS, BestFirst, Parallel} {
		n := 0
		_, err := p.QueryEach(context.Background(), g, strat, func(a Answer) error {
			n++
			x, y := a.Value(0), a.Value(1)
			zx := x.(*term.Compound).Args[0]
			zy := y.(*term.Compound).Args[0]
			if zx != zy {
				t.Errorf("%v: Value(0) = %s and Value(1) = %s hold two variables, want one", strat, serialText(x), serialText(y))
			}
			if again := a.Value(0); serialText(again) != serialText(x) {
				t.Errorf("%v: Value(0) read %s, then %s", strat, serialText(x), serialText(again))
			}
			return nil
		}, Workers(2))
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if n != 1 {
			t.Errorf("%v: %d answers, want 1", strat, n)
		}
	}
}
