package blog

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	"blog/internal/term"
	"blog/internal/workload"
)

// mkSrc hands a query variable a structure of clause variables, one of
// them twice.
const mkSrc = "mk(f(A,B,A)).\n"

// anonVar matches one _G serial.
var anonVar = regexp.MustCompile(`_G[0-9]+`)

// serialPattern replaces each _G serial in text by its first-occurrence
// rank, so texts compare by where a variable repeats, not by its serial.
func serialPattern(text string) string {
	seen := map[string]string{}
	return anonVar.ReplaceAllStringFunc(text, func(s string) string {
		if p, ok := seen[s]; ok {
			return p
		}
		p := fmt.Sprintf("_G#%d", len(seen))
		seen[s] = p
		return p
	})
}

// serialText renders t with every variable as its _G serial, so a
// variable re-minted by a later run reads differently.
func serialText(t term.Term) string { return string(term.AppendAnswer(nil, t, nil, nil)) }

// TestAnswerVariableNames: in an answer, an unbound variable that is not
// one of the query's own prints as _G<serial>, the same serial exactly
// where the same variable occurs — on every strategy, in the text and in
// the bindings alike. Clause variables used to print
// by their source names, colliding with the query's and with each other.
func TestAnswerVariableNames(t *testing.T) {
	p, err := LoadString(mkSrc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ goal, want string }{
		{"mk(Q), A = 1", "Q = f(_G#0,_G#1,_G#0), A = 1"},
		{"copy_term(f(X,Y), Z), X = 1", "X = 1, Y = Y, Z = f(_G#0,_G#1)"},
		{"mk(Q), mk(R)", "Q = f(_G#0,_G#1,_G#0), R = f(_G#2,_G#3,_G#2)"},
	}
	for _, strat := range []Strategy{DFS, BFS, BestFirst, Parallel} {
		for _, c := range cases {
			name := fmt.Sprintf("%v %s", strat, c.goal)
			res, err := p.Query(c.goal, strat, Workers(2))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res.Solutions) != 1 {
				t.Fatalf("%s: %d solutions, want 1", name, len(res.Solutions))
			}
			sol := res.Solutions[0]
			if got := serialPattern(sol.String()); got != c.want {
				t.Errorf("%s: answer %q, want the pattern %q", name, sol.String(), c.want)
			}
			parts := make([]string, len(sol.varOrder))
			for i, v := range sol.varOrder {
				parts[i] = v + " = " + sol.Bindings[v]
			}
			if joined := strings.Join(parts, ", "); joined != sol.String() {
				t.Errorf("%s: bindings %v disagree with the text %q", name, sol.Bindings, sol.String())
			}
		}
	}
}

// TestAnswerLifetime holds what a caller keeps from an answer to the text
// it had inside yield: Value(i) and a Solution converted there survive the
// later pulls, which rewrite a depth-first run's store, and the end of the
// query, which recycles it. After a BFS or best-first query, further
// best-first queries run before the comparison: they borrow the scratch
// the query returned and take their nodes, goal cells, bindings and terms
// from its chunk tails, so a slab that handed a cell out twice would show.
// One case compares while such queries run concurrently, and a learning
// session's arcs are compared the same way.
func TestAnswerLifetime(t *testing.T) {
	queens, err := LoadString(workload.NQueens)
	if err != nil {
		t.Fatal(err)
	}
	cyclic, err := LoadString(workload.Cyclic(16, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	mk, err := LoadString(mkSrc + "mk(g(C)).\n")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		p     *Program
		goal  string
		strat Strategy
		opts  []Option
	}{
		{"dfs", queens, "queens(5,Qs)", DFS, nil},
		{"bfs", queens, "queens(4,Qs)", BFS, nil},
		{"best", queens, "queens(4,Qs)", BestFirst, nil},
		{"tabled replay dfs", cyclic, "path(v3,Z)", DFS, []Option{Tabled()}},
		{"tabled replay best", cyclic, "path(v3,Z)", BestFirst, []Option{Tabled()}},
		{"parallel", queens, "queens(5,Qs)", Parallel, []Option{Workers(2)}},
		{"clause variables dfs", mk, "mk(Q), mk(R)", DFS, nil},
		{"clause variables best", mk, "mk(Q), mk(R)", BestFirst, nil},
	}
	for _, c := range cases {
		ks, want := keepAnswers(t, c.name, c.p, c.goal, c.strat, c.opts...)
		// Another run takes the recycled store, frames and compounds over.
		if _, err := c.p.Query(c.goal, c.strat, c.opts...); err != nil {
			t.Fatal(err)
		}
		if c.strat == BFS || c.strat == BestFirst {
			laterBestFirst(t, c.p, c.opts, c.goal, "queens(5,Qs)", c.goal)
		}
		checkKept(t, c.name, ks, want)
	}

	// Concurrently: the kept answers are read while other goroutines run
	// best-first queries, and again once they are done.
	ks, want := keepAnswers(t, "concurrent best", queens, "queens(4,Qs)", BestFirst)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			laterBestFirst(t, queens, nil, "queens(4,Qs)", "queens(5,Qs)")
		}()
	}
	checkKept(t, "concurrent best (during)", ks, want)
	wg.Wait()
	checkKept(t, "concurrent best (after)", ks, want)

	// A learning session: the weight rules read each chain's arcs off the
	// run's slab-held arc lists, and later queries, which reuse the
	// scratch those lists came from, leave the learned arcs as they were.
	fam, err := LoadString(workload.FamilyTree(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	s := fam.NewSession(0)
	if _, err := fam.Query("gf(p4,G)", BestFirst, InSession(s), Learn()); err != nil {
		t.Fatal(err)
	}
	arcs := fam.db.Arcs()
	states := func() []string {
		out := make([]string, len(arcs))
		for i, a := range arcs {
			k, w := s.inner.State(a)
			out[i] = fmt.Sprint(k, w)
		}
		return out
	}
	before := states()
	if s.LocalLearned() == 0 {
		t.Fatal("the session learned no arcs")
	}
	other := fam.NewSession(0)
	for _, g := range []string{"gf(p5,G)", "gf(p4,G)", "gf(X,Y)"} {
		if _, err := fam.Query(g, BestFirst); err != nil {
			t.Fatal(err)
		}
		if _, err := fam.Query(g, BestFirst, InSession(other), Learn()); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range states() {
		if st != before[i] {
			t.Errorf("arc %v: learned %s, now %s after later queries", arcs[i], before[i], st)
		}
	}
}

// kept is what a caller keeps of one answer inside yield.
type kept struct {
	values []term.Term
	texts  []string
	sol    Solution
	text   string
}

// keepAnswers runs goal through QueryEach, keeping every answer's values
// and Solution, and returns them with the batch Query's result.
func keepAnswers(t *testing.T, name string, p *Program, goal string, strat Strategy, opts ...Option) ([]kept, *Result) {
	t.Helper()
	// The batch run also completes any table, so QueryEach replays it.
	want, err := p.Query(goal, strat, opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	g, err := ParseGoal(goal)
	if err != nil {
		t.Fatal(err)
	}
	var ks []kept
	_, err = p.QueryEach(context.Background(), g, strat, func(a Answer) error {
		k := kept{sol: a.Solution()}
		k.text = k.sol.String()
		for i, vn := range a.Names {
			v := a.Value(i)
			k.values = append(k.values, v)
			k.texts = append(k.texts, serialText(v))
			// A ground value reads as the answer's own text.
			if text := k.sol.Bindings[vn]; !anonVar.MatchString(text) && v.String() != text {
				t.Errorf("%s: Value(%d) reads %q inside yield, the answer %q", name, i, v.String(), text)
			}
		}
		ks = append(ks, k)
		return nil
	}, opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(ks) != len(want.Solutions) || len(ks) < 2 {
		t.Fatalf("%s: %d answers, want %d (and at least 2)", name, len(ks), len(want.Solutions))
	}
	return ks, want
}

// laterBestFirst runs goals on p best-first, one after another.
func laterBestFirst(t *testing.T, p *Program, opts []Option, goals ...string) {
	for _, g := range goals {
		if _, err := p.Query(g, BestFirst, opts...); err != nil {
			t.Error(err)
		}
	}
}

// checkKept compares kept answers with the texts they had inside yield
// and with the batch Query's answers.
func checkKept(t *testing.T, name string, ks []kept, want *Result) {
	t.Helper()
	for n, k := range ks {
		for i, v := range k.values {
			if got := serialText(v); got != k.texts[i] {
				t.Errorf("%s answer %d: Value(%d) reads %q after the query, %q inside yield", name, n, i, got, k.texts[i])
			}
		}
		if got := k.sol.String(); got != k.text {
			t.Errorf("%s answer %d: Solution reads %q after the query, %q inside yield", name, n, got, k.text)
		}
		if got, w := serialPattern(k.text), serialPattern(want.Solutions[n].String()); got != w {
			t.Errorf("%s answer %d: %q, Query answered %q", name, n, k.text, want.Solutions[n].String())
		}
	}
}
