package search

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/term"
	"blog/internal/weights"
	"blog/internal/workload"
)

const fig1 = `
gf(X,Z) :- f(X,Y), f(Y,Z).
gf(X,Z) :- f(X,Y), m(Y,Z).
f(curt,elain).   f(sam,larry).
f(dan,pat).      f(larry,den).
f(pat,john).     f(larry,doug).
m(elain,john).
m(marian,elain).
m(peg,den).
m(peg,doug).
`

// sec5 is the A :- B,C,D example of section 5. Clause IDs:
// 0: a:-b,c,d  1: b:-e  2: b:-f  3: c:-g  4: d:-h  5: e  6: f  7: g  8: h
const sec5 = `
a :- b, c, d.
b :- e.
b :- f.
c :- g.
d :- h.
e. f. g. h.
`

func load(t testing.TB, src string) *kb.DB {
	t.Helper()
	db, _, err := kb.LoadString(src)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func q(t testing.TB, s string) []term.Term {
	t.Helper()
	gs, err := parse.Query(s)
	if err != nil {
		t.Fatal(err)
	}
	return gs
}

func uniform() weights.Store { return weights.NewUniform(weights.DefaultConfig()) }

func solutionsOf(res *Result, v string) []string {
	i := slices.IndexFunc(res.QueryVars, func(x *term.Var) bool { return x.Name == v })
	var out []string
	for _, s := range res.Solutions {
		out = append(out, s.Values[i].String())
	}
	return out
}

func TestDFSFig1AllSolutions(t *testing.T) {
	db := load(t, fig1)
	res, err := Run(context.Background(), db, uniform(), q(t, "gf(sam,G)"), Options{Strategy: DFS})
	if err != nil {
		t.Fatal(err)
	}
	got := solutionsOf(res, "G")
	if len(got) != 2 || got[0] != "den" || got[1] != "doug" {
		t.Errorf("solutions = %v, want [den doug] in Prolog order", got)
	}
	if !res.Exhausted {
		t.Error("search should exhaust")
	}
	if res.Stats.Failures != 1 {
		t.Errorf("failures = %d, want 1 (the m branch)", res.Stats.Failures)
	}
}

func TestDFSFirstSolutionIsProlog(t *testing.T) {
	db := load(t, fig1)
	res, err := Run(context.Background(), db, uniform(), q(t, "gf(sam,G)"), Options{Strategy: DFS, MaxSolutions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := solutionsOf(res, "G"); len(got) != 1 || got[0] != "den" {
		t.Errorf("first solution = %v, want den (figure 1)", got)
	}
}

func TestBFSSameSolutionSet(t *testing.T) {
	db := load(t, fig1)
	res, err := Run(context.Background(), db, uniform(), q(t, "gf(sam,G)"), Options{Strategy: BFS})
	if err != nil {
		t.Fatal(err)
	}
	got := solutionsOf(res, "G")
	if len(got) != 2 {
		t.Fatalf("solutions = %v", got)
	}
	set := map[string]bool{got[0]: true, got[1]: true}
	if !set["den"] || !set["doug"] {
		t.Errorf("solutions = %v", got)
	}
}

func TestBestFirstUniformSameSolutionSet(t *testing.T) {
	db := load(t, fig1)
	res, err := Run(context.Background(), db, uniform(), q(t, "gf(sam,G)"), Options{Strategy: BestFirst})
	if err != nil {
		t.Fatal(err)
	}
	if got := solutionsOf(res, "G"); len(got) != 2 {
		t.Errorf("solutions = %v", got)
	}
}

func TestAllStrategiesAgreeOnConjunctions(t *testing.T) {
	db := load(t, fig1)
	goals := q(t, "f(sam,Y), f(Y,G)")
	for _, s := range []Strategy{DFS, BFS, BestFirst} {
		res, err := Run(context.Background(), db, uniform(), goals, Options{Strategy: s})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(res.Solutions) != 2 {
			t.Errorf("%v: %d solutions, want 2", s, len(res.Solutions))
		}
	}
}

func TestGroundQuerySucceedsOnce(t *testing.T) {
	db := load(t, fig1)
	res, err := Run(context.Background(), db, uniform(), q(t, "gf(sam,den)"), Options{Strategy: DFS})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 {
		t.Errorf("gf(sam,den): %d solutions", len(res.Solutions))
	}
	res2, err := Run(context.Background(), db, uniform(), q(t, "gf(sam,peg)"), Options{Strategy: DFS})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Solutions) != 0 {
		t.Errorf("gf(sam,peg) should fail")
	}
}

func TestEmptyQueryErrors(t *testing.T) {
	db := load(t, fig1)
	if _, err := Run(context.Background(), db, uniform(), nil, Options{}); err == nil {
		t.Error("empty query must error")
	}
}

func TestMaxExpansionsBudget(t *testing.T) {
	db := load(t, "loop :- loop.")
	_, err := Run(context.Background(), db, uniform(), q(t, "loop"), Options{Strategy: DFS, MaxExpansions: 10, MaxDepth: 1 << 20})
	if want := (engine.LimitError{Limit: engine.Expansions, Bound: 10}); !errors.Is(err, want) {
		t.Errorf("got %v, want %v", err, want)
	}
}

func TestDepthLimitTerminatesCyclicProgram(t *testing.T) {
	db := load(t, "loop :- loop.")
	res, err := Run(context.Background(), db, uniform(), q(t, "loop"), Options{Strategy: DFS, MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 || res.Stats.DepthCutoffs == 0 {
		t.Errorf("cyclic program: %d solutions, %d cutoffs", len(res.Solutions), res.Stats.DepthCutoffs)
	}
}

func TestFig1Trace(t *testing.T) {
	db := load(t, fig1)
	res, err := Run(context.Background(), db, uniform(), q(t, "gf(sam,G)"), Options{
		Strategy: DFS, MaxSolutions: 1, RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Trace, "\n")
	// The figure-1 steps: the query resolves against both rules, then
	// f(sam,Y) matches f(sam,larry), then f(larry,G) matches den.
	for _, want := range []string{"?- gf(sam,G)", "f(sam,larry)", "f(larry,den)"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q:\n%s", want, joined)
		}
	}
}

func TestFig3TreeShape(t *testing.T) {
	db := load(t, fig1)
	res, err := Run(context.Background(), db, uniform(), q(t, "gf(sam,G)"), Options{
		Strategy: DFS, RecordTree: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree := res.Tree
	if tree == nil {
		t.Fatal("no tree recorded")
	}
	sols, fails, _ := tree.CountStatus()
	if sols != 2 || fails != 1 {
		t.Errorf("tree has %d solutions, %d failures; figure 3 shows 2 and 1", sols, fails)
	}
	// Root fans out to the two rule alternatives.
	if len(tree.Root.Children) != 2 {
		t.Errorf("root fan-out = %d, want 2", len(tree.Root.Children))
	}
	rendered := tree.Render()
	for _, want := range []string{"?- gf(sam,G)", "SOLUTION", "FAIL", "f(larry,den)", "f(larry,doug)"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("render missing %q:\n%s", want, rendered)
		}
	}
	if tree.Size() < 6 {
		t.Errorf("tree size = %d, suspiciously small", tree.Size())
	}
}

// sec5Weights installs the figure-4 weight scenario of section 5.
func sec5Weights(b1 float64) *weights.Table {
	tab := weights.NewTable(weights.Config{N: 16, A: 64})
	tab.Set(kb.Arc{Caller: kb.Query, Pos: 0, Callee: 0}, 0) // ?- a
	tab.Set(kb.Arc{Caller: 0, Pos: 0, Callee: 1}, b1)       // first B  (b:-e)
	tab.Set(kb.Arc{Caller: 0, Pos: 0, Callee: 2}, 3)        // second B (b:-f)
	tab.Set(kb.Arc{Caller: 0, Pos: 1, Callee: 3}, 5)        // C
	tab.Set(kb.Arc{Caller: 0, Pos: 2, Callee: 4}, 6)        // D
	tab.Set(kb.Arc{Caller: 1, Pos: 0, Callee: 5}, 1)        // E
	tab.Set(kb.Arc{Caller: 2, Pos: 0, Callee: 6}, 2)        // F
	tab.Set(kb.Arc{Caller: 3, Pos: 0, Callee: 7}, 1)        // G
	tab.Set(kb.Arc{Caller: 4, Pos: 0, Callee: 8}, 1)        // H
	return tab
}

// expansionOrder runs best-first and returns the first goal resolved at
// each expansion, via the trace.
func expansionOrder(t *testing.T, tab *weights.Table) []string {
	db := load(t, sec5)
	res, err := Run(context.Background(), db, tab, q(t, "a"), Options{Strategy: BestFirst, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, line := range res.Trace {
		goal := strings.TrimPrefix(line, "?- ")
		if i := strings.IndexAny(goal, ", "); i > 0 {
			goal = goal[:i]
		}
		order = append(order, goal)
	}
	return order
}

func TestSection5WorkedExampleScenario1(t *testing.T) {
	// Weights as in figure 4 (first B = 4): the second B (weight 3) is
	// expanded first; after its chain reaches F (bound 5), the first B
	// (weight 4) is chosen next — the paper's described order.
	order := expansionOrder(t, sec5Weights(4))
	// order[0] = a (root), order[1] = b via... expansions resolve goals:
	// a, then b (fan-out to both Bs), then f (second B chain), then e.
	want := []string{"a", "b", "f", "e"}
	for i, w := range want {
		if i >= len(order) || order[i] != w {
			t.Fatalf("expansion order = %v, want prefix %v", order, want)
		}
	}
}

func TestSection5WorkedExampleScenario2(t *testing.T) {
	// First B weight lowered to 1: now B:-E is expanded before the second
	// B ("this appears to be a depth-first search, as in PROLOG").
	order := expansionOrder(t, sec5Weights(1))
	want := []string{"a", "b", "e"}
	for i, w := range want {
		if i >= len(order) || order[i] != w {
			t.Fatalf("expansion order = %v, want prefix %v", order, want)
		}
	}
	// The second B's chain (f) must come after e's chain continues (c).
	posF, posC := -1, -1
	for i, g := range order {
		if g == "f" && posF < 0 {
			posF = i
		}
		if g == "c" && posC < 0 {
			posC = i
		}
	}
	if posC < 0 || (posF >= 0 && posF < posC) {
		t.Errorf("order = %v: chain through first B should continue (c) before second B (f)", order)
	}
}

func TestLearningRecordsSuccessAndFailure(t *testing.T) {
	db := load(t, fig1)
	tab := weights.NewTable(weights.Config{N: 16, A: 64})
	_, err := Run(context.Background(), db, tab, q(t, "gf(sam,G)"), Options{Strategy: DFS, Learn: true})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() == 0 {
		t.Fatal("learning run should store weights")
	}
	// The m-branch failure must have produced an infinity somewhere on
	// the failed chain (rule 2's arcs).
	foundInf := false
	for _, a := range []kb.Arc{
		{Caller: kb.Query, Pos: 0, Callee: 1},
		{Caller: 1, Pos: 0, Callee: 3},
	} {
		if k, _ := tab.State(a); k == weights.Infinite {
			foundInf = true
		}
	}
	if !foundInf {
		t.Error("failed chain should carry an infinity")
	}
	// Successful chains should now be bound N.
	for _, chain := range [][]kb.Arc{
		{{Caller: kb.Query, Pos: 0, Callee: 0}, {Caller: 0, Pos: 0, Callee: 3}, {Caller: 0, Pos: 1, Callee: 5}},
	} {
		b := weights.ChainBound(tab, chain)
		if b != 16 {
			t.Errorf("success chain bound = %v, want 16", b)
		}
	}
}

func TestLearningSpeedsUpRequery(t *testing.T) {
	// The paper's adaptivity claim: "If a successful query is found, the
	// next search will try this path early and if an unsuccessful search
	// is detected, its path will be avoided until all others have been
	// attempted."
	db := load(t, fig1)
	tab := weights.NewTable(weights.Config{N: 16, A: 64})
	goals := q(t, "gf(sam,G)")
	first, err := Run(context.Background(), db, tab, goals, Options{Strategy: BestFirst, Learn: true})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(context.Background(), db, tab, q(t, "gf(sam,G)"), Options{
		Strategy: BestFirst, Learn: true, MaxSolutions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Expanded >= first.Stats.Expanded {
		t.Errorf("re-query expanded %d nodes, first run %d; learning should help",
			second.Stats.Expanded, first.Stats.Expanded)
	}
	// The learned-infinite m-branch must not be expanded at all when a
	// single solution is requested.
	if second.Stats.Failures != 0 {
		t.Errorf("re-query hit %d failures; the infinite branch should be avoided", second.Stats.Failures)
	}
}

func TestPruningWithExactWeights(t *testing.T) {
	// With weights from the theoretical solver, pruning keeps all
	// solutions (their bounds are equal-minimal).
	db := load(t, fig1)
	goals := q(t, "gf(sam,G)")
	outcomes, err := EnumerateOutcomes(context.Background(), db, goals, 16)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := weights.Solve(outcomes)
	if err != nil {
		t.Fatal(err)
	}
	tab := weights.NewTable(weights.Config{N: 16, A: 64})
	sol.Apply(tab)
	res, err := Run(context.Background(), db, tab, goals, Options{Strategy: BestFirst, Prune: true, PruneSlack: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 2 {
		t.Errorf("pruned search found %d solutions, want 2", len(res.Solutions))
	}
}

func TestEnumerateOutcomesFig1(t *testing.T) {
	db := load(t, fig1)
	outcomes, err := EnumerateOutcomes(context.Background(), db, q(t, "gf(sam,G)"), 16)
	if err != nil {
		t.Fatal(err)
	}
	var succ, fail int
	for _, o := range outcomes {
		if o.Success {
			succ++
		} else {
			fail++
		}
	}
	if succ != 2 || fail != 1 {
		t.Errorf("outcomes = %d success, %d fail; figure 3 shows 2 and 1", succ, fail)
	}
}

func TestBestFirstAvoidsDeepFailureAfterLearning(t *testing.T) {
	// A program with a cheap failing branch and an expensive succeeding
	// branch: after one learning pass, best-first goes straight to the
	// solution.
	src := `
top(X) :- bad(X).
top(X) :- good(X).
bad(X) :- step1(X), step2(X), nothere(X).
step1(x). step2(x).
good(x).
`
	db := load(t, src)
	tab := weights.NewTable(weights.Config{N: 16, A: 64})
	goals := q(t, "top(x)")
	if _, err := Run(context.Background(), db, tab, goals, Options{Strategy: BestFirst, Learn: true}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), db, tab, q(t, "top(x)"), Options{Strategy: BestFirst, Learn: true, MaxSolutions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failures != 0 {
		t.Errorf("learned search still failed %d times", res.Stats.Failures)
	}
	if res.Stats.Expanded > 3 {
		t.Errorf("learned search expanded %d nodes, want <= 3", res.Stats.Expanded)
	}
}

func TestBestFirstSolutionsInBoundOrder(t *testing.T) {
	// A fundamental branch-and-bound invariant: since bounds grow
	// monotonically along chains and the frontier pops minima, best-first
	// emits solutions in nondecreasing bound order — with any weights.
	cases := []struct {
		src, query string
		ws         weights.Store
	}{
		{fig1, "gf(sam,G)", uniform()},
		{workload.FamilyTree(4, 3), "gf(p0,G)", uniform()},
		{workload.FamilyTree(4, 3), "anc(p0,X)", weights.NewTable(weights.Config{N: 16, A: 32})},
		{workload.Unbalanced(8, 10), "job(X)", weights.NewTable(weights.Config{N: 16, A: 64})},
	}
	for _, c := range cases {
		db := load(t, c.src)
		res, err := Run(context.Background(), db, c.ws, q(t, c.query), Options{Strategy: BestFirst, MaxDepth: 32})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res.Solutions); i++ {
			if res.Solutions[i].Bound < res.Solutions[i-1].Bound {
				t.Fatalf("%s: solution %d bound %v < previous %v",
					c.query, i, res.Solutions[i].Bound, res.Solutions[i-1].Bound)
			}
		}
	}
}

func TestStrategyString(t *testing.T) {
	if DFS.String() != "dfs" || BFS.String() != "bfs" || BestFirst.String() != "best-first" || Parallel.String() != "parallel" {
		t.Error("strategy names")
	}
	if Strategy(9).String() != "Strategy(9)" {
		t.Error("unknown strategy name")
	}
}

func TestArithmeticProgramAllStrategies(t *testing.T) {
	src := `
sumto(0, 0).
sumto(N, S) :- N > 0, M is N - 1, sumto(M, T), S is T + N.
`
	db := load(t, src)
	for _, s := range []Strategy{DFS, BFS, BestFirst} {
		res, err := Run(context.Background(), db, uniform(), q(t, "sumto(10, S)"), Options{Strategy: s, MaxDepth: 64})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(res.Solutions) != 1 || res.Solutions[0].Values[0].String() != "55" {
			t.Errorf("%v: solutions %v", s, res.Solutions)
		}
	}
}

func TestListProgram(t *testing.T) {
	src := `
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
`
	db := load(t, src)
	res, err := Run(context.Background(), db, uniform(), q(t, "append(X, Y, [1,2,3])"), Options{Strategy: DFS})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 4 {
		t.Errorf("append splits = %d, want 4", len(res.Solutions))
	}
	res2, err := Run(context.Background(), db, uniform(), q(t, "member(M, [a,b,c])"), Options{Strategy: BestFirst})
	if err != nil {
		t.Fatal(err)
	}
	if got := solutionsOf(res2, "M"); len(got) != 3 {
		t.Errorf("members = %v", got)
	}
}

func BenchmarkDFSFig1(b *testing.B) {
	db := load(b, fig1)
	goals, _ := parse.Query("gf(sam,G)")
	ws := uniform()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), db, ws, goals, Options{Strategy: DFS}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestFirstFig1(b *testing.B) {
	db := load(b, fig1)
	goals, _ := parse.Query("gf(sam,G)")
	ws := uniform()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), db, ws, goals, Options{Strategy: BestFirst}); err != nil {
			b.Fatal(err)
		}
	}
}
