package search

import (
	"context"
	"errors"
	"strings"
	"testing"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/term"
	"blog/internal/weights"
	"blog/internal/workload"
)

// nextSolution pulls it's next answer and detaches it.
func nextSolution(it *Iter) (engine.Solution, bool, error) {
	a, ok, err := it.NextAnswer()
	if !ok {
		return engine.Solution{}, false, err
	}
	return a.Solution(nil), true, nil
}

func TestIterYieldsAllSolutionsLazily(t *testing.T) {
	db := load(t, fig1)
	it, err := NewIter(context.Background(), db, uniform(), q(t, "gf(sam,G)"), Options{Strategy: DFS})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		sol, ok, err := nextSolution(it)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, sol.Format(it.QueryVars()))
	}
	if len(got) != 2 || got[0] != "G = den" || got[1] != "G = doug" {
		t.Errorf("solutions = %v", got)
	}
	if !it.Exhausted() {
		t.Error("iterator should be exhausted")
	}
	// Further calls keep returning done.
	if _, ok, err := nextSolution(it); ok || err != nil {
		t.Error("exhausted iterator must stay done")
	}
}

// pinSrc has four solutions, two failing chains and bound differences, and
// every strategy reaches a solution last — so a cap equal to the solution
// count stops each of them on an empty frontier.
const pinSrc = `
r(X) :- d(X).
r(X) :- a(X).
r(X) :- b(X), c(X).
a(1).
b(2). b(3). b(4).
c(3). c(4).
d(5) :- e.
d(6).
e :- f.
`

// TestIterMatchesRun pins the single sequential path. Run is a drained
// Iter, so comparing the two with each other would be a tautology;
// instead every strategy and representation, under every way a run can
// end, is held to the solution order, counters, Exhausted flag and learned
// weight table recorded from Run before the loop was unified — by hand
// pulls of an Iter and by Run alike. In particular a run stopped by
// MaxSolutions is never Exhausted, on any row.
func TestIterMatchesRun(t *testing.T) {
	configs := map[string]Options{
		"dfs/trail": {Strategy: DFS},
		"dfs/env":   {Strategy: DFS, NoVM: true},
		"bfs":       {Strategy: BFS},
		"best":      {Strategy: BestFirst},
	}
	endings := map[string]func(*Options){
		"all":         func(*Options) {},
		"cap<total":   func(o *Options) { o.MaxSolutions = 2 },
		"cap==total":  func(o *Options) { o.MaxSolutions = 4 },
		"budget":      func(o *Options) { o.MaxExpansions = 6 },
		"prune+learn": func(o *Options) { o.Prune, o.Learn = true, true },
	}
	pinned := []struct {
		config, ending                        string
		solutions                             string
		expanded, generated, failures, pruned uint64
		exhausted, budgetErr                  bool
		learned                               string // weight-table lines, "; "-joined
	}{
		{"dfs/trail", "all", "6 1 3 4", 9, 12, 2, 0, true, false, ""},
		{"dfs/trail", "cap<total", "6 1", 5, 6, 1, 0, false, false, ""},
		{"dfs/trail", "cap==total", "6 1 3 4", 9, 12, 2, 0, false, false, ""},
		{"dfs/trail", "budget", "6 1", 6, 8, 1, 0, false, true, ""},
		{"dfs/trail", "prune+learn", "6 1", 9, 12, 2, 2, true, false, "-1 0 0 1 8; -1 0 1 1 8; 0 0 10 1 8; 1 0 3 1 8; 2 0 4 2 1024; 9 0 11 2 1024"},
		{"dfs/env", "all", "6 1 3 4", 9, 12, 2, 0, true, false, ""},
		{"dfs/env", "cap<total", "6 1", 5, 7, 1, 0, false, false, ""},
		{"dfs/env", "cap==total", "6 1 3 4", 9, 12, 2, 0, false, false, ""},
		{"dfs/env", "budget", "6 1", 6, 10, 1, 0, false, true, ""},
		{"dfs/env", "prune+learn", "6 1", 9, 12, 2, 2, true, false, "-1 0 0 1 8; -1 0 1 1 8; 0 0 10 1 8; 1 0 3 1 8; 2 0 4 2 1024; 9 0 11 2 1024"},
		{"bfs", "all", "6 1 3 4", 9, 12, 2, 0, true, false, ""},
		{"bfs", "cap<total", "6 1", 5, 10, 0, 0, false, false, ""},
		{"bfs", "cap==total", "6 1 3 4", 9, 12, 2, 0, false, false, ""},
		{"bfs", "budget", "6 1", 6, 10, 1, 0, false, true, ""},
		{"bfs", "prune+learn", "6 1", 8, 12, 1, 3, true, false, "-1 0 0 1 8; -1 0 1 1 8; 0 0 10 1 8; 1 0 3 1 8; 2 0 4 2 1024"},
		{"best", "all", "6 1 3 4", 9, 12, 2, 0, true, false, ""},
		{"best", "cap<total", "6 1", 5, 10, 0, 0, false, false, ""},
		{"best", "cap==total", "6 1 3 4", 9, 12, 2, 0, false, false, ""},
		{"best", "budget", "6 1", 6, 10, 1, 0, false, true, ""},
		{"best", "prune+learn", "6 1", 8, 12, 1, 3, true, false, "-1 0 0 1 8; -1 0 1 1 8; 0 0 10 1 8; 1 0 3 1 8; 2 0 4 2 1024"},
	}
	db := load(t, pinSrc)
	for _, want := range pinned {
		opt := configs[want.config]
		endings[want.ending](&opt)
		check := func(how string, sols []string, st engine.Stats, exhausted bool, err error, tab *weights.Table) {
			t.Helper()
			name := want.config + "/" + want.ending + "/" + how
			if got := strings.Join(sols, " "); got != want.solutions {
				t.Errorf("%s: solutions %q, want %q", name, got, want.solutions)
			}
			if st.Expanded != want.expanded || st.Generated != want.generated || st.Failures != want.failures || st.Pruned != want.pruned {
				t.Errorf("%s: expanded/generated/failures/pruned = %d/%d/%d/%d, want %d/%d/%d/%d", name,
					st.Expanded, st.Generated, st.Failures, st.Pruned, want.expanded, want.generated, want.failures, want.pruned)
			}
			if exhausted != want.exhausted {
				t.Errorf("%s: Exhausted = %v, want %v", name, exhausted, want.exhausted)
			}
			budget := errors.Is(err, engine.LimitError{Limit: engine.Expansions, Bound: 6})
			if budget != want.budgetErr || (err != nil && !budget) {
				t.Errorf("%s: err = %v, want budget stop %v", name, err, want.budgetErr)
			}
			if got := learnedText(t, tab); got != want.learned {
				t.Errorf("%s: learned table\n got %s\nwant %s", name, got, want.learned)
			}
		}
		// A learning run writes its store, so each run gets a fresh one.
		store := func() (weights.Store, *weights.Table) {
			if !opt.Learn {
				return uniform(), nil
			}
			tab := weights.NewTable(weights.Config{N: 16, A: 64})
			return tab, tab
		}

		ws, tab := store()
		res, err := Run(context.Background(), db, ws, q(t, "r(X)"), opt)
		check("run", solutionsOf(res, "X"), res.Stats, res.Exhausted, err, tab)

		ws, tab = store()
		it, err := NewIter(context.Background(), db, ws, q(t, "r(X)"), opt)
		if err != nil {
			t.Fatal(err)
		}
		var sols []string
		sol, ok, err := nextSolution(it)
		for ; ok; sol, ok, err = nextSolution(it) {
			sols = append(sols, sol.Values[0].String())
		}
		check("iter", sols, it.Stats(), it.Exhausted(), err, tab)

		ws, tab = store()
		it, err = NewIter(context.Background(), db, ws, q(t, "r(X)"), opt)
		if err != nil {
			t.Fatal(err)
		}
		sols = nil
		a, ok, err := it.NextAnswer()
		for ; ok; a, ok, err = it.NextAnswer() {
			sols = append(sols, string(term.AppendAnswer(nil, a.Terms[0], a.Env, a.Terms)))
		}
		check("live", sols, it.Stats(), it.Exhausted(), err, tab)
	}
}

// learnedText renders a learned weight table as its persisted arc lines
// ("" for runs that learned nothing).
func learnedText(t *testing.T, tab *weights.Table) string {
	t.Helper()
	if tab == nil {
		return ""
	}
	var b strings.Builder
	if _, err := tab.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	return strings.Join(lines[1:], "; ") // drop the format header
}

func TestIterEarlyAbandonmentDoesLessWork(t *testing.T) {
	db := load(t, workload.FamilyTree(5, 3))
	full, err := Run(context.Background(), db, uniform(), q(t, "anc(p0,X)"), Options{Strategy: DFS, MaxDepth: 24})
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewIter(context.Background(), db, uniform(), q(t, "anc(p0,X)"), Options{Strategy: DFS, MaxDepth: 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := nextSolution(it); !ok || err != nil {
		t.Fatal("first solution missing")
	}
	if it.Stats().Expanded >= full.Stats.Expanded {
		t.Errorf("one-solution pull expanded %d, full run %d", it.Stats().Expanded, full.Stats.Expanded)
	}
}

func TestIterMaxSolutions(t *testing.T) {
	db := load(t, fig1)
	it, err := NewIter(context.Background(), db, uniform(), q(t, "gf(sam,G)"), Options{Strategy: DFS, MaxSolutions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := nextSolution(it); !ok {
		t.Fatal("first solution missing")
	}
	if _, ok, err := nextSolution(it); ok || err != nil {
		t.Error("MaxSolutions must cap the stream")
	}
}

func TestIterBudget(t *testing.T) {
	db := load(t, "loop :- loop.")
	it, err := NewIter(context.Background(), db, uniform(), q(t, "loop"), Options{Strategy: DFS, MaxExpansions: 10, MaxDepth: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := nextSolution(it)
	if ok || !errors.Is(err, engine.LimitError{Limit: engine.Expansions, Bound: 10}) {
		t.Errorf("got ok=%v err=%v, want budget error", ok, err)
	}
	if it.Exhausted() {
		t.Error("budget abort is not exhaustion")
	}
}

func TestIterLearnsFromAbandonedSearch(t *testing.T) {
	// Pull one solution and abandon: the chains completed along the way
	// (including failures) must have updated the table.
	db := load(t, workload.DeepFailure(6, 4))
	tab := weights.NewTable(weights.Config{N: 16, A: 64})
	it, err := NewIter(context.Background(), db, tab, q(t, "top(W)"), Options{Strategy: BestFirst, Learn: true, MaxDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := nextSolution(it); !ok || err != nil {
		t.Fatalf("no solution: %v", err)
	}
	if tab.Len() == 0 {
		t.Error("abandoned iterator should still have learned")
	}
}

// TestIterRecordingParity: a recording Iter drained to exhaustion
// produces the same tree and trace as the batch Run with the same
// options (both route DFS onto the persistent-Env frontier).
func TestIterRecordingParity(t *testing.T) {
	db := load(t, fig1)
	opt := Options{Strategy: DFS, RecordTree: true, RecordTrace: true}
	it, err := NewIter(context.Background(), db, uniform(), q(t, "gf(sam,G)"), opt)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := nextSolution(it)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	res, err := Run(context.Background(), db, uniform(), q(t, "gf(sam,G)"), opt)
	if err != nil {
		t.Fatal(err)
	}
	if it.Tree() == nil {
		t.Fatal("recording Iter returned no tree")
	}
	if got, want := it.Tree().Render(), res.Tree.Render(); got != want {
		t.Errorf("streamed tree differs from batch tree:\n--- iter ---\n%s\n--- run ---\n%s", got, want)
	}
	if got, want := strings.Join(it.Trace(), "\n"), strings.Join(res.Trace, "\n"); got != want {
		t.Errorf("streamed trace differs from batch trace:\n--- iter ---\n%s\n--- run ---\n%s", got, want)
	}
	if it.onTrail {
		t.Error("recording stream ran on the trail machine, want the persistent-Env frontier")
	}
}

func TestIterRejectsEmptyQuery(t *testing.T) {
	db := load(t, fig1)
	if _, err := NewIter(context.Background(), db, uniform(), nil, Options{}); err == nil {
		t.Error("empty query must fail")
	}
}

// TestIterRejectsParallel: an Iter runs the sequential strategies only;
// Parallel belongs to internal/par.
func TestIterRejectsParallel(t *testing.T) {
	db := load(t, fig1)
	for _, s := range []Strategy{Parallel, Strategy(9)} {
		if _, err := NewIter(context.Background(), db, uniform(), q(t, "gf(sam,G)"), Options{Strategy: s}); err == nil {
			t.Errorf("%v: NewIter must fail", s)
		}
	}
}

func TestIterErrorPropagates(t *testing.T) {
	db := load(t, "bad(X) :- Y is X + Z, Y > 0.")
	it, err := NewIter(context.Background(), db, uniform(), q(t, "bad(1)"), Options{Strategy: DFS})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := nextSolution(it); ok || err == nil {
		t.Error("arithmetic error must surface from Next")
	}
}

var _ = kb.Query // keep kb import for the helper file

// TestIterPrunes: the streaming engine applies the same branch-and-bound
// rule as Run — once a solution bound is known, costlier open nodes are
// cut instead of served.
func TestIterPrunes(t *testing.T) {
	// DFS reaches `a` through the short clause first (bound 2 with uniform
	// weights); the deep branch's solution sits at bound 4 and must be
	// pruned against it.
	src := `
top(X) :- cheap(X).
top(X) :- d1(X).
cheap(a).
d1(X) :- d2(X).
d2(X) :- d3(X).
d3(b).
`
	db := load(t, src)
	opts := Options{Strategy: DFS, Prune: true}
	run, err := Run(context.Background(), db, uniform(), q(t, "top(X)"), opts)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewIter(context.Background(), db, uniform(), q(t, "top(X)"), opts)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		sol, ok, err := nextSolution(it)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, sol.Format(it.QueryVars()))
	}
	if len(got) != 1 || got[0] != "X = a" {
		t.Errorf("pruned stream served %v, want only X = a", got)
	}
	if len(run.Solutions) != len(got) {
		t.Errorf("Run found %d solutions, Iter served %d", len(run.Solutions), len(got))
	}
	if it.Stats().Pruned == 0 {
		t.Error("stream should have pruned the deep branch")
	}
	if it.Stats().Pruned != run.Stats.Pruned {
		t.Errorf("Iter pruned %d, Run pruned %d", it.Stats().Pruned, run.Stats.Pruned)
	}
	// With slack covering the bound gap, the deep solution survives.
	it2, err := NewIter(context.Background(), db, uniform(), q(t, "top(X)"), Options{Strategy: DFS, Prune: true, PruneSlack: 8})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for {
		_, ok, err := nextSolution(it2)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Errorf("slack stream served %d solutions, want 2", n)
	}
}

// TestIterCappedStreamNotExhausted: stopping at the MaxSolutions cap with
// open chains left must not claim the tree was searched (Run semantics).
func TestIterCappedStreamNotExhausted(t *testing.T) {
	db := load(t, "f(a).\nf(b).\n")
	it, err := NewIter(context.Background(), db, uniform(), q(t, "f(X)"), Options{Strategy: DFS, MaxSolutions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := nextSolution(it); !ok || err != nil {
		t.Fatalf("first solution: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := nextSolution(it); ok {
		t.Fatal("cap of 1 should end the stream")
	}
	if it.Exhausted() {
		t.Error("capped stream with open chains reported Exhausted")
	}
	// An uncapped run over the same tree does exhaust.
	it2, err := NewIter(context.Background(), db, uniform(), q(t, "f(X)"), Options{Strategy: DFS})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok, err := nextSolution(it2); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	if !it2.Exhausted() {
		t.Error("fully drained stream should report Exhausted")
	}
}

// TestIterPruneStaleSolution pins the yield-time prune invariant: a
// solution node that was already sitting in the frontier when an earlier
// Next call served a better bound must be pruned when reached, never
// yielded. BFS makes the window deterministic: the cheap fact's solution
// is served first, and the longer clause's solution node — generated with
// a bound that was acceptable at generation time — goes stale in between.
func TestIterPruneStaleSolution(t *testing.T) {
	db := load(t, `
		q(1).
		q(2) :- t.
		t.
	`)
	it, err := NewIter(context.Background(), db, uniform(), q(t, "q(X)"),
		Options{Strategy: BFS, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	sol, ok, err := nextSolution(it)
	if err != nil || !ok {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	if got := sol.Format(it.QueryVars()); got != "X = 1" {
		t.Fatalf("first solution = %q, want X = 1", got)
	}
	// The q(2) derivation reaches its solution at a worse bound than the
	// one already served; it must be cut, ending the stream.
	if _, ok, err := nextSolution(it); ok || err != nil {
		t.Fatalf("stale-bound solution leaked: ok=%v err=%v", ok, err)
	}
	if got := it.Stats().Pruned; got == 0 {
		t.Errorf("Pruned = %d, want at least one cut", got)
	}
	if !it.Exhausted() {
		t.Error("stream should report Exhausted after the cut")
	}
}
