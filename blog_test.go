package blog

import (
	"strings"
	"testing"

	"blog/internal/weights"
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

?- gf(sam,G).
`

func loadFig1(t testing.TB) *Program {
	t.Helper()
	p, err := LoadString(fig1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadAndStats(t *testing.T) {
	p := loadFig1(t)
	clauses, facts, rules, preds, arcs := p.Stats()
	if clauses != 12 || facts != 10 || rules != 2 || preds != 3 {
		t.Errorf("stats = %d %d %d %d", clauses, facts, rules, preds)
	}
	if arcs == 0 {
		t.Error("arcs missing")
	}
	dq := p.DirectiveQueries()
	if len(dq) != 1 || dq[0] != "gf(sam,G)" {
		t.Errorf("directives = %v", dq)
	}
}

func TestLoadError(t *testing.T) {
	if _, err := LoadString("p(a"); err == nil {
		t.Error("bad source must fail")
	}
}

func TestQueryAllStrategies(t *testing.T) {
	p := loadFig1(t)
	for _, s := range []Strategy{DFS, BFS, BestFirst, Parallel} {
		res, err := p.Query("gf(sam,G)", s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(res.Solutions) != 2 {
			t.Errorf("%v: %d solutions", s, len(res.Solutions))
		}
		if !res.Exhausted {
			t.Errorf("%v: not exhausted", s)
		}
	}
}

func TestSolutionString(t *testing.T) {
	p := loadFig1(t)
	res, err := p.Query("gf(sam,G)", DFS, MaxSolutions(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Solutions[0].String(); got != "G = den" {
		t.Errorf("solution = %q", got)
	}
	gres, err := p.Query("gf(sam,den)", DFS)
	if err != nil {
		t.Fatal(err)
	}
	if got := gres.Solutions[0].String(); got != "true" {
		t.Errorf("ground solution = %q", got)
	}
}

func TestQueryParseError(t *testing.T) {
	p := loadFig1(t)
	if _, err := p.Query("gf(sam", DFS); err == nil {
		t.Error("bad query must fail")
	}
}

func TestLearningAndReset(t *testing.T) {
	p := loadFig1(t)
	if _, err := p.Query("gf(sam,G)", BestFirst, Learn()); err != nil {
		t.Fatal(err)
	}
	if p.LearnedArcs() == 0 {
		t.Error("learning should record arcs")
	}
	p.ResetWeights()
	if p.LearnedArcs() != 0 {
		t.Error("reset should clear")
	}
}

func TestSessionFlow(t *testing.T) {
	p := loadFig1(t)
	s := p.NewSession(0.5)
	if _, err := p.Query("gf(sam,G)", BestFirst, Learn(), InSession(s)); err != nil {
		t.Fatal(err)
	}
	if s.LocalLearned() == 0 {
		t.Error("session should learn locally")
	}
	if p.LearnedArcs() != 0 {
		t.Error("global table must stay clean during session")
	}
	adopted, _, kept, _ := s.End()
	if adopted+kept == 0 {
		t.Error("End should publish something")
	}
	if p.LearnedArcs() == 0 {
		t.Error("global table should hold merged weights")
	}
}

func TestSessionWrongProgram(t *testing.T) {
	p1 := loadFig1(t)
	p2 := loadFig1(t)
	s := p1.NewSession(0)
	if _, err := p2.Query("gf(sam,G)", DFS, InSession(s)); err == nil {
		t.Error("cross-program session must be rejected")
	}
}

func TestRecordTreeAndTrace(t *testing.T) {
	p := loadFig1(t)
	res, err := p.Query("gf(sam,G)", DFS, RecordTree(), RecordTrace())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Tree, "SOLUTION") || !strings.Contains(res.Tree, "FAIL") {
		t.Errorf("tree:\n%s", res.Tree)
	}
	if len(res.Trace) == 0 {
		t.Error("trace empty")
	}
}

func TestParallelOptions(t *testing.T) {
	p := loadFig1(t)
	res, err := p.Query("gf(sam,G)", Parallel, Workers(8), MigrationThreshold(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 2 {
		t.Errorf("solutions = %d", len(res.Solutions))
	}
	// Stable presentation order.
	if res.Solutions[0].String() > res.Solutions[1].String() {
		t.Error("parallel solutions must be sorted")
	}
}

func TestRenderings(t *testing.T) {
	p := loadFig1(t)
	if !strings.Contains(p.GraphText(), "(curt) --f--> (elain)") {
		t.Error("graph text missing fact arc")
	}
	if !strings.Contains(p.LinkedListText(), "block 0") {
		t.Error("linked list text missing blocks")
	}
}

func TestMaxDepthOption(t *testing.T) {
	p, err := LoadString("loop :- loop.")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Query("loop", DFS, MaxDepth(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 {
		t.Error("cyclic program should not solve")
	}
}

func TestConfigOverride(t *testing.T) {
	p, err := LoadString(fig1, Config{N: 32, A: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Query("gf(sam,G)", BestFirst, Learn()); err != nil {
		t.Fatal(err)
	}
	if p.LearnedArcs() == 0 {
		t.Error("custom config should still learn")
	}
}

func TestSaveLoadWeights(t *testing.T) {
	p := loadFig1(t)
	if _, err := p.Query("gf(sam,G)", BestFirst, Learn()); err != nil {
		t.Fatal(err)
	}
	learned := p.LearnedArcs()
	if learned == 0 {
		t.Fatal("nothing learned")
	}
	var buf strings.Builder
	if err := p.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	// A fresh program instance picks up where the old one left off.
	p2 := loadFig1(t)
	if err := p2.LoadWeights(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if p2.LearnedArcs() != learned {
		t.Errorf("restored %d arcs, want %d", p2.LearnedArcs(), learned)
	}
	res, err := p2.Query("gf(sam,G)", BestFirst, MaxSolutions(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Error("restored weights should avoid the failing branch")
	}
	if err := p2.LoadWeights(strings.NewReader("garbage")); err == nil {
		t.Error("bad input must fail")
	}
}

func TestNegationThroughFacade(t *testing.T) {
	p, err := LoadString("p(a).\nitem(a). item(b). item(c).")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Query("item(X), \\+(p(X))", DFS)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 2 {
		t.Errorf("NAF filter found %d solutions, want 2", len(res.Solutions))
	}
}

func TestStrategyStrings(t *testing.T) {
	if DFS.String() != "dfs" || Parallel.String() != "parallel" {
		t.Error("strategy names")
	}
	if Strategy(9).String() != "Strategy(9)" {
		t.Error("unknown strategy")
	}
}

func TestUnknownStrategyRejected(t *testing.T) {
	p := loadFig1(t)
	if _, err := p.Query("gf(sam,G)", Strategy(42)); err == nil {
		t.Error("unknown strategy must error")
	}
}

func TestPreludeConfig(t *testing.T) {
	p, err := LoadString("roster(R) :- permutation([a,b,c], R).", Config{Prelude: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Query("roster(R)", BestFirst, MaxDepth(64))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 6 {
		t.Errorf("rosters = %d, want 6", len(res.Solutions))
	}
	if PreludeSource == "" {
		t.Error("prelude source must be exposed")
	}
}

func TestIterFacade(t *testing.T) {
	p := loadFig1(t)
	it, err := p.Iter("gf(sam, G)", BestFirst, Learn())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		s, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, s.String())
	}
	if len(got) != 2 {
		t.Errorf("streamed %v", got)
	}
	if it.Expanded() == 0 {
		t.Error("no work recorded")
	}
	if p.LearnedArcs() == 0 {
		t.Error("streaming with Learn should update the table")
	}
	if _, err := p.Iter("gf(sam,G)", Parallel); err == nil {
		t.Error("parallel streaming unsupported")
	}
	if _, err := p.Iter("gf(sam", DFS); err == nil {
		t.Error("bad query must fail")
	}
}

func TestAndParallelOption(t *testing.T) {
	p, err := LoadString("p(1). p(2). p(3).\nq(a). q(b).")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Query("p(X), q(Y)", DFS, AndParallel())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 6 {
		t.Errorf("cross product = %d, want 6", len(res.Solutions))
	}
	seen := map[string]bool{}
	for _, s := range res.Solutions {
		seen[s.String()] = true
		if s.Bindings["X"] == "" || s.Bindings["Y"] == "" {
			t.Errorf("incomplete solution %v", s.Bindings)
		}
	}
	if len(seen) != 6 {
		t.Errorf("distinct = %d", len(seen))
	}
	// Capped.
	capped, err := p.Query("p(X), q(Y)", DFS, AndParallel(), MaxSolutions(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Solutions) != 2 {
		t.Errorf("capped = %d", len(capped.Solutions))
	}
}

const leftRecSrc = `
:- table path/2.
path(X, Z) :- path(X, Y), edge(Y, Z).
path(X, Y) :- edge(X, Y).
edge(a, b). edge(b, c). edge(c, a). edge(c, d).
`

func TestTabledQueryAllStrategies(t *testing.T) {
	p, err := LoadString(leftRecSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.TabledPreds(); len(got) != 1 || got[0] != "path/2" {
		t.Fatalf("TabledPreds = %v, want [path/2]", got)
	}
	want := map[string]bool{"a": true, "b": true, "c": true, "d": true}
	for _, strat := range []Strategy{DFS, BFS, BestFirst, Parallel} {
		res, err := p.Query("path(a, R)", strat, Tabled())
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if !res.Exhausted {
			t.Fatalf("%v: not exhausted", strat)
		}
		if len(res.Solutions) != len(want) {
			t.Fatalf("%v: %d solutions, want %d", strat, len(res.Solutions), len(want))
		}
		for _, s := range res.Solutions {
			if !want[s.Bindings["R"]] {
				t.Fatalf("%v: unexpected answer %q", strat, s.Bindings["R"])
			}
		}
	}
	// Table counters surfaced on Result: later queries hit the table.
	res, err := p.Query("path(a, R)", DFS, Tabled())
	if err != nil {
		t.Fatal(err)
	}
	if res.TableHits == 0 || res.RederivationsAvoided != 4 {
		t.Fatalf("hits=%d avoided=%d, want a table hit replaying 4 answers", res.TableHits, res.RederivationsAvoided)
	}
	tables, tot := p.TableStats()
	if tables == 0 || tot.Created == 0 || tot.Answers == 0 || tot.Hits == 0 {
		t.Fatalf("TableStats = (%d,%+v), want all non-zero", tables, tot)
	}
}

func TestUntabledLeftRecursionIsIncomplete(t *testing.T) {
	p, err := LoadString(leftRecSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Without Tabled() the left recursion only stops at the depth cutoff:
	// the proof enumeration never exhausts and duplicates abound.
	res, err := p.Query("path(a, R)", DFS, MaxDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted && len(res.Solutions) == 4 {
		t.Fatal("untabled left recursion unexpectedly behaved like the tabled run")
	}
}

// TestTabledInvalidation pins the incremental-maintenance contract:
// weight maintenance — reset, session merges (learning or not), loading
// an identical weight file — leaves memoized tables standing (fixpoints
// derive on a uniform store, so learned weights cannot stale an answer
// set), while an assert on a dependency dirty-marks downstream tables
// and the next query re-derives with the new answers; a weight load that
// actually changes the depth coding A still rebuilds the space.
func TestTabledInvalidation(t *testing.T) {
	p, err := LoadString(leftRecSrc)
	if err != nil {
		t.Fatal(err)
	}
	mustTables := func(want int) {
		t.Helper()
		if got := len(p.Tables()); got != want {
			t.Fatalf("live tables = %d, want %d", got, want)
		}
	}
	if _, err := p.Query("path(a, R)", DFS, Tabled()); err != nil {
		t.Fatal(err)
	}
	mustTables(1)
	p.ResetWeights()
	mustTables(1) // weight reset no longer wipes the hot cache

	// A session that learned nothing merges as a no-op.
	noop := p.NewSession(0)
	if _, err := p.Query("path(a, R)", DFS, Tabled(), InSession(noop)); err != nil {
		t.Fatal(err)
	}
	noop.End()
	mustTables(1)
	// A merge that changed the weight database leaves them standing too:
	// learned weights steer untabled search, not table membership.
	sess := p.NewSession(0)
	if _, err := p.Query("path(b, R)", BestFirst, Learn(), InSession(sess), MaxDepth(6)); err != nil {
		t.Fatal(err)
	}
	if sess.LocalLearned() == 0 {
		t.Fatal("learning query recorded no arcs; survival test is vacuous")
	}
	sess.End()
	mustTables(1)

	// Reloading an identical weight file (same N and A) is the routine
	// deploy cycle and must not wipe.
	var buf strings.Builder
	if err := p.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadWeights(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	mustTables(1)

	// An assert on edge/2 — a recorded dependency of the path/2 table —
	// dirty-marks it; the re-query re-derives and sees the new edge.
	res, err := p.Query("path(a, R)", DFS, Tabled())
	if err != nil {
		t.Fatal(err)
	}
	before := len(res.Solutions)
	if err := p.Assert("edge(d, e)."); err != nil {
		t.Fatal(err)
	}
	if got := p.Tables()[0]; !got.Dirty {
		t.Fatalf("table after assert = %+v, want dirty", got)
	}
	res, err = p.Query("path(a, R)", DFS, Tabled())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != before+1 {
		t.Fatalf("post-assert solutions = %d, want %d (the new edge's target)", len(res.Solutions), before+1)
	}
	if got := p.Tables()[0]; got.Dirty || got.Revalidations != 1 {
		t.Fatalf("re-derived table = %+v, want clean with one revalidation", got)
	}

	// A weight file with a different depth coding A genuinely changes the
	// generator limits: the space rebuilds.
	other := weights.NewTable(weights.Config{N: 16, A: 32})
	var obuf strings.Builder
	if _, err := other.WriteTo(&obuf); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadWeights(strings.NewReader(obuf.String())); err != nil {
		t.Fatal(err)
	}
	mustTables(0)
}

func TestTabledStreaming(t *testing.T) {
	p, err := LoadString(leftRecSrc)
	if err != nil {
		t.Fatal(err)
	}
	it, err := p.Iter("path(a, R)", DFS, Tabled())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 4 || !it.Exhausted() {
		t.Fatalf("streamed %d answers (exhausted=%v), want 4 exhausted", n, it.Exhausted())
	}
}

// weightedCycleSrc is a small weighted cyclic graph under the min(3)
// subsumption directive: the direct a->b edge (cost 4) is dominated by
// the a->c->b chain (cost 2), so production both subsumes and improves.
const weightedCycleSrc = `
:- table shortest/3 min(3).
shortest(X,Z,C) :- shortest(X,Y,A), edge(Y,Z,B), C is A + B.
shortest(X,Y,C) :- edge(X,Y,C).
edge(a,b,4).
edge(a,c,1).
edge(c,b,1).
edge(b,a,1).
`

// TestSubsumedTabledQueryAllStrategies is the facade end of the
// acceptance criterion: left-recursive weighted shortest/3 over a cyclic
// graph returns the minimal cost per reachable pair under all four
// strategies, with the subsumption counters surfaced on Result.
func TestSubsumedTabledQueryAllStrategies(t *testing.T) {
	want := map[string]string{"a": "3", "b": "2", "c": "1"}
	for _, strat := range []Strategy{DFS, BFS, BestFirst, Parallel} {
		p, err := LoadString(weightedCycleSrc)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.TabledPreds(); len(got) != 1 || got[0] != "shortest/3 min(3)" {
			t.Fatalf("TabledPreds = %v, want the annotated min directive", got)
		}
		res, err := p.Query("shortest(a, Y, C)", strat, Tabled())
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if !res.Exhausted {
			t.Fatalf("%v: not exhausted", strat)
		}
		if len(res.Solutions) != len(want) {
			t.Fatalf("%v: %d solutions, want one minimum per reachable node", strat, len(res.Solutions))
		}
		for _, s := range res.Solutions {
			if want[s.Bindings["Y"]] != s.Bindings["C"] {
				t.Fatalf("%v: %s, want cost %s for %s", strat, s, want[s.Bindings["Y"]], s.Bindings["Y"])
			}
		}
		if res.AnswersSubsumed == 0 || res.AnswersImproved == 0 {
			t.Fatalf("%v: subsumed=%d improved=%d, want both > 0 on the producing run",
				strat, res.AnswersSubsumed, res.AnswersImproved)
		}
		// The table listing carries the min slot, and the space totals the
		// lattice counters.
		if infos := p.Tables(); len(infos) == 0 || infos[0].Min != 3 {
			t.Fatalf("%v: Tables() = %+v, want a min(3) table", strat, infos)
		}
		if _, tot := p.TableStats(); tot.Subsumed == 0 || tot.Improved == 0 {
			t.Fatalf("%v: totals = %+v, want subsumption counted", strat, tot)
		}
	}
}

// TestSubsumedTabledStreaming: the streaming path serves the same minima
// and reports the subsumption counters on IterStats — what blogd's stream
// terminal line carries.
func TestSubsumedTabledStreaming(t *testing.T) {
	p, err := LoadString(weightedCycleSrc)
	if err != nil {
		t.Fatal(err)
	}
	it, err := p.Iter("shortest(a, Y, C)", DFS, Tabled())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 3 || !it.Exhausted() {
		t.Fatalf("streamed %d answers (exhausted=%v), want 3 exhausted", n, it.Exhausted())
	}
	st := it.Stats()
	if st.AnswersSubsumed == 0 || st.AnswersImproved == 0 {
		t.Fatalf("stream stats = %+v, want subsumption counters on the terminal stats", st)
	}
}
