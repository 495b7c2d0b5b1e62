package blog

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"

	"blog/internal/parse"
	"blog/internal/search"
)

func solutionSet(res *Result) []string {
	out := make([]string, len(res.Solutions))
	for i, s := range res.Solutions {
		out[i] = fmt.Sprintf("%s |%.9g", s, s.Bound)
	}
	sort.Strings(out)
	return out
}

// oracleSet answers query on p's global weight store on the tree-walking
// oracle (search.Options.NoVM; the facade has no switch for it) and
// returns its solutionSet. The oracle runs sequentially: Parallel's is DFS.
func oracleSet(t *testing.T, p *Program, query string, strat Strategy) []string {
	t.Helper()
	goals, err := parse.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	opt := search.Options{Strategy: search.DFS, NoVM: true}
	switch strat {
	case BFS:
		opt.Strategy = search.BFS
	case BestFirst:
		opt.Strategy = search.BestFirst
	}
	res, err := search.Run(context.Background(), p.db, p.globalStore(), goals, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.VMDispatched != 0 {
		t.Errorf("%v: oracle run dispatched %d goals to the VM", strat, res.Stats.VMDispatched)
	}
	out := make([]string, len(res.Solutions))
	for i, s := range res.Solutions {
		out[i] = fmt.Sprintf("%s |%.9g", s.Format(res.QueryVars), s.Bound)
	}
	sort.Strings(out)
	return out
}

// TestCompiledMatchesOracle: the compiled path and the tree-walking oracle
// return the same answers, and the dispatch counter proves which engine
// ran.
func TestCompiledMatchesOracle(t *testing.T) {
	p := loadFig1(t)
	for _, s := range []Strategy{DFS, BFS, BestFirst, Parallel} {
		compiled, err := p.Query("gf(sam,G)", s)
		if err != nil {
			t.Fatal(err)
		}
		if compiled.VMDispatched == 0 {
			t.Errorf("%v: compiled run never dispatched to the VM", s)
		}
		a, b := solutionSet(compiled), oracleSet(t, p, "gf(sam,G)", s)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%v: compiled %v != oracle %v", s, a, b)
		}
	}
}

// TestCompiledSeesAssertedClause: asserting a clause after load bumps the
// database generation, so the next compiled query recompiles its dispatch
// tables and finds solutions through the new clause.
func TestCompiledSeesAssertedClause(t *testing.T) {
	p := loadFig1(t)
	before, err := p.Query("gf(dan,G)", DFS)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Solutions) != 1 || before.Solutions[0].String() != "G = john" {
		t.Fatalf("baseline solutions = %v", solutionSet(before))
	}

	// dan gains a second child; gf(dan,G) must now also reach the new
	// grandchild through the recompiled f/2 dispatch bucket for dan.
	head, err := parse.Query("f(dan, sue)")
	if err != nil {
		t.Fatal(err)
	}
	p.db.Assert(head[0], nil)
	grand, err := parse.Query("f(sue, tim)")
	if err != nil {
		t.Fatal(err)
	}
	p.db.Assert(grand[0], nil)

	after, err := p.Query("gf(dan,G)", DFS)
	if err != nil {
		t.Fatal(err)
	}
	if after.VMDispatched == 0 {
		t.Error("post-assert query must still run compiled")
	}
	got := solutionSet(after)
	if len(after.Solutions) != 2 {
		t.Fatalf("post-assert solutions = %v, want john and tim", got)
	}
	if oracle := oracleSet(t, p, "gf(dan,G)", DFS); fmt.Sprint(got) != fmt.Sprint(oracle) {
		t.Errorf("compiled %v != oracle %v after assert", got, oracle)
	}
}

// TestCompiledAfterLoadWeights: replacing the weight table must not leave
// stale state on the compiled path — bounds reflect the loaded weights
// while resolution still dispatches to the VM.
func TestCompiledAfterLoadWeights(t *testing.T) {
	trained := loadFig1(t)
	if _, err := trained.Query("gf(sam,G)", BestFirst, Learn()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trained.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}

	p := loadFig1(t)
	baseline, err := p.Query("gf(sam,G)", BestFirst)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := p.Query("gf(sam,G)", BestFirst)
	if err != nil {
		t.Fatal(err)
	}
	if res.VMDispatched == 0 {
		t.Error("post-LoadWeights query must still run compiled")
	}
	if len(res.Solutions) != 2 {
		t.Fatalf("solutions = %v", solutionSet(res))
	}
	if fmt.Sprint(solutionSet(res)) == fmt.Sprint(solutionSet(baseline)) {
		t.Error("loaded weights should change solution bounds")
	}
	if oracle := oracleSet(t, p, "gf(sam,G)", BestFirst); fmt.Sprint(solutionSet(res)) != fmt.Sprint(oracle) {
		t.Errorf("compiled %v != oracle %v under loaded weights", solutionSet(res), oracle)
	}
}

// TestCompiledAfterSessionMerge: ending a learning session merges its
// weights into the global table; subsequent queries run compiled and
// agree with the oracle under the merged weights.
func TestCompiledAfterSessionMerge(t *testing.T) {
	p := loadFig1(t)
	s := p.NewSession(0.5)
	if _, err := p.Query("gf(sam,G)", BestFirst, Learn(), InSession(s)); err != nil {
		t.Fatal(err)
	}
	s.End()
	res, err := p.Query("gf(sam,G)", BestFirst)
	if err != nil {
		t.Fatal(err)
	}
	if res.VMDispatched == 0 {
		t.Error("post-merge query must still run compiled")
	}
	if oracle := oracleSet(t, p, "gf(sam,G)", BestFirst); fmt.Sprint(solutionSet(res)) != fmt.Sprint(oracle) {
		t.Errorf("compiled %v != oracle %v after session merge", solutionSet(res), oracle)
	}
}
