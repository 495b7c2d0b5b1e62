package table

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/search"
	"blog/internal/term"
	"blog/internal/weights"
)

func load(t *testing.T, src string) *kb.DB {
	t.Helper()
	db, _, err := kb.LoadString(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return db
}

func q(t *testing.T, query string) []term.Term {
	t.Helper()
	goals, err := parse.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	return goals
}

// runTabled runs one query with tabling over a fresh uniform store.
func runTabled(t *testing.T, db *kb.DB, sp *Space, query string, strat search.Strategy) *search.Result {
	t.Helper()
	res, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), q(t, query), search.Options{
		Strategy: strat, Tabler: sp.NewHandle(),
	})
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return res
}

func answers(t *testing.T, res *search.Result) []string {
	t.Helper()
	out := make([]string, 0, len(res.Solutions))
	for _, s := range res.Solutions {
		out = append(out, s.Format(res.QueryVars))
	}
	sort.Strings(out)
	return out
}

const leftRecPath = `
:- table path/2.
path(X, Z) :- path(X, Y), edge(Y, Z).
path(X, Y) :- edge(X, Y).
edge(a, b).
edge(b, c).
edge(c, a).
edge(c, d).
`

// TestLeftRecursionTerminatesComplete is the core tentpole property: a
// left-recursive transitive closure over a cyclic graph — which the plain
// OR-tree search cannot finish — terminates with the complete,
// duplicate-free answer set.
func TestLeftRecursionTerminatesComplete(t *testing.T) {
	db := load(t, leftRecPath)
	sp := NewSpace(db, Config{})
	res := runTabled(t, db, sp, "path(a, R)", search.DFS)
	if !res.Exhausted {
		t.Fatal("tabled search not exhausted")
	}
	got := answers(t, res)
	want := []string{"R = a", "R = b", "R = c", "R = d"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("answers = %v, want %v", got, want)
	}
	// Every strategy sees the same completed table.
	for _, strat := range []search.Strategy{search.BFS, search.BestFirst} {
		if got := answers(t, runTabled(t, db, sp, "path(a, R)", strat)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v answers = %v, want %v", strat, got, want)
		}
	}
}

// TestVariantReuseAndCounters checks that a repeated call is served from
// the memoized table and the counters say so.
func TestVariantReuseAndCounters(t *testing.T) {
	db := load(t, leftRecPath)
	sp := NewSpace(db, Config{})

	h1 := sp.NewHandle()
	res, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), q(t, "path(a, R)"), search.Options{Strategy: search.DFS, Tabler: h1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 4 {
		t.Fatalf("first run: %d solutions", len(res.Solutions))
	}
	s1 := h1.Stats()
	if s1.TablesCreated != 1 || s1.TableAnswers != 4 || s1.TableHits != 0 {
		t.Fatalf("first run stats = %+v, want 1 table, 4 answers, 0 hits", s1)
	}

	h2 := sp.NewHandle()
	if _, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), q(t, "path(a, R)"), search.Options{Strategy: search.DFS, Tabler: h2}); err != nil {
		t.Fatal(err)
	}
	s2 := h2.Stats()
	if s2.TablesCreated != 0 || s2.TableHits != 1 || s2.RederivationsAvoided != 4 {
		t.Fatalf("second run stats = %+v, want 0 created, 1 hit, 4 rederivations avoided", s2)
	}

	// A different variant builds its own table.
	h3 := sp.NewHandle()
	if _, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), q(t, "path(b, R)"), search.Options{Strategy: search.DFS, Tabler: h3}); err != nil {
		t.Fatal(err)
	}
	if s3 := h3.Stats(); s3.TablesCreated != 1 {
		t.Fatalf("variant run stats = %+v, want 1 created", s3)
	}
	if n := sp.Len(); n != 2 {
		t.Fatalf("space has %d tables, want 2", n)
	}
}

// TestMutualRecursionFixpoint exercises completion detection across a
// dependency group: even/odd over successor-free natural numbers encoded
// as a cyclic graph of next/2 facts.
func TestMutualRecursionFixpoint(t *testing.T) {
	db := load(t, `
:- table even/1, odd/1.
even(z).
even(X) :- odd(Y), next(Y, X).
odd(X) :- even(Y), next(Y, X).
next(z, one).
next(one, two).
next(two, three).
next(three, z).
`)
	sp := NewSpace(db, Config{})
	gotEven := answers(t, runTabled(t, db, sp, "even(E)", search.DFS))
	wantEven := []string{"E = two", "E = z"}
	if fmt.Sprint(gotEven) != fmt.Sprint(wantEven) {
		t.Fatalf("even = %v, want %v", gotEven, wantEven)
	}
	gotOdd := answers(t, runTabled(t, db, sp, "odd(O)", search.DFS))
	wantOdd := []string{"O = one", "O = three"}
	if fmt.Sprint(gotOdd) != fmt.Sprint(wantOdd) {
		t.Fatalf("odd = %v, want %v", gotOdd, wantOdd)
	}
	// Both tables in the group completed; the odd query was a hit on the
	// group completed by the even query.
	for _, info := range sp.Tables() {
		if !info.Complete {
			t.Fatalf("table %s %s incomplete after group fixpoint", info.Pred, info.Call)
		}
	}
}

// TestInvalidateRebuilds checks Invalidate drops tables and the next
// query recomputes them.
func TestInvalidateRebuilds(t *testing.T) {
	db := load(t, leftRecPath)
	sp := NewSpace(db, Config{})
	runTabled(t, db, sp, "path(a, R)", search.DFS)
	if sp.Len() != 1 {
		t.Fatalf("tables = %d, want 1", sp.Len())
	}
	sp.Invalidate("test")
	if sp.Len() != 0 {
		t.Fatalf("tables after invalidate = %d, want 0", sp.Len())
	}
	h := sp.NewHandle()
	if _, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), q(t, "path(a, R)"), search.Options{Strategy: search.DFS, Tabler: h}); err != nil {
		t.Fatal(err)
	}
	if s := h.Stats(); s.TablesCreated != 1 || s.TableAnswers != 4 {
		t.Fatalf("post-invalidate stats = %+v, want recomputation", s)
	}
	tot := sp.Totals()
	if tot.Created != 2 || tot.Answers != 8 {
		t.Fatalf("cumulative totals = (%d created, %d answers), want (2, 8): totals are monotonic", tot.Created, tot.Answers)
	}
}

// TestBudgetStopsInfiniteAnswerSets: a tabled predicate with infinitely
// many answers must fail with the budget error, not hang.
func TestBudgetStopsInfiniteAnswerSets(t *testing.T) {
	db := load(t, `
:- table nat/1.
nat(z).
nat(s(X)) :- nat(X).
`)
	sp := NewSpace(db, Config{Budget: 5_000})
	_, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), q(t, "nat(N)"), search.Options{Strategy: search.DFS, Tabler: sp.NewHandle()})
	if want := (engine.LimitError{Limit: engine.TableAnswers, Bound: 5_000}); !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

// TestCancellationDuringProduction: a cancelled context aborts production
// and a later query on a fresh context completes the table.
func TestCancellationDuringProduction(t *testing.T) {
	db := load(t, leftRecPath)
	sp := NewSpace(db, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := search.Run(ctx, db, weights.NewUniform(weights.DefaultConfig()), q(t, "path(a, R)"), search.Options{Strategy: search.DFS, Tabler: sp.NewHandle()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	res := runTabled(t, db, sp, "path(a, R)", search.DFS)
	if len(res.Solutions) != 4 || !res.Exhausted {
		t.Fatalf("retry after cancel: %d solutions, exhausted=%v", len(res.Solutions), res.Exhausted)
	}
}

// TestConcurrentConsumption hammers one space from many goroutines (run
// under -race): concurrent producers serialize, consumers see only
// complete tables, and every run gets the full answer set.
func TestConcurrentConsumption(t *testing.T) {
	db := load(t, leftRecPath)
	sp := NewSpace(db, Config{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		for _, query := range []string{"path(a, R)", "path(b, R)", "path(c, R)"} {
			wg.Add(1)
			go func(query string) {
				defer wg.Done()
				res, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), mustQ(query), search.Options{Strategy: search.DFS, Tabler: sp.NewHandle()})
				if err != nil {
					errs <- err
					return
				}
				if len(res.Solutions) != 4 {
					errs <- fmt.Errorf("%s: %d solutions, want 4", query, len(res.Solutions))
				}
			}(query)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func mustQ(query string) []term.Term {
	goals, err := parse.Query(query)
	if err != nil {
		panic(err)
	}
	return goals
}

// TestCanonicalizeVariants checks the variant key: sharing preserved,
// renamed goals are variants, distinct shapes are not.
func TestCanonicalizeVariants(t *testing.T) {
	k := func(s string) string {
		goals := mustQ(s)
		key, _ := Canonicalize(nil, goals[0])
		return key
	}
	if k("p(X, Y)") != k("p(A, B)") {
		t.Fatal("renamed-apart goals must be variants")
	}
	if k("p(X, X)") == k("p(X, Y)") {
		t.Fatal("shared-variable goal must not be a variant of the open goal")
	}
	if k("p(a, X)") == k("p(X, a)") {
		t.Fatal("different constant positions must differ")
	}
	if k("p(f(X), X)") != k("p(f(B), B)") {
		t.Fatal("compound sharing must canonicalize consistently")
	}
}

// TestTabledWithBuiltinsAndNegation: generators run the full engine, so
// bodies may use builtins and negation-as-failure.
func TestTabledWithBuiltinsAndNegation(t *testing.T) {
	db := load(t, `
:- table reach/2.
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
blocked(c).
safe_reach(X, Y) :- reach(X, Y), \+(blocked(Y)).
edge(a, b).
edge(b, c).
edge(c, a).
`)
	sp := NewSpace(db, Config{})
	got := answers(t, runTabled(t, db, sp, "safe_reach(a, R)", search.DFS))
	want := []string{"R = a", "R = b"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("safe_reach = %v, want %v", got, want)
	}
}

// TestDepthTruncationIsFlagged: a tabled predicate whose generator
// derivations hit the depth bound memoizes the depth-capped set but
// flags the table Truncated, so the cap is visible instead of silent.
func TestDepthTruncationIsFlagged(t *testing.T) {
	var b strings.Builder
	b.WriteString(":- table top/1.\ntop(X) :- chain0(X).\n")
	const deep = 12
	for i := 0; i < deep; i++ {
		fmt.Fprintf(&b, "chain%d(X) :- chain%d(X).\n", i, i+1)
	}
	fmt.Fprintf(&b, "chain%d(done).\n", deep)
	db := load(t, b.String())

	sp := NewSpace(db, Config{MaxDepth: 6})
	res := runTabled(t, db, sp, "top(R)", search.DFS)
	if len(res.Solutions) != 0 {
		t.Fatalf("depth-capped generator found %d answers, want 0", len(res.Solutions))
	}
	infos := sp.Tables()
	if len(infos) != 1 || !infos[0].Complete || !infos[0].Truncated {
		t.Fatalf("infos = %+v, want one complete, truncated table", infos)
	}

	// The truncation is visible on the handle's counters too.
	h := sp.NewHandle()
	if _, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), q(t, "top(R)"), search.Options{Strategy: search.DFS, Tabler: h}); err != nil {
		t.Fatal(err)
	}
	if h.Stats().TablesTruncated == 0 {
		t.Fatal("truncated consumption not counted on the handle")
	}

	// A deeper query re-produces the truncated table at its own bound
	// and finds the answer — MaxDepth means the same thing tabled or not.
	h2 := sp.NewHandle()
	h2.SetMaxDepth(500)
	res2, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), q(t, "top(R)"), search.Options{Strategy: search.DFS, MaxDepth: 500, Tabler: h2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Solutions) != 1 {
		t.Fatalf("deep query found %d answers, want 1", len(res2.Solutions))
	}
	if s2 := h2.Stats(); s2.TablesCreated != 1 || s2.TablesTruncated != 0 {
		t.Fatalf("deep query stats = %+v, want a fresh untruncated production", s2)
	}

	// A space with enough depth derives the answer and is not truncated.
	sp2 := NewSpace(db, Config{MaxDepth: 64})
	res3 := runTabled(t, db, sp2, "top(R)", search.DFS)
	if len(res3.Solutions) != 1 {
		t.Fatalf("deep run found %d answers, want 1", len(res3.Solutions))
	}
	if infos := sp2.Tables(); infos[0].Truncated {
		t.Fatalf("deep run flagged truncated: %+v", infos)
	}
}

// TestReconfigureRaisesDepth: Reconfigure drops tables and applies the
// new depth bound, so a previously truncated table rebuilds complete —
// the LoadWeights path.
func TestReconfigureRaisesDepth(t *testing.T) {
	var b strings.Builder
	b.WriteString(":- table top/1.\ntop(X) :- chain0(X).\n")
	const deep = 12
	for i := 0; i < deep; i++ {
		fmt.Fprintf(&b, "chain%d(X) :- chain%d(X).\n", i, i+1)
	}
	fmt.Fprintf(&b, "chain%d(done).\n", deep)
	db := load(t, b.String())

	sp := NewSpace(db, Config{MaxDepth: 6})
	if res := runTabled(t, db, sp, "top(R)", search.DFS); len(res.Solutions) != 0 {
		t.Fatalf("capped run found %d answers, want 0", len(res.Solutions))
	}
	sp.Reconfigure(Config{MaxDepth: 64})
	if sp.Len() != 0 {
		t.Fatalf("tables survived Reconfigure: %d", sp.Len())
	}
	if res := runTabled(t, db, sp, "top(R)", search.DFS); len(res.Solutions) != 1 {
		t.Fatalf("reconfigured run found %d answers, want 1", len(res.Solutions))
	}
}

const weightedCycle = `
:- table shortest/3 min(3).
shortest(X,Z,C) :- shortest(X,Y,A), edge(Y,Z,B), C is A + B.
shortest(X,Y,C) :- edge(X,Y,C).
edge(a,b,4).
edge(a,c,1).
edge(c,b,1).
edge(b,a,1).
`

// TestMinSubsumptionKeepsMinima is the tentpole property in miniature: a
// left-recursive weighted reachability over a cyclic graph — which plain
// tabling floods with unboundedly many dominated cost tuples — terminates
// with exactly one answer per reachable pair, carrying the true minimum.
func TestMinSubsumptionKeepsMinima(t *testing.T) {
	db := load(t, weightedCycle)
	sp := NewSpace(db, Config{})
	h := sp.NewHandle()
	res, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), q(t, "shortest(a, Y, C)"), search.Options{Strategy: search.DFS, Tabler: h})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatal("weighted tabled search not exhausted")
	}
	got := answers(t, res)
	want := []string{"Y = a, C = 3", "Y = b, C = 2", "Y = c, C = 1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("minima = %v, want %v", got, want)
	}
	st := h.Stats()
	if st.AnswersSubsumed == 0 {
		t.Fatalf("stats = %+v, want AnswersSubsumed > 0 (the direct a->b edge is dominated)", st)
	}
	if st.AnswersImproved == 0 {
		t.Fatalf("stats = %+v, want AnswersImproved > 0 (a->b improves from 4 to 2)", st)
	}
	// The table listing shows the subsumption slot.
	infos := sp.Tables()
	if len(infos) != 1 || infos[0].Min != 3 || infos[0].Answers != 3 {
		t.Fatalf("infos = %+v, want one min(3) table with 3 answers", infos)
	}
}

// TestImprovementKeepsGroupOpen is the fixpoint regression test: a
// generator round that adds no new answer but *improves* an existing cost
// must keep the dependency group open, because the improved answer can
// lower costs derived through it in the next round. The graph is built so
// the last discovery round is long past before the cheap long chain
// catches up: a->x directly costs 100 and x->y costs 100 more, while a
// six-hop chain reaches x for 6. The round that improves x from 100 to 6
// adds nothing new — a count-based stability check would stop there and
// freeze y at 200 instead of re-deriving it at 106.
func TestImprovementKeepsGroupOpen(t *testing.T) {
	db := load(t, `
:- table shortest/3 min(3).
shortest(X,Z,C) :- shortest(X,Y,A), edge(Y,Z,B), C is A + B.
shortest(X,Y,C) :- edge(X,Y,C).
edge(a,x,100).
edge(x,y,100).
edge(a,c1,1).
edge(c1,c2,1).
edge(c2,c3,1).
edge(c3,c4,1).
edge(c4,c5,1).
edge(c5,x,1).
`)
	sp := NewSpace(db, Config{})
	h := sp.NewHandle()
	res, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), q(t, "shortest(a, Y, C)"), search.Options{Strategy: search.DFS, Tabler: h})
	if err != nil {
		t.Fatal(err)
	}
	got := answers(t, res)
	want := []string{
		"Y = c1, C = 1", "Y = c2, C = 2", "Y = c3, C = 3", "Y = c4, C = 4",
		"Y = c5, C = 5", "Y = x, C = 6", "Y = y, C = 106",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("answers = %v, want %v (y = 106 requires the improvement-only round to keep the group open)", got, want)
	}
	if st := h.Stats(); st.AnswersImproved < 2 {
		t.Fatalf("stats = %+v, want at least the x and y improvements counted", st)
	}
}

// TestMinCostMustBeInteger: a derivation into a min table whose cost
// argument is not an integer has no place in the cost lattice and must be
// rejected, not silently memoized.
func TestMinCostMustBeInteger(t *testing.T) {
	db := load(t, `
:- table w/2 min(2).
w(a, oops).
`)
	sp := NewSpace(db, Config{})
	_, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), q(t, "w(a, C)"), search.Options{Strategy: search.DFS, Tabler: sp.NewHandle()})
	if !errors.Is(err, ErrCost) {
		t.Fatalf("err = %v, want ErrCost", err)
	}
	for _, ti := range sp.Tables() {
		if ti.Complete {
			t.Fatalf("refused production left complete table %+v", ti)
		}
	}
}

// TestMinVariantsAreIndependent: a call with the cost argument bound and
// a differently-projected variant each get their own lattice.
func TestMinVariantsAreIndependent(t *testing.T) {
	db := load(t, weightedCycle)
	sp := NewSpace(db, Config{})
	// Fully projected: one pair, one minimal answer.
	res := runTabled(t, db, sp, "shortest(a, b, C)", search.DFS)
	if got := answers(t, res); fmt.Sprint(got) != "[C = 2]" {
		t.Fatalf("shortest(a,b,C) = %v, want the minimum 2", got)
	}
	// A later wider call builds its own variant table and still minimizes.
	res = runTabled(t, db, sp, "shortest(b, Y, C)", search.DFS)
	want := []string{"Y = a, C = 1", "Y = b, C = 3", "Y = c, C = 2"}
	if got := answers(t, res); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("shortest(b,Y,C) = %v, want %v", got, want)
	}
	// Three variants: shortest(a,b,_), the open shortest(a,_,_) its
	// generator recursed through, and shortest(b,_,_).
	if n := sp.Len(); n != 3 {
		t.Fatalf("space has %d tables, want 3 independent variants", n)
	}
}

// TestStratifiedNegationOverTabled: negation over a tabled predicate
// from a lower stratum works inside another tabled predicate's
// production — the inner table is produced to finality first.
func TestStratifiedNegationOverTabled(t *testing.T) {
	db := load(t, `
:- table reach/2, unreachable/2.
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
unreachable(X, Y) :- node(X), node(Y), \+(reach(X, Y)).
node(a). node(b). node(c). node(d).
edge(a, b). edge(b, c). edge(c, a).
`)
	sp := NewSpace(db, Config{})
	got := answers(t, runTabled(t, db, sp, "unreachable(a, Y)", search.DFS))
	want := []string{"Y = d"} // d is off the cycle
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("unreachable = %v, want %v", got, want)
	}
}

// TestNonStratifiedNegationRejected: a negative loop through the
// component being produced must be refused, not memoized unsoundly.
func TestNonStratifiedNegationRejected(t *testing.T) {
	db := load(t, `
:- table p/1, q/1.
p(a) :- \+(q(a)).
q(a) :- p(a).
`)
	sp := NewSpace(db, Config{})
	_, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), q(t, "p(a)"), search.Options{Strategy: search.DFS, Tabler: sp.NewHandle()})
	if !errors.Is(err, ErrNonStratified) {
		t.Fatalf("err = %v, want ErrNonStratified", err)
	}
	// The refused production must not leave a complete table behind.
	for _, ti := range sp.Tables() {
		if ti.Complete {
			t.Fatalf("refused production left complete table %+v", ti)
		}
	}
}

// TestTruncationPropagatesAcrossGroup: a table built on a depth-truncated
// dependency inherits the truncation, so a deeper query re-produces the
// whole group instead of being served the stale incomplete set.
func TestTruncationPropagatesAcrossGroup(t *testing.T) {
	var b strings.Builder
	b.WriteString(":- table p/1, q/1.\np(X) :- q(X).\nq(X) :- chain0(X).\nq(shallow).\n")
	const deep = 8
	for i := 0; i < deep; i++ {
		fmt.Fprintf(&b, "chain%d(X) :- chain%d(X).\n", i, i+1)
	}
	fmt.Fprintf(&b, "chain%d(deepone).\n", deep)
	db := load(t, b.String())

	sp := NewSpace(db, Config{MaxDepth: 4})
	res := runTabled(t, db, sp, "p(R)", search.DFS)
	if len(res.Solutions) != 1 {
		t.Fatalf("capped run found %d answers, want just shallow", len(res.Solutions))
	}
	for _, ti := range sp.Tables() {
		if !ti.Truncated {
			t.Fatalf("table %s %s not flagged truncated: the dependency's cut must infect the group", ti.Pred, ti.Call)
		}
	}

	// A deeper query re-produces the whole group and finds both answers.
	h := sp.NewHandle()
	h.SetMaxDepth(64)
	res2, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), q(t, "p(R)"), search.Options{Strategy: search.DFS, MaxDepth: 64, Tabler: h})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, 2)
	for _, s := range res2.Solutions {
		got = append(got, s.Format(res2.QueryVars))
	}
	sort.Strings(got)
	if fmt.Sprint(got) != "[R = deepone R = shallow]" {
		t.Fatalf("deep query answers = %v, want both", got)
	}
}
