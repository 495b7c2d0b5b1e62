package table_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/ref"
	"blog/internal/solve"
	"blog/internal/table"
	"blog/internal/weights"
)

// assertFact parses and asserts a single fact, moving its predicate's
// stamp and so staling the tables derived from it.
func assertFact(t *testing.T, db *kb.DB, fact string) {
	t.Helper()
	head, err := parse.OneTerm(fact)
	if err != nil {
		t.Fatalf("parse %q: %v", fact, err)
	}
	db.Assert(head, nil)
}

// tabledAnswers runs one tabled query and returns its distinct answers.
func tabledAnswers(t *testing.T, db *kb.DB, sp *table.Space, query string, strat solve.Strategy) []string {
	t.Helper()
	goals, err := parse.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := solve.Do(context.Background(), &solve.Request{
		DB:       db,
		Store:    weights.NewUniform(weights.DefaultConfig()),
		Goals:    goals,
		Strategy: strat,
		Tables:   sp,
	})
	if err != nil {
		t.Fatalf("%v %q: %v", strat, query, err)
	}
	if !resp.Exhausted {
		t.Fatalf("%v %q: not exhausted", strat, query)
	}
	return distinctAnswers(resp)
}

func oracleAnswers(t *testing.T, db *kb.DB, query string) []string {
	t.Helper()
	model, err := ref.Eval(db)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	goals, err := parse.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	want := model.Answers(goals)
	sort.Strings(want)
	return want
}

// TestPostAssertAnswersMatchOracle is the assert-path staleness regression
// (the bug this subsystem fixes): after asserting clauses into a predicate
// a completed table was derived from, every subsequent tabled query —
// under every strategy — must return the answers of the *updated* program, checked
// against a fresh bottom-up fixpoint of the mutated database. Before
// dependency tracking, the table kept serving the pre-assert answer set.
func TestPostAssertAnswersMatchOracle(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		asserts []string
		queries []string
		// pre/post give hand-computed expected answers when the program is
		// outside ref's Datalog fragment (negation); when nil the oracle
		// is re-evaluated on the mutated database instead.
		pre, post map[string]string
	}{
		{
			// Monotone growth: new edges extend the closure.
			name: "closure-growth",
			src: `:- table path/2.
path(X, Z) :- path(X, Y), edge(Y, Z).
path(X, Y) :- edge(X, Y).
edge(a, b).
edge(b, c).
edge(c, a).
`,
			asserts: []string{"edge(c, d)", "edge(d, e)"},
			queries: []string{"path(a, Z)", "path(X, c)", "path(X, Y)"},
		},
		{
			// Non-monotone shrinkage: the assert *removes* answers derived
			// through negation, so serving any stale set — complete or
			// in-flight — would be unsound, not just incomplete. ref
			// rejects \+, so the expectations are hand-computed.
			name: "negation-shrink",
			src: `:- table reach/2, unreachable/1.
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
unreachable(Y) :- node(Y), \+(reach(a, Y)).
node(a). node(b). node(c). node(d).
edge(a, b). edge(b, c).
`,
			asserts: []string{"edge(c, d)"},
			queries: []string{"unreachable(Y)", "reach(a, Z)"},
			pre: map[string]string{
				"unreachable(Y)": "[Y = a Y = d]",
				"reach(a, Z)":    "[Z = b Z = c]",
			},
			post: map[string]string{
				"unreachable(Y)": "[Y = a]",
				"reach(a, Z)":    "[Z = b Z = c Z = d]",
			},
		},
	}
	strategies := []solve.Strategy{solve.DFS, solve.BFS, solve.BestFirst, solve.Parallel}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db, _, err := kb.LoadString(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			sp := table.NewSpace(db, table.Config{})
			// Materialize and verify the pre-assert tables first, so the
			// post-assert check exercises re-derivation of an existing
			// complete table, not a cold production.
			expect := func(query string, hand map[string]string) string {
				if hand != nil {
					return hand[query]
				}
				return fmt.Sprint(oracleAnswers(t, db, query))
			}
			for _, query := range tc.queries {
				want := expect(query, tc.pre)
				got := tabledAnswers(t, db, sp, query, solve.DFS)
				if fmt.Sprint(got) != want {
					t.Fatalf("pre-assert %q:\nengine: %v\noracle: %v", query, got, want)
				}
			}
			for _, fact := range tc.asserts {
				assertFact(t, db, fact)
			}
			for _, query := range tc.queries {
				want := expect(query, tc.post)
				for _, strat := range strategies {
					got := tabledAnswers(t, db, sp, query, strat)
					if fmt.Sprint(got) != want {
						t.Fatalf("%v post-assert %q:\nengine: %v\noracle: %v", strat, query, got, want)
					}
				}
			}
		})
	}
}

// TestAssertRederivesOnlyDownstream pins the incremental half of the fix:
// an assert touching predicate p dirty-marks and re-derives only the
// tables whose recorded dependency sets include p. An unrelated table in
// the same space keeps serving — same object, same creation timestamp,
// growing hit counter, zero revalidations.
func TestAssertRederivesOnlyDownstream(t *testing.T) {
	db, _, err := kb.LoadString(`
:- table patha/2, pathb/2.
patha(X, Z) :- patha(X, Y), ea(Y, Z).
patha(X, Y) :- ea(X, Y).
pathb(X, Z) :- pathb(X, Y), eb(Y, Z).
pathb(X, Y) :- eb(X, Y).
ea(a1, a2). ea(a2, a3).
eb(b1, b2). eb(b2, b3).
`)
	if err != nil {
		t.Fatal(err)
	}
	sp := table.NewSpace(db, table.Config{})
	tabledAnswers(t, db, sp, "patha(a1, Z)", solve.DFS)
	tabledAnswers(t, db, sp, "pathb(b1, Z)", solve.DFS)
	// Touch both again so each table records a hit.
	tabledAnswers(t, db, sp, "patha(a1, Z)", solve.DFS)
	tabledAnswers(t, db, sp, "pathb(b1, Z)", solve.DFS)

	infoFor := func(pred string) table.Info {
		t.Helper()
		for _, ti := range sp.Tables() {
			if ti.Pred == pred {
				return ti
			}
		}
		t.Fatalf("no table for %s in %+v", pred, sp.Tables())
		return table.Info{}
	}
	before := infoFor("pathb/2")
	if !before.Complete || before.Hits != 1 {
		t.Fatalf("pathb baseline = %+v, want complete with 1 hit", before)
	}

	assertFact(t, db, "ea(a3, a4)")

	a := infoFor("patha/2")
	b := infoFor("pathb/2")
	if !a.Dirty {
		t.Fatalf("patha after assert = %+v, want dirty (ea/2 is in its dep set %v)", a, a.Deps)
	}
	if b.Dirty {
		t.Fatalf("pathb after assert = %+v, want untouched (deps %v exclude ea/2)", b, b.Deps)
	}

	if got := tabledAnswers(t, db, sp, "patha(a1, Z)", solve.DFS); fmt.Sprint(got) != "[Z = a2 Z = a3 Z = a4]" {
		t.Fatalf("patha post-assert = %v, want the new a4 answer", got)
	}
	tabledAnswers(t, db, sp, "pathb(b1, Z)", solve.DFS)

	a, b = infoFor("patha/2"), infoFor("pathb/2")
	if a.Dirty || a.Revalidations != 1 {
		t.Fatalf("patha after re-derivation = %+v, want clean with 1 revalidation", a)
	}
	if b.Revalidations != 0 || !b.CreatedAt.Equal(before.CreatedAt) || b.Hits != before.Hits+1 {
		t.Fatalf("pathb = %+v (baseline %+v): the unrelated table must keep its identity — same creation time, hit counter still advancing, no revalidations", b, before)
	}

	tot := sp.Totals()
	if tot.Dirtied != 1 || tot.Revalidated != 1 {
		t.Fatalf("totals = dirtied %d revalidated %d, want 1 and 1", tot.Dirtied, tot.Revalidated)
	}
}

// TestRevalidationKeepsRounds: a table's round count spans all of its
// productions, so the re-derivation after an assert adds its rounds to
// those of the first production instead of replacing them. A monotone
// table re-derives from its old answers: edge(a, c) adds nothing to the
// ring's closure, so its revalidation closes in one round. A table whose
// body reaches \+ re-derives from empty and takes as many rounds as a
// fresh production of the new program.
func TestRevalidationKeepsRounds(t *testing.T) {
	const ring = `edge(a, b). edge(b, c). edge(c, d). edge(d, a).
blocked(z).
`
	cases := []struct {
		name  string
		src   string
		first int
		// reval is the revalidation's own round count; 0 means that of a
		// fresh production over the post-assert program.
		reval int
	}{
		{"monotone", `:- table path/2.
path(X, Z) :- path(X, Y), edge(Y, Z).
path(X, Y) :- edge(X, Y).
` + ring, 5, 1},
		{"negation", `:- table path/2.
path(X, Z) :- path(X, Y), edge(Y, Z), \+(blocked(Z)).
path(X, Y) :- edge(X, Y).
` + ring, 5, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, _, err := kb.LoadString(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			row := func(sp *table.Space) table.Info {
				t.Helper()
				rows := sp.Tables()
				if len(rows) != 1 {
					t.Fatalf("tables = %+v, want one", rows)
				}
				return rows[0]
			}
			sp := table.NewSpace(db, table.Config{})
			tabledAnswers(t, db, sp, "path(a, Z)", solve.DFS)
			if r := row(sp); r.Rounds != tc.first || r.Revalidations != 0 {
				t.Fatalf("first production = %+v, want %d rounds, 0 revalidations", r, tc.first)
			}
			assertFact(t, db, "edge(a, c)")
			reval := tc.reval
			if reval == 0 {
				fresh := table.NewSpace(db, table.Config{})
				tabledAnswers(t, db, fresh, "path(a, Z)", solve.DFS)
				reval = row(fresh).Rounds
			}
			tabledAnswers(t, db, sp, "path(a, Z)", solve.DFS)
			if r := row(sp); r.Rounds != tc.first+reval || r.Revalidations != 1 {
				t.Fatalf("after revalidation = %+v, want %d+%d rounds, 1 revalidation", r, tc.first, reval)
			}
		})
	}
}

// TestAssertIntoUndefinedPredicateDirties: a generator goal over a
// predicate with no clauses, hence no compiled code, fails, but the
// predicate still enters the table's dependency set, so asserting its first
// clause dirties the table.
func TestAssertIntoUndefinedPredicateDirties(t *testing.T) {
	db, _, err := kb.LoadString(`
:- table reach/2.
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- extra(X, Y).
edge(a, b).
`)
	if err != nil {
		t.Fatal(err)
	}
	sp := table.NewSpace(db, table.Config{})
	if got := tabledAnswers(t, db, sp, "reach(a, Z)", solve.DFS); fmt.Sprint(got) != "[Z = b]" {
		t.Fatalf("baseline answers = %v", got)
	}
	assertFact(t, db, "extra(a, c)")
	sp.Tables() // staleness is counted when first observed
	if tot := sp.Totals(); tot.Dirtied != 1 {
		t.Fatalf("dirtied = %d, want 1 (extra/2 is in the table's dependency set)", tot.Dirtied)
	}
	if got := tabledAnswers(t, db, sp, "reach(a, Z)", solve.DFS); fmt.Sprint(got) != "[Z = b Z = c]" {
		t.Fatalf("post-assert answers = %v, want the asserted extra/2 answer", got)
	}
}

// TestAssertWhileIncompleteDropsPartialTables: a table an interrupted
// production left incomplete is resumed only while the stamps that
// production read still hold; the in-test assert lands between the
// interrupted production and the re-query.
func TestAssertWhileIncompleteDropsPartialTables(t *testing.T) {
	db, _, err := kb.LoadString(`
:- table path/2.
path(X, Z) :- path(X, Y), edge(Y, Z).
path(X, Y) :- edge(X, Y).
edge(a, b).
`)
	if err != nil {
		t.Fatal(err)
	}
	sp := table.NewSpace(db, table.Config{})
	// Cancel mid-production to leave an incomplete table behind.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	goals, _ := parse.Query("path(a, Z)")
	_, _ = solve.Do(ctx, &solve.Request{
		DB: db, Store: weights.NewUniform(weights.DefaultConfig()),
		Goals: goals, Strategy: solve.DFS, Tables: sp,
	})
	// Whether the re-query resumes the partial table or replaces it, it
	// must see the new edge.
	assertFact(t, db, "edge(b, c)")
	got := tabledAnswers(t, db, sp, "path(a, Z)", solve.DFS)
	if fmt.Sprint(got) != "[Z = b Z = c]" {
		t.Fatalf("post-assert answers = %v, want both edges", got)
	}
}

// TestEverySpaceSeesAsserts: spaces register nothing with the database,
// they compare stamps. So a space created before an assert, one created
// after it, and one that was Closed all serve the post-assert answers.
func TestEverySpaceSeesAsserts(t *testing.T) {
	db, _, err := kb.LoadString(`
:- table path/2.
path(X, Z) :- path(X, Y), edge(Y, Z).
path(X, Y) :- edge(X, Y).
edge(a, b).
`)
	if err != nil {
		t.Fatal(err)
	}
	before := table.NewSpace(db, table.Config{})
	closed := table.NewSpace(db, table.Config{})
	for _, sp := range []*table.Space{before, closed} {
		if got := tabledAnswers(t, db, sp, "path(a, Z)", solve.DFS); fmt.Sprint(got) != "[Z = b]" {
			t.Fatalf("baseline answers = %v", got)
		}
	}
	closed.Close()
	closed.Close() // idempotent

	assertFact(t, db, "edge(b, c)")
	after := table.NewSpace(db, table.Config{})
	for name, sp := range map[string]*table.Space{"before": before, "after": after, "closed": closed} {
		if got := tabledAnswers(t, db, sp, "path(a, Z)", solve.DFS); fmt.Sprint(got) != "[Z = b Z = c]" {
			t.Fatalf("space created %s the assert: answers = %v, want the new edge", name, got)
		}
	}
	for name, sp := range map[string]*table.Space{"before": before, "closed": closed} {
		if tot := sp.Totals(); tot.Dirtied != 1 || tot.Revalidated != 1 {
			t.Fatalf("space %s: dirtied %d revalidated %d, want 1 and 1", name, tot.Dirtied, tot.Revalidated)
		}
	}
}
