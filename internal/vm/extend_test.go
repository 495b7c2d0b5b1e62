package vm

import (
	"fmt"
	"slices"
	"testing"

	"blog/internal/term"
	"blog/internal/workload"
)

// sameClauses reports whether two candidate lists hold the same compiled
// clauses' database clauses, in order.
func sameClauses(a, b []*CClause) bool {
	return slices.EqualFunc(a, b, func(x, y *CClause) bool { return x.c == y.c })
}

// TestDispatchExtensionEqualsFullBuild: after each append the compiled
// dispatch of the predicate — extended from the previous code where the
// appended heads are all keyed, rebuilt otherwise — selects exactly what
// a build from scratch selects, bucket by bucket, and the previous code
// still selects what it did.
func TestDispatchExtensionEqualsFullBuild(t *testing.T) {
	const base = `f(a, 1). f(b, 2). f(X, 0). f(b, 3).`
	probes := []string{"f(a, N)", "f(b, N)", "f(c, N)", "f(g(1), N)", "f(g(1, 2), N)", "f(zzz, N)", "f(7, N)", "f(V, N)"}
	cases := []struct {
		name   string
		src    string
		pred   string
		arity  int
		rounds [][]string // clauses asserted before each compile
		extend bool       // whether every compile extends the previous code
		probes []string
	}{
		{"new key", base, "f", 2, [][]string{{"f(c, 4)"}}, true, probes},
		{"existing key", base, "f", 2, [][]string{{"f(a, 5)"}, {"f(b, 6)"}}, true, probes},
		{"compound first argument", base, "f", 2, [][]string{{"f(g(Y), 7)"}, {"f(g(1, 2), 8)"}}, true, probes},
		{"integer first argument", base, "f", 2, [][]string{{"f(7, 9)"}}, true, probes},
		{"variable first argument", base, "f", 2, [][]string{{"f(Y, 10)"}}, false, probes},
		{"two clauses before one compile", base, "f", 2, [][]string{{"f(c, 11)", "f(c, 12)", "f(a, 13)"}}, true, probes},
		{"no keyed clause before", `f(X, 1). f(Y, 2).`, "f", 2, [][]string{{"f(a, 14)"}}, false, probes},
		{"arity 0", `p. p :- q. q.`, "p", 0, [][]string{{"p"}}, false, []string{"p"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := load(t, tc.src)
			fn := term.Intern(tc.pred)
			last := Pred(db, fn, tc.arity)
			for _, round := range tc.rounds {
				lastClauses := slices.Clone(last.all)
				want := map[string][]*CClause{}
				for _, p := range tc.probes {
					want[p] = last.Select(emptyEnv, goal(t, p))
				}
				for _, c := range round {
					db.Assert(goal(t, c), nil)
				}
				pc := Pred(db, fn, tc.arity)
				clauses, _, _, _ := db.Code(fn, tc.arity)
				full, _ := compilePred(clauses, nil)
				for _, p := range tc.probes {
					g := goal(t, p)
					if got, fb := pc.Select(emptyEnv, g), full.Select(emptyEnv, g); !sameClauses(got, fb) {
						t.Errorf("after %v: Select(%s) = %v, full build %v", round, p, heads(got), heads(fb))
					}
					if got := last.Select(emptyEnv, g); !sameClauses(got, want[p]) {
						t.Errorf("after %v: the previous code's Select(%s) changed to %v", round, p, heads(got))
					}
				}
				if len(pc.buckets) != len(full.buckets) || !sameClauses(pc.varOnly, full.varOnly) {
					t.Errorf("after %v: %d buckets, varOnly %v; full build %d, %v", round, len(pc.buckets), heads(pc.varOnly), len(full.buckets), heads(full.varOnly))
				}
				for k, b := range full.buckets {
					if !sameClauses(pc.buckets[k], b) {
						t.Errorf("after %v: bucket %v = %v, full build %v", round, k, heads(pc.buckets[k]), heads(b))
					}
				}
				if !slices.Equal(last.all, lastClauses) {
					t.Errorf("after %v: the previous code's clause list changed", round)
				}
				// Extension copies bucket slice headers, so an untouched
				// bucket shares its backing array with the previous code;
				// a rebuild allocates every bucket afresh.
				shared := false
				for k, b := range last.buckets {
					if nb := pc.buckets[k]; len(b) > 0 && len(nb) == len(b) && &nb[0] == &b[0] {
						shared = true
					}
				}
				if shared != tc.extend {
					t.Errorf("after %v: extended = %v, want %v", round, shared, tc.extend)
				}
				last = pc
			}
		})
	}
}

// TestExtensionsFromOneCodeAreIndependent: two compiles can extend the
// same previous code — concurrent lookups of a predicate at two stamps —
// and neither may write into the buckets the other, or the previous
// code, still reads.
func TestExtensionsFromOneCodeAreIndependent(t *testing.T) {
	// f(b, _)'s bucket grows past its first allocation, so it has spare
	// capacity an unclipped append would write into.
	db := load(t, `f(b, 1). f(X, 0). f(b, 2).`)
	fn := term.Intern("f")
	last := Pred(db, fn, 2)
	db.Assert(goal(t, "f(b, 4)"), nil)
	db.Assert(goal(t, "f(b, 5)"), nil)
	clauses, _, _, _ := db.Code(fn, 2)
	n := len(last.all)
	first, _ := compilePred(clauses[:n+1], last)
	second, _ := compilePred(append(slices.Clip(clauses[:n]), clauses[n+1]), last)
	g := goal(t, "f(b, N)")
	if got := heads(first.Select(emptyEnv, g)); fmt.Sprint(got) != "[f(b,1) f(X,0) f(b,2) f(b,4)]" {
		t.Errorf("first extension selects %v after the second was built", got)
	}
	if got := heads(second.Select(emptyEnv, g)); fmt.Sprint(got) != "[f(b,1) f(X,0) f(b,2) f(b,5)]" {
		t.Errorf("second extension selects %v", got)
	}
	if got := heads(last.Select(emptyEnv, g)); fmt.Sprint(got) != "[f(b,1) f(X,0) f(b,2)]" {
		t.Errorf("previous code selects %v", got)
	}
}

func heads(cs []*CClause) []string {
	out := make([]string, len(cs))
	for i, cc := range cs {
		out[i] = cc.c.Head.String()
	}
	return out
}

// TestAssertDispatchAllocationBudget pins what one edge/2 assert and the
// recompile that follows cost on the 64-node cyclic graph: the new clause
// is compiled alone and appended to its key's bucket, and every other
// bucket is carried over. The heads are built beforehand, so the count is
// the assert's and the recompile's alone.
func TestAssertDispatchAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	const nodes = 64
	db := load(t, workload.Cyclic(nodes, 32, 1))
	edge := term.Intern("edge")
	Pred(db, edge, 2)
	heads := make([]term.Term, 32)
	for i := range heads {
		heads[i] = term.NewCompound("edge", term.NewAtom(fmt.Sprintf("v%d", i%nodes)), term.NewAtom(fmt.Sprintf("v%d", (i*7+3)%nodes)))
	}
	chord := 0
	run := func() {
		db.Assert(heads[chord], nil)
		chord++
		if pc := Pred(db, edge, 2); pc.buckets == nil {
			t.Fatal("edge/2 has no dispatch buckets")
		}
	}
	run()
	// Measured at 14 allocations: 2 for the assert, the rest for the
	// compiled clause, the new PredCode and the copied bucket map and
	// bucket. Rebuilding every bucket cost 136. The budget is 1.3x
	// the measurement.
	const budget = 18
	if got := testing.AllocsPerRun(20, run); got > budget {
		t.Errorf("edge/2 assert + recompile allocated %.1f times, budget %d", got, budget)
	} else {
		t.Logf("edge/2 assert + recompile: %.1f allocations", got)
	}
}
