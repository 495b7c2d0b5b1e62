package table_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/ref"
	"blog/internal/solve"
	"blog/internal/table"
	"blog/internal/weights"
	"blog/internal/workload"
)

// TestTabledEnginesAgreeWithFixpointOracle is the tabling soundness and
// completeness net: under every strategy — DFS, BFS, BestFirst and the
// live OR-parallel engine — the tabled answer set of each query must
// equal the minimal-model answers of the independent bottom-up fixpoint
// evaluator (internal/ref), duplicate-free. The cases include
// left-recursive programs over cyclic graphs that ref handles natively
// but the untabled top-down engine cannot finish.
func TestTabledEnginesAgreeWithFixpointOracle(t *testing.T) {
	cases := []struct {
		name string
		src  string
		// tabled marks extra predicates (generated sources without
		// `:- table` directives of their own).
		tabled  []string
		queries []string
	}{
		{"family", workload.FamilyTree(4, 2), []string{"anc/2", "gf/2"}, []string{
			"gf(p0,G)", "anc(p0,X)", "anc(X,p3)", "anc(X,Y)"}},
		{"dag", workload.DAG(4, 3, 2, 7), []string{"path/2"}, []string{
			"path(n0_0,Z)", "path(X,n3_0)", "path(X,Y)"}},
		{"random", workload.RandomProgram(3, 3, 4, 4, 5), []string{"l1p0/2", "l2p0/2"}, []string{
			"l2p0(Q,R)", "l1p0(Q,R)"}},
		{"cyclic-left-recursive", workload.Cyclic(12, 8, 3), nil, []string{
			"path(v0,Z)", "path(X,v5)", "path(X,Y)", "path(v3,v3)"}},
		{"cyclic-small", workload.Cyclic(5, 3, 11), nil, []string{
			"path(v1,Z)", "path(X,Y)"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db, _, err := kb.LoadString(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			for _, pred := range tc.tabled {
				name, arity, ok := splitPred(pred)
				if !ok {
					t.Fatalf("bad pred %q", pred)
				}
				db.MarkTabled(name, arity)
			}
			model, err := ref.Eval(db)
			if err != nil {
				t.Fatalf("oracle rejected program: %v", err)
			}
			sp := table.NewSpace(db, table.Config{})
			for _, query := range tc.queries {
				goals, err := parse.Query(query)
				if err != nil {
					t.Fatal(err)
				}
				want := model.Answers(goals)
				sort.Strings(want)
				for _, strat := range []solve.Strategy{solve.DFS, solve.BFS, solve.BestFirst, solve.Parallel} {
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
						t.Fatalf("%v %q: not exhausted, comparison invalid", strat, query)
					}
					got := distinctAnswers(resp)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%v %q:\nengine: %v\noracle: %v", strat, query, got, want)
					}
				}
			}
		})
	}
}

// TestTabledAnswersAreDuplicateFree: when the query is a single tabled
// goal, the engine must return each answer exactly once (the acceptance
// criterion's "complete, duplicate-free answer set") under every
// strategy, learned weights included.
func TestTabledAnswersAreDuplicateFree(t *testing.T) {
	db, _, err := kb.LoadString(workload.Cyclic(10, 6, 17))
	if err != nil {
		t.Fatal(err)
	}
	sp := table.NewSpace(db, table.Config{})
	for _, strat := range []solve.Strategy{solve.DFS, solve.BFS, solve.BestFirst, solve.Parallel} {
		goals, err := parse.Query("path(v0,Z)")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := solve.Do(context.Background(), &solve.Request{
			DB:       db,
			Store:    weights.NewTable(weights.DefaultConfig()),
			Goals:    goals,
			Strategy: strat,
			Learn:    true,
			Tables:   sp,
		})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		seen := map[string]int{}
		for _, s := range resp.Solutions {
			seen[s.Format(resp.QueryVars)]++
		}
		for ans, n := range seen {
			if n != 1 {
				t.Fatalf("%v: answer %q returned %d times", strat, ans, n)
			}
		}
		if len(seen) != 10 {
			t.Fatalf("%v: %d distinct answers, want all 10 nodes reachable", strat, len(seen))
		}
	}
}

func distinctAnswers(resp *solve.Response) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range resp.Solutions {
		f := s.Format(resp.QueryVars)
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

func splitPred(pred string) (string, int, bool) {
	i := strings.LastIndexByte(pred, '/')
	if i < 0 {
		return "", 0, false
	}
	var arity int
	if _, err := fmt.Sscanf(pred[i+1:], "%d", &arity); err != nil {
		return "", 0, false
	}
	return pred[:i], arity, true
}

// TestDuplicatesDroppedLiveKeepAnswers: generators reject duplicate and
// subsumed derivations on the live store before detaching them. The
// answers served, and the derivations a min(N) table counts as subsumed
// or improved, must stay exactly what detaching every derivation gave:
// non-ground answers (one variant derived twice, shared variables, an
// answer through a rule with anonymous variables) and two cyclic
// weighted fixpoints, under DFS, best-first and Parallel.
func TestDuplicatesDroppedLiveKeepAnswers(t *testing.T) {
	cases := []struct {
		name, src, query string
		want             []string
		// subsumed and improved are the space's Totals after the query.
		subsumed, improved uint64
	}{
		{
			name:  "non-ground answers",
			src:   ":- table p/1.\np(f(X,X)). p(f(Y,Y)). p(f(X,Y)). p(g(A)) :- q(A). q(_). q(_).\n",
			query: "p(Z)",
			want:  []string{"Z = f(_T0,_T0)", "Z = f(_T0,_T1)", "Z = g(_T0)"},
		},
		{
			name:     "min(3) over a small cycle",
			src:      ":- table shortest/3 min(3).\nshortest(X,Z,C) :- shortest(X,Y,A), edge(Y,Z,B), C is A + B.\nshortest(X,Y,C) :- edge(X,Y,C).\nedge(a,b,4). edge(a,c,1). edge(c,b,1). edge(b,a,1).\n",
			query:    "shortest(a, Y, C)",
			want:     []string{"Y = a, C = 3", "Y = b, C = 2", "Y = c, C = 1"},
			subsumed: 13, improved: 2,
		},
		{
			name:     "min(3) over a cyclic graph",
			src:      workload.ShortestProgram(workload.WeightedCyclicEdges(10, 5, 3), true),
			query:    "shortest(v0, Z, C)",
			want:     []string{"Z = v0, C = 15", "Z = v1, C = 5", "Z = v2, C = 8", "Z = v3, C = 9", "Z = v4, C = 10", "Z = v5, C = 16", "Z = v6, C = 17", "Z = v7, C = 18", "Z = v8, C = 13", "Z = v9, C = 11"},
			subsumed: 48,
		},
	}
	for _, tc := range cases {
		for _, strat := range []solve.Strategy{solve.DFS, solve.BestFirst, solve.Parallel} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, strat), func(t *testing.T) {
				db, _, err := kb.LoadString(tc.src)
				if err != nil {
					t.Fatal(err)
				}
				sp := table.NewSpace(db, table.Config{})
				goals, err := parse.Query(tc.query)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := solve.Do(context.Background(), &solve.Request{
					DB:       db,
					Store:    weights.NewUniform(weights.DefaultConfig()),
					Goals:    goals,
					Strategy: strat,
					Workers:  2,
					Tables:   sp,
				})
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, s := range resp.Solutions {
					got = append(got, s.Format(resp.QueryVars))
				}
				sort.Strings(got)
				tot := sp.Totals()
				if fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Fatalf("answers = %v, want %v", got, tc.want)
				}
				if tot.Subsumed != tc.subsumed || tot.Improved != tc.improved {
					t.Fatalf("subsumed %d, improved %d; want %d and %d", tot.Subsumed, tot.Improved, tc.subsumed, tc.improved)
				}
			})
		}
	}
}
