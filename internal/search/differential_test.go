package search

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"blog/internal/kb"
	"blog/internal/ref"
	"blog/internal/weights"
	"blog/internal/workload"
)

// solutionMultiset renders a result's solutions as a sorted string list
// for cross-strategy comparison.
func solutionMultiset(res *Result) []string {
	out := make([]string, 0, len(res.Solutions))
	for _, s := range res.Solutions {
		out = append(out, s.Format(res.QueryVars))
	}
	sort.Strings(out)
	return out
}

// TestDifferentialStrategiesOnRandomPrograms is the engine's main
// soundness net: on stratified random programs, DFS, BFS and best-first
// (uniform, learned-table, and conditional-table guided) must all find
// exactly the same solution multiset, because B-LOG's claim is that the
// bound changes the ORDER of the search, never its answers.
func TestDifferentialStrategiesOnRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := workload.RandomProgram(3, 3, 4, 4, seed)
			db, _, err := kb.LoadString(src)
			if err != nil {
				t.Fatalf("random program does not parse: %v\n%s", err, src)
			}
			query := "l2p0(Q,R)"
			var want []string
			type runCase struct {
				name string
				ws   weights.Store
				opt  Options
			}
			cases := []runCase{
				{"dfs", weights.NewUniform(weights.DefaultConfig()), Options{Strategy: DFS, MaxDepth: 24}},
				{"bfs", weights.NewUniform(weights.DefaultConfig()), Options{Strategy: BFS, MaxDepth: 24}},
				{"best-uniform", weights.NewUniform(weights.DefaultConfig()), Options{Strategy: BestFirst, MaxDepth: 24}},
				{"best-learn", weights.NewTable(weights.Config{N: 16, A: 24}), Options{Strategy: BestFirst, Learn: true, MaxDepth: 24}},
				{"best-conditional", weights.NewConditional(weights.Config{N: 16, A: 24}), Options{Strategy: BestFirst, Learn: true, MaxDepth: 24}},
			}
			for _, c := range cases {
				res, err := Run(context.Background(), db, c.ws, q(t, query), c.opt)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				got := solutionMultiset(res)
				if want == nil {
					want = got
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("%s found %d solutions, dfs found %d\nprogram:\n%s",
						c.name, len(got), len(want), src)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s solution %d = %q, want %q", c.name, i, got[i], want[i])
					}
				}
			}
			// A learned best-first re-run must also agree: learning only
			// reorders.
			tab := weights.NewTable(weights.Config{N: 16, A: 24})
			if _, err := Run(context.Background(), db, tab, q(t, query), Options{Strategy: BestFirst, Learn: true, MaxDepth: 24}); err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), db, tab, q(t, query), Options{Strategy: BestFirst, Learn: true, MaxDepth: 24})
			if err != nil {
				t.Fatal(err)
			}
			got := solutionMultiset(res)
			if len(got) != len(want) {
				t.Fatalf("learned re-run found %d solutions, want %d", len(got), len(want))
			}
		})
	}
}

// TestDifferentialEnginesAgreeWithFixpointOracle checks the top-down
// engines, compiled and tree-walked, against the independent bottom-up
// fixpoint evaluator of internal/ref on Datalog-fragment workload
// programs. The queries include constant first arguments, so
// first-argument selection (the VM's dispatch, kb.Candidates for the
// walker) is on the tested path: a pruning bug there would drop answers
// the oracle licenses.
func TestDifferentialEnginesAgreeWithFixpointOracle(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		queries []string
	}{
		{"family", workload.FamilyTree(4, 2), []string{
			"gf(p0,G)", "anc(p0,X)", "anc(X,p3)", "f(p0,X)"}},
		{"dag", workload.DAG(4, 3, 2, 7), []string{
			"path(n0_0,Z)", "edge(n0_1,Y)", "path(X,n3_0)"}},
		{"random", workload.RandomProgram(3, 3, 4, 4, 5), []string{
			"l2p0(Q,R)", "l1p0(Q,R)"}},
		{"join", workload.Join(24, 40, 0.5, 13), []string{
			"r(X,K), s(K,V)"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db, _, err := kb.LoadString(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			model, err := ref.Eval(db)
			if err != nil {
				t.Fatalf("oracle rejected program: %v", err)
			}
			for _, query := range tc.queries {
				goals := q(t, query)
				want := model.Answers(goals)
				sort.Strings(want)
				for _, strat := range []Strategy{DFS, BFS, BestFirst} {
					// NoVM runs the tree-walking oracle for the bytecode
					// engine; both must agree with the fixpoint.
					for _, noVM := range []bool{false, true} {
						name := fmt.Sprintf("%s noVM=%v %q", strat, noVM, query)
						res, err := Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()),
							q(t, query), Options{Strategy: strat, MaxDepth: 64, NoVM: noVM})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !res.Exhausted {
							t.Fatalf("%s: search not exhausted, comparison invalid", name)
						}
						// The engine enumerates proofs; the oracle answers.
						// Dedup before comparing.
						seen := map[string]bool{}
						var got []string
						for _, s := range res.Solutions {
							f := s.Format(res.QueryVars)
							if !seen[f] {
								seen[f] = true
								got = append(got, f)
							}
						}
						sort.Strings(got)
						if len(got) != len(want) {
							t.Fatalf("%s: engine found %d distinct answers, oracle %d\nengine: %v\noracle: %v",
								name, len(got), len(want), got, want)
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("%s: answer %d = %q, oracle %q", name, i, got[i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestDifferentialLearnedSearchNeverLosesSolutions drives learning hard
// on the deep-failure programs and re-checks completeness each round:
// even with many infinities in the table, unpruned best-first remains
// complete (the paper: "the correct solution(s) will still be found").
func TestDifferentialLearnedSearchNeverLosesSolutions(t *testing.T) {
	db, _, err := kb.LoadString(workload.DeepFailure(6, 5))
	if err != nil {
		t.Fatal(err)
	}
	tab := weights.NewTable(weights.Config{N: 16, A: 64})
	for round := 0; round < 5; round++ {
		res, err := Run(context.Background(), db, tab, q(t, "top(W)"), Options{Strategy: BestFirst, Learn: true, MaxDepth: 64})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(res.Solutions) != 1 {
			t.Fatalf("round %d: %d solutions, want 1", round, len(res.Solutions))
		}
		if !res.Exhausted {
			t.Fatalf("round %d: not exhausted", round)
		}
	}
}
