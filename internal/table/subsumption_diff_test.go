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
	"blog/internal/workload"
)

// oracleEdges converts workload edges to the oracle's input type. The two
// types are kept separate on purpose: the oracle package must not import
// the workload generators (or anything else the engine side uses).
func oracleEdges(es []workload.WEdge) []ref.WeightedEdge {
	out := make([]ref.WeightedEdge, len(es))
	for i, e := range es {
		out[i] = ref.WeightedEdge{From: e.From, To: e.To, Cost: e.Cost}
	}
	return out
}

// TestSubsumptionAgreesWithBellmanFordOracle is the answer-subsumption
// soundness and minimality net: under every strategy — DFS, BFS,
// BestFirst and the live OR-parallel engine — the min(3)-tabled
// left-recursive shortest/3 program must return exactly one answer per
// reachable node pair, carrying exactly the least path cost computed by
// the independent Bellman–Ford-style relaxation oracle (ref.MinCosts).
// The cases cover a weighted family tree (parallel arcs with different
// costs), a layered DAG, uniformly random graphs (cycles and self-loops
// included) and the strongly cyclic ring-with-chords workload the
// untabled engine diverges on; all are negative-free.
func TestSubsumptionAgreesWithBellmanFordOracle(t *testing.T) {
	cases := []struct {
		name  string
		edges []workload.WEdge
		src   string // source node for the bound-source query
	}{
		{"family-weighted", workload.WeightedFamilyTreeEdges(3, 2), "p0"},
		{"dag", workload.WeightedDAGEdges(4, 3, 2, 7), "n0_0"},
		{"random", workload.WeightedRandomEdges(7, 22, 9, 5), "r0"},
		{"random-dense", workload.WeightedRandomEdges(5, 30, 4, 19), "r1"},
		{"cyclic", workload.WeightedCyclicEdges(10, 5, 3), "v0"},
		{"cyclic-small", workload.WeightedCyclicEdges(5, 3, 11), "v1"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db, _, err := kb.LoadString(workload.ShortestProgram(tc.edges, true))
			if err != nil {
				t.Fatal(err)
			}
			dist, err := ref.MinCosts(oracleEdges(tc.edges))
			if err != nil {
				t.Fatalf("oracle rejected graph: %v", err)
			}

			// Oracle-side answer sets, rendered the way the engines format
			// solutions.
			var wantFrom []string
			var wantAll []string
			for pair, d := range dist {
				if pair[0] == tc.src {
					wantFrom = append(wantFrom, fmt.Sprintf("Z = %s, C = %d", pair[1], d))
				}
				wantAll = append(wantAll, fmt.Sprintf("X = %s, Y = %s, C = %d", pair[0], pair[1], d))
			}
			sort.Strings(wantFrom)
			sort.Strings(wantAll)

			queries := []struct {
				q    string
				want []string
			}{
				{fmt.Sprintf("shortest(%s, Z, C)", tc.src), wantFrom},
				{"shortest(X, Y, C)", wantAll},
			}
			for _, strat := range []solve.Strategy{solve.DFS, solve.BFS, solve.BestFirst, solve.Parallel} {
				// A fresh space per strategy: every strategy must be able to
				// *produce* the cost fixpoint, not just replay one produced
				// by the first.
				sp := table.NewSpace(db, table.Config{})
				for _, qc := range queries {
					goals, err := parse.Query(qc.q)
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
						t.Fatalf("%v %q: %v", strat, qc.q, err)
					}
					if !resp.Exhausted {
						t.Fatalf("%v %q: not exhausted, comparison invalid", strat, qc.q)
					}
					got := make([]string, 0, len(resp.Solutions))
					for _, s := range resp.Solutions {
						got = append(got, s.Format(resp.QueryVars))
					}
					sort.Strings(got)
					if fmt.Sprint(got) != fmt.Sprint(qc.want) {
						t.Fatalf("%v %q:\nengine: %v\noracle: %v", strat, qc.q, got, qc.want)
					}
					// Minimality implies one answer per pair: any duplicate
					// or dominated tuple would have shown as an extra line.
					if len(got) != len(qc.want) {
						t.Fatalf("%v %q: %d answers for %d pairs", strat, qc.q, len(got), len(qc.want))
					}
				}
			}
		})
	}
}

// TestSubsumptionCountersSurfaceThroughSolve: the cyclic workload must
// report lattice work (subsumed and improved answers) through the unified
// solver stats, where the facade and the server read it.
func TestSubsumptionCountersSurfaceThroughSolve(t *testing.T) {
	edges := workload.WeightedCyclicEdges(10, 5, 3)
	db, _, err := kb.LoadString(workload.ShortestProgram(edges, true))
	if err != nil {
		t.Fatal(err)
	}
	sp := table.NewSpace(db, table.Config{})
	goals, err := parse.Query("shortest(v0, Z, C)")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := solve.Do(context.Background(), &solve.Request{
		DB:       db,
		Store:    weights.NewUniform(weights.DefaultConfig()),
		Goals:    goals,
		Strategy: solve.DFS,
		Tables:   sp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.AnswersSubsumed == 0 {
		t.Fatalf("stats = %+v, want AnswersSubsumed > 0 on a cyclic weighted fixpoint", resp.Stats)
	}
	tot := sp.Totals()
	if tot.Subsumed == 0 || tot.Subsumed != resp.Stats.AnswersSubsumed || tot.Improved != resp.Stats.AnswersImproved {
		t.Fatalf("space totals %+v disagree with query stats %+v", tot, resp.Stats)
	}
}
