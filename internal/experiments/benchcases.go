package experiments

import (
	"bytes"
	"context"
	"testing"

	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/search"
	"blog/internal/spd"
	"blog/internal/table"
	"blog/internal/term"
	"blog/internal/weights"
	"blog/internal/workload"
)

// BenchCase is one resolution-heavy exhibit benchmark. The module-root
// bench_test.go runs exactly this list, under the names BENCH.json's
// frozen exhibit table records, so CI's bench-delta step compares a
// benchmark against the workload its recorded row measured. The query
// service is measured by the benchmark/ module, not here.
type BenchCase struct {
	Name string
	Fn   func(b *testing.B)
}

func benchLoad(src string) *kb.DB {
	db, _, err := kb.LoadString(src)
	if err != nil {
		panic(err)
	}
	return db
}

func benchGoals(q string) []term.Term {
	goals, err := parse.Query(q)
	if err != nil {
		panic(err)
	}
	return goals
}

// BenchCases returns the shared exhibit benchmark list.
func BenchCases() []BenchCase {
	return []BenchCase{
		{"F1Fig1Trace", func(b *testing.B) {
			db := benchLoad(Fig1Program)
			ws := weights.NewUniform(weights.DefaultConfig())
			goals := benchGoals("gf(sam,G)")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := search.Run(context.Background(), db, ws, goals, search.Options{
					Strategy: search.DFS, MaxSolutions: 1, RecordTrace: true,
				})
				if err != nil || len(res.Solutions) != 1 {
					b.Fatal("trace run failed")
				}
			}
		}},
		{"F3SearchTree", func(b *testing.B) {
			db := benchLoad(Fig1Program)
			ws := weights.NewUniform(weights.DefaultConfig())
			goals := benchGoals("gf(sam,G)")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := search.Run(context.Background(), db, ws, goals, search.Options{
					Strategy: search.DFS, RecordTree: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if s, f, _ := res.Tree.CountStatus(); s != 2 || f != 1 {
					b.Fatal("wrong tree")
				}
			}
		}},
		{"F4BestFirstOrder", func(b *testing.B) {
			db := benchLoad(Sec5Program)
			tab := weights.NewTable(weights.Config{N: 16, A: 64})
			tab.Set(kb.Arc{Caller: kb.Query, Pos: 0, Callee: 0}, 0)
			tab.Set(kb.Arc{Caller: 0, Pos: 0, Callee: 1}, 4)
			tab.Set(kb.Arc{Caller: 0, Pos: 0, Callee: 2}, 3)
			tab.Set(kb.Arc{Caller: 0, Pos: 1, Callee: 3}, 5)
			tab.Set(kb.Arc{Caller: 0, Pos: 2, Callee: 4}, 6)
			tab.Set(kb.Arc{Caller: 1, Pos: 0, Callee: 5}, 1)
			tab.Set(kb.Arc{Caller: 2, Pos: 0, Callee: 6}, 2)
			tab.Set(kb.Arc{Caller: 3, Pos: 0, Callee: 7}, 1)
			tab.Set(kb.Arc{Caller: 4, Pos: 0, Callee: 8}, 1)
			goals := benchGoals("a")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := search.Run(context.Background(), db, tab, goals, search.Options{
					Strategy: search.BestFirst,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"E1Strategies/dfs", func(b *testing.B) {
			db := benchLoad(workload.DeepFailure(16, 12))
			goals := benchGoals("top(W)")
			ws := weights.NewUniform(weights.DefaultConfig())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := search.Run(context.Background(), db, ws, goals, search.Options{
					Strategy: search.DFS, MaxSolutions: 1, MaxDepth: 64,
				})
				if err != nil || len(res.Solutions) != 1 {
					b.Fatal("dfs failed")
				}
			}
		}},
		{"E1Strategies/best-learned", func(b *testing.B) {
			db := benchLoad(workload.DeepFailure(16, 12))
			goals := benchGoals("top(W)")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tab := weights.NewTable(weights.Config{N: 16, A: 64})
				if _, err := search.Run(context.Background(), db, tab, goals, search.Options{
					Strategy: search.BestFirst, Learn: true, MaxDepth: 64,
				}); err != nil {
					b.Fatal(err)
				}
				res, err := search.Run(context.Background(), db, tab, goals, search.Options{
					Strategy: search.BestFirst, Learn: true, MaxSolutions: 1, MaxDepth: 64,
				})
				if err != nil || len(res.Solutions) != 1 {
					b.Fatal("learned run failed")
				}
			}
		}},
		{"E8AndParallel/semijoin", func(b *testing.B) {
			db := benchLoad(workload.Join(200, 400, 0.25, 13))
			uni := weights.NewUniform(weights.DefaultConfig())
			goals := benchGoals("r(X,K), s(K,V)")
			opt := search.Options{Strategy: search.DFS}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := spd.SemiJoin(context.Background(), db, uni, goals[0], goals[1], nil, opt); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"E8AndParallel/nested", func(b *testing.B) {
			db := benchLoad(workload.Join(200, 400, 0.25, 13))
			uni := weights.NewUniform(weights.DefaultConfig())
			goals := benchGoals("r(X,K), s(K,V)")
			opt := search.Options{Strategy: search.DFS}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := spd.NestedLoopJoin(context.Background(), db, uni, goals[0], goals[1], opt); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"E10Tabling/tabled", func(b *testing.B) {
			// Full fixpoint each iteration: a fresh space, so the cost of
			// building the transitive-closure table is what is measured.
			db := benchLoad(workload.Cyclic(24, 12, 7))
			uni := weights.NewUniform(weights.DefaultConfig())
			goals := benchGoals("path(v0,Z)")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp := table.NewSpace(db, table.Config{})
				res, err := search.Run(context.Background(), db, uni, goals, search.Options{
					Strategy: search.DFS, Tabler: sp.NewHandle(),
				})
				if err != nil || len(res.Solutions) != 24 || !res.Exhausted {
					b.Fatal("tabled run incomplete")
				}
			}
		}},
		{"E10Tabling/replay", func(b *testing.B) {
			// Warm table: every iteration is pure answer replay — the
			// steady-state cost tabling buys for repeated subgoals.
			db := benchLoad(workload.Cyclic(24, 12, 7))
			uni := weights.NewUniform(weights.DefaultConfig())
			goals := benchGoals("path(v0,Z)")
			sp := table.NewSpace(db, table.Config{})
			if _, err := search.Run(context.Background(), db, uni, goals, search.Options{
				Strategy: search.DFS, Tabler: sp.NewHandle(),
			}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := search.Run(context.Background(), db, uni, goals, search.Options{
					Strategy: search.DFS, Tabler: sp.NewHandle(),
				})
				if err != nil || len(res.Solutions) != 24 {
					b.Fatal("replay run failed")
				}
			}
		}},
		{"E10Tabling/untabled-capped", func(b *testing.B) {
			// The incomplete baseline: the same goal depth-capped without
			// tables (completion is impossible for the untabled engine).
			db := benchLoad(workload.Cyclic(24, 12, 7))
			uni := weights.NewUniform(weights.DefaultConfig())
			goals := benchGoals("path(v0,Z)")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := search.Run(context.Background(), db, uni, goals, search.Options{
					Strategy: search.DFS, MaxDepth: 12,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"E11Subsumption/min-cyclic", func(b *testing.B) {
			// Answer subsumption on the workload class nothing else
			// finishes: left-recursive weighted reachability over a cyclic
			// graph. A fresh space per iteration measures the full
			// cost-minimal fixpoint; the answers metric records the
			// O(node pairs) table the min(3) mode converges to.
			db := benchLoad(workload.WeightedCyclic(24, 12, 7))
			uni := weights.NewUniform(weights.DefaultConfig())
			goals := benchGoals("shortest(v0,Z,C)")
			b.ReportAllocs()
			var answers int
			for i := 0; i < b.N; i++ {
				sp := table.NewSpace(db, table.Config{})
				res, err := search.Run(context.Background(), db, uni, goals, search.Options{
					Strategy: search.DFS, Tabler: sp.NewHandle(),
				})
				if err != nil || len(res.Solutions) != 24 || !res.Exhausted {
					b.Fatal("min-tabled run incomplete")
				}
				answers = len(res.Solutions)
			}
			b.ReportMetric(float64(answers), "answers")
		}},
		{"E11Subsumption/min-dag", func(b *testing.B) {
			// The same weighted DAG as plain-dag below, min(3)-tabled: the
			// table keeps one minimal answer per node pair, so the answers
			// metric here against plain-dag's is the O(node pairs) vs
			// O(path costs) memory claim in numbers.
			edges := workload.WeightedDAGEdges(6, 4, 3, 21)
			db := benchLoad(workload.ShortestProgram(edges, true))
			uni := weights.NewUniform(weights.DefaultConfig())
			goals := benchGoals("shortest(n0_0,Z,C)")
			b.ReportAllocs()
			var answers int
			for i := 0; i < b.N; i++ {
				sp := table.NewSpace(db, table.Config{})
				res, err := search.Run(context.Background(), db, uni, goals, search.Options{
					Strategy: search.DFS, Tabler: sp.NewHandle(),
				})
				if err != nil || !res.Exhausted {
					b.Fatal("min-tabled dag run incomplete")
				}
				answers = len(res.Solutions)
			}
			b.ReportMetric(float64(answers), "answers")
		}},
		{"E11Subsumption/plain-dag", func(b *testing.B) {
			// The plain-tabled baseline on the same DAG: every distinct
			// cost tuple is memoized and replayed, the dominated-answer
			// flood subsumption exists to cut (on a cyclic graph this
			// baseline would not terminate at all).
			edges := workload.WeightedDAGEdges(6, 4, 3, 21)
			db := benchLoad(workload.ShortestProgram(edges, false))
			uni := weights.NewUniform(weights.DefaultConfig())
			goals := benchGoals("shortest(n0_0,Z,C)")
			b.ReportAllocs()
			var answers int
			for i := 0; i < b.N; i++ {
				sp := table.NewSpace(db, table.Config{})
				res, err := search.Run(context.Background(), db, uni, goals, search.Options{
					Strategy: search.DFS, Tabler: sp.NewHandle(),
				})
				if err != nil || !res.Exhausted {
					b.Fatal("plain-tabled dag run incomplete")
				}
				answers = len(res.Solutions)
			}
			b.ReportMetric(float64(answers), "answers")
		}},
		{"E11Subsumption/replay", func(b *testing.B) {
			// Warm min table: steady-state replay of the memoized minima.
			db := benchLoad(workload.WeightedCyclic(24, 12, 7))
			uni := weights.NewUniform(weights.DefaultConfig())
			goals := benchGoals("shortest(v0,Z,C)")
			sp := table.NewSpace(db, table.Config{})
			if _, err := search.Run(context.Background(), db, uni, goals, search.Options{
				Strategy: search.DFS, Tabler: sp.NewHandle(),
			}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := search.Run(context.Background(), db, uni, goals, search.Options{
					Strategy: search.DFS, Tabler: sp.NewHandle(),
				})
				if err != nil || len(res.Solutions) != 24 {
					b.Fatal("replay run failed")
				}
			}
		}},
		{"E12Compiled/e1-compiled", func(b *testing.B) {
			// The bytecode engine on the E1 deep-failure sweep; pair with
			// e1-treewalk for the compilation speedup in one report. Both
			// run best-first, on the persistent Env where the tree-walker
			// runs, so the pair differs in dispatch alone.
			db := benchLoad(workload.DeepFailure(16, 12))
			goals := benchGoals("top(W)")
			ws := weights.NewUniform(weights.DefaultConfig())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := search.Run(context.Background(), db, ws, goals, search.Options{
					Strategy: search.BestFirst, MaxSolutions: 1, MaxDepth: 64,
				})
				if err != nil || len(res.Solutions) != 1 {
					b.Fatal("compiled best-first failed")
				}
			}
		}},
		{"E12Compiled/e1-treewalk", func(b *testing.B) {
			// The tree-walking oracle on the identical workload and budget.
			db := benchLoad(workload.DeepFailure(16, 12))
			goals := benchGoals("top(W)")
			ws := weights.NewUniform(weights.DefaultConfig())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := search.Run(context.Background(), db, ws, goals, search.Options{
					Strategy: search.BestFirst, MaxSolutions: 1, MaxDepth: 64, NoVM: true,
				})
				if err != nil || len(res.Solutions) != 1 {
					b.Fatal("treewalk best-first failed")
				}
			}
		}},
		{"E13BindingStore/trail-deepfail", func(b *testing.B) {
			// Production DFS on the destructive trail store: bindings
			// written in place, undone on backtrack, scratch recycled
			// across runs. Pair with env-deepfail, its oracle, in one
			// report.
			db := benchLoad(workload.DeepFailure(16, 12))
			goals := benchGoals("top(W)")
			ws := weights.NewUniform(weights.DefaultConfig())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := search.Run(context.Background(), db, ws, goals, search.Options{
					Strategy: search.DFS, MaxSolutions: 1, MaxDepth: 64,
				})
				if err != nil || len(res.Solutions) != 1 {
					b.Fatal("trail dfs failed")
				}
			}
		}},
		{"E13BindingStore/env-deepfail", func(b *testing.B) {
			// The identical workload on the differential oracle
			// (Options.NoVM): DFS on the persistent-Env frontier, goals
			// resolved by the tree-walker.
			db := benchLoad(workload.DeepFailure(16, 12))
			goals := benchGoals("top(W)")
			ws := weights.NewUniform(weights.DefaultConfig())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := search.Run(context.Background(), db, ws, goals, search.Options{
					Strategy: search.DFS, MaxSolutions: 1, MaxDepth: 64, NoVM: true,
				})
				if err != nil || len(res.Solutions) != 1 {
					b.Fatal("env dfs failed")
				}
			}
		}},
		{"E13BindingStore/trail-enumerate", func(b *testing.B) {
			// Exhaustive enumeration (every solution, full backtrack over
			// the whole tree): the regime where trail undo and scratch
			// pooling pay on every branch, not just the failing ones.
			db := benchLoad(workload.FamilyTree(4, 3))
			goals := benchGoals("anc(p0, X)")
			ws := weights.NewUniform(weights.DefaultConfig())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := search.Run(context.Background(), db, ws, goals, search.Options{
					Strategy: search.DFS, MaxDepth: 32,
				})
				if err != nil || !res.Exhausted || len(res.Solutions) == 0 {
					b.Fatal("trail enumeration failed")
				}
			}
		}},
		{"E13BindingStore/env-enumerate", func(b *testing.B) {
			// Exhaustive enumeration on the oracle (Options.NoVM).
			db := benchLoad(workload.FamilyTree(4, 3))
			goals := benchGoals("anc(p0, X)")
			ws := weights.NewUniform(weights.DefaultConfig())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := search.Run(context.Background(), db, ws, goals, search.Options{
					Strategy: search.DFS, MaxDepth: 32, NoVM: true,
				})
				if err != nil || !res.Exhausted || len(res.Solutions) == 0 {
					b.Fatal("env enumeration failed")
				}
			}
		}},
		{"E14Snapshot/cold-fixpoint", func(b *testing.B) {
			// Cold boot without a snapshot: every iteration is a fresh
			// space that must run the full transitive-closure fixpoint
			// before the first answer — the restart cost persistence
			// removes. Pair with snapshot-warm for the boot speedup.
			db := benchLoad(workload.Cyclic(24, 12, 7))
			uni := weights.NewUniform(weights.DefaultConfig())
			goals := benchGoals("path(v0,Z)")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp := table.NewSpace(db, table.Config{})
				res, err := search.Run(context.Background(), db, uni, goals, search.Options{
					Strategy: search.DFS, Tabler: sp.NewHandle(),
				})
				if err != nil || len(res.Solutions) != 24 || !res.Exhausted {
					b.Fatal("cold run incomplete")
				}
			}
		}},
		{"E14Snapshot/snapshot-warm", func(b *testing.B) {
			// Snapshot-warm boot: each iteration loads the persisted
			// tables into a fresh space and answers the same query by
			// replay — deserialization plus a table hit, zero fixpoint
			// rounds.
			db := benchLoad(workload.Cyclic(24, 12, 7))
			uni := weights.NewUniform(weights.DefaultConfig())
			goals := benchGoals("path(v0,Z)")
			seed := table.NewSpace(db, table.Config{})
			if _, err := search.Run(context.Background(), db, uni, goals, search.Options{
				Strategy: search.DFS, Tabler: seed.NewHandle(),
			}); err != nil {
				b.Fatal(err)
			}
			var snap bytes.Buffer
			if n, err := seed.WriteSnapshot(&snap); err != nil || n == 0 {
				b.Fatalf("snapshot write: %d tables, %v", n, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := table.NewSpace(db, table.Config{})
				if _, skipped, err := sp.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil || skipped != 0 {
					b.Fatalf("snapshot load: skipped %d, %v", skipped, err)
				}
				res, err := search.Run(context.Background(), db, uni, goals, search.Options{
					Strategy: search.DFS, Tabler: sp.NewHandle(),
				})
				if err != nil || len(res.Solutions) != 24 || !res.Exhausted {
					b.Fatal("warm run incomplete")
				}
				if sp.Totals().Created != 1 || sp.Totals().Hits != 1 {
					b.Fatal("warm run produced instead of replaying")
				}
			}
		}},
		{"AblationEnvRep", func(b *testing.B) {
			db := benchLoad(workload.FamilyTree(5, 3))
			ws := weights.NewUniform(weights.DefaultConfig())
			goals := benchGoals("anc(p0, X)")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := search.Run(context.Background(), db, ws, goals, search.Options{
					Strategy: search.BestFirst, MaxDepth: 32,
				})
				if err != nil || !res.Exhausted {
					b.Fatal("search failed")
				}
			}
		}},
	}
}
