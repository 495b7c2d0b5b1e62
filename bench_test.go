// Package blog_test carries one testing.B benchmark per exhibit of the
// reproduction (figures F1-F6 and the experiments of internal/experiments),
// each exercising the computation that regenerates that exhibit. `go test
// -bench=. -benchmem` at the module root runs them all; cmd/blogbench
// prints the full tables.
package blog_test

import (
	"context"
	"io"
	"testing"

	"blog/internal/experiments"
	"blog/internal/kb"
	"blog/internal/machine"
	"blog/internal/par"
	"blog/internal/parse"
	"blog/internal/scoreboard"
	"blog/internal/search"
	"blog/internal/session"
	"blog/internal/spd"
	"blog/internal/term"
	"blog/internal/weights"
	"blog/internal/workload"
)

func mustLoad(b *testing.B, src string) *kb.DB {
	b.Helper()
	db, _, err := kb.LoadString(src)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func mustGoals(b *testing.B, q string) []term.Term {
	b.Helper()
	goals, err := parse.Query(q)
	if err != nil {
		b.Fatal(err)
	}
	return goals
}

// BenchmarkExhibits runs the shared resolution-heavy exhibit cases
// (experiments.BenchCases), under the names BENCH.json's frozen exhibit
// table records.
func BenchmarkExhibits(b *testing.B) {
	for _, c := range experiments.BenchCases() {
		b.Run(c.Name, c.Fn)
	}
}

// BenchmarkF2DatabaseGraph renders the figure-2 database graph.
func BenchmarkF2DatabaseGraph(b *testing.B) {
	db := mustLoad(b, experiments.Fig1Program)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(db.GraphText()) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkF5Machine simulates the figure-5 machine on the gf query.
func BenchmarkF5Machine(b *testing.B) {
	db := mustLoad(b, experiments.Fig1Program)
	goals := mustGoals(b, "gf(sam,G)")
	cfg := machine.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := machine.New(cfg, db, weights.NewUniform(weights.DefaultConfig()))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := m.Run(goals)
		if err != nil || len(rep.Solutions) != 2 {
			b.Fatal("machine run failed")
		}
	}
}

// BenchmarkF6SPD pages the figure-1 subgraph off the semantic paging disk.
func BenchmarkF6SPD(b *testing.B) {
	db := mustLoad(b, experiments.Fig1Program)
	ws := weights.NewTable(weights.DefaultConfig())
	blocks := spd.BuildBlocks(db, ws)
	goals := mustGoals(b, "gf(sam,G)")
	seeds := spd.SeedsForGoals(db, goals)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disk := spd.New(spd.DefaultGeometry(), spd.MIMD, 4)
		if err := disk.Store(blocks); err != nil {
			b.Fatal(err)
		}
		if paged, _ := disk.PageSubgraph(seeds, 2); len(paged) == 0 {
			b.Fatal("nothing paged")
		}
	}
}

// BenchmarkE2SessionLearning runs one learning session over similar
// queries on the family tree.
func BenchmarkE2SessionLearning(b *testing.B) {
	db := mustLoad(b, workload.FamilyTree(5, 3))
	queries := workload.SessionQueries(8, 40, 77)
	parsed := make([][]term.Term, len(queries))
	for i, q := range queries {
		parsed[i] = mustGoals(b, q)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		global := weights.NewTable(weights.Config{N: 16, A: 64})
		s := session.New(global, session.WithAlpha(0.7))
		for _, goals := range parsed {
			if _, err := search.Run(context.Background(), db, s, goals, search.Options{
				Strategy: search.BestFirst, Learn: true, MaxDepth: 48,
			}); err != nil {
				b.Fatal(err)
			}
		}
		s.End()
	}
}

// BenchmarkE3Convergence enumerates outcomes and solves the section-4
// linear system for the figure-3 tree.
func BenchmarkE3Convergence(b *testing.B) {
	db := mustLoad(b, experiments.Fig1Program)
	goals := mustGoals(b, "gf(sam,G)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		outcomes, err := search.EnumerateOutcomes(context.Background(), db, goals, 16)
		if err != nil {
			b.Fatal(err)
		}
		sol, err := weights.Solve(outcomes)
		if err != nil {
			b.Fatal(err)
		}
		if err := sol.Check(outcomes, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Speedup measures the live parallel engine at 1 and 8 workers
// on all solutions of queens(6).
func BenchmarkE4Speedup(b *testing.B) {
	db := mustLoad(b, workload.NQueens)
	goals := mustGoals(b, "queens(6, Qs)")
	for _, workers := range []int{1, 8} {
		b.Run(map[int]string{1: "w1", 8: "w8"}[workers], func(b *testing.B) {
			ws := weights.NewUniform(weights.DefaultConfig())
			for i := 0; i < b.N; i++ {
				res, err := par.Run(context.Background(), db, ws, goals, par.Options{
					Workers: workers, Mode: par.TwoLevel, D: 4, LocalCap: 256, MaxDepth: 512,
				})
				if err != nil || len(res.Solutions) != 4 {
					b.Fatal("queens run failed")
				}
			}
		})
	}
}

// BenchmarkE5DSweep simulates the machine at the extreme D settings on
// the unbalanced tree.
func BenchmarkE5DSweep(b *testing.B) {
	db := mustLoad(b, workload.Unbalanced(24, 16))
	goals := mustGoals(b, "job(X)")
	for _, d := range []float64{0, 1e9} {
		name := "d0"
		if d > 0 {
			name = "dinf"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := machine.DefaultConfig()
				cfg.D = d
				cfg.MaxDepth = 64
				m, err := machine.New(cfg, db, weights.NewUniform(weights.DefaultConfig()))
				if err != nil {
					b.Fatal(err)
				}
				rep, err := m.Run(goals)
				if err != nil || len(rep.Solutions) != 25 {
					b.Fatalf("machine run failed: %d solutions", len(rep.Solutions))
				}
			}
		})
	}
}

// BenchmarkE6SPDCache pages a deep subgraph at small and large caches.
func BenchmarkE6SPDCache(b *testing.B) {
	db := mustLoad(b, workload.FamilyTree(6, 3))
	ws := weights.NewTable(weights.DefaultConfig())
	blocks := spd.BuildBlocks(db, ws)
	goals := mustGoals(b, "gf(p0,G)")
	seeds := spd.SeedsForGoals(db, goals)
	for _, cache := range []int{1, 8} {
		name := "c1"
		if cache > 1 {
			name = "c8"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				disk := spd.New(spd.DefaultGeometry(), spd.MIMD, cache)
				if err := disk.Store(blocks); err != nil {
					b.Fatal(err)
				}
				disk.PageSubgraph(seeds, 3)
			}
		})
	}
}

// BenchmarkE7Scoreboard runs the multitasking processor at M=1 and M=8.
func BenchmarkE7Scoreboard(b *testing.B) {
	cfg := scoreboard.DefaultConfig()
	jobs := make([]scoreboard.Job, 64)
	for i := range jobs {
		jobs[i] = scoreboard.Job{Candidates: 2 + i%3, EnvWords: 16 + (i%5)*8, DiskBlocks: i % 2}
	}
	for _, m := range []int{1, 8} {
		name := "m1"
		if m > 1 {
			name = "m8"
		}
		b.Run(name, func(b *testing.B) {
			p := scoreboard.New(cfg, m)
			for i := 0; i < b.N; i++ {
				if rep := p.Run(jobs); rep.Jobs != 64 {
					b.Fatal("bad run")
				}
			}
		})
	}
}

// BenchmarkE9Conditional compares marginal vs conditional weight tables
// on the context-sensitive workload (section-5 extension).
func BenchmarkE9Conditional(b *testing.B) {
	db := mustLoad(b, workload.ContextSensitive(16))
	goals := mustGoals(b, "plan(M,P)")
	run := func(b *testing.B, mk func() weights.Store) {
		for i := 0; i < b.N; i++ {
			ws := mk()
			if _, err := search.Run(context.Background(), db, ws, goals, search.Options{
				Strategy: search.BestFirst, Learn: true, MaxDepth: 32,
			}); err != nil {
				b.Fatal(err)
			}
			res, err := search.Run(context.Background(), db, ws, goals, search.Options{
				Strategy: search.BestFirst, Learn: true, MaxSolutions: 1, MaxDepth: 32,
			})
			if err != nil || len(res.Solutions) != 1 {
				b.Fatal("run failed")
			}
		}
	}
	b.Run("marginal", func(b *testing.B) {
		run(b, func() weights.Store { return weights.NewTable(weights.Config{N: 16, A: 64}) })
	})
	b.Run("conditional", func(b *testing.B) {
		run(b, func() weights.Store { return weights.NewConditional(weights.Config{N: 16, A: 64}) })
	})
}

// BenchmarkFullHarness runs the entire printable experiment suite once per
// iteration (the blogbench command path).
func BenchmarkFullHarness(b *testing.B) {
	if testing.Short() {
		b.Skip("full harness is slow")
	}
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.All() {
			if r.ID == "E4" {
				continue // E4 times wall-clock itself; skip nested timing
			}
			if err := r.Run(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}
