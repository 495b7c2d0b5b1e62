// Package experiments implements the reproduction suite: the paper's six
// illustrative figures (F1-F6) and the quantitative experiments (E1-E10)
// that test its performance claims. Both cmd/blogbench and the root
// benchmark file drive these entry points; README's "Figures and
// experiments" section says how to run them.
package experiments

import (
	"context"
	"fmt"
	"io"

	"blog/internal/kb"
	"blog/internal/machine"
	"blog/internal/metrics"
	"blog/internal/parse"
	"blog/internal/search"
	"blog/internal/spd"
	"blog/internal/weights"
)

// Fig1Program is the program of figure 1, verbatim.
const Fig1Program = `
gf(X,Z) :- f(X,Y), f(Y,Z).
gf(X,Z) :- f(X,Y), m(Y,Z).
f(curt,elain).   f(sam,larry).
f(dan,pat).      f(larry,den).
f(pat,john).     f(larry,doug).
m(elain,john).
m(marian,elain).
m(peg,den).
m(peg,doug).
`

// Sec5Program is the A :- B,C,D example of section 5.
const Sec5Program = `
a :- b, c, d.
b :- e.
b :- f.
c :- g.
d :- h.
e. f. g. h.
`

func loadFig1() (*kb.DB, error) {
	db, _, err := kb.LoadString(Fig1Program)
	return db, err
}

// F1 reproduces figure 1: the program listing and the Prolog (DFS)
// resolution trace for ?- gf(sam,G) down to its first solution.
func F1(w io.Writer) error {
	db, err := loadFig1()
	if err != nil {
		return err
	}
	goals, err := parse.Query("gf(sam,G)")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "F1  Figure 1: Prolog program and resolution trace for ?- gf(sam,G)")
	fmt.Fprint(w, Fig1Program)
	res, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), goals, search.Options{
		Strategy: search.DFS, MaxSolutions: 1, RecordTrace: true,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "resolution trace (depth-first, first solution):")
	for _, line := range res.Trace {
		fmt.Fprintln(w, "  "+line)
	}
	for _, s := range res.Solutions {
		fmt.Fprintf(w, "solution: %s\n", s.Format(res.QueryVars))
	}
	return nil
}

// F2 reproduces figure 2: the database drawn as a network of facts and
// rule graph equivalences.
func F2(w io.Writer) error {
	db, err := loadFig1()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "F2  Figure 2: the database as a graph")
	fmt.Fprint(w, db.GraphText())
	return nil
}

// F3 reproduces figure 3: the full OR search tree for ?- gf(sam,G), with
// its two solution chains and one failing chain.
func F3(w io.Writer) error {
	db, err := loadFig1()
	if err != nil {
		return err
	}
	goals, err := parse.Query("gf(sam,G)")
	if err != nil {
		return err
	}
	res, err := search.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), goals, search.Options{
		Strategy: search.DFS, RecordTree: true,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "F3  Figure 3: the OR search tree for ?- gf(sam,G)")
	fmt.Fprint(w, res.Tree.Render())
	sols, fails, _ := res.Tree.CountStatus()
	fmt.Fprintf(w, "solutions: %d   failing chains: %d   (paper: 2 and 1)\n", sols, fails)
	return nil
}

// F4 reproduces figure 4 and the worked search orders of section 5: the
// weighted linked-list structure, then the best-first expansion order
// under the two weight scenarios the text walks through.
func F4(w io.Writer) error {
	db, _, err := kb.LoadString(Sec5Program)
	if err != nil {
		return err
	}
	scenario := func(b1 float64) (*weights.Table, error) {
		tab := weights.NewTable(weights.Config{N: 16, A: 64})
		tab.Set(kb.Arc{Caller: kb.Query, Pos: 0, Callee: 0}, 0)
		tab.Set(kb.Arc{Caller: 0, Pos: 0, Callee: 1}, b1) // first B
		tab.Set(kb.Arc{Caller: 0, Pos: 0, Callee: 2}, 3)  // second B
		tab.Set(kb.Arc{Caller: 0, Pos: 1, Callee: 3}, 5)  // C
		tab.Set(kb.Arc{Caller: 0, Pos: 2, Callee: 4}, 6)  // D
		tab.Set(kb.Arc{Caller: 1, Pos: 0, Callee: 5}, 1)  // E
		tab.Set(kb.Arc{Caller: 2, Pos: 0, Callee: 6}, 2)  // F
		tab.Set(kb.Arc{Caller: 3, Pos: 0, Callee: 7}, 1)  // G
		tab.Set(kb.Arc{Caller: 4, Pos: 0, Callee: 8}, 1)  // H
		return tab, nil
	}
	fmt.Fprintln(w, "F4  Figure 4: weighted linked-list structure (section-5 example)")
	tab, err := scenario(4)
	if err != nil {
		return err
	}
	fmt.Fprint(w, db.LinkedListText(func(a kb.Arc) float64 { return tab.Weight(a) }))
	for _, sc := range []struct {
		b1   float64
		note string
	}{
		{4, "scenario 1 (first B = 4): second B expands first, then first B"},
		{1, "scenario 2 (first B = 1): B:-E expands before second B (depth-first-like)"},
	} {
		tab, err := scenario(sc.b1)
		if err != nil {
			return err
		}
		goals, err := parse.Query("a")
		if err != nil {
			return err
		}
		res, err := search.Run(context.Background(), db, tab, goals, search.Options{Strategy: search.BestFirst, RecordTrace: true})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sc.note)
		for _, line := range res.Trace {
			fmt.Fprintln(w, "  "+line)
		}
	}
	return nil
}

// F5 reproduces figure 5: a run of the whole parallel machine (processors
// x tasks, SPDs, min-seeking network) on the figure-1 query, reporting the
// per-component activity the figure illustrates.
func F5(w io.Writer) error {
	db, err := loadFig1()
	if err != nil {
		return err
	}
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg, db, weights.NewUniform(weights.DefaultConfig()))
	if err != nil {
		return err
	}
	goals, err := parse.Query("gf(sam,G)")
	if err != nil {
		return err
	}
	rep, err := m.Run(goals)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "F5  Figure 5: the parallel computing environment (cycle simulation)")
	fmt.Fprintf(w, "processors: %d x %d tasks   disks: %d   D: %g\n",
		cfg.Processors, cfg.TasksPerProcessor, cfg.Disks, cfg.D)
	fmt.Fprintf(w, "makespan: %d cycles   solutions: %d (first at cycle %d)\n",
		rep.Cycles, len(rep.Solutions), rep.FirstSolution)
	fmt.Fprintf(w, "expanded: %d   failures: %d   page-ins: %d (%d cycles)\n",
		rep.Expanded, rep.Failures, rep.PageIns, rep.PageInCycles)
	fmt.Fprintf(w, "network: %d transfers (%d blocked)   spills: %d   migrations: %d\n",
		rep.NetTransfers, rep.NetBlocked, rep.Spills, rep.Migrations)
	t := metrics.NewTable("per-processor utilization", "proc", "busy cycles", "utilization")
	for i, b := range rep.ProcBusy {
		t.AddRow(i, int64(b), rep.ProcUtil[i])
	}
	fmt.Fprint(w, t.String())
	for i, ds := range rep.DiskStats {
		fmt.Fprintf(w, "spd%d: loads=%d hits=%d seeks=%dcy rotate=%dcy marks=%d\n",
			i, ds.TrackLoads, ds.CacheHits, int64(ds.SeekCycles), int64(ds.RotateCycles), ds.MarksSet)
	}
	for _, s := range rep.Solutions {
		fmt.Fprintf(w, "  cycle %6d  proc %d  %s\n", s.At, s.Proc, s.Solution.Format(nil))
	}
	return nil
}

// F6 reproduces figure 6: the semantic paging disk in action — marking
// the figure-1 rule blocks, following pointers at increasing Hamming
// distance, and reading the paged subgraph, with full cost accounting.
func F6(w io.Writer) error {
	db, err := loadFig1()
	if err != nil {
		return err
	}
	ws := weights.NewTable(weights.DefaultConfig())
	blocks := spd.BuildBlocks(db, ws)
	// A deliberately small geometry so the 12-clause database spans
	// several cylinders and SIMD mode has cross-cylinder pointers to
	// defer, as the paper describes.
	geo := spd.Geometry{
		Cylinders: 8, Surfaces: 2, BlocksPerTrack: 2,
		SeekPerCylinder: 20, RotationPerBlock: 50, CacheOp: 1,
	}
	fmt.Fprintln(w, "F6  Figure 6: a semantic paging disk (SPD)")
	t := metrics.NewTable("subgraph paging from the gf rules (12 blocks over 3 cylinders)",
		"distance", "blocks paged", "track loads", "cache hits", "cycles")
	for _, dist := range []int{0, 1, 2} {
		disk := spd.New(geo, spd.MIMD, 4)
		if err := disk.Store(blocks); err != nil {
			return err
		}
		goals, err := parse.Query("gf(sam,G)")
		if err != nil {
			return err
		}
		seeds := spd.SeedsForGoals(db, goals)
		paged, cost := disk.PageSubgraph(seeds, dist)
		st := disk.Stats()
		t.AddRow(dist, len(paged), st.TrackLoads, st.CacheHits, int64(cost))
	}
	fmt.Fprint(w, t.String())
	// SIMD vs MIMD on the same operation.
	t2 := metrics.NewTable("SP ganging modes (distance 2)", "mode", "cycles", "deferred pointers")
	for _, mode := range []spd.Mode{spd.MIMD, spd.SIMD} {
		disk := spd.New(geo, mode, 4)
		if err := disk.Store(blocks); err != nil {
			return err
		}
		goals, _ := parse.Query("gf(sam,G)")
		_, cost := disk.PageSubgraph(spd.SeedsForGoals(db, goals), 2)
		t2.AddRow(mode.String(), int64(cost), disk.Stats().Deferred)
	}
	fmt.Fprint(w, t2.String())
	return nil
}
