package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"blog/internal/andpar"
	"blog/internal/kb"
	"blog/internal/machine"
	"blog/internal/metrics"
	"blog/internal/par"
	"blog/internal/parse"
	"blog/internal/ref"
	"blog/internal/scoreboard"
	"blog/internal/search"
	"blog/internal/session"
	"blog/internal/spd"
	"blog/internal/table"
	"blog/internal/term"
	"blog/internal/weights"
	"blog/internal/workload"
)

func mustQuery(q string) []term.Term {
	goals, err := parse.Query(q)
	if err != nil {
		panic(err)
	}
	return goals
}

// E1 compares the three search disciplines on deep-failure programs: work
// to the first solution for DFS (Prolog), BFS, uninformed best-first, and
// best-first after one learning pass. Claim under test (sections 3 and 5):
// weighted best-first avoids the failing subtrees DFS must walk.
func E1(w io.Writer) error {
	t := metrics.NewTable(
		"E1  expansions to FIRST solution on DeepFailure(width, depth)",
		"width", "depth", "dfs", "bfs", "best(uninformed)", "best(learned)")
	for _, shape := range []struct{ width, depth int }{
		{4, 4}, {8, 4}, {8, 8}, {16, 8}, {16, 12},
	} {
		src := workload.DeepFailure(shape.width, shape.depth)
		db, _, err := kb.LoadString(src)
		if err != nil {
			return err
		}
		uni := weights.NewUniform(weights.DefaultConfig())
		row := []any{shape.width, shape.depth}
		for _, strat := range []search.Strategy{search.DFS, search.BFS, search.BestFirst} {
			res, err := search.Run(context.Background(), db, uni, mustQuery("top(W)"), search.Options{
				Strategy: strat, MaxSolutions: 1, MaxDepth: 64,
			})
			if err != nil {
				return err
			}
			row = append(row, res.Stats.Expanded)
		}
		// Learned: one full pass with learning, then re-query.
		tab := weights.NewTable(weights.Config{N: 16, A: 64})
		if _, err := search.Run(context.Background(), db, tab, mustQuery("top(W)"), search.Options{
			Strategy: search.BestFirst, Learn: true, MaxDepth: 64,
		}); err != nil {
			return err
		}
		res, err := search.Run(context.Background(), db, tab, mustQuery("top(W)"), search.Options{
			Strategy: search.BestFirst, Learn: true, MaxSolutions: 1, MaxDepth: 64,
		})
		if err != nil {
			return err
		}
		row = append(row, res.Stats.Expanded)
		t.AddRow(row...)
	}
	fmt.Fprint(w, t.String())
	return nil
}

// E2 measures the session learning curve: cost to the first solution per
// query over a session of similar queries. Claim under test (section 5):
// "especially where a user tries a second and third query that is similar
// to the first one with some minor changes, later searches should become
// more efficient", and ended sessions improve the initial condition of
// the next session. (All-solution queries cannot show this — exhausting
// the tree costs the same in any order — so the session asks for the
// first solution, the interactive use case the paper describes.)
func E2(w io.Writer) error {
	src := workload.DeepFailure(10, 6)
	db, _, err := kb.LoadString(src)
	if err != nil {
		return err
	}
	global := weights.NewTable(weights.Config{N: 16, A: 64})
	// A session of queries on the same predicate: the first is cold, the
	// rest profit from the locally learned weights.
	const queriesPerSession = 6
	t := metrics.NewTable(
		"E2  expansions to first solution, sessions of repeated top(W) queries on DeepFailure(10,6)",
		"query#", "session 1", "session 2 (after merge)")
	type curve []uint64
	runSession := func() curve {
		s := session.New(global, session.WithAlpha(0.7))
		var c curve
		for i := 0; i < queriesPerSession; i++ {
			res, err := search.Run(context.Background(), db, s, mustQuery("top(W)"), search.Options{
				Strategy: search.BestFirst, Learn: true, MaxSolutions: 1, MaxDepth: 48,
			})
			if err != nil {
				panic(err)
			}
			c = append(c, res.Stats.Expanded)
		}
		s.End()
		return c
	}
	c1 := runSession()
	c2 := runSession()
	var tot1, tot2 uint64
	for i := range c1 {
		t.AddRow(i+1, c1[i], c2[i])
		tot1 += c1[i]
		tot2 += c2[i]
	}
	t.AddRow("total", tot1, tot2)
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "session 1 learning curve: %d cold -> %d warm; session 2 starts warm at %d\n",
		c1[0], c1[len(c1)-1], c2[0])
	return nil
}

// E3 validates the weighting theory of section 4: the solver's weights
// satisfy the branch-and-bound requirements on the fully enumerated tree,
// and the section-5 heuristic's learned weights approach them (the paper:
// weights "will eventually converge to be proportional to those described
// by the theoretical model").
func E3(w io.Writer) error {
	t := metrics.NewTable(
		"E3  learned weights vs theoretical solution",
		"workload", "arcs solved", "infinite arcs", "residual", "rms dist (1 pass)", "rms dist (5 passes)", "inf agreement")
	cases := []struct {
		name  string
		src   string
		query string
	}{
		{"fig1 gf", Fig1Program, "gf(sam,G)"},
		{"family(3,2) gf", workload.FamilyTree(3, 2), "gf(p0,G)"},
		{"deepfail(6,4)", workload.DeepFailure(6, 4), "top(W)"},
	}
	for _, c := range cases {
		db, _, err := kb.LoadString(c.src)
		if err != nil {
			return err
		}
		outcomes, err := search.EnumerateOutcomes(context.Background(), db, mustQuery(c.query), 48)
		if err != nil {
			return err
		}
		sol, err := weights.Solve(outcomes)
		if err != nil {
			return err
		}
		if err := sol.Check(outcomes, 1e-6); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		dist := func(passes int) (float64, float64) {
			tab := weights.NewTable(weights.Config{N: 16, A: 64})
			for i := 0; i < passes; i++ {
				if _, err := search.Run(context.Background(), db, tab, mustQuery(c.query), search.Options{
					Strategy: search.BestFirst, Learn: true, MaxDepth: 48,
				}); err != nil {
					panic(err)
				}
			}
			return sol.Distance(tab)
		}
		r1, _ := dist(1)
		r5, inf5 := dist(5)
		t.AddRow(c.name, len(sol.W), len(sol.Infinite), sol.Residual, r1, r5, inf5)
	}
	fmt.Fprint(w, t.String())
	return nil
}

// E4 measures live OR-parallel speedup with goroutine workers on an
// all-solutions N-queens search. Claim under test (section 7):
// "OR-parallelism is specially effective in speeding up non-deterministic
// programs, specially when more than one solution is needed."
func E4(w io.Writer) error {
	db, _, err := kb.LoadString(workload.NQueens)
	if err != nil {
		return err
	}
	uni := weights.NewUniform(weights.DefaultConfig())
	t := metrics.NewTable(
		fmt.Sprintf("E4  OR-parallel speedup, all solutions of queens(7), two-level D=4 [GOMAXPROCS=%d]", runtime.GOMAXPROCS(0)),
		"workers", "wall ms", "speedup", "solutions", "migrations")
	var base float64
	for _, workers := range []int{1, 2, 4, 8} {
		start := time.Now()
		res, err := par.Run(context.Background(), db, uni, mustQuery("queens(7, Qs)"), par.Options{
			Workers: workers, Mode: par.TwoLevel, D: 4, LocalCap: 256, MaxDepth: 1024,
		})
		if err != nil {
			return err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if workers == 1 {
			base = ms
		}
		sp := 0.0
		if ms > 0 {
			sp = base / ms
		}
		t.AddRow(workers, ms, sp, len(res.Solutions), res.Stats.Migrations)
	}
	fmt.Fprint(w, t.String())
	return nil
}

// E5 sweeps the migration threshold D on the cycle-accurate machine with
// an unbalanced tree. Claim under test (section 6): D trades network
// traffic against load balance, and "can be modified at run time, based
// on the measured communication overhead".
func E5(w io.Writer) error {
	src := workload.FamilyTree(5, 3)
	db, _, err := kb.LoadString(src)
	if err != nil {
		return err
	}
	t := metrics.NewTable(
		"E5  migration threshold D sweep (machine simulation, anc(p0,X) over family(5,3), LocalCap=4)",
		"D", "makespan cycles", "migrations", "spills", "net transfers", "net blocked", "final D")
	type setting struct {
		d        float64
		adaptive bool
	}
	settings := []setting{
		{0, false}, {1, false}, {4, false}, {16, false}, {64, false}, {1e9, false},
		{0, true}, // section 6: D "modified at run time, based on the measured communication overhead"
	}
	for _, sc := range settings {
		cfg := machine.DefaultConfig()
		cfg.D = sc.d
		cfg.AdaptiveD = sc.adaptive
		cfg.LocalCap = 4 // small local lists keep the network busy
		cfg.MaxDepth = 32
		m, err := machine.New(cfg, db, weights.NewUniform(weights.DefaultConfig()))
		if err != nil {
			return err
		}
		rep, err := m.Run(mustQuery("anc(p0, X)"))
		if err != nil {
			return err
		}
		label := fmt.Sprintf("%g", sc.d)
		if sc.d >= 1e9 {
			label = "inf"
		}
		if sc.adaptive {
			label = "adaptive(0)"
		}
		t.AddRow(label, int64(rep.Cycles), rep.Migrations, rep.Spills, rep.NetTransfers, rep.NetBlocked, rep.DFinal)
	}
	fmt.Fprint(w, t.String())
	return nil
}

// E6 measures SPD cache behavior: hit ratio and paging cost versus cache
// size, and SIMD vs MIMD ganging. Claim under test (section 6): "cheap
// RAM has made a cache attractive in a disk system", and SIMD cylinder
// mode handles cross-cylinder pointers by deferral.
func E6(w io.Writer) error {
	db, _, err := kb.LoadString(workload.FamilyTree(6, 3))
	if err != nil {
		return err
	}
	ws := weights.NewTable(weights.DefaultConfig())
	blocks := spd.BuildBlocks(db, ws)
	geo := spd.DefaultGeometry()
	goals := mustQuery("gf(p0,G)")
	seeds := spd.SeedsForGoals(db, goals)

	// One paging request touches tracks in nearly sorted order, so any
	// cache survives it. The cache question is about a *stream* of
	// requests: a working set of hot tracks re-touched by successive
	// queries. Build a request stream cycling over 6 distinct tracks of
	// SP 0 — caches smaller than the working set thrash, larger ones
	// converge to pure hits, exactly the "cheap RAM cache" argument.
	_ = seeds
	trackCap := geo.Surfaces * geo.BlocksPerTrack
	var hot []spd.BlockID
	for c := 0; len(hot) < 6; c++ {
		id := spd.BlockID(c * trackCap) // surface 0, cylinder c
		if int(id) >= db.Len() {
			break
		}
		hot = append(hot, id)
	}
	t := metrics.NewTable(
		"E6  SPD cache sweep: 60 pagings cycling a 6-track working set over family(6,3)",
		"cache tracks/SP", "mode", "track loads", "cache hits", "hit ratio", "cycles")
	for _, cache := range []int{1, 2, 4, 8, 16} {
		for _, mode := range []spd.Mode{spd.MIMD, spd.SIMD} {
			disk := spd.New(geo, mode, cache)
			if err := disk.Store(blocks); err != nil {
				return err
			}
			var total int64
			for req := 0; req < 60; req++ {
				_, cost := disk.PageSubgraph([]spd.BlockID{hot[req%len(hot)]}, 0)
				total += int64(cost)
			}
			st := disk.Stats()
			ratio := 0.0
			if st.TrackLoads+st.CacheHits > 0 {
				ratio = float64(st.CacheHits) / float64(st.TrackLoads+st.CacheHits)
			}
			t.AddRow(cache, mode.String(), st.TrackLoads, st.CacheHits, ratio, total)
		}
	}
	fmt.Fprint(w, t.String())
	return nil
}

// E7 measures the scoreboard processor: multitasking M chains to hide
// disk latency, and the multi-write memory's copy savings. Claims under
// test (section 6): "the delays due to disk access can be compensated for
// by developing other chains", and the shift-register memory makes block
// copies cheap.
func E7(w io.Writer) error {
	// Balance compute and disk so the latency-hiding curve is visible:
	// one in four expansions pages a block (300 cycles) while compute per
	// expansion is ~100-200 cycles, so a single task idles on the disk,
	// a few tasks overlap it, and many tasks saturate a functional unit.
	cfg := scoreboard.DefaultConfig()
	cfg.DiskCycles = 300
	jobs := make([]scoreboard.Job, 64)
	for i := range jobs {
		disk := 0
		if i%4 == 0 {
			disk = 1
		}
		jobs[i] = scoreboard.Job{
			Candidates: 3 + i%4,
			EnvWords:   32 + (i%5)*16,
			DiskBlocks: disk,
		}
	}
	t := metrics.NewTable(
		"E7  scoreboard processor: cycles for 64 expansions vs tasks M",
		"tasks M", "cycles", "disk util", "unify util", "copy util")
	for _, m := range []int{1, 2, 4, 8, 16} {
		rep := scoreboard.New(cfg, m).Run(jobs)
		t.AddRow(m, int64(rep.Cycles), rep.UnitUtil[scoreboard.Disk],
			rep.UnitUtil[scoreboard.Unify], rep.UnitUtil[scoreboard.Copy])
	}
	fmt.Fprint(w, t.String())

	t2 := metrics.NewTable(
		"E7b multi-write (shift register) memory ablation, M=4",
		"memory", "cycles", "copy passes", "words written")
	for _, mw := range []bool{true, false} {
		c := cfg
		c.MultiWrite = mw
		rep := scoreboard.New(c, 4).Run(jobs)
		name := "multi-write"
		if !mw {
			name = "single-write"
		}
		t2.AddRow(name, int64(rep.Cycles), rep.CopyPasses, rep.WordsWritten)
	}
	fmt.Fprint(w, t2.String())
	return nil
}

// E8 compares conjunction evaluation strategies from section 7:
// sequential (Prolog scheme), independent AND-parallel cross product, and
// the SPD semi-join for shared-variable joins.
func E8(w io.Writer) error {
	// Part 1: independent goals. Sequential AND evaluation re-derives the
	// second group once per solution of the first; the independent
	// decomposition derives each group once and cross-multiplies, so the
	// honest comparison is derivation work (expansions), with wall time
	// as a bonus from running groups concurrently.
	db, _, err := kb.LoadString(workload.MapColoring(9, 3) + "\nsize(s1). size(s2). size(s3). size(s4).\n")
	if err != nil {
		return err
	}
	uni := weights.NewUniform(weights.DefaultConfig())
	// size(S) first: Prolog's sequential scheme re-derives the whole
	// coloring subtree once per size, the decomposition derives it once.
	conj := "size(S), coloring(A,B,C,D,E,F,G,H,I)"
	seqStart := time.Now()
	seqRes, err := search.Run(context.Background(), db, uni, mustQuery(conj), search.Options{Strategy: search.DFS, MaxDepth: 64})
	if err != nil {
		return err
	}
	seqMs := float64(time.Since(seqStart).Microseconds()) / 1000
	parStart := time.Now()
	parRes, err := andpar.Solve(context.Background(), db, uni, mustQuery(conj), andpar.Options{
		Search:   search.Options{Strategy: search.DFS, MaxDepth: 64},
		Parallel: true,
	})
	if err != nil {
		return err
	}
	parMs := float64(time.Since(parStart).Microseconds()) / 1000
	t := metrics.NewTable(
		"E8a independent AND-parallelism: coloring(9 regions) x size(S)",
		"method", "solutions", "groups", "expansions", "wall ms")
	t.AddRow("sequential (Prolog scheme)", len(seqRes.Solutions), 1, seqRes.Stats.Expanded, seqMs)
	t.AddRow("independent AND-parallel", len(parRes.Solutions), parRes.GroupCount, parRes.Stats.Expanded, parMs)
	fmt.Fprint(w, t.String())

	// Part 2: shared-variable join via semi-join.
	t2 := metrics.NewTable(
		"E8b semi-join vs nested loop on r(X,K), s(K,V) [|r|=200 |s|=400]",
		"selectivity", "solutions", "nested attempts", "semijoin attempts", "marked/total", "spd cycles")
	for _, sel := range []float64{0.05, 0.25, 0.75} {
		jdb, _, err := kb.LoadString(workload.Join(200, 400, sel, 13))
		if err != nil {
			return err
		}
		jgoals := mustQuery("r(X,K), s(K,V)")
		nl, err := spd.NestedLoopJoin(context.Background(), jdb, uni, jgoals[0], jgoals[1], search.Options{Strategy: search.DFS})
		if err != nil {
			return err
		}
		blocks := spd.BuildBlocks(jdb, weights.NewTable(weights.DefaultConfig()))
		disk := spd.New(spd.DefaultGeometry(), spd.MIMD, 8)
		if err := disk.Store(blocks); err != nil {
			return err
		}
		jgoals2 := mustQuery("r(X,K), s(K,V)")
		sj, err := spd.SemiJoin(context.Background(), jdb, uni, jgoals2[0], jgoals2[1], disk, search.Options{Strategy: search.DFS})
		if err != nil {
			return err
		}
		if len(sj.Solutions) != len(nl.Solutions) {
			return fmt.Errorf("E8: semi-join %d solutions != nested %d", len(sj.Solutions), len(nl.Solutions))
		}
		t2.AddRow(sel, len(sj.Solutions), nl.JoinAttempts, sj.JoinAttempts,
			fmt.Sprintf("%d/%d", sj.MarkedClauses, sj.ConsumerClauses), int64(sj.SPDCycles))
	}
	fmt.Fprint(w, t2.String())
	return nil
}

// E9 evaluates the conditional-weights extension the paper sketches at
// the end of section 5 ("conditional probabilities (conditional
// information) might be added to the model, since a decision should
// depend on what has been previously decided"). The workload's leg arcs
// are shared database pointers whose success depends on the previously
// chosen mode, so the marginal scheme cannot assign blame; the
// context-conditioned table separates the (mode, leg) pairs. The paper's
// stated cost — "maintaining the database in this model is clearly more
// difficult" — shows up as the learned-state sizes.
func E9(w io.Writer) error {
	t := metrics.NewTable(
		"E9  conditional vs marginal weights on ContextSensitive(n): expansions to first solution after one learning pass",
		"n", "marginal", "conditional", "marginal state", "conditional state (pairs)")
	for _, n := range []int{4, 8, 16, 32} {
		db, _, err := kb.LoadString(workload.ContextSensitive(n))
		if err != nil {
			return err
		}
		run := func(ws weights.Store, maxSol int) (uint64, error) {
			res, err := search.Run(context.Background(), db, ws, mustQuery("plan(M,P)"), search.Options{
				Strategy: search.BestFirst, Learn: true, MaxSolutions: maxSol, MaxDepth: 32,
			})
			if err != nil {
				return 0, err
			}
			return res.Stats.Expanded, nil
		}
		marg := weights.NewTable(weights.Config{N: 16, A: 64})
		if _, err := run(marg, 0); err != nil {
			return err
		}
		mCost, err := run(marg, 1)
		if err != nil {
			return err
		}
		cond := weights.NewConditional(weights.Config{N: 16, A: 64})
		if _, err := run(cond, 0); err != nil {
			return err
		}
		cCost, err := run(cond, 1)
		if err != nil {
			return err
		}
		t.AddRow(n, mCost, cCost, marg.Len(), cond.Len())
	}
	fmt.Fprint(w, t.String())
	return nil
}

// E10 evaluates tabled resolution on graph reachability: transitive
// closure over strongly cyclic graphs written with the natural
// left-recursive rule (workload.Cyclic). The untabled OR-tree search can
// only be depth-capped — it enumerates proofs, not answers, and its
// answer set is incomplete at any finite cap — while tabled resolution
// computes the fixpoint once and returns the complete, duplicate-free set
// matching the bottom-up oracle. The table rows record the work gap and
// the second-query payoff (answers replayed from the memoized table).
func E10(w io.Writer) error {
	t := metrics.NewTable(
		"E10 tabled resolution: path(v0,Z) over Cyclic(n, n/2) left-recursive transitive closure",
		"n", "oracle answers", "untabled(depth 12) answers", "expansions", "tabled answers", "expansions", "repeat expansions", "replayed")
	for _, n := range []int{8, 16, 32} {
		db, _, err := kb.LoadString(workload.Cyclic(n, n/2, 2026))
		if err != nil {
			return err
		}
		model, err := ref.Eval(db)
		if err != nil {
			return err
		}
		oracle := len(model.Answers(mustQuery("path(v0,Z)")))

		uni := weights.NewUniform(weights.DefaultConfig())
		unt, err := search.Run(context.Background(), db, uni, mustQuery("path(v0,Z)"), search.Options{
			Strategy: search.DFS, MaxDepth: 12,
		})
		if err != nil {
			return err
		}
		untabledAnswers := map[string]bool{}
		for _, s := range unt.Solutions {
			untabledAnswers[s.Format(unt.QueryVars)] = true
		}

		sp := table.NewSpace(db, table.Config{})
		h := sp.NewHandle()
		tab, err := search.Run(context.Background(), db, uni, mustQuery("path(v0,Z)"), search.Options{
			Strategy: search.DFS, Tabler: h,
		})
		if err != nil {
			return err
		}
		if len(tab.Solutions) != oracle {
			return fmt.Errorf("E10: tabled found %d answers, oracle %d", len(tab.Solutions), oracle)
		}
		h2 := sp.NewHandle()
		rep, err := search.Run(context.Background(), db, uni, mustQuery("path(v0,Z)"), search.Options{
			Strategy: search.DFS, Tabler: h2,
		})
		if err != nil {
			return err
		}
		t.AddRow(n, oracle, len(untabledAnswers), unt.Stats.Expanded,
			len(tab.Solutions), tab.Stats.Expanded, rep.Stats.Expanded, h2.Stats().RederivationsAvoided)
	}
	fmt.Fprint(w, t.String())
	return nil
}

// Runner is one experiment entry point.
type Runner struct {
	ID   string
	Desc string
	Run  func(io.Writer) error
}

// All lists every figure and experiment in presentation order.
func All() []Runner {
	return []Runner{
		{"F1", "figure 1: Prolog program and resolution trace", F1},
		{"F2", "figure 2: the database as a graph", F2},
		{"F3", "figure 3: the OR search tree", F3},
		{"F4", "figure 4 + section-5 worked search orders", F4},
		{"F5", "figure 5: parallel machine simulation", F5},
		{"F6", "figure 6: semantic paging disk", F6},
		{"E1", "strategy shootout on deep-failure programs", E1},
		{"E2", "session learning curve", E2},
		{"E3", "weight convergence to the section-4 theory", E3},
		{"E4", "live OR-parallel speedup (goroutines)", E4},
		{"E5", "migration threshold D sweep (machine)", E5},
		{"E6", "SPD cache sweep, SIMD vs MIMD", E6},
		{"E7", "scoreboard multitasking and multi-write memory", E7},
		{"E8", "AND-parallel: independence and semi-join", E8},
		{"E9", "conditional-weights extension (section-5 remark)", E9},
		{"E10", "tabled resolution: left-recursive transitive closure", E10},
	}
}

// ByID returns the runner for an experiment id, or false.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// IDs returns all experiment ids in order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, r := range all {
		out[i] = r.ID
	}
	sort.Strings(out)
	return out
}
