package par

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/search"
	"blog/internal/term"
	"blog/internal/weights"
	"blog/internal/workload"
)

const fig1 = `
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

func load(t testing.TB, src string) *kb.DB {
	t.Helper()
	db, _, err := kb.LoadString(src)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func q(t testing.TB, s string) []term.Term {
	t.Helper()
	gs, err := parse.Query(s)
	if err != nil {
		t.Fatal(err)
	}
	return gs
}

func uniform() weights.Store { return weights.NewUniform(weights.DefaultConfig()) }

func sortedBindings(res *Result, v string) []string {
	i := slices.IndexFunc(res.QueryVars, func(x *term.Var) bool { return x.Name == v })
	var out []string
	for _, s := range res.Solutions {
		out = append(out, s.Values[i].String())
	}
	sort.Strings(out)
	return out
}

func TestSharedHeapFindsAllSolutions(t *testing.T) {
	db := load(t, fig1)
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := Run(context.Background(), db, uniform(), q(t, "gf(sam,G)"), Options{Workers: workers, Mode: SharedHeap})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := sortedBindings(res, "G")
		if len(got) != 2 || got[0] != "den" || got[1] != "doug" {
			t.Errorf("workers=%d solutions = %v", workers, got)
		}
		if !res.Exhausted {
			t.Errorf("workers=%d should exhaust", workers)
		}
	}
}

func TestTwoLevelFindsAllSolutions(t *testing.T) {
	db := load(t, fig1)
	for _, d := range []float64{0, 1, 5, 100} {
		res, err := Run(context.Background(), db, uniform(), q(t, "gf(sam,G)"), Options{
			Workers: 4, Mode: TwoLevel, D: d, LocalCap: 4,
		})
		if err != nil {
			t.Fatalf("D=%v: %v", d, err)
		}
		if got := sortedBindings(res, "G"); len(got) != 2 {
			t.Errorf("D=%v solutions = %v", d, got)
		}
	}
}

func TestParallelMatchesSequentialOnLargerTree(t *testing.T) {
	db := load(t, workload.FamilyTree(4, 3))
	goals := q(t, "gf(p0, G)")
	seq, err := search.Run(context.Background(), db, uniform(), goals, search.Options{Strategy: search.BestFirst})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{SharedHeap, TwoLevel} {
		res, err := Run(context.Background(), db, uniform(), q(t, "gf(p0, G)"), Options{Workers: 8, Mode: mode, D: 2})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(res.Solutions) != len(seq.Solutions) {
			t.Errorf("%v: %d solutions, sequential found %d", mode, len(res.Solutions), len(seq.Solutions))
		}
		// Same solution multiset.
		want := map[string]int{}
		for _, s := range seq.Solutions {
			want[s.Values[0].String()]++
		}
		got := map[string]int{}
		for _, s := range res.Solutions {
			got[s.Values[0].String()]++
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%v: binding %s count %d, want %d", mode, k, got[k], v)
			}
		}
	}
}

func TestParallelNQueens(t *testing.T) {
	db := load(t, workload.NQueens)
	res, err := Run(context.Background(), db, uniform(), q(t, "queens(5, Qs)"), Options{
		Workers: 8, Mode: SharedHeap, MaxDepth: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 10 {
		t.Errorf("5-queens solutions = %d, want 10", len(res.Solutions))
	}
}

func TestMaxSolutionsStopsEarly(t *testing.T) {
	db := load(t, workload.FamilyTree(4, 3))
	res, err := Run(context.Background(), db, uniform(), q(t, "gf(p0, G)"), Options{
		Workers: 4, MaxSolutions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 {
		t.Errorf("got %d solutions, want exactly 1 after truncation", len(res.Solutions))
	}
	if res.Exhausted {
		t.Error("early stop should not report exhaustion")
	}
}

func TestBudgetStops(t *testing.T) {
	db := load(t, "loop :- loop.")
	_, err := Run(context.Background(), db, uniform(), q(t, "loop"), Options{
		Workers: 4, MaxExpansions: 50, MaxDepth: 1 << 20,
	})
	if want := (engine.LimitError{Limit: engine.Expansions, Bound: 50}); !errors.Is(err, want) {
		t.Errorf("got %v, want %v", err, want)
	}
}

// TestCancelWakesParkedWorkers: on loop, one worker runs and the other
// three park in take, since the run never has an alternative to publish.
// Nothing watches the context for them: the running worker reads it at
// its next poll, and the broadcast of its failure wakes them, so Run
// returns the context's error promptly.
func TestCancelWakesParkedWorkers(t *testing.T) {
	db := load(t, "loop :- loop.")
	goals := q(t, "loop")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, db, uniform(), goals, Options{Workers: 4, MaxDepth: 1 << 30, MaxExpansions: 1 << 40})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(200 * time.Millisecond):
		t.Fatal("no return within 200ms of cancellation")
	}
}

func TestDepthLimitTerminates(t *testing.T) {
	db := load(t, "loop :- loop.")
	res, err := Run(context.Background(), db, uniform(), q(t, "loop"), Options{Workers: 4, MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 || res.Stats.DepthCutoffs == 0 {
		t.Errorf("solutions=%d cutoffs=%d", len(res.Solutions), res.Stats.DepthCutoffs)
	}
}

func TestErrorPropagates(t *testing.T) {
	db := load(t, "bad(X) :- Y is X + Z, Y > 0.")
	_, err := Run(context.Background(), db, uniform(), q(t, "bad(1)"), Options{Workers: 4})
	if err == nil {
		t.Error("arithmetic error must propagate")
	}
}

func TestEmptyQueryErrors(t *testing.T) {
	db := load(t, fig1)
	if _, err := Run(context.Background(), db, uniform(), nil, Options{}); err == nil {
		t.Error("empty query must error")
	}
}

func TestTwoLevelMigrationAccounting(t *testing.T) {
	db := load(t, workload.Unbalanced(16, 12))
	res, err := Run(context.Background(), db, uniform(), q(t, "job(X)"), Options{
		Workers: 4, Mode: TwoLevel, D: 0, LocalCap: 2, MaxDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 17 {
		t.Fatalf("solutions = %d, want 17", len(res.Solutions))
	}
	// LocalCap 2 forces publication; an exhaustive run takes the root and
	// every chain it published off the network again, and nothing else.
	if res.Stats.Spills == 0 {
		t.Error("two-level run with LocalCap 2 should publish chains")
	}
	if res.Stats.NetworkAcquires != res.Stats.Spills+1 {
		t.Errorf("network acquires %d, want the root plus %d chains published", res.Stats.NetworkAcquires, res.Stats.Spills)
	}
	if !res.Exhausted {
		t.Error("run should exhaust")
	}

	// Runs migrate where spilled shallow chains undercut deep workers'
	// local minima: on queens, and on two Unbalanced jobs in a row, whose
	// second job's alternatives spill from deep under the first's. A run
	// that migrates exports its node (Suspend) beside the alternatives;
	// every suspended node is still expanded exactly once, where it
	// resumes, so the answers and the counters are sequential DFS's.
	for _, r := range []struct{ src, goal string }{
		{workload.NQueens, "queens(5,Qs)"},
		{workload.Unbalanced(16, 12), "job(X), job(Y)"},
	} {
		db := load(t, r.src)
		dfs, err := search.Run(context.Background(), db, uniform(), q(t, r.goal), search.Options{Strategy: search.DFS})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), db, uniform(), q(t, r.goal), Options{
			Workers: 4, Mode: TwoLevel, D: 0, LocalCap: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", r.goal, err)
		}
		if s := res.Stats; s.Migrations == 0 || s.NetworkAcquires != s.Spills+1 {
			t.Errorf("%s: migrations %d, acquires %d, spills %d", r.goal, s.Migrations, s.NetworkAcquires, s.Spills)
		}
		if res.Stats.Stats != dfs.Stats {
			t.Errorf("%s: stats %+v, sequential DFS's %+v", r.goal, res.Stats.Stats, dfs.Stats)
		}
		if got, want := formatted(res.Solutions, res.QueryVars), formatted(dfs.Solutions, dfs.QueryVars); !slices.Equal(got, want) {
			t.Errorf("%s: answers %v, sequential DFS's %v", r.goal, got, want)
		}
	}
}

// formatted renders solutions, sorted.
func formatted(sols []engine.Solution, qvars []*term.Var) []string {
	out := make([]string, len(sols))
	for i, s := range sols {
		out[i] = s.Format(qvars)
	}
	sort.Strings(out)
	return out
}

func TestHigherDReducesMigrations(t *testing.T) {
	// With a huge D no worker ever suspends its run for a cheaper network
	// chain, so migrations drop to zero; D=0 migrates whenever the network
	// holds surplus below a worker's local minimum. Run a few times to
	// smooth scheduling noise.
	db := load(t, workload.FamilyTree(5, 3))
	var lowD, highD uint64
	for i := 0; i < 3; i++ {
		r0, err := Run(context.Background(), db, uniform(), q(t, "anc(p0, X)"), Options{
			Workers: 4, Mode: TwoLevel, D: 0, LocalCap: 8, MaxDepth: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		r1, err := Run(context.Background(), db, uniform(), q(t, "anc(p0, X)"), Options{
			Workers: 4, Mode: TwoLevel, D: 1e6, LocalCap: 8, MaxDepth: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(r0.Solutions) != len(r1.Solutions) {
			t.Fatalf("solution count differs: %d vs %d", len(r0.Solutions), len(r1.Solutions))
		}
		lowD += r0.Stats.Migrations
		highD += r1.Stats.Migrations
	}
	if highD != 0 {
		t.Errorf("D=1e6 migrated %d times (D=0: %d), want never", highD, lowD)
	}
}

func TestPerWorkerStatsSum(t *testing.T) {
	db := load(t, workload.FamilyTree(4, 3))
	res, err := Run(context.Background(), db, uniform(), q(t, "anc(p0, X)"), Options{
		Workers: 4, Mode: SharedHeap, MaxDepth: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, e := range res.Stats.PerWorkerExpanded {
		sum += e
	}
	if sum != res.Stats.Expanded {
		t.Errorf("per-worker sum %d != total %d", sum, res.Stats.Expanded)
	}
	if len(res.Stats.PerWorkerExpanded) != 4 {
		t.Errorf("per-worker slots = %d", len(res.Stats.PerWorkerExpanded))
	}
}

// TestStartupAndGrain: on an exhaustive queens(5,Qs) the start-up count
// and the grain of published chains agree with the expansions. Start-up
// is part of them; every published chain is drained, so the grain counts
// them all; and the root chain's own expansions, which no grain counts,
// are what the grains leave of the total.
func TestStartupAndGrain(t *testing.T) {
	db := load(t, workload.NQueens)
	for _, mode := range []Mode{SharedHeap, TwoLevel} {
		for _, workers := range []int{1, 2, 4} {
			res, err := Run(context.Background(), db, uniform(), q(t, "queens(5,Qs)"), Options{Workers: workers, Mode: mode})
			if err != nil || len(res.Solutions) != 10 || !res.Exhausted {
				t.Fatalf("%v, %d workers: %d solutions, err %v", mode, workers, len(res.Solutions), err)
			}
			st := res.Stats
			name := fmt.Sprintf("%v, %d workers", mode, workers)
			if st.StartupExpanded > st.Expanded {
				t.Errorf("%s: start-up %d of %d expansions", name, st.StartupExpanded, st.Expanded)
			}
			if workers == 1 && st.StartupExpanded != st.Expanded {
				t.Errorf("%s: start-up %d, want all %d expansions", name, st.StartupExpanded, st.Expanded)
			}
			if st.GrainCount != st.Spills {
				t.Errorf("%s: %d grains for %d published chains", name, st.GrainCount, st.Spills)
			}
			if st.GrainSum >= st.Expanded || st.GrainMax > st.GrainSum {
				t.Errorf("%s: grain sum %d, max %d, of %d expansions", name, st.GrainSum, st.GrainMax, st.Expanded)
			}
		}
	}
}

func TestParallelLearningIsRaceFree(t *testing.T) {
	// Learning from many workers concurrently; run under -race.
	db := load(t, workload.DeepFailure(8, 5))
	tab := weights.NewTable(weights.Config{N: 16, A: 64})
	res, err := Run(context.Background(), db, tab, q(t, "top(W)"), Options{Workers: 8, Learn: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions = %d", len(res.Solutions))
	}
	if tab.Len() == 0 {
		t.Error("learning should populate the table")
	}
}

func TestDifferentialParallelVsSequentialRandomPrograms(t *testing.T) {
	// The parallel engines must find exactly the sequential solution
	// multiset on stratified random programs.
	for seed := int64(1); seed <= 8; seed++ {
		src := workload.RandomProgram(3, 3, 4, 4, seed)
		db := load(t, src)
		seqRes, err := search.Run(context.Background(), db, uniform(), q(t, "l2p0(Q,R)"),
			search.Options{Strategy: search.DFS, MaxDepth: 24})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := map[string]int{}
		for _, s := range seqRes.Solutions {
			want[s.Format(seqRes.QueryVars)]++
		}
		for _, mode := range []Mode{SharedHeap, TwoLevel} {
			res, err := Run(context.Background(), db, uniform(), q(t, "l2p0(Q,R)"), Options{
				Workers: 6, Mode: mode, D: 2, LocalCap: 4, MaxDepth: 24,
			})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, mode, err)
			}
			got := map[string]int{}
			for _, s := range res.Solutions {
				got[s.Format(res.QueryVars)]++
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d %v: %d distinct solutions, want %d", seed, mode, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("seed %d %v: %q count %d, want %d", seed, mode, k, got[k], v)
				}
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if SharedHeap.String() != "shared-heap" || TwoLevel.String() != "two-level" {
		t.Error("mode names")
	}
}

func TestNetworkPopsMinimum(t *testing.T) {
	var s state
	if s.net.pop() != nil {
		t.Fatal("empty network must pop nil")
	}
	if s.sync(); !math.IsInf(math.Float64frombits(s.netMin.Load()), 1) {
		t.Fatal("empty network's minimum register must read +Inf")
	}
	for _, b := range []float64{5, 1, 4, 1, 9, 2, 6} {
		s.net.push(&engine.Chain{Bound: b})
	}
	var got []float64
	for s.sync(); len(s.net) > 0; s.sync() {
		min := math.Float64frombits(s.netMin.Load())
		if c := s.net.pop(); c.Bound != min {
			t.Fatalf("popped %v while the minimum register read %v", c.Bound, min)
		}
		got = append(got, min)
	}
	if fmt.Sprint(got) != "[1 1 2 4 5 6 9]" {
		t.Fatalf("pops = %v", got)
	}
}

func TestNetworkEqualBoundsPopOldestFirst(t *testing.T) {
	var n network
	a, b, c := &engine.Chain{Bound: 3}, &engine.Chain{Bound: 3}, &engine.Chain{Bound: 1}
	n.push(a)
	n.push(b)
	n.push(c)
	if n.pop() != c || n.pop() != a || n.pop() != b {
		t.Error("equal bounds must pop in publication order, after lower bounds")
	}
}

func BenchmarkParallelNQueens6(b *testing.B) {
	db := load(b, workload.NQueens)
	goals, _ := parse.Query("queens(6, Qs)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), db, uniform(), goals, Options{Workers: 8, MaxDepth: 512})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Solutions) != 4 {
			b.Fatalf("6-queens solutions = %d", len(res.Solutions))
		}
	}
}

// TestParallelAllocationBudget is the allocation guard for the OR-parallel
// path: an exhaustive queens(5,Qs) on two workers costs its 10 solutions,
// the run and worker headers and a handful of exported chains (a few
// slices plus the copies of their goal terms each) — not an object per
// node, which is what workers over persistent Env nodes cost (≈ 18 700
// per query).
func TestParallelAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	db := load(t, workload.NQueens)
	goals := q(t, "queens(5,Qs)")
	ws := uniform()
	run := func() {
		res, err := Run(context.Background(), db, ws, goals, Options{Workers: 2})
		if err != nil || len(res.Solutions) != 10 || res.Stats.Expanded != 3173 {
			t.Fatalf("run: %d solutions, %d expansions, err %v", len(res.Solutions), res.Stats.Expanded, err)
		}
	}
	run() // warm the program cache and the scratch pool
	// Measured steady state is 23 allocations per query (42 while the
	// root was a heap chain, cancellation a context.AfterFunc and the
	// exported variables' frames heap objects, 224 while each answer and
	// exported chain took a heap object per copied cell, 244 while each
	// solution carried a copy of its arc chain and a map of its bindings);
	// how many chains move depends on scheduling, and the budget, 1.5x,
	// leaves room for that and for pool refills after a GC cycle, not for
	// per-node or per-cell allocation.
	const budget = 34
	got := testing.AllocsPerRun(200, run)
	t.Logf("%.1f allocations per query", got)
	if got > budget {
		t.Errorf("parallel query allocated %.1f times, budget %d", got, budget)
	}
}

// TestKeptParallelAnswersPinLittle: an answer kept from a parallel run
// pins only chunks of its worker's answer cells, which the run made fresh
// and which hold nothing but answers — not a chain, a trail run's scratch
// or another query's cells. One of queens(7,Qs)'s 40 answers is kept.
func TestKeptParallelAnswersPinLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes heap accounting")
	}
	db := load(t, workload.NQueens)
	goals := q(t, "queens(7,Qs)")
	base := reachableMB()
	res, err := Run(context.Background(), db, uniform(), goals, Options{Workers: 2, MaxDepth: 512})
	if err != nil || len(res.Solutions) != 40 {
		t.Fatalf("run: %d solutions, err %v", len(res.Solutions), err)
	}
	kept := res.Solutions[0]
	got := reachableMB() - base
	t.Logf("1 kept answer holds %.3f MB", got)
	if got > 0.25 {
		t.Errorf("1 kept answer holds %.2f MB", got)
	}
	runtime.KeepAlive(kept)
}

// reachableMB collects twice and returns the heap still allocated.
func reachableMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// TestChainIsolation runs under -race. The goals a chain carries hold
// unbound variables that are not pool-minted — the query variables, which
// the compiled p/2 passes straight into r(Y), s(X, Y) while q(X) has
// alternatives left — so an export that renamed only pooled variables
// would let two workers' stores write the same binding slot.
func TestChainIsolation(t *testing.T) {
	var b strings.Builder
	b.WriteString("p(X, Y) :- q(X), r(Y), s(X, Y).\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&b, "q(a%d). r(b%d). s(a%d, b%d).\n", i, i, i, i*5%12)
	}
	db := load(t, b.String())
	for _, mode := range []Mode{SharedHeap, TwoLevel} {
		res, err := Run(context.Background(), db, uniform(), q(t, "p(X, Y)"), Options{
			Workers: 8, Mode: mode, LocalCap: 1,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		got := map[string]bool{}
		for _, s := range res.Solutions {
			got[s.Format(res.QueryVars)] = true
		}
		for i := 0; i < 12; i++ {
			if want := fmt.Sprintf("X = a%d, Y = b%d", i, i*5%12); !got[want] {
				t.Errorf("%v: missing %s in %v", mode, want, got)
			}
		}
		if len(res.Solutions) != 12 || !res.Exhausted {
			t.Errorf("%v: %d solutions exhausted=%v, want 12 true", mode, len(res.Solutions), res.Exhausted)
		}
	}
}

// panicStore is a weight store whose nth Weight call panics: a stand-in
// for any fault inside a worker goroutine.
type panicStore struct {
	weights.Store
	n atomic.Int64
}

func (p *panicStore) Weight(a kb.Arc) float64 {
	if p.n.Add(-1) == 0 {
		panic("injected weight-store fault")
	}
	return p.Store.Weight(a)
}

// TestWorkerPanicBecomesError: a panic in one worker stops the others and
// comes back as the run's error instead of killing the process; every
// goroutine is joined, and the database serves the next query.
func TestWorkerPanicBecomesError(t *testing.T) {
	db := load(t, workload.NQueens)
	goals := q(t, "queens(5,Qs)")
	before := runtime.NumGoroutine()
	for _, workers := range []int{2, 8} {
		ws := &panicStore{Store: uniform()}
		ws.n.Store(500)
		_, err := Run(context.Background(), db, ws, goals, Options{Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "par: worker panic: injected weight-store fault") {
			t.Fatalf("workers=%d: err = %v, want the worker panic", workers, err)
		}
		res, err := Run(context.Background(), db, uniform(), goals, Options{Workers: workers})
		if err != nil || len(res.Solutions) != 10 {
			t.Fatalf("workers=%d: next query: %d solutions, err %v", workers, len(res.Solutions), err)
		}
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines left running, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
