package search

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"blog/internal/kb"
	"blog/internal/obs"
	"blog/internal/term"
	"blog/internal/weights"
	"blog/internal/workload"
)

// TestDFSAllocationBudget is the allocation-regression guard for the
// sequential hot path: one trail-store DFS query over a deep-failure
// program must stay within a small fixed allocation budget. The trail
// machine recycles its scratch (store, frames, compounds, goal blocks,
// choice points) across runs, so the steady-state cost per query is a
// handful of allocations — the run header, the refreshed root goal and
// the extracted solution — regardless of the ~200 expansions underneath.
// If this fails after an engine change, something on the per-expansion
// path started allocating again; profile before raising the budget.
func TestDFSAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	db := load(t, workload.DeepFailure(16, 12))
	goals := q(t, "top(W)")
	ws := uniform()
	opt := Options{Strategy: DFS, MaxSolutions: 1, MaxDepth: 64}
	run := func() {
		res, err := Run(context.Background(), db, ws, goals, opt)
		if err != nil || len(res.Solutions) != 1 {
			t.Fatalf("run: %d solutions, err %v", len(res.Solutions), err)
		}
	}
	run() // warm the program cache and the scratch pool
	// Measured steady state is 16 allocations per query; the budget
	// leaves slack for pool refills after a GC cycle empties the
	// sync.Pool mid-measurement, not for per-expansion regressions
	// (each of the ~200 expansions allocating once would blow straight
	// past it).
	const budget = 90
	if got := testing.AllocsPerRun(50, run); got > budget {
		t.Errorf("DFS query allocated %.1f times, budget %d", got, budget)
	}
}

// TestDFSBuiltinAllocationBudget pins the builtin ABI's cost on the trail
// path: an exhaustive queens(5,Qs) DFS makes ~1480 `=\=`/`is`/`<` calls in
// 3173 expansions, every one evaluated in place on the store, so what the
// query allocates is the result and the chunks its 10 solutions are
// detached into — nothing per builtin call. One allocation per call would
// put the count past 1600.
func TestDFSBuiltinAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	db := load(t, workload.NQueens)
	goals := q(t, "queens(5,Qs)")
	ws := uniform()
	opt := Options{Strategy: DFS}
	run := func() {
		res, err := Run(context.Background(), db, ws, goals, opt)
		if err != nil || len(res.Solutions) != 10 || res.Stats.Expanded != 3173 {
			t.Fatalf("run: %d solutions, %d expansions, err %v", len(res.Solutions), res.Stats.Expanded, err)
		}
	}
	run() // warm the program cache and the scratch pool
	// Measured steady state is 12 allocations per query (117 with a heap
	// object per copied cell, 139 with a bindings map per solution and an
	// iterator of its own); the budget is 1.3x that, slack for pool
	// refills after a GC cycle empties the sync.Pool mid-measurement.
	const budget = 16
	if got := testing.AllocsPerRun(50, run); got > budget {
		t.Errorf("queens(5,Qs) DFS allocated %.1f times, budget %d", got, budget)
	}
}

// negationProgram proves a double negation once per between/3 value; t(N)
// then fails, so a DFS of it is N nested proofs and nothing else.
const negationProgram = `
t(N) :- between(1,N,I), \+(\+(good(I))), fail.
good(X) :- pair(X,Y), Y > 0.
pair(X,Y) :- Y is X+1.
`

// TestNegationAllocationBudget pins what \+ costs: each \+ proves its
// argument on a nested trail run bounded by its own expansion limit and
// releases what it took. On the trail path that run is the scratch's
// sub-run for its nesting depth, on the run's store and pools; on the Env
// frontier (best-first, BFS) it is the one the expander's pooled scratch
// holds by value, with its one-goal root detached into the slab. So a
// warm query allocates its result, not a run per proof: t(100) is 200
// nested proofs, and DFS allocated 1 502 times when each started a run
// from nothing, best-first and BFS 212 times while each outer \+ copied
// its argument to the heap and started a run of its own. The Env rows'
// budgets are 1.2x their measured 16, slab chunks included.
func TestNegationAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	db := load(t, negationProgram)
	goals := q(t, "t(100)")
	ws := uniform()
	rows := []struct {
		strat  Strategy
		budget float64
	}{
		{DFS, 10},
		{BestFirst, 19},
		{BFS, 19},
	}
	for _, r := range rows {
		opt := Options{Strategy: r.strat}
		run := func() {
			res, err := Run(context.Background(), db, ws, goals, opt)
			if err != nil || len(res.Solutions) != 0 || !res.Exhausted {
				t.Fatalf("%v run: %d solutions, err %v", r.strat, len(res.Solutions), err)
			}
		}
		run() // warm the program cache and the scratch pool
		got := testing.AllocsPerRun(50, run)
		t.Logf("%v t(100) allocated %.1f times", r.strat, got)
		if got > r.budget {
			t.Errorf("%v t(100) allocated %.1f times, budget %.0f", r.strat, got, r.budget)
		}
	}
}

// TestBestFirstAllocationBudget pins the Env frontier's allocation path:
// best-first takes its nodes, goal cells, arcs, children lists, bindings,
// frames and compounds from the slabs in the expander's pooled scratch,
// so what a query allocates is a chunk now and then, its open list's
// growth and the chunks its solutions are detached into. Before the slabs, the same rows
// allocated 18 672, 1 042 and 132 times: one allocation per cell puts
// every row far past its budget. Each budget is 1.2x the measured steady
// state.
func TestBestFirstAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	rows := []struct {
		name, src, goal string
		opt             Options
		sols            int
		budget          float64
	}{
		// Measured 95 over 3173 expansions; 200 while each solution took
		// a heap object per copied cell.
		{"queens(5,Qs)", workload.NQueens, "queens(5,Qs)", Options{Strategy: BestFirst}, 10, 114},
		// Measured 23, first solution after 208 expansions.
		{"DeepFailure(16,12)", workload.DeepFailure(16, 12), "top(W)", Options{Strategy: BestFirst, MaxSolutions: 1, MaxDepth: 64}, 1, 28},
		// Measured 13; 24 while each of its 12 solutions took a values
		// slice of its own, 50 while each detached into a bindings map.
		{"gf(p40,G)", workload.FamilyTree(6, 3), "gf(p40,G)", Options{Strategy: BestFirst}, 12, 16},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			db := load(t, r.src)
			goals := q(t, r.goal)
			ws := uniform()
			run := func() {
				res, err := Run(context.Background(), db, ws, goals, r.opt)
				if err != nil || len(res.Solutions) != r.sols {
					t.Fatalf("run: %d solutions, err %v", len(res.Solutions), err)
				}
			}
			run() // warm the program cache and the scratch pool
			if got := testing.AllocsPerRun(50, run); got > r.budget {
				t.Errorf("best-first %s allocated %.1f times, budget %.0f", r.goal, got, r.budget)
			}
		})
	}
}

// TestBestFirstLiveHeapBudget pins what the slabs keep alive in a large
// best-first search. One live cell keeps its whole chunk, and dead cells
// in it point back into older chunks, so without a limit the chunks of a
// run keep each other and the run holds everything it ever allocated:
// queens(7,Qs) grew to 44 MB reachable by its 80 000th weight lookup,
// against 11 MB at its widest on per-cell heap allocation. A run takes at
// most a few chunks per slab, then allocates from the heap; the reachable
// heap, forced collections at fixed points of the run, is measured at
// 14.3 MB at its widest, and the budget is 1.2x that.
func TestBestFirstLiveHeapBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("collects five times over a 0.3 s search")
	}
	const budgetMB = 17.5
	db := load(t, workload.NQueens)
	goals := q(t, "queens(7,Qs)")
	base := reachableMB()
	st := &collectingStore{Store: uniform(), at: []int{10000, 20000, 40000, 60000, 80000}}
	if _, err := Run(context.Background(), db, st, goals, Options{Strategy: BestFirst}); err != nil {
		t.Fatal(err)
	}
	if len(st.reach) != len(st.at) {
		t.Fatalf("the run made %d weight lookups, want past %d", st.n, st.at[len(st.at)-1])
	}
	widest := slices.Max(st.reach) - base
	t.Logf("reachable at %v weight lookups: %.1f MB over %.1f MB before the run", st.at, st.reach, base)
	if widest > budgetMB {
		t.Errorf("best-first queens(7,Qs) kept %.1f MB reachable, budget %.1f MB", widest, budgetMB)
	}
}

// TestKeptSolutionsPinNoChunk: solutions kept after a large best-first
// run hold copies, not the run's slab cells. A slab compound or frame
// variable in a kept solution would keep its chunk and, through the
// chunk's other cells, much of the run: big(6,Y) answers Y = f(Z) four
// times, and keeping those four kept 0.65 MB when the Detacher shared
// slab cells (0.01 MB copied).
func TestKeptSolutionsPinNoChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes heap accounting")
	}
	db := load(t, workload.NQueens+"\nbig(N, Y) :- queens(N, _), Y = f(Z).\n")
	goals := q(t, "big(6,Y)")
	base := reachableMB()
	res, err := Run(context.Background(), db, uniform(), goals, Options{Strategy: BestFirst})
	if err != nil || len(res.Solutions) != 4 {
		t.Fatalf("run: %d solutions, err %v", len(res.Solutions), err)
	}
	if kept := reachableMB() - base; kept > 0.25 {
		t.Errorf("4 kept solutions hold %.2f MB", kept)
	}
	runtime.KeepAlive(res)
}

// reachableMB collects twice and returns the heap still allocated.
func reachableMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// collectingStore is a weight store that measures the reachable heap at
// its at'th weight lookups, with the run's frontier live on the stack.
type collectingStore struct {
	weights.Store
	at    []int
	n     int
	reach []float64
}

func (s *collectingStore) Weight(a kb.Arc) float64 {
	if s.n++; len(s.reach) < len(s.at) && s.n == s.at[len(s.reach)] {
		s.reach = append(s.reach, reachableMB())
	}
	return s.Store.Weight(a)
}

// replayTabler serves one complete table the way a table.Handle hit does:
// the table's own answer slice, unified by the engine one answer per
// backtrack. (search cannot import table, which imports it.)
type replayTabler struct {
	fn      term.Sym
	answers []term.Term
}

func (r replayTabler) IsTabled(fn term.Sym, arity int) bool { return fn == r.fn && arity == 2 }

func (r replayTabler) Answers(context.Context, *term.Env, term.Term) ([]term.Term, error) {
	return r.answers, nil
}

// TestTabledReplayAllocationBudget pins the replay of a complete table on
// the trail path: an exhaustive DFS of path(v0,Z) over a 64-answer ground
// table, the shape of the tabled_read benchmark workload. Ground answers
// are unified as stored, one per backtrack, so what the query allocates is
// the result and the chunks its 64 solutions are detached into — nothing
// per answer tried. One allocation per answer would put the count past
// the budget.
func TestTabledReplayAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	const nodes = 64
	db := load(t, workload.Cyclic(nodes, 32, 1))
	tb := replayTabler{fn: term.Intern("path")}
	for j := 0; j < nodes; j++ {
		tb.answers = append(tb.answers, term.NewCompound("path", term.NewAtom("v0"), term.NewAtom(fmt.Sprintf("v%d", j))))
	}
	goals := q(t, "path(v0,Z)")
	ws := uniform()
	opt := Options{Strategy: DFS, Tabler: tb}
	run := func() {
		res, err := Run(context.Background(), db, ws, goals, opt)
		if err != nil || len(res.Solutions) != nodes || !res.Exhausted {
			t.Fatalf("run: %d solutions, err %v", len(res.Solutions), err)
		}
	}
	run() // warm the scratch pool
	// Measured steady state is 11 allocations per query (73 with a values
	// slice per solution, 139 with a bindings map per solution; staging
	// every answer as an environment cost 407); the budget is 1.3x that,
	// like the queens guard's, and one more allocation per answer (75)
	// breaks it.
	const budget = 15
	if got := testing.AllocsPerRun(50, run); got > budget {
		t.Errorf("tabled replay of %d answers allocated %.1f times, budget %d", nodes, got, budget)
	}
}

// TestDFSProfilerAllocationBudget pins the profiler's hot-path cost: with
// a warm profiler (every predicate's cell already published), a profiled
// query allocates no more than the same query unprofiled, measured here
// beside it. The trail machine's meter lives in its pooled scratch and the
// Env frontier's is borrowed from a pool, so a failure means Note, Flush or
// the meter itself started allocating, or profiling took a pool of its
// own: the collector runs throughout, and each collection costs every
// pool in use a re-pin.
func TestDFSProfilerAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	rows := []struct {
		name, src, goal string
		opt             Options
		sols            int
	}{
		{"dfs deep failure", workload.DeepFailure(16, 12), "top(W)", Options{Strategy: DFS, MaxSolutions: 1, MaxDepth: 64}, 1},
		{"best-first queens", workload.NQueens, "queens(5,Qs)", Options{Strategy: BestFirst}, 10},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			db := load(t, r.src)
			goals := q(t, r.goal)
			ws := uniform()
			allocs := func(opt Options) (float64, float64) {
				run := func() {
					res, err := Run(context.Background(), db, ws, goals, opt)
					if err != nil || len(res.Solutions) != r.sols {
						t.Fatalf("run: %d solutions, err %v", len(res.Solutions), err)
					}
				}
				run() // warm the scratch pools and publish every predicate's cell
				return allocsNetOfRepins(200, run)
			}
			prof := obs.NewProfiler()
			on := r.opt
			on.Prof = prof
			off, offGC := allocs(r.opt)
			got, gotGC := allocs(on)
			t.Logf("unprofiled %.2f, profiled %.2f allocations per query net of %.2f and %.2f collections", off, got, offGC, gotGC)
			if got > off+0.25 {
				t.Errorf("profiled query allocated %.2f times, unprofiled %.2f (net of pool re-pins)", got, off)
			}
			if prof.TotalNanos() == 0 {
				t.Error("profiler attributed no time")
			}
		})
	}
}

// poolRepin is what a collection costs the one sync.Pool a query borrows
// its engine's scratch from: the collection empties the pool, and the next
// Put re-pins it with a per-P array and a place in the runtime's pool
// list.
const poolRepin = 2

// allocsNetOfRepins runs f n times on one P with the collector running,
// as testing.AllocsPerRun does, after one warm-up run there as it does
// too (changing GOMAXPROCS drops every pool's per-P array, so a query's
// pooled scratch and iterator are refilled before the count starts), and
// returns the allocations per run less poolRepin per collection, and the
// collections per run. Counting the collections rather than pausing them
// keeps a second pool visible: it re-pins too.
func allocsNetOfRepins(n int, f func()) (perRun, gcs float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for range n {
		f()
	}
	runtime.ReadMemStats(&b)
	gc := float64(b.NumGC - a.NumGC)
	return (float64(b.Mallocs-a.Mallocs) - poolRepin*gc) / float64(n), gc / float64(n)
}

// TestDFSObservabilityOffOverhead is a gross-inversion tripwire for the
// disabled path: with no profiler, no trace and no live registry, the
// query must not run slower than the fully instrumented one. It cannot
// measure the real disabled-path overhead (that is what the E1 benchmarks
// against the recorded baseline are for) — it catches the disabled path
// accidentally doing instrumented-path work.
func TestDFSObservabilityOffOverhead(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	db := load(t, workload.DeepFailure(16, 12))
	goals := q(t, "top(W)")
	ws := uniform()
	median := func(opt Options) time.Duration {
		times := make([]time.Duration, 7)
		for i := range times {
			start := time.Now()
			if _, err := Run(context.Background(), db, ws, goals, opt); err != nil {
				t.Fatal(err)
			}
			times[i] = time.Since(start)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[3]
	}
	base := Options{Strategy: DFS, MaxSolutions: 1, MaxDepth: 64}
	on := base
	on.Prof = obs.NewProfiler()
	median(base) // warm
	off := median(base)
	instrumented := median(on)
	// 25% headroom plus an absolute floor absorbs scheduler noise on a
	// ~30µs query; a real inversion (off paying per-dispatch timer costs)
	// is far larger.
	if off > instrumented*5/4+50*time.Microsecond {
		t.Errorf("observability-off run (%v) slower than instrumented run (%v)", off, instrumented)
	}
}
