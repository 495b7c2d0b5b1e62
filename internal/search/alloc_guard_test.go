package search

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"blog/internal/obs"
	"blog/internal/term"
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
	// Measured steady state is ~30 allocations per query; the budget
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
// query allocates is its 10 solutions (bindings map, detached list, chain)
// plus the run header — nothing per builtin call. One allocation per call
// would put the count past 1600.
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
	// Measured steady state is 148 allocations per query, ~12 per solution
	// plus the run header; the budget is 1.3x that, slack for pool refills
	// after a GC cycle empties the sync.Pool mid-measurement.
	const budget = 195
	if got := testing.AllocsPerRun(50, run); got > budget {
		t.Errorf("queens(5,Qs) DFS allocated %.1f times, budget %d", got, budget)
	}
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
// its 64 solutions plus the run header — nothing per answer tried. One
// allocation per answer would put the count past the budget.
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
	// Measured steady state is 148 allocations per query, ~2 per solution
	// plus the run header (staging every answer as an environment cost
	// 407); the budget is 1.3x that, like the queens guard's, and one more
	// allocation per answer (212) breaks it.
	const budget = 192
	if got := testing.AllocsPerRun(50, run); got > budget {
		t.Errorf("tabled replay of %d answers allocated %.1f times, budget %d", nodes, got, budget)
	}
}

// TestDFSProfilerAllocationBudget pins the profiler's hot-path cost: with
// a warm profiler (every predicate's cell already published), a profiled
// query allocates no more than the same query unprofiled, measured here
// beside it. The trail machine's meter lives in its pooled scratch and the
// Env frontier's is borrowed from a pool, so a failure means Note, Flush or
// the meter itself started allocating.
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
			allocs := func(opt Options) float64 {
				run := func() {
					res, err := Run(context.Background(), db, ws, goals, opt)
					if err != nil || len(res.Solutions) != r.sols {
						t.Fatalf("run: %d solutions, err %v", len(res.Solutions), err)
					}
				}
				run() // warm the scratch pools and publish every predicate's cell
				return testing.AllocsPerRun(50, run)
			}
			prof := obs.NewProfiler()
			on := r.opt
			on.Prof = prof
			off := allocs(r.opt)
			if got := allocs(on); got > off {
				t.Errorf("profiled query allocated %.1f times, unprofiled %.1f", got, off)
			}
			if prof.TotalNanos() == 0 {
				t.Error("profiler attributed no time")
			}
		})
	}
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
