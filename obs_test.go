package blog

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"blog/internal/engine"
	"blog/internal/par"
	"blog/internal/solve"
	"blog/internal/workload"
)

// findSpan walks the span tree depth-first for the first span whose name
// has the given prefix.
func findSpan(s *Span, prefix string) *Span {
	if s == nil {
		return nil
	}
	if strings.HasPrefix(s.Name, prefix) {
		return s
	}
	for _, c := range s.Children {
		if hit := findSpan(c, prefix); hit != nil {
			return hit
		}
	}
	return nil
}

// TestProfilerSpanAccounting is the acceptance check for the profiler's
// interval attribution: on a search heavy enough to dwarf timer
// granularity, the per-predicate nanosecond sum must land within 20% of
// the search span's wall time, because the meter charges every interval
// between dispatches to some predicate — time can neither vanish nor be
// double-counted.
func TestProfilerSpanAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a multi-millisecond search")
	}
	p, err := LoadString(workload.DeepFailure(800, 56))
	if err != nil {
		t.Fatal(err)
	}
	prof := NewProfiler()
	res, err := p.Query("top(X)", DFS, Traced(), Profiled(prof), MaxDepth(128))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions = %d, want 1", len(res.Solutions))
	}
	if res.Spans == nil || res.Spans.Name != "query" {
		t.Fatalf("Spans = %+v, want root span named query", res.Spans)
	}
	for _, phase := range []string{"parse", "compile", "search"} {
		if findSpan(res.Spans, phase) == nil {
			t.Errorf("span tree missing %q phase:\n%s", phase, res.Spans.Render())
		}
	}
	search := findSpan(res.Spans, "search")
	if search == nil {
		t.Fatal("no search span")
	}
	if got := search.Counts["expanded"]; uint64(got) != res.Expanded {
		t.Errorf("search span expanded = %d, result says %d", got, res.Expanded)
	}
	wallNanos := search.DurUs * 1e3
	if wallNanos < 2e6 {
		t.Fatalf("search took %.0fns; workload too small for a meaningful accounting check", wallNanos)
	}
	sum := float64(prof.TotalNanos())
	if ratio := sum / wallNanos; ratio < 0.8 || ratio > 1.2 {
		t.Errorf("profiler accounts for %.0fns of a %.0fns search (ratio %.3f), want within 20%%",
			sum, wallNanos, ratio)
	}
	if top := prof.Top(3); len(top) == 0 || top[0].Expansions == 0 {
		t.Errorf("Top(3) = %+v, want hot predicates with expansion counts", top)
	}
}

// TestProfileCountsExact holds the profile to the run's own counters: the
// expansions and VM dispatches summed over the profile's rows equal the
// result's, on every strategy and on runs a solution cap stops early, so a
// meter that loses counts it has not yet published fails here. A tabled
// run's profile counts at least the result's, since its generators add
// work of their own.
func TestProfileCountsExact(t *testing.T) {
	queens, err := LoadString(workload.NQueens)
	if err != nil {
		t.Fatal(err)
	}
	cyclic, err := LoadString(workload.Cyclic(12, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name   string
		prog   *Program
		goal   string
		strat  Strategy
		opts   []Option
		tabled bool
	}{
		{"dfs", queens, "queens(5,Qs)", DFS, nil, false},
		{"bfs", queens, "queens(5,Qs)", BFS, nil, false},
		{"best", queens, "queens(5,Qs)", BestFirst, nil, false},
		{"parallel", queens, "queens(5,Qs)", Parallel, []Option{Workers(2)}, false},
		{"dfs capped", queens, "queens(5,Qs)", DFS, []Option{MaxSolutions(3)}, false},
		{"parallel capped", queens, "queens(5,Qs)", Parallel, []Option{Workers(2), MaxSolutions(2)}, false},
		{"tabled", cyclic, "path(v0, X)", DFS, []Option{Tabled()}, true},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			prof := NewProfiler()
			res, err := r.prog.Query(r.goal, r.strat, append(r.opts, Profiled(prof))...)
			if err != nil {
				t.Fatal(err)
			}
			var exp, vmd uint64
			for _, pp := range prof.Snapshot() {
				exp += pp.Expansions
				vmd += pp.VMDispatches
			}
			if r.tabled {
				if exp < res.Expanded || vmd < res.VMDispatched {
					t.Errorf("profile counts %d expansions, %d dispatches; result %d, %d: want at least the result's",
						exp, vmd, res.Expanded, res.VMDispatched)
				}
				return
			}
			if exp != res.Expanded || vmd != res.VMDispatched {
				t.Errorf("profile counts %d expansions, %d dispatches; result %d, %d",
					exp, vmd, res.Expanded, res.VMDispatched)
			}
		})
	}
}

// TestCountersCrossTheFacade holds every counter a Result carries to the
// one solve.Do reports for the same request on a fresh copy of the
// program: the engine counters whole, the table counters whole, and the
// AND-parallel group counts. The network counters depend on scheduling,
// so they are only checked to be nonzero where a row publishes and zero
// elsewhere. Each row names an engine counter it must make nonzero, one a
// dropped copy on its path would lose (Pruned on the trail machine,
// OpenMax summed over AND-parallel groups, MaxDepth over parallel
// workers), and every engine counter is nonzero on some row.
func TestCountersCrossTheFacade(t *testing.T) {
	queens, cyclic := workload.NQueens, workload.WeightedCyclic(12, 6, 9)
	rows := []struct {
		name, src, goal string
		strat           Strategy
		set             Settings
		must            string
	}{
		{"dfs prune", queens, "queens(5,Qs)", DFS, Settings{Prune: true}, "Pruned"},
		{"dfs depth cut", queens, "queens(5,Qs)", DFS, Settings{MaxDepth: 12}, "DepthCutoffs"},
		{"bfs", queens, "queens(4,Qs)", BFS, Settings{}, "OpenMax"},
		{"best", queens, "queens(5,Qs)", BestFirst, Settings{}, "OpenMax"},
		{"parallel", queens, "queens(5,Qs)", Parallel, Settings{Workers: 2}, "MaxDepth"},
		{"parallel two-level", queens, "queens(5,Qs)", Parallel, Settings{Workers: 3, TwoLevel: true}, "VMDispatched"},
		{"and-parallel", queens, "queens(4,A), queens(4,B)", BFS, Settings{AndParallel: true}, "OpenMax"},
		{"tabled", cyclic, "shortest(v0, Z, C), shortest(v0, Y, D)", DFS, Settings{Tabled: true}, "Generated"},
	}
	var seen engine.Stats
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			facade, err := LoadString(r.src)
			if err != nil {
				t.Fatal(err)
			}
			g, err := ParseGoal(r.goal)
			if err != nil {
				t.Fatal(err)
			}
			res, err := facade.Run(context.Background(), g, r.strat, &r.set, func(Answer) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			p, err := LoadString(r.src)
			if err != nil {
				t.Fatal(err)
			}
			req := solve.Request{
				DB: p.db, Store: p.globalStore(), Goals: g.goals, Strategy: r.strat,
				AndParallel: r.set.AndParallel, MaxDepth: r.set.MaxDepth, Prune: r.set.Prune,
				Workers: r.set.Workers, TwoLevel: r.set.TwoLevel,
			}
			if r.set.Tabled {
				req.Tables = p.tables
			}
			resp, err := solve.Do(context.Background(), &req)
			if err != nil {
				t.Fatal(err)
			}
			want := resp.Stats
			if res.Counters.Stats != want.Stats {
				t.Errorf("engine counters\n got %+v\nwant %+v", res.Counters.Stats, want.Stats)
			}
			if res.TableStats != want.TableStats {
				t.Errorf("table counters\n got %+v\nwant %+v", res.TableStats, want.TableStats)
			}
			if res.Groups != want.Groups || !slices.Equal(res.GroupSolutions, want.GroupSolutions) {
				t.Errorf("groups %d %v, want %d %v", res.Groups, res.GroupSolutions, want.Groups, want.GroupSolutions)
			}
			if r.strat == Parallel {
				if res.NetworkAcquires == 0 || len(res.PerWorkerExpanded) != r.set.Workers {
					t.Errorf("network counters %+v on %d workers", res.NetworkStats, r.set.Workers)
				}
			} else if !reflect.DeepEqual(res.NetworkStats, par.NetworkStats{}) {
				t.Errorf("a %v run published network counters %+v", r.strat, res.NetworkStats)
			}
			if reflect.ValueOf(res.Counters.Stats).FieldByName(r.must).IsZero() {
				t.Errorf("%s is zero: %+v", r.must, res.Counters.Stats)
			}
			seen.Add(res.Counters.Stats)
			if ts := res.TableStats; r.set.Tabled && (ts.TablesCreated == 0 || ts.TableAnswers == 0 ||
				ts.TableHits == 0 || ts.RederivationsAvoided == 0 || ts.AnswersSubsumed == 0) {
				t.Errorf("table counters %+v: want creation, answers, hits, replays and subsumption", ts)
			}
		})
	}
	v := reflect.ValueOf(seen)
	for i := range v.NumField() {
		if v.Field(i).IsZero() {
			t.Errorf("no row made %s nonzero", v.Type().Field(i).Name)
		}
	}
}

// TestTracedTabledFixpoint checks that tabled resolution nests its
// fixpoint spans (with per-round children and answer deltas) under the
// query's search phase.
func TestTracedTabledFixpoint(t *testing.T) {
	p, err := LoadString(workload.Cyclic(12, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Query("path(v0, X)", DFS, Tabled(), Traced())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 12 {
		t.Fatalf("solutions = %d, want 12 (every node reachable on the ring)", len(res.Solutions))
	}
	search := findSpan(res.Spans, "search")
	if search == nil {
		t.Fatalf("no search span:\n%s", res.Spans.Render())
	}
	fix := findSpan(search, "fixpoint path/2")
	if fix == nil {
		t.Fatalf("no fixpoint span under search:\n%s", res.Spans.Render())
	}
	if fix.Counts["rounds"] < 1 {
		t.Errorf("fixpoint rounds = %d, want >= 1", fix.Counts["rounds"])
	}
	round := findSpan(fix, "round 1")
	if round == nil {
		t.Fatalf("fixpoint has no round children:\n%s", fix.Render())
	}
	if round.Counts["answers"] == 0 {
		t.Errorf("round 1 derived no answers:\n%s", fix.Render())
	}
}

// TestSharedProfilerConcurrentQueries hammers one profiler from
// concurrent queries across both binding representations (DFS on the
// trail store; traced DFS and BFS on the persistent Env), tabled
// resolution and the OR-parallel strategy — the satellite's -race check
// that the dense-cell array's copy-on-write growth and atomic counters
// hold up under contention.
func TestSharedProfilerConcurrentQueries(t *testing.T) {
	deep, err := LoadString(workload.DeepFailure(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	cyclic, err := LoadString(workload.Cyclic(8, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	shared := NewProfiler()
	runs := []struct {
		name  string
		prog  *Program
		goal  string
		strat Strategy
		opts  []Option
	}{
		{"trail-dfs", deep, "top(X)", DFS, []Option{Traced()}},
		{"env-dfs", deep, "top(X)", DFS, []Option{RecordTrace()}},
		{"bfs", deep, "top(X)", BFS, nil},
		{"tabled", cyclic, "path(v0, X)", DFS, []Option{Tabled(), Traced()}},
		{"parallel", deep, "top(X)", Parallel, []Option{Workers(4)}},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(runs)*4)
	for _, r := range runs {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(r struct {
				name  string
				prog  *Program
				goal  string
				strat Strategy
				opts  []Option
			}) {
				defer wg.Done()
				opts := append([]Option{Profiled(shared), MaxDepth(64)}, r.opts...)
				if _, err := r.prog.Query(r.goal, r.strat, opts...); err != nil {
					errs <- err
				}
			}(r)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := shared.Snapshot()
	if len(snap) == 0 {
		t.Fatal("shared profiler saw nothing")
	}
	if shared.TotalNanos() == 0 {
		t.Error("shared profiler attributed no time")
	}
}
