package blog

// Tests for the unified solver runtime's concurrency contract: one Program
// serving many simultaneous queries (run with -race), and context
// cancellation that returns promptly without leaking goroutines.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"blog/internal/weights"
	"blog/internal/workload"
)

// TestConcurrentQueriesAllStrategies hammers one Program from every
// strategy at once, with global learning and a learning session active.
// The -race run of the suite is the assertion that the facade, the weight
// table, the session overlay, and all three engines share state safely.
func TestConcurrentQueriesAllStrategies(t *testing.T) {
	p, err := LoadString(fig1 + "\ncolor(red). color(blue).\n")
	if err != nil {
		t.Fatal(err)
	}
	sess := p.NewSession(0.5)

	type job struct {
		name string
		run  func() (*Result, error)
	}
	jobs := []job{
		{"dfs", func() (*Result, error) {
			return p.Query("gf(sam,G)", DFS, Learn())
		}},
		{"best", func() (*Result, error) {
			return p.Query("gf(sam,G)", BestFirst, Learn(), InSession(sess))
		}},
		{"parallel", func() (*Result, error) {
			return p.Query("gf(sam,G)", Parallel, Workers(4), Learn())
		}},
		{"andpar", func() (*Result, error) {
			return p.Query("gf(sam,G), color(C)", BestFirst, AndParallel(), Learn(), InSession(sess))
		}},
		{"maintenance", func() (*Result, error) {
			_ = p.LearnedArcs()
			_ = p.LinkedListText()
			return p.Query("gf(sam,G)", BFS)
		}},
	}

	var wg sync.WaitGroup
	errCh := make(chan error, len(jobs)*8)
	for round := 0; round < 8; round++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				res, err := j.run()
				if err != nil {
					errCh <- fmt.Errorf("%s: %w", j.name, err)
					return
				}
				if len(res.Solutions) == 0 {
					errCh <- fmt.Errorf("%s: no solutions", j.name)
				}
			}(j)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	sess.End()
}

// TestConcurrentQueriesWithWeightMaintenance interleaves queries with
// LoadWeights, the other writer of the Program's global table.
func TestConcurrentQueriesWithWeightMaintenance(t *testing.T) {
	p, err := LoadString(fig1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				if _, err := p.Query("gf(sam,G)", BestFirst, Learn()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 10; k++ {
			if err := p.LoadWeights(emptyWeights(t, weights.DefaultConfig().A)); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
}

// TestCancelledParallelQueryLeaksNoGoroutines cancels an unbounded
// Parallel query mid-flight and verifies (a) the prompt context.Canceled
// return and (b) that every worker and watcher goroutine has exited.
func TestCancelledParallelQueryLeaksNoGoroutines(t *testing.T) {
	p, err := LoadString("loop :- loop.")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := p.QueryContext(ctx, "loop", Parallel,
				Workers(8), MaxDepth(1<<20), MaxExpansions(1<<62))
			done <- err
		}()
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("run %d: err = %v, want context.Canceled", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("run %d: query did not return within 5s of cancellation", i)
		}
	}

	// Give exiting goroutines a moment to unwind, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelledQueryEveryStrategy: prompt context.Canceled from each
// discipline on an unbounded search.
func TestCancelledQueryEveryStrategy(t *testing.T) {
	p, err := LoadString("loop :- loop.\nloop2 :- loop2.")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		query string
		strat Strategy
		opts  []Option
	}{
		{"dfs", "loop", DFS, nil},
		{"bfs", "loop", BFS, nil},
		{"best", "loop", BestFirst, nil},
		{"parallel", "loop", Parallel, []Option{Workers(4)}},
		{"andpar", "loop, loop2", DFS, []Option{AndParallel()}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			opts := append([]Option{MaxDepth(1 << 20), MaxExpansions(1 << 62)}, c.opts...)
			done := make(chan error, 1)
			go func() {
				_, err := p.QueryContext(ctx, c.query, c.strat, opts...)
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no return within 5s of cancellation")
			}
		})
	}
}

// TestAndParallelReportsRealExhaustion locks in the fix for the old
// facade's guess (`Exhausted: maxSolutions == 0`): exhaustion now comes
// from the engine, and solutions carry bound and depth like every other
// strategy.
func TestAndParallelReportsRealExhaustion(t *testing.T) {
	p, err := LoadString("p(1). p(2). p(3).\nq(a). q(b).")
	if err != nil {
		t.Fatal(err)
	}

	full, err := p.Query("p(X), q(Y)", DFS, AndParallel())
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Solutions) != 6 {
		t.Fatalf("solutions = %d, want 6", len(full.Solutions))
	}
	if !full.Exhausted {
		t.Error("complete cross product must report Exhausted")
	}
	if full.Groups != 2 {
		t.Errorf("groups = %d, want 2", full.Groups)
	}
	for _, s := range full.Solutions {
		if s.Depth != 2 {
			t.Errorf("solution %v: depth = %d, want 2 (one arc per group)", s, s.Depth)
		}
		if s.Bound <= 0 {
			t.Errorf("solution %v: bound = %v, want > 0", s, s.Bound)
		}
	}

	capped, err := p.Query("p(X), q(Y)", DFS, AndParallel(), MaxSolutions(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Solutions) != 4 {
		t.Fatalf("capped solutions = %d, want 4", len(capped.Solutions))
	}
	if capped.Exhausted {
		t.Error("a MaxSolutions-truncated run must not claim exhaustion")
	}

	// A cap at (or above) the full product is not a truncation.
	exact, err := p.Query("p(X), q(Y)", DFS, AndParallel(), MaxSolutions(6))
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Exhausted {
		t.Error("cap equal to the full product still exhausts the tree")
	}

	// A proven failure is complete too.
	fail, err := p.Query("p(X), missing(Y)", DFS, AndParallel())
	if err != nil {
		t.Fatal(err)
	}
	if len(fail.Solutions) != 0 || !fail.Exhausted {
		t.Errorf("failed conjunction: %d solutions exhausted=%v, want 0/true",
			len(fail.Solutions), fail.Exhausted)
	}
}

// sortedSolutionStrings renders a result's solutions as a sorted string
// set, the comparison form of the subsumption convergence test below.
func sortedSolutionStrings(res *Result) []string {
	out := make([]string, 0, len(res.Solutions))
	for _, s := range res.Solutions {
		out = append(out, s.String())
	}
	sort.Strings(out)
	return out
}

// TestConcurrentSubsumptionConverges races answer improvements on one
// shared table space (run with -race): many goroutines — OR-parallel
// workers among them — produce and consume the min(3) shortest-path
// fixpoint of a cyclic weighted graph concurrently, while another
// goroutine loads weight tables whose depth constant A alternates, which
// reconfigures the space — the production invalidation path — to force
// re-productions to race live consumptions. Every run, under every strategy, must
// converge to exactly the minimal-cost answer set of an isolated
// sequential run.
func TestConcurrentSubsumptionConverges(t *testing.T) {
	const nodes, chords, seed = 12, 6, 9
	p, err := LoadString(workload.WeightedCyclic(nodes, chords, seed))
	if err != nil {
		t.Fatal(err)
	}
	// The reference comes from a second, isolated Program so its table
	// space never races the concurrent runs.
	refProg, err := LoadString(workload.WeightedCyclic(nodes, chords, seed))
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := refProg.Query("shortest(v0, Z, C)", DFS, Tabled())
	if err != nil {
		t.Fatal(err)
	}
	want := sortedSolutionStrings(refRes)
	if len(want) != nodes {
		t.Fatalf("reference run found %d minima, want one per node", len(want))
	}

	strategies := []Strategy{Parallel, Parallel, DFS, BFS, BestFirst}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for i := 0; i < 12; i++ {
		strat := strategies[i%len(strategies)]
		wg.Add(1)
		go func(strat Strategy) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				opts := []Option{Tabled()}
				if strat == Parallel {
					opts = append(opts, Workers(4))
				}
				res, err := p.Query("shortest(v0, Z, C)", strat, opts...)
				if err != nil {
					errCh <- fmt.Errorf("%v: %w", strat, err)
					return
				}
				if got := sortedSolutionStrings(res); fmt.Sprint(got) != fmt.Sprint(want) {
					errCh <- fmt.Errorf("%v: answers diverged\n got: %v\nwant: %v", strat, got, want)
					return
				}
			}
		}(strat)
	}
	// Invalidation racing production and consumption: dropped tables must
	// be rebuilt with identical minima, never observed half-built.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 6; k++ {
			if err := p.LoadWeights(emptyWeights(t, 64+32*(k%2))); err != nil {
				t.Error(err)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestConcurrentAssertDuringQueriesAndSnapshots is the assert-while-serving
// regression for the clause store (run with -race): Program.Assert mutates
// kb.DB's predicate index and clause lists while tabled queries resolve
// against them and snapshot writes fingerprint them, which used to be
// completely unsynchronized. Asserts grow a chain edge by edge while every
// strategy queries its transitive closure and a snapshot writer serializes
// the table space; afterwards each strategy must serve the full post-assert
// closure.
func TestConcurrentAssertDuringQueriesAndSnapshots(t *testing.T) {
	p, err := LoadString(`:- table path/2.
path(X, Z) :- path(X, Y), edge(Y, Z).
path(X, Y) :- edge(X, Y).
edge(n0, n1).
`)
	if err != nil {
		t.Fatal(err)
	}
	const lastNode = 16
	strategies := []Strategy{DFS, BFS, BestFirst, Parallel}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	done := make(chan struct{})
	wg.Add(1)
	go func() { // asserter: extends the chain one edge at a time
		defer wg.Done()
		defer close(done)
		for i := 1; i < lastNode; i++ {
			if err := p.Assert(fmt.Sprintf("edge(n%d, n%d).", i, i+1)); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for _, strat := range strategies {
		wg.Add(1)
		go func(strat Strategy) { // queriers race the asserts and each other
			defer wg.Done()
			for {
				opts := []Option{Tabled()}
				if strat == Parallel {
					opts = append(opts, Workers(4))
				}
				if _, err := p.Query("path(n0, Z)", strat, opts...); err != nil {
					errCh <- fmt.Errorf("%v: %w", strat, err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(strat)
	}
	wg.Add(1)
	go func() { // snapshotter: fingerprints predicates while clauses land
		defer wg.Done()
		for {
			if _, err := p.SaveTables(io.Discard); err != nil {
				errCh <- fmt.Errorf("snapshot: %w", err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	want := make([]string, 0, lastNode)
	for i := 1; i <= lastNode; i++ {
		want = append(want, fmt.Sprintf("Z = n%d", i))
	}
	sort.Strings(want)
	for _, strat := range strategies {
		res, err := p.Query("path(n0, Z)", strat, Tabled())
		if err != nil {
			t.Fatalf("settled %v: %v", strat, err)
		}
		if got := sortedSolutionStrings(res); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("settled %v closure diverged\n got: %v\nwant: %v", strat, got, want)
		}
	}
}
