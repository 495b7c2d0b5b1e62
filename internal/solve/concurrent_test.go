package solve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/table"
	"blog/internal/term"
	"blog/internal/weights"
)

// TestConcurrentRepresentations hammers one database — hence one shared
// compiled Program — from three directions at once (run under -race):
// OR-parallel workers trading chains between their trail stores,
// sequential trail-store DFS queries each owning a recycled store, and
// tabled trail-DFS queries whose table space a fourth goroutine keeps
// invalidating mid-run, and a tabled answer with a free variable consumed
// by DFS, BFS and Parallel at once. Every query must still see its full
// answer set: the Program is read-only shared state, trail scratch is
// per-run, an invalidated table is simply re-derived by the next consumer,
// and a shared non-ground answer is renamed apart before any store binds
// into it.
func TestConcurrentRepresentations(t *testing.T) {
	db, _, err := kb.LoadString(`
		:- table path/2.
		:- table wrap/2.
		gf(X, Z) :- f(X, Y), f(Y, Z).
		wrap(X, f(X, _)) :- edge(X, _).
		f(sam, larry). f(larry, den). f(larry, doug).
		path(X, Z) :- path(X, Y), edge(Y, Z).
		path(X, Y) :- edge(X, Y).
		edge(a, b). edge(b, c). edge(c, a).
	`)
	if err != nil {
		t.Fatal(err)
	}
	sp := table.NewSpace(db, table.Config{})
	wsp := table.NewSpace(db, table.Config{})
	defer wsp.Close()
	run := func(query string, strat Strategy, tables *table.Space) (int, error) {
		goals, err := parse.Query(query)
		if err != nil {
			return 0, err
		}
		req := &Request{
			DB:            db,
			Store:         weights.NewUniform(weights.DefaultConfig()),
			Goals:         goals,
			Strategy:      strat,
			MaxExpansions: 20000,
			MaxDepth:      48,
			Tables:        tables,
		}
		if strat == Parallel {
			req.Workers = 4
		}
		resp, err := Do(context.Background(), req)
		if err != nil {
			return 0, err
		}
		return len(resp.Solutions), nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	check := func(query string, strat Strategy, tables *table.Space, want int) {
		defer wg.Done()
		got, err := run(query, strat, tables)
		if err != nil {
			errs <- fmt.Errorf("%s (%v): %v", query, strat, err)
			return
		}
		if got != want {
			errs <- fmt.Errorf("%s (%v): %d solutions, want %d", query, strat, got, want)
		}
	}
	// Complete wrap's table first, so every wrap query below consumes the
	// one stored answer, wrap(a, f(a, _)).
	const wrapQuery = "wrap(a, W), W = f(_, b)"
	if n, err := run(wrapQuery, DFS, wsp); err != nil || n != 1 {
		t.Fatalf("%s: %d solutions, err %v", wrapQuery, n, err)
	}
	wgoal, err := parse.Query("wrap(a, W)")
	if err != nil {
		t.Fatal(err)
	}
	stored, err := wsp.NewHandle().Answers(context.Background(), nil, wgoal[0])
	if err != nil || len(stored) != 1 {
		t.Fatalf("wrap(a, W): %d stored answers, err %v", len(stored), err)
	}
	stop := make(chan struct{})
	var inv sync.WaitGroup
	inv.Add(1)
	go func() {
		defer inv.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sp.Invalidate("test")
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	for i := 0; i < 8; i++ {
		wg.Add(6)
		go check("gf(sam, G)", Parallel, nil, 2)
		go check("gf(sam, G)", DFS, nil, 2)
		go check("path(a, R)", DFS, sp, 3)
		go check(wrapQuery, DFS, wsp, 1)
		go check(wrapQuery, BFS, wsp, 1)
		go check(wrapQuery, Parallel, wsp, 1)
	}
	wg.Wait()
	close(stop)
	inv.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// A store reads a variable's binding straight from its frame, so under
	// any store's Env a binding left in the stored answer would show.
	if a := stored[0]; term.Ground(term.NewStore().Env(), a) {
		t.Errorf("stored answer %s was bound in place: %s", a, term.Append(nil, a, term.NewStore().Env()))
	}
}
