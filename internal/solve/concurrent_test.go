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
	"blog/internal/weights"
)

// TestConcurrentRepresentations hammers one database — hence one shared
// compiled Program — from three directions at once (run under -race):
// OR-parallel workers trading chains between their trail stores,
// sequential trail-store DFS queries each owning a recycled store, and
// tabled trail-DFS queries whose table space a fourth goroutine keeps
// invalidating mid-run. Every query must still see its full answer set:
// the Program is read-only shared state, trail scratch is per-run, and an
// invalidated table is simply re-derived by the next consumer.
func TestConcurrentRepresentations(t *testing.T) {
	db, _, err := kb.LoadString(`
		:- table path/2.
		gf(X, Z) :- f(X, Y), f(Y, Z).
		f(sam, larry). f(larry, den). f(larry, doug).
		path(X, Z) :- path(X, Y), edge(Y, Z).
		path(X, Y) :- edge(X, Y).
		edge(a, b). edge(b, c). edge(c, a).
	`)
	if err != nil {
		t.Fatal(err)
	}
	sp := table.NewSpace(db, table.Config{})
	run := func(query string, strat Strategy, tabled bool) (int, error) {
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
		}
		if tabled {
			req.Tables = sp
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
	check := func(query string, strat Strategy, tabled bool, want int) {
		defer wg.Done()
		got, err := run(query, strat, tabled)
		if err != nil {
			errs <- fmt.Errorf("%s (%v): %v", query, strat, err)
			return
		}
		if got != want {
			errs <- fmt.Errorf("%s (%v): %d solutions, want %d", query, strat, got, want)
		}
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
		wg.Add(3)
		go check("gf(sam, G)", Parallel, false, 2)
		go check("gf(sam, G)", DFS, false, 2)
		go check("path(a, R)", DFS, true, 3)
	}
	wg.Wait()
	close(stop)
	inv.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
