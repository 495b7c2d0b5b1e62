package table_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/ref"
	"blog/internal/solve"
	"blog/internal/table"
	"blog/internal/weights"
)

// TestNoCleanTableIsStale races clause asserts into a cyclic graph against
// tabled path/2 and hop/2 queries under DFS, BFS and Parallel and a
// snapshot writer (run with -race). Each round ends with everything
// stopped. Then every
// table the space reports complete and not dirty must hold exactly the
// answers of internal/ref's fixpoint of the final clauses, and a fresh
// space reading the round's last snapshot must restore only tables that
// pass the same check. A production that read a dependency's stamp after
// resolving its clauses, and raced an assert in between, would leave a
// table that claims the new stamp but misses the answer through the new
// edge.
func TestNoCleanTableIsStale(t *testing.T) {
	// A ring every node reaches, which each assert links to a fresh node:
	// every assert adds an answer to every path/2 table. hop/2 is not
	// recursive, so its production is one generator run, which keeps
	// working after it last resolves edge/2.
	src := `:- table path/2, hop/2.
path(X, Z) :- path(X, Y), edge(Y, Z).
path(X, Y) :- edge(X, Y).
hop(X, Z) :- edge(X, Y), edge(Y, Z), pad(_).
edge(n0, n1). edge(n1, n2). edge(n2, n3). edge(n3, n4). edge(n4, n5). edge(n5, n0).
`
	for i := 0; i < 30; i++ {
		src += fmt.Sprintf("pad(p%d).\n", i)
	}
	db, _, err := kb.LoadString(src)
	if err != nil {
		t.Fatal(err)
	}
	const ring, rounds, asserts = 6, 40, 4
	sp := table.NewSpace(db, table.Config{})
	clean, restored := 0, 0
	for round := 0; round < rounds; round++ {
		var (
			wg             sync.WaitGroup
			queries, saves atomic.Int64
			snap           []byte
		)
		stop := make(chan struct{})
		errs := make(chan error, 4)
		for i, strat := range []solve.Strategy{solve.DFS, solve.BFS, solve.Parallel} {
			wg.Add(1)
			go func(i int, strat solve.Strategy) {
				defer wg.Done()
				for j := i; ; j++ {
					select {
					case <-stop:
						return
					default:
					}
					query := fmt.Sprintf("%s(n%d, Z)", [2]string{"path", "hop"}[j%2], j/2%ring)
					if _, err := queryAnswers(db, sp, query, strat); err != nil {
						errs <- err
						return
					}
					queries.Add(1)
				}
			}(i, strat)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var buf bytes.Buffer
				if _, err := sp.WriteSnapshot(&buf); err != nil {
					errs <- err
					return
				}
				snap = buf.Bytes()
				saves.Add(1)
			}
		}()
		// Each assert waits for a query to finish since the last one, so
		// asserts land while productions run; the last wait leaves tables
		// derived from, and a snapshot written after, the final clauses.
		// A failed goroutine ends the waits.
		wait := func(n *atomic.Int64, more int64) {
			for target := n.Load() + more; n.Load() < target && len(errs) == 0; {
				runtime.Gosched()
			}
		}
		for k := 0; k < asserts; k++ {
			wait(&queries, 1)
			assertFact(t, db, fmt.Sprintf("edge(n%d, m%d)", (round+k)%ring, round*asserts+k))
		}
		wait(&queries, 2*ring)
		wait(&saves, 1)
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		model, err := ref.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		clean += checkCleanTables(t, db, sp, model)
		reread := table.NewSpace(db, table.Config{})
		loaded, _, err := reread.ReadSnapshot(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		if n := checkCleanTables(t, db, reread, model); n != loaded {
			t.Fatalf("round %d: restored %d tables, %d of them clean", round, loaded, n)
		}
		restored += loaded
	}
	if clean == 0 || restored == 0 {
		t.Fatalf("checked %d clean tables and %d restored ones, want some of each", clean, restored)
	}
}

// checkCleanTables compares every complete, clean table of sp with the
// model, serving each from its table (no production), and returns how
// many it checked.
func checkCleanTables(t *testing.T, db *kb.DB, sp *table.Space, model *ref.Model) int {
	t.Helper()
	created := sp.Totals().Created
	n := 0
	for _, ti := range sp.Tables() {
		if !ti.Complete || ti.Dirty {
			continue
		}
		got, err := queryAnswers(db, sp, ti.Call, solve.DFS)
		if err != nil {
			t.Fatal(err)
		}
		goals, err := parse.Query(ti.Call)
		if err != nil {
			t.Fatal(err)
		}
		want := model.Answers(goals)
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("clean table %s holds\n%v\nthe final clauses give\n%v", ti.Call, got, want)
		}
		n++
	}
	if c := sp.Totals().Created; c != created {
		t.Fatalf("checking clean tables created %d tables: they must serve as they are", c-created)
	}
	return n
}

// queryAnswers runs one tabled query and returns its distinct answers.
func queryAnswers(db *kb.DB, sp *table.Space, query string, strat solve.Strategy) ([]string, error) {
	goals, err := parse.Query(query)
	if err != nil {
		return nil, err
	}
	resp, err := solve.Do(context.Background(), &solve.Request{
		DB:       db,
		Store:    weights.NewUniform(weights.DefaultConfig()),
		Goals:    goals,
		Strategy: strat,
		Workers:  2,
		Tables:   sp,
	})
	if err != nil {
		return nil, fmt.Errorf("%v %s: %w", strat, query, err)
	}
	return distinctAnswers(resp), nil
}
