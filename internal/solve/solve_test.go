package solve

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"testing"
	"time"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/search"
	"blog/internal/term"
	"blog/internal/weights"
)

const familySrc = `
f(sam, bob). f(bob, den). f(bob, peg).
m(sam, liz). m(liz, joe).
gf(X, Z) :- f(X, Y), f(Y, Z).
gf(X, Z) :- m(X, Y), f(Y, Z).
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

func req(t testing.TB, db *kb.DB, query string, strat Strategy) *Request {
	t.Helper()
	return &Request{
		DB:       db,
		Store:    weights.NewUniform(weights.DefaultConfig()),
		Goals:    q(t, query),
		Strategy: strat,
	}
}

// everyStrategy enumerates the four dispatchable disciplines as requests.
func everyStrategy(t testing.TB, db *kb.DB, query string) map[string]*Request {
	and := req(t, db, query, DFS)
	and.AndParallel = true
	par := req(t, db, query, Parallel)
	par.Workers = 4
	return map[string]*Request{
		"dfs":          req(t, db, query, DFS),
		"bfs":          req(t, db, query, BFS),
		"best-first":   req(t, db, query, BestFirst),
		"parallel":     par,
		"and-parallel": and,
	}
}

// TestDoDispatch pins which engine Do routes each request shape to, read
// off what only that engine reports: the AND-parallel group count and the
// OR-parallel per-worker counters.
func TestDoDispatch(t *testing.T) {
	db := load(t, familySrc)
	const query = "f(sam,A), m(sam,B)" // two independent groups
	and := req(t, db, query, BestFirst)
	and.AndParallel = true
	par := req(t, db, query, Parallel)
	par.Workers = 3
	cases := []struct {
		name    string
		req     *Request
		groups  int
		workers int
	}{
		{"dfs", req(t, db, query, DFS), 0, 0},
		{"bfs", req(t, db, query, BFS), 0, 0},
		{"best", req(t, db, query, BestFirst), 0, 0},
		{"parallel", par, 0, 3},
		{"andpar", and, 2, 0},
	}
	for _, c := range cases {
		resp, err := Do(context.Background(), c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		st := resp.Stats
		if st.Groups != c.groups || len(st.PerWorkerExpanded) != c.workers {
			t.Errorf("%s: groups %d workers %d, want %d %d",
				c.name, st.Groups, len(st.PerWorkerExpanded), c.groups, c.workers)
		}
		if len(resp.Solutions) != 1 || !resp.Exhausted {
			t.Errorf("%s: %d solutions exhausted=%v, want 1 true", c.name, len(resp.Solutions), resp.Exhausted)
		}
	}

	bad := req(t, db, query, Parallel)
	bad.AndParallel = true
	if _, err := Do(context.Background(), bad); err == nil {
		t.Error("Parallel+AndParallel must be rejected")
	}
	if _, err := Do(context.Background(), req(t, db, query, Strategy(99))); err == nil {
		t.Error("unknown strategy must be rejected")
	}
}

func TestDoAgreesAcrossStrategies(t *testing.T) {
	db := load(t, familySrc)
	var want int
	for _, name := range []string{"dfs", "bfs", "best-first", "parallel", "and-parallel"} {
		r := everyStrategy(t, db, "gf(sam,G)")[name]
		resp, err := Do(context.Background(), r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !resp.Exhausted {
			t.Errorf("%s: full run must report exhaustion", name)
		}
		if name == "dfs" {
			want = len(resp.Solutions)
			if want == 0 {
				t.Fatal("dfs found no solutions")
			}
			continue
		}
		if len(resp.Solutions) != want {
			t.Errorf("%s: %d solutions, dfs found %d", name, len(resp.Solutions), want)
		}
		for _, s := range resp.Solutions {
			if s.Depth == 0 {
				t.Errorf("%s: solution missing depth", name)
			}
		}
	}
}

func TestDoValidates(t *testing.T) {
	db := load(t, familySrc)
	for name, r := range map[string]*Request{
		"nil db":    {Store: weights.NewUniform(weights.DefaultConfig()), Goals: q(t, "gf(sam,G)")},
		"nil store": {DB: db, Goals: q(t, "gf(sam,G)")},
		"no goals":  {DB: db, Store: weights.NewUniform(weights.DefaultConfig())},
	} {
		if _, err := Do(context.Background(), r); err == nil {
			t.Errorf("%s must be rejected", name)
		}
	}
	rec := req(t, db, "gf(sam,G)", Parallel)
	rec.RecordTree = true
	if _, err := Do(context.Background(), rec); err == nil {
		t.Error("parallel tree recording must be rejected")
	}
}

// TestCancelledContextEveryStrategy: a context cancelled before the run
// must surface context.Canceled from every engine.
func TestCancelledContextEveryStrategy(t *testing.T) {
	db := load(t, familySrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, r := range everyStrategy(t, db, "gf(sam,G)") {
		if _, err := Do(ctx, r); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestCancelMidSearchEveryStrategy cancels while an unbounded search is in
// flight and checks for a prompt return.
func TestCancelMidSearchEveryStrategy(t *testing.T) {
	db := load(t, "loop :- loop.\nloop2 :- loop2.\n")
	for name, r := range everyStrategy(t, db, "loop, loop2") {
		r.MaxDepth = 1 << 20
		r.MaxExpansions = 1 << 62
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		start := time.Now()
		go func() {
			_, err := Do(ctx, r)
			done <- err
		}()
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: err = %v, want context.Canceled", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no return within 5s of cancellation (started %v ago)", name, time.Since(start))
		}
	}
}

func TestDeadlineExceeded(t *testing.T) {
	db := load(t, "loop :- loop.\n")
	r := req(t, db, "loop", DFS)
	r.MaxDepth = 1 << 20
	r.MaxExpansions = 1 << 62
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := Do(ctx, r); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestParallelSolutionsStableOrder(t *testing.T) {
	db := load(t, familySrc)
	r := req(t, db, "gf(sam,G)", Parallel)
	r.Workers = 8
	first, err := Do(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Do(context.Background(), req(t, db, "gf(sam,G)", Parallel))
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Solutions) != len(first.Solutions) {
			t.Fatalf("run %d: %d solutions, want %d", i, len(again.Solutions), len(first.Solutions))
		}
		for j := range again.Solutions {
			a := again.Solutions[j].Format(again.QueryVars)
			b := first.Solutions[j].Format(first.QueryVars)
			if a != b {
				t.Fatalf("run %d: order drifted: %q vs %q", i, a, b)
			}
		}
	}
}

// TestRunStreams: Run hands every strategy's answers to its yield, the
// sequential ones as live views and the parallel ones as views over their
// detached values, and both render the same text.
func TestRunStreams(t *testing.T) {
	db := load(t, familySrc)
	var want []string
	for _, strat := range []Strategy{DFS, Parallel} {
		var got []string
		resp, err := Run(context.Background(), req(t, db, "gf(sam,G)", strat), func(a engine.Answer) error {
			got = append(got, string(term.AppendAnswer(nil, a.Terms[0], a.Env, a.Terms)))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || !resp.Exhausted {
			t.Fatalf("%v: %d answers, exhausted=%v", strat, len(got), resp.Exhausted)
		}
		if strat == DFS {
			want = got
			sort.Strings(want)
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%v: answers %v, want %v", strat, got, want)
		}
	}
}

// anonSerial matches one _G serial.
var anonSerial = regexp.MustCompile(`_G[0-9]+`)

// answerText renders a view as a client reads it, "X = v, ..." with the
// values printed by term.AppendAnswer, and every _G serial replaced by
// its first-occurrence rank, so texts compare by where a variable repeats.
func answerText(a engine.Answer) string {
	var b []byte
	for i, v := range a.Vars {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(append(b, v.String()...), " = "...)
		b = term.AppendAnswer(b, a.Terms[i], a.Env, a.Terms)
	}
	seen := map[string]string{}
	return anonSerial.ReplaceAllStringFunc(string(b), func(s string) string {
		if _, ok := seen[s]; !ok {
			seen[s] = fmt.Sprintf("_G#%d", len(seen))
		}
		return seen[s]
	})
}

// TestDetachedAnswersRenderAsLive: an answer detached into a Solution and
// served again as a view (Do, then yieldDetached, as Parallel and
// AndParallel answers always are) reads exactly as the live view: a
// clause variable still prints as _G<serial>, even as a whole value, one
// shared variable as one serial, and an unbound query variable by its own
// name.
func TestDetachedAnswersRenderAsLive(t *testing.T) {
	db := load(t, "mk(f(A,B,A)).\nsplit(X, Y) :- X = f(Z), Y = Z.\n")
	cases := []struct{ goal, want string }{
		{"mk(Q), A = 1", "Q = f(_G#0,_G#1,_G#0), A = 1"},
		{"X = f(Y), mk(Q)", "X = f(Y), Y = Y, Q = f(_G#0,_G#1,_G#0)"},
		// A value that is a clause variable, shared with another value.
		{"split(Q, R), A = 1", "Q = f(_G#0), R = _G#0, A = 1"},
	}
	for _, c := range cases {
		reqs := map[string]*Request{
			"dfs": req(t, db, c.goal, DFS), "bfs": req(t, db, c.goal, BFS), "best": req(t, db, c.goal, BestFirst),
			"parallel": req(t, db, c.goal, Parallel), "and-parallel": req(t, db, c.goal, DFS),
		}
		reqs["parallel"].Workers = 2
		reqs["and-parallel"].AndParallel = true
		for name, r := range reqs {
			var live []string
			if _, err := Run(context.Background(), r, func(a engine.Answer) error {
				live = append(live, answerText(a))
				return nil
			}); err != nil {
				t.Fatalf("%s %s: %v", name, c.goal, err)
			}
			resp, err := Do(context.Background(), r)
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.goal, err)
			}
			var detached []string
			if err := yieldDetached(resp, func(a engine.Answer) error {
				detached = append(detached, answerText(a))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(live) != 1 || live[0] != c.want || fmt.Sprint(detached) != fmt.Sprint(live) {
				t.Errorf("%s %s: live %q, detached %q, want %q", name, c.goal, live, detached, c.want)
			}
		}
	}
}

// TestRunCancelled: a sequential run reports its Response beside the
// context's error.
func TestRunCancelled(t *testing.T) {
	db := load(t, "loop :- loop.\n")
	r := req(t, db, "loop", DFS)
	r.MaxDepth = 1 << 20
	r.MaxExpansions = 1 << 62
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp, err := Run(ctx, r, func(engine.Answer) error { return nil })
	if resp == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("Run after cancel: resp=%v err=%v", resp, err)
	}
}

func TestParseStrategyRoundTrip(t *testing.T) {
	for _, name := range []string{"dfs", "bfs", "best", "best-first", "parallel"} {
		s, err := search.ParseStrategy(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := name
		if name == "best" {
			want = "best-first"
		}
		if s.String() != want {
			t.Errorf("search.ParseStrategy(%q).String() = %q", name, s)
		}
	}
	if _, err := search.ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy must error")
	}
}

// TestAndParallelRespectsSearchStrategy: the AND-parallel engine must run
// its groups under the requested sequential discipline (a best-first group
// with learned weights behaves differently from DFS; here we just assert
// the solver accepts all three and agrees on the result).
func TestAndParallelRespectsSearchStrategy(t *testing.T) {
	db := load(t, familySrc+"\ncolor(red). color(blue).\n")
	var want int
	for i, strat := range []Strategy{DFS, BFS, BestFirst} {
		r := req(t, db, "gf(sam,G), color(C)", strat)
		r.AndParallel = true
		resp, err := Do(context.Background(), r)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if resp.Stats.Groups != 2 {
			t.Errorf("%v: groups = %d, want 2", strat, resp.Stats.Groups)
		}
		if i == 0 {
			want = len(resp.Solutions)
			continue
		}
		if len(resp.Solutions) != want {
			t.Errorf("%v: %d solutions, want %d", strat, len(resp.Solutions), want)
		}
	}
}

// TestRunHonorsPrune: a yielded run keeps the branch-and-bound switches
// and reports the chains they cut.
func TestRunHonorsPrune(t *testing.T) {
	src := `
top(X) :- cheap(X).
top(X) :- d1(X).
cheap(a).
d1(X) :- d2(X).
d2(X) :- d3(X).
d3(b).
`
	db := load(t, src)
	r := req(t, db, "top(X)", DFS)
	r.Prune = true
	var n int
	resp, err := Run(context.Background(), r, func(engine.Answer) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("pruned run yielded %d answers, want 1", n)
	}
	if resp.Stats.Pruned == 0 {
		t.Error("pruned run should report pruned chains")
	}
}

// TestRunRecords: tree and trace recording work on a yielded run exactly
// as on a collected one — recording routes DFS onto the persistent-Env
// frontier and the records grow as the run is pulled.
func TestRunRecords(t *testing.T) {
	db := load(t, familySrc)
	r := req(t, db, "gf(sam,G)", DFS)
	r.RecordTree = true
	r.RecordTrace = true
	resp, err := Run(context.Background(), r, func(engine.Answer) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tree == nil {
		t.Error("RecordTree on a yielded run produced no tree")
	}
	if len(resp.Trace) == 0 {
		t.Error("RecordTrace on a yielded run produced no lines")
	}
}

// TestOccursCheckEveryStrategy: all four engines run the occurs check.
// p only succeeds through the cyclic binding Y = f(Y), so it has no
// solution.
func TestOccursCheckEveryStrategy(t *testing.T) {
	db := load(t, "p :- eq(Y, f(Y)).\neq(X, X).\n")
	for name, r := range everyStrategy(t, db, "p") {
		resp, err := Do(context.Background(), r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(resp.Solutions) != 0 {
			t.Errorf("%s: occurs check admitted %d unsound solutions", name, len(resp.Solutions))
		}
	}
}
