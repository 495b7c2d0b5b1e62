package engine

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/weights"
	"blog/internal/workload"
)

// chainCases put clause choice points above and below everything a split
// must respect: alternative choice points (between/3, arg/3 with a free index),
// negation sub-runs, builtins that bind in place, and answers that keep
// unbound variables.
var chainCases = []struct{ src, query string }{
	{workload.NQueens, "queens(5, Qs)"},
	{workload.FamilyTree(3, 2), "anc(X, Y)"},
	{`num(1). num(2). num(3). num(4).
	  big(X) :- num(X), X > 2.
	  small(X) :- num(X), \+(big(X)).
	  pair(X, Y) :- small(X), num(Y), \+(X = Y).`, "pair(X, Y)"},
	{`num(1). num(2). num(3).
	  pick(X, Y) :- num(Y), between(1, 3, X), num(Z), X + Y > Z.`, "pick(X, Y)"},
	{`item(f(a, b)). item(g(c)). item(h(1, 2, 3)).
	  nth(I, X) :- item(T), arg(I, T, X), item(_).`, "nth(I, X)"},
	{`p(X, Y) :- q(X), r(Y, Z), s(Z).
	  q(a). q(b). q(c).
	  r(f(W), W). r(g(V, V), c). r(h, c).
	  s(c). s(d).`, "p(X, Y)"},
}

var errSuspended = errors.New("suspended")

// drainChains answers a query the way an OR-parallel run would, but on one
// goroutine and deterministically: every `every` steps the run's hook
// exports a chain — by Split, or by Suspend when suspend is set, which then
// abandons the run — and whenever the run ends the driver resumes the
// oldest queued chain on the same scratch, until none is left.
func drainChains(t *testing.T, src, query string, every int, suspend bool) ([]string, Stats, int) {
	t.Helper()
	db, _, err := kb.LoadString(src)
	if err != nil {
		t.Fatal(err)
	}
	goals, err := parse.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	var (
		queue []*Chain
		run   *TrailRun
		steps int
		moved int
	)
	cfg := TrailConfig{DB: db, Weights: weights.NewUniform(weights.DefaultConfig())}
	cfg.StepHook = func() error {
		if steps++; every == 0 || steps%every != 0 {
			return nil
		}
		if !suspend {
			if c := run.Split(); c != nil {
				queue = append(queue, c)
			}
			return nil
		}
		cs := run.Suspend()
		if cs == nil {
			return nil
		}
		queue = append(queue, cs...)
		return errSuspended
	}
	run = NewTrailRun(cfg, goals)
	defer run.Release()
	var answers []string
	for {
		sol, ok, err := nextSolution(run)
		if ok {
			answers = append(answers, canonAnswer(sol, run.QueryVars()))
			continue
		}
		if err != nil && err != errSuspended {
			t.Fatalf("%s: %v", query, err)
		}
		if len(queue) == 0 {
			sort.Strings(answers)
			return answers, run.Stats(), moved
		}
		run.Resume(queue[0])
		queue, moved = queue[1:], moved+1
	}
}

// TestSplitResumeMatchesDFS: cutting a run into chains and resuming every
// one of them visits exactly the tree the uncut run visits — the same
// answers and the same Expanded, Generated, Failures, DepthCutoffs and
// VMDispatched counts — whether the chains are a choice point's untried
// alternatives (Split) or a whole suspended run.
func TestSplitResumeMatchesDFS(t *testing.T) {
	for _, c := range chainCases {
		want, ws, _ := drainChains(t, c.src, c.query, 0, false)
		for _, v := range []struct {
			every   int
			suspend bool
		}{{1, false}, {3, false}, {2, true}, {5, true}} {
			got, gs, moved := drainChains(t, c.src, c.query, v.every, v.suspend)
			name := fmt.Sprintf("%s every=%d suspend=%v", c.query, v.every, v.suspend)
			if moved == 0 {
				t.Errorf("%s: no chain was exported", name)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: answers\n got %v\nwant %v", name, got, want)
			}
			if gs.Expanded != ws.Expanded || gs.Generated != ws.Generated || gs.Failures != ws.Failures ||
				gs.DepthCutoffs != ws.DepthCutoffs || gs.VMDispatched != ws.VMDispatched {
				t.Errorf("%s: stats\n got %+v\nwant %+v", name, gs, ws)
			}
		}
	}
}
