package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/weights"
)

// onEveryPath runs check once per dispatch path of runBiDiff — env+vm,
// env+treewalk and the trail machine — handing it that path's query
// runner. \+ proves its argument on the trail machine from all three.
func onEveryPath(t *testing.T, check func(t *testing.T, run func(src, query string) ([]string, error))) {
	for _, cfg := range biDiffConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			check(t, func(src, query string) ([]string, error) {
				return runBiDiff(t, cfg, src, query)
			})
		})
	}
}

// answers is a runner's answers, failing the test on an error.
func answers(t *testing.T, run func(src, query string) ([]string, error), src, query string) []string {
	t.Helper()
	got, err := run(src, query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return got
}

func TestNegationGroundSuccess(t *testing.T) {
	onEveryPath(t, func(t *testing.T, run func(string, string) ([]string, error)) {
		if got := answers(t, run, "p(a).", "\\+(p(b))"); len(got) != 1 {
			t.Errorf("\\+(p(b)) should succeed: %v", got)
		}
	})
}

func TestNegationGroundFailure(t *testing.T) {
	onEveryPath(t, func(t *testing.T, run func(string, string) ([]string, error)) {
		if got := answers(t, run, "p(a).", "\\+(p(a))"); len(got) != 0 {
			t.Errorf("\\+(p(a)) should fail: %v", got)
		}
	})
}

func TestNegationUnknownPredicate(t *testing.T) {
	onEveryPath(t, func(t *testing.T, run func(string, string) ([]string, error)) {
		if got := answers(t, run, "p(a).", "\\+(missing(x))"); len(got) != 1 {
			t.Errorf("negation of unprovable goal should succeed: %v", got)
		}
	})
}

func TestNegationThroughRules(t *testing.T) {
	src := `
reach(X) :- edge(a, X).
reach(X) :- edge(a, Y), edge(Y, X).
edge(a, b). edge(b, c).
`
	onEveryPath(t, func(t *testing.T, run func(string, string) ([]string, error)) {
		if got := answers(t, run, src, "\\+(reach(c))"); len(got) != 0 {
			t.Error("reach(c) is provable through the rule chain")
		}
		if got := answers(t, run, src, "\\+(reach(z))"); len(got) != 1 {
			t.Error("reach(z) is not provable")
		}
	})
}

func TestNegationDoesNotBind(t *testing.T) {
	// \+ must never export bindings: X stays free afterwards.
	onEveryPath(t, func(t *testing.T, run func(string, string) ([]string, error)) {
		got := answers(t, run, "p(a).\nq(b).", "\\+(p(z)), q(X)")
		if len(got) != 1 || got[0] != "X = b" {
			t.Errorf("got %v", got)
		}
	})
}

func TestNegationSeesOuterBindings(t *testing.T) {
	// Select the items that are NOT p: classic NAF filtering.
	onEveryPath(t, func(t *testing.T, run func(string, string) ([]string, error)) {
		got := answers(t, run, "p(a).\nitem(a). item(b).", "item(X), \\+(p(X))")
		if len(got) != 1 || got[0] != "X = b" {
			t.Errorf("got %v", got)
		}
	})
}

func TestDoubleNegation(t *testing.T) {
	onEveryPath(t, func(t *testing.T, run func(string, string) ([]string, error)) {
		if got := answers(t, run, "p(a).", "\\+(\\+(p(a)))"); len(got) != 1 {
			t.Error("double negation of a provable goal should succeed")
		}
		if got := answers(t, run, "p(a).", "\\+(\\+(p(b)))"); len(got) != 0 {
			t.Error("double negation of an unprovable goal should fail")
		}
	})
}

func TestNegationAddsNoWeight(t *testing.T) {
	db, _, err := kb.LoadString("p(a).\nq(b).")
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExpander(db, weights.NewUniform(weights.DefaultConfig()))
	gs, _ := parse.Query("\\+(p(z)), q(Y)")
	root := exp.Root(gs)
	children, err := exp.Expand(root)
	if err != nil || len(children) != 1 {
		t.Fatalf("expand: %v, %d children", err, len(children))
	}
	if children[0].Bound != 0 || children[0].Depth != 0 {
		t.Errorf("negation child bound=%v depth=%d, want 0/0", children[0].Bound, children[0].Depth)
	}
}

func TestNegationRespectsDepthLimit(t *testing.T) {
	// The inner proof attempt of a cyclic goal is cut by the depth limit,
	// so \+(loop) terminates (and succeeds: no finite proof exists).
	onEveryPath(t, func(t *testing.T, run func(string, string) ([]string, error)) {
		if got := answers(t, run, "loop :- loop.", "\\+(loop)"); len(got) != 1 {
			t.Error("\\+(loop) should succeed under the depth limit")
		}
	})
}

func TestNegationErrorPropagates(t *testing.T) {
	onEveryPath(t, func(t *testing.T, run func(string, string) ([]string, error)) {
		if _, err := run("bad :- X is Y + 1, X > 0.", "\\+(bad)"); err == nil {
			t.Error("inner arithmetic error must surface")
		}
	})
}

// TestNegationCancelled: a \+ proved under an already-cancelled context
// returns the context's error, never a success — neither from the
// Expander nor from inside a trail run, whose own arrival check the
// cancellation slips past here by landing in the step hook.
func TestNegationCancelled(t *testing.T) {
	db, _, err := kb.LoadString("p(a).")
	if err != nil {
		t.Fatal(err)
	}
	ws := weights.NewUniform(weights.DefaultConfig())
	goals, err := parse.Query("\\+(p(b))")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exp := NewExpander(db, ws)
	exp.Ctx = ctx
	if children, err := exp.Expand(exp.Root(goals)); !errors.Is(err, context.Canceled) {
		t.Errorf("expander: %d children, err %v, want context.Canceled", len(children), err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	r := NewTrailRun(TrailConfig{DB: db, Weights: ws, Ctx: ctx, StepHook: func() error {
		cancel()
		return nil
	}}, goals)
	defer r.Release()
	if ok, err := r.Advance(); ok || !errors.Is(err, context.Canceled) {
		t.Errorf("trail run: ok %v, err %v, want context.Canceled", ok, err)
	}
}

// TestNegationReleasesWhatItTook: a \+ releases everything its nested
// proof took, proved or not, so the frames a run holds at once do not
// grow with the number of negations it proves. t(N) proves \+(good(I))
// N times, each time inside a proof of \+(\+(good(I))); were the proved
// inner run's frames kept, the peak would be about N.
func TestNegationReleasesWhatItTook(t *testing.T) {
	db, _, err := kb.LoadString(`
t(N) :- between(1,N,I), \+(\+(good(I))), fail.
good(X) :- pair(X,Y), Y > 0.
pair(X,Y) :- Y is X+1.
`)
	if err != nil {
		t.Fatal(err)
	}
	peak := map[int]int{}
	for _, n := range []int{100, 1000} {
		goals, err := parse.Query(fmt.Sprintf("t(%d)", n))
		if err != nil {
			t.Fatal(err)
		}
		r := NewTrailRun(TrailConfig{DB: db, Weights: weights.NewUniform(weights.DefaultConfig())}, goals)
		if ok, err := r.Advance(); ok || err != nil || !r.Exhausted() {
			t.Fatalf("t(%d): ok %v, err %v", n, ok, err)
		}
		peak[n] = FrameHighWater(r)
		r.Release()
	}
	// t's frame (I) and good's (Y) are all a proof holds at once.
	if peak[100] != 2 || peak[1000] != 2 {
		t.Errorf("frame high-water mark %d at N = 100 and %d at N = 1000, want 2 at both", peak[100], peak[1000])
	}
}
