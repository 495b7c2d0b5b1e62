package engine_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/par"
	"blog/internal/parse"
	"blog/internal/weights"
)

// TestSplitUntriedVisitsPerStep: Split and Untried read past each used-up
// choice point once, behind their cursors, instead of scanning the whole
// stack at every step, so a parallel count(20000,X) reads at most two
// choice points per expansion in either mode. (A used-up choice point is
// one Split emptied: taking a last alternative pops its choice point.)
func TestSplitUntriedVisitsPerStep(t *testing.T) {
	db, _, err := kb.LoadString("count(0,z). count(N,s(X)) :- N > 0, M is N - 1, count(M,X).")
	if err != nil {
		t.Fatal(err)
	}
	goals, err := parse.Query("count(20000,X)")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []par.Mode{par.SharedHeap, par.TwoLevel} {
		var visits atomic.Uint64
		restore := engine.CountVisits(&visits)
		res, err := par.Run(context.Background(), db, weights.NewUniform(weights.DefaultConfig()), goals,
			par.Options{Workers: 2, Mode: mode, MaxDepth: 1 << 20})
		restore()
		if err != nil || len(res.Solutions) != 1 {
			t.Fatalf("%v: %d solutions, err %v", mode, len(res.Solutions), err)
		}
		per := float64(visits.Load()) / float64(res.Stats.Expanded)
		t.Logf("%v: %d choice points read over %d expansions (%.2f a step)", mode, visits.Load(), res.Stats.Expanded, per)
		if per > 2 {
			t.Errorf("%v: %.2f choice points read a step, want at most 2", mode, per)
		}
	}
}

// TestNoUsedUpChoicePoint: taking a choice point's last alternative pops
// it, so a deterministic recursion holds no choice point at any depth.
// At count(N,X)'s solution the only one left is the base call's, whose
// recursive clause is still untried when the base clause comes first, and
// none when it comes last.
func TestNoUsedUpChoicePoint(t *testing.T) {
	for _, c := range []struct {
		src  string
		want int
	}{
		{"count(0,z). count(N,s(X)) :- N > 0, M is N - 1, count(M,X).", 1},
		{"count(N,s(X)) :- N > 0, M is N - 1, count(M,X). count(0,z).", 0},
	} {
		db, _, err := kb.LoadString(c.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{10, 1000} {
			goals, err := parse.Query(fmt.Sprintf("count(%d,X)", n))
			if err != nil {
				t.Fatal(err)
			}
			r := engine.NewTrailRun(engine.TrailConfig{DB: db, Weights: weights.NewUniform(weights.DefaultConfig()), MaxDepth: 1 << 20}, goals)
			if ok, err := r.Advance(); !ok || err != nil {
				t.Fatalf("%s count(%d,X): ok %v, err %v", c.src, n, ok, err)
			}
			if got := engine.ChoicePoints(r); got != c.want {
				t.Errorf("%s count(%d,X): %d choice points at the solution, want %d", c.src, n, got, c.want)
			}
			r.Release()
		}
	}
}
