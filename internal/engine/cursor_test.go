package engine_test

import (
	"context"
	"sync/atomic"
	"testing"

	"blog/internal/engine"
	"blog/internal/kb"
	"blog/internal/par"
	"blog/internal/parse"
	"blog/internal/weights"
)

// TestSplitUntriedVisitsPerStep: a deterministic recursion leaves one
// used-up choice point per level on the trail machine. Split and Untried
// read past each once, behind their cursors, instead of scanning the
// whole stack at every step, so a parallel count(20000,X) reads at most
// two choice points per expansion in either mode.
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
