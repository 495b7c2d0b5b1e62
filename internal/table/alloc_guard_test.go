package table

import (
	"context"
	"fmt"
	"testing"

	"blog/internal/search"
	"blog/internal/term"
	"blog/internal/weights"
	"blog/internal/workload"
)

// TestRederiveAllocationBudget pins what a re-derivation after an assert
// costs: over the 64-node cyclic graph, with every path/2 table warm, one
// new chord stales them all, and path(v3,Z) re-derives its 64 answers.
// Most derivations in that fixpoint are duplicates; they must be rejected
// on the live store without being detached, the assert must compile
// only the new edge/2 clause, and the monotone table must re-derive from
// its old answers.
func TestRederiveAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	const nodes = 64
	db := load(t, workload.Cyclic(nodes, 32, 1))
	sp := NewSpace(db, Config{})
	ws := weights.NewUniform(weights.DefaultConfig())
	query := func(goals []term.Term) {
		res, err := search.Run(context.Background(), db, ws, goals, search.Options{Strategy: search.DFS, Tabler: sp.NewHandle()})
		if err != nil || len(res.Solutions) != nodes || !res.Exhausted {
			t.Fatalf("%s: %d solutions, err %v", goals[0], len(res.Solutions), err)
		}
	}
	for k := 0; k < nodes; k++ {
		query(q(t, fmt.Sprintf("path(v%d,Z)", k)))
	}
	goals := q(t, "path(v3,Z)")
	chord := 0
	run := func() {
		chord++
		db.Assert(term.NewCompound("edge", term.NewAtom(fmt.Sprintf("v%d", chord%nodes)), term.NewAtom(fmt.Sprintf("v%d", (chord*7+3)%nodes))), nil)
		query(goals)
	}
	run() // warm the scratch pools
	// Measured at 64 allocations per assert and re-derivation: the stale
	// table restarts from its 64 old answers and closes in one round, and
	// the new edge/2 clause extends one dispatch bucket; the query's 64
	// solutions are detached into a few chunks (127 with a values slice
	// each). Re-deriving from empty and rebuilding every bucket cost 715;
	// detaching and canonicalizing every duplicate and recompiling all of
	// edge/2 cost 5082. The budget is 1.3x the measurement.
	const budget = 84
	if got := testing.AllocsPerRun(20, run); got > budget {
		t.Errorf("assert + re-derivation of path(v3,Z) allocated %.1f times, budget %d", got, budget)
	} else {
		t.Logf("assert + re-derivation of path(v3,Z): %.1f allocations", got)
	}
}
