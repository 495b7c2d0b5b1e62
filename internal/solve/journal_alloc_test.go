package solve

import (
	"context"
	"testing"

	"blog/internal/obs"
	"blog/internal/table"
	"blog/internal/weights"
)

const tabledPathSrc = `
:- table path/2.
path(X, Z) :- path(X, Y), edge(Y, Z).
path(X, Y) :- edge(X, Y).
edge(a, b).
edge(b, c).
edge(c, a).
edge(c, d).
`

// TestDFSJournalAllocationBudget extends the search-tier allocation guard
// (internal/search/alloc_guard_test.go) to the journaled tabled path. Two
// properties: a query served from an already-complete table allocates
// within a fixed budget whether or not a journal is attached (the hit path
// emits nothing — accounting is pure atomics), and a full table lifecycle
// (invalidate, re-produce, complete) with the journal attached costs at
// most a handful of allocations over the unjournaled lifecycle — one
// heap-copied Event per transition, never per answer or per expansion.
func TestDFSJournalAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	db := load(t, tabledPathSrc)
	sp := table.NewSpace(db, table.Config{})
	mkRun := func() func() {
		req := &Request{
			DB:       db,
			Store:    weights.NewUniform(weights.DefaultConfig()),
			Goals:    q(t, "path(a, R)"),
			Strategy: DFS,
			Tables:   sp,
		}
		return func() {
			resp, err := Do(context.Background(), req)
			if err != nil || len(resp.Solutions) != 4 {
				t.Fatalf("run: %d solutions, err %v", len(resp.Solutions), err)
			}
		}
	}
	run := mkRun()
	run() // materialize and complete the table, warm the scratch pools

	// Steady state: every run is served from the complete table. The
	// journal must not change this cost at all — attach it and hold the
	// same absolute budget the unjournaled hit path meets. Measured 7 both
	// ways (10 with a values slice per solution); the budget is 1.5x that.
	const hitBudget = 11
	if got := testing.AllocsPerRun(50, run); got > hitBudget {
		t.Errorf("tabled hit query (no journal) allocated %.1f times, budget %d", got, hitBudget)
	}
	j := obs.NewJournal(1 << 12)
	sp.SetJournal(j)
	if got := testing.AllocsPerRun(50, run); got > hitBudget {
		t.Errorf("tabled hit query (journal attached) allocated %.1f times, budget %d", got, hitBudget)
	}
	if j.LastSeq() != 0 {
		t.Errorf("hit-path runs emitted %d events, want 0", j.LastSeq())
	}

	// Full lifecycle: each cycle invalidates the space and re-produces the
	// table, which with a journal attached emits exactly the lifecycle
	// events (invalidated, created, completed). Compare against the same
	// cycle with the journal detached; the journal may add only a few
	// allocations per cycle.
	cycle := func() {
		sp.Invalidate("alloc_guard")
		run()
	}
	sp.SetJournal(nil)
	cycle() // settle pool state before measuring
	off := testing.AllocsPerRun(30, cycle)
	sp.SetJournal(j)
	before := j.LastSeq()
	on := testing.AllocsPerRun(30, cycle)
	if on > off+12 {
		t.Errorf("journaled lifecycle allocated %.1f times vs %.1f unjournaled; emission must stay O(transitions)", on, off)
	}
	evs := j.Events(before)
	if len(evs) == 0 {
		t.Fatal("journaled lifecycle emitted no events")
	}
	kinds := map[string]bool{}
	for _, ev := range evs {
		kinds[ev.Kind] = true
	}
	for _, k := range []string{obs.KindTableInvalidated, obs.KindTableCreated, obs.KindTableCompleted} {
		if !kinds[k] {
			t.Errorf("lifecycle journal missing %s events (saw %v)", k, kinds)
		}
	}
}
