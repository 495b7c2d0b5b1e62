package solve

import (
	"context"
	"fmt"
	"testing"

	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/table"
	"blog/internal/weights"
)

// runDFSRep executes one query under sequential DFS on the trail machine
// (oracle false) or on the differential oracle, the tree-walker on the
// persistent-Env frontier (oracle true), everything else held equal.
func runDFSRep(t *testing.T, src, query string, oracle, tabled, prune bool, maxSol int) *Response {
	t.Helper()
	db, _, err := kb.LoadString(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	goals, err := parse.Query(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	req := &Request{
		DB:            db,
		Store:         weights.NewUniform(weights.DefaultConfig()),
		Goals:         goals,
		Strategy:      DFS,
		MaxSolutions:  maxSol,
		MaxExpansions: 20000,
		MaxDepth:      48,
		Prune:         prune,
	}
	if tabled {
		req.Tables = table.NewSpace(db, table.Config{})
	}
	run := Do
	if oracle {
		run = doOracle
	}
	resp, err := run(context.Background(), req)
	if err != nil {
		t.Fatalf("solve (oracle=%v): %v", oracle, err)
	}
	return resp
}

// FuzzTrailStore is the differential oracle for the trail-store machine:
// on random programs and queries, sequential DFS must produce the same
// solutions in the same order, with the same bounds, completion status and
// work counters on the trail machine as on the oracle (the tree-walker on
// the persistent-Env frontier). Two variants run per case: exhaustive
// enumeration, and branch-and-bound pruning capped at the first solution —
// the mode where choice-point bookkeeping (bounds restored on backtrack,
// prune checks at arrival) is easiest to get subtly wrong.
func FuzzTrailStore(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, gen uint8, seed int64, qsel uint8) {
		src, queries, tabled := fuzzCase(gen, seed)
		query := queries[int(qsel)%len(queries)]
		for _, v := range []struct {
			name   string
			prune  bool
			maxSol int
		}{
			{"exhaustive", false, 0},
			{"prune-first", true, 1},
		} {
			env := runDFSRep(t, src, query, true, tabled, v.prune, v.maxSol)
			trail := runDFSRep(t, src, query, false, tabled, v.prune, v.maxSol)
			if env.Exhausted != trail.Exhausted {
				t.Fatalf("%s: Exhausted %v (env) vs %v (trail)", v.name, env.Exhausted, trail.Exhausted)
			}
			// Sequential DFS is deterministic: solution order and bounds
			// must match exactly, not just as sets.
			a, b := canonAll(env), canonAll(trail)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("%s: solutions diverge\nenv:   %v\ntrail: %v", v.name, a, b)
			}
			es, ts := env.Stats, trail.Stats
			if es.Expanded != ts.Expanded || es.Failures != ts.Failures ||
				es.DepthCutoffs != ts.DepthCutoffs || es.Pruned != ts.Pruned ||
				es.MaxDepth != ts.MaxDepth {
				t.Fatalf("%s: stats diverge\nenv:   %+v\ntrail: %+v", v.name, es, ts)
			}
			// The trail machine generates children lazily (one per taken
			// alternative), the frontier engine eagerly (all per expansion),
			// so Generated only agrees once every alternative was taken —
			// i.e. on exhausted runs.
			if env.Exhausted && trail.Exhausted && es.Generated != ts.Generated {
				t.Fatalf("%s: Generated %d (env) vs %d (trail)", v.name, es.Generated, ts.Generated)
			}
		}
	})
}
