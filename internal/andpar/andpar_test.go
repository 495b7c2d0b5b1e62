package andpar

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/search"
	"blog/internal/term"
	"blog/internal/weights"
	"blog/internal/workload"
)

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

func uniform() weights.Store { return weights.NewUniform(weights.DefaultConfig()) }

func TestGroupsIndependent(t *testing.T) {
	goals := q(t, "p(X), q(Y), r(Z)")
	groups := Groups(nil, goals)
	if len(groups) != 3 {
		t.Fatalf("groups = %v, want 3 singletons", groups)
	}
}

func TestGroupsChained(t *testing.T) {
	goals := q(t, "p(X,Y), q(Y,Z), r(W)")
	groups := Groups(nil, goals)
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want 2", groups)
	}
	if len(groups[0]) != 2 || groups[0][0] != 0 || groups[0][1] != 1 {
		t.Errorf("first group = %v", groups[0])
	}
	if len(groups[1]) != 1 || groups[1][0] != 2 {
		t.Errorf("second group = %v", groups[1])
	}
}

func TestGroupsTransitive(t *testing.T) {
	// X links g0-g1, Z links g1-g2: all one group.
	goals := q(t, "p(X), q(X,Z), r(Z)")
	groups := Groups(nil, goals)
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Fatalf("groups = %v, want one group of 3", groups)
	}
}

func TestGroupsRespectEnvBindings(t *testing.T) {
	// After binding the shared variable, the goals become independent.
	goals := q(t, "p(X), q(X)")
	x := term.VarsUnder(nil, goals[0], nil)[0]
	env := (*term.Env)(nil).Bind(x, term.NewAtom("a"))
	groups := Groups(env, goals)
	if len(groups) != 2 {
		t.Fatalf("ground-shared goals should be independent, got %v", groups)
	}
}

func TestGroupsGroundGoals(t *testing.T) {
	goals := q(t, "p(a), q(b)")
	if len(Groups(nil, goals)) != 2 {
		t.Error("ground goals are independent")
	}
}

const indepSrc = `
p(1). p(2). p(3).
q(a). q(b).
r(z).
`

func TestSolveIndependentCrossProduct(t *testing.T) {
	db := load(t, indepSrc)
	for _, parallel := range []bool{false, true} {
		res, err := Solve(context.Background(), db, uniform(), q(t, "p(X), q(Y)"), Options{
			Search:   search.Options{Strategy: search.DFS},
			Parallel: parallel,
		})
		if err != nil {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		if res.GroupCount != 2 {
			t.Errorf("groups = %d", res.GroupCount)
		}
		if len(res.Solutions) != 6 {
			t.Fatalf("parallel=%v: solutions = %d, want 3x2=6", parallel, len(res.Solutions))
		}
		// Every solution binds both X and Y.
		seen := map[string]bool{}
		for _, s := range res.Solutions {
			seen[s.Values[0].String()+"/"+s.Values[1].String()] = true
		}
		if len(seen) != 6 {
			t.Errorf("distinct combinations = %d", len(seen))
		}
	}
}

func TestSolveMatchesSequentialSearch(t *testing.T) {
	db := load(t, indepSrc)
	seqRes, err := search.Run(context.Background(), db, uniform(), q(t, "p(X), q(Y), r(Z)"), search.Options{Strategy: search.DFS})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := Solve(context.Background(), db, uniform(), q(t, "p(X), q(Y), r(Z)"), Options{
		Search:   search.Options{Strategy: search.DFS},
		Parallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(parRes.Solutions) != len(seqRes.Solutions) {
		t.Errorf("AND-parallel %d solutions, sequential %d", len(parRes.Solutions), len(seqRes.Solutions))
	}
}

func TestSolveFailingGroupFailsAll(t *testing.T) {
	db := load(t, indepSrc)
	res, err := Solve(context.Background(), db, uniform(), q(t, "p(X), missing(Y)"), Options{
		Search: search.Options{Strategy: search.DFS},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 {
		t.Error("conjunction with failing group must fail")
	}
	if res.GroupSolutions[0] == 0 {
		t.Error("p group should have solutions")
	}
}

func TestSolveMaxSolutions(t *testing.T) {
	db := load(t, indepSrc)
	res, err := Solve(context.Background(), db, uniform(), q(t, "p(X), q(Y)"), Options{
		Search:       search.Options{Strategy: search.DFS},
		MaxSolutions: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 4 {
		t.Errorf("solutions = %d, want capped 4", len(res.Solutions))
	}
}

func TestSolveEmptyErrors(t *testing.T) {
	db := load(t, indepSrc)
	if _, err := Solve(context.Background(), db, uniform(), nil, Options{}); err == nil {
		t.Error("empty conjunction must error")
	}
}

func TestSolveParallelIsRaceFree(t *testing.T) {
	// run with -race: groups share the weight store.
	db := load(t, workload.FamilyTree(3, 2)+"\ncolor(red). color(blue).\n")
	tab := weights.NewTable(weights.Config{N: 16, A: 64})
	res, err := Solve(context.Background(), db, tab, q(t, "gf(p0,G), color(C)"), Options{
		Search:   search.Options{Strategy: search.BestFirst, Learn: true},
		Parallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GroupCount != 2 {
		t.Errorf("groups = %d", res.GroupCount)
	}
	if len(res.Solutions) == 0 {
		t.Error("expected joined solutions")
	}
}

// panicStore is a weight store whose nth Weight call panics: a stand-in
// for any fault inside a group goroutine.
type panicStore struct {
	weights.Store
	n atomic.Int64
}

func (p *panicStore) Weight(a kb.Arc) float64 {
	if p.n.Add(-1) == 0 {
		panic("injected weight-store fault")
	}
	return p.Store.Weight(a)
}

// TestGroupPanicBecomesError: a panic in one group goroutine stops the
// other groups and comes back as the conjunction's error instead of
// killing the process; every goroutine is joined, and the database serves
// the next query.
func TestGroupPanicBecomesError(t *testing.T) {
	db := load(t, workload.NQueens)
	goals := q(t, "queens(5, Qs), queens(4, Ps)")
	opt := Options{Search: search.Options{Strategy: search.DFS}, Parallel: true}
	before := runtime.NumGoroutine()
	ws := &panicStore{Store: uniform()}
	ws.n.Store(300)
	_, err := Solve(context.Background(), db, ws, goals, opt)
	if err == nil || !strings.Contains(err.Error(), "andpar: group panic: injected weight-store fault") {
		t.Fatalf("err = %v, want the group panic", err)
	}
	res, err := Solve(context.Background(), db, uniform(), goals, opt)
	if err != nil || len(res.Solutions) != 20 {
		t.Fatalf("next query: %v solutions, err %v", res, err)
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines left running, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
