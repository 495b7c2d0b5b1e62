package spd

import (
	"context"
	"testing"

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

const indepSrc = `
p(1). p(2). p(3).
q(a). q(b).
r(z).
`

func TestSemiJoinMatchesNestedLoop(t *testing.T) {
	db := load(t, workload.Join(20, 30, 0.5, 5))
	goals := q(t, "r(X,K), s(K,V)")
	opt := search.Options{Strategy: search.DFS}
	sj, err := SemiJoin(context.Background(), db, uniform(), goals[0], goals[1], nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := NestedLoopJoin(context.Background(), db, uniform(), goals[0], goals[1], opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sj.Solutions) != len(nl.Solutions) {
		t.Fatalf("semi-join %d solutions, nested loop %d", len(sj.Solutions), len(nl.Solutions))
	}
	// The point of the semi-join: far fewer join attempts.
	if sj.JoinAttempts >= nl.JoinAttempts {
		t.Errorf("semi-join attempts %d should be < nested loop %d", sj.JoinAttempts, nl.JoinAttempts)
	}
	if sj.MarkedClauses >= sj.ConsumerClauses {
		t.Errorf("marking should restrict candidates: %d of %d", sj.MarkedClauses, sj.ConsumerClauses)
	}
}

func TestSemiJoinAgainstSearchBaseline(t *testing.T) {
	// The semi-join result must equal the plain sequential search result.
	db := load(t, workload.Join(10, 15, 0.7, 9))
	goals := q(t, "r(X,K), s(K,V)")
	opt := search.Options{Strategy: search.DFS}
	sj, err := SemiJoin(context.Background(), db, uniform(), goals[0], goals[1], nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := search.Run(context.Background(), db, uniform(), q(t, "r(X,K), s(K,V)"), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sj.Solutions) != len(seq.Solutions) {
		t.Errorf("semi-join %d, search %d", len(sj.Solutions), len(seq.Solutions))
	}
}

func TestSemiJoinWithSPDCharging(t *testing.T) {
	db := load(t, workload.Join(16, 16, 0.5, 11))
	ws := uniform()
	blocks := BuildBlocks(db, ws)
	disk := New(DefaultGeometry(), MIMD, 4)
	if err := disk.Store(blocks); err != nil {
		t.Fatal(err)
	}
	goals := q(t, "r(X,K), s(K,V)")
	sj, err := SemiJoin(context.Background(), db, ws, goals[0], goals[1], disk, search.Options{Strategy: search.DFS})
	if err != nil {
		t.Fatal(err)
	}
	if sj.SPDCycles <= 0 {
		t.Error("SPD marking must cost simulated cycles")
	}
	if sj.MarkedClauses == 0 || len(sj.Solutions) == 0 {
		t.Errorf("marked=%d solutions=%d", sj.MarkedClauses, len(sj.Solutions))
	}
}

func TestSemiJoinRequiresSharedVars(t *testing.T) {
	db := load(t, indepSrc)
	goals := q(t, "p(X), q(Y)")
	if _, err := SemiJoin(context.Background(), db, uniform(), goals[0], goals[1], nil, search.Options{}); err == nil {
		t.Error("independent goals must be rejected")
	}
}

func TestSemiJoinRejectsRuleConsumer(t *testing.T) {
	db := load(t, "r(1,a).\nderived(K,V) :- base(K,V).\nbase(a,x).")
	goals := q(t, "r(X,K), derived(K,V)")
	if _, err := SemiJoin(context.Background(), db, uniform(), goals[0], goals[1], nil, search.Options{Strategy: search.DFS}); err == nil {
		t.Error("rule consumers are out of scope and must be rejected")
	}
}

// TestSemiJoinFreeSharedVariable: a producer solution that leaves a
// shared variable free joins every consumer fact, as the nested loop
// does; the marking pass must not bind the variable to itself.
func TestSemiJoinFreeSharedVariable(t *testing.T) {
	db := load(t, "r(x,_).\ns(a,1).\ns(b,2).\n")
	goals := q(t, "r(X,K), s(K,V)")
	opt := search.Options{Strategy: search.DFS}
	sj, err := SemiJoin(context.Background(), db, uniform(), goals[0], goals[1], nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := NestedLoopJoin(context.Background(), db, uniform(), goals[0], goals[1], opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sj.Solutions) != 2 || len(nl.Solutions) != 2 || sj.MarkedClauses != 2 {
		t.Errorf("semi-join %d solutions (%d marked), nested loop %d; want 2, 2 marked, 2", len(sj.Solutions), sj.MarkedClauses, len(nl.Solutions))
	}
}

func TestSemiJoinEmptyProducer(t *testing.T) {
	db := load(t, "s(a,1).")
	goals := q(t, "r(X,K), s(K,V)")
	sj, err := SemiJoin(context.Background(), db, uniform(), goals[0], goals[1], nil, search.Options{Strategy: search.DFS})
	if err != nil {
		t.Fatal(err)
	}
	if sj.ProducerSolutions != 0 || len(sj.Solutions) != 0 {
		t.Error("empty producer should yield empty join")
	}
}

func BenchmarkSemiJoinVsNested(b *testing.B) {
	db, _, err := kb.LoadString(workload.Join(100, 200, 0.2, 3))
	if err != nil {
		b.Fatal(err)
	}
	goals, _ := parse.Query("r(X,K), s(K,V)")
	opt := search.Options{Strategy: search.DFS}
	b.Run("semijoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SemiJoin(context.Background(), db, uniform(), goals[0], goals[1], nil, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nested", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NestedLoopJoin(context.Background(), db, uniform(), goals[0], goals[1], opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
