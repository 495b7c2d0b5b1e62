package vm

import (
	"fmt"
	"testing"

	"blog/internal/kb"
	"blog/internal/obs"
	"blog/internal/parse"
	"blog/internal/term"
)

// emptyEnv is the nil empty environment.
var emptyEnv *term.Env

func load(t *testing.T, src string) *kb.DB {
	t.Helper()
	db, _, err := kb.LoadString(src)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func goal(t *testing.T, src string) term.Term {
	t.Helper()
	gs, err := parse.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	return gs[0]
}

func TestDispatchBuckets(t *testing.T) {
	db := load(t, `
		f(a, 1). f(b, 2). f(X, 0). f(b, 3).
	`)
	pc := Compile(db)[kb.PredKey{Fn: term.Intern("f"), Arity: 2}]
	if pc == nil {
		t.Fatal("no code for f/2")
	}
	if len(pc.all) != 4 {
		t.Fatalf("all = %d clauses, want 4", len(pc.all))
	}
	env := emptyEnv

	// Bound first argument with a key: premerged bucket in clause order.
	sel := pc.Select(env, goal(t, "f(b, N)"))
	if len(sel) != 3 { // f(b,2), f(X,0), f(b,3)
		t.Fatalf("Select(f(b,N)) = %d clauses, want 3", len(sel))
	}
	for i := 1; i < len(sel); i++ {
		if sel[i].c.ID < sel[i-1].c.ID {
			t.Fatal("bucket not in clause-ID order")
		}
	}

	// Bound argument with no matching key: only the variable-first clause.
	sel = pc.Select(env, goal(t, "f(zzz, N)"))
	if len(sel) != 1 {
		t.Fatalf("Select(f(zzz,N)) = %d clauses, want 1", len(sel))
	}

	// Unbound first argument: the full list.
	sel = pc.Select(env, goal(t, "f(X, N)"))
	if len(sel) != 4 {
		t.Fatalf("Select(f(X,N)) = %d clauses, want 4", len(sel))
	}
}

func TestDispatchAllVariableHeads(t *testing.T) {
	db := load(t, `eq(X, X).`)
	pc := Pred(db, term.Intern("eq"), 2)
	if pc.buckets != nil {
		t.Error("all-variable heads must not build a dispatch table")
	}
	if got := pc.Select(emptyEnv, goal(t, "eq(a, B)")); len(got) != 1 {
		t.Fatalf("Select = %d clauses, want 1", len(got))
	}
}

// TestChainRuleCapturesRegister: p(X) :- q(X) activates by capturing the
// goal argument into a register — the environment is untouched and the
// body goal carries the caller's argument directly.
func TestChainRuleCapturesRegister(t *testing.T) {
	db := load(t, `p(X) :- q(X).`)
	pc := Pred(db, term.Intern("p"), 1)
	env := emptyEnv
	var m Machine
	env2, ok := m.Resolve(env, goal(t, "p(sam)"), pc.all[0])
	if !ok {
		t.Fatal("head must match")
	}
	if env2 != env {
		t.Error("register capture must not extend the environment")
	}
	if got := m.BodyGoal(0).String(); got != "q(sam)" {
		t.Errorf("body goal = %s, want q(sam)", got)
	}
}

// TestWriteModeInstantiates: head f(g(X), X) against goal f(V, a) takes
// write mode on the first argument (V unbound), minting g(_) and binding
// V; the second argument then grounds the fresh variable to a.
func TestWriteModeInstantiates(t *testing.T) {
	db := load(t, `f(g(X), X).`)
	pc := Pred(db, term.Intern("f"), 2)
	g := goal(t, "f(V, a)").(*term.Compound)
	v := g.Args[0].(*term.Var)
	var m Machine
	env, ok := m.Resolve(emptyEnv, g, pc.all[0])
	if !ok {
		t.Fatal("head must match")
	}
	if got := env.Format(v); got != "g(a)" {
		t.Errorf("V = %s, want g(a)", got)
	}
}

// TestWriteModeOccursCheck: head p(X, f(X)) against goal p(V, V) embeds
// the goal variable in its own write-mode image; the occurs check must
// reject it.
func TestWriteModeOccursCheck(t *testing.T) {
	db := load(t, `p(X, f(X)).`)
	pc := Pred(db, term.Intern("p"), 2)
	var m Machine
	if _, ok := m.Resolve(emptyEnv, goal(t, "p(V, V)"), pc.all[0]); ok {
		t.Error("occurs check must reject V = f(V)")
	}
}

// TestGroundCompoundPool: a ground compound argument compiles to one
// pooled constant, binds an unbound goal variable directly, and unifies
// against partially bound compounds.
func TestGroundCompoundPool(t *testing.T) {
	db := load(t, `wants(point(1, 2)).`)
	pc := Pred(db, term.Intern("wants"), 1)
	if cc := pc.all[0]; len(cc.code) != 1 || cc.code[0].op != opConst {
		t.Fatalf("ground compound must compile to a single opConst, got %d instrs", len(cc.code))
	}
	g := goal(t, "wants(P)").(*term.Compound)
	var m Machine
	env, ok := m.Resolve(emptyEnv, g, pc.all[0])
	if !ok {
		t.Fatal("head must match")
	}
	if got := env.Format(g.Args[0]); got != "point(1,2)" {
		t.Errorf("P = %s, want point(1,2)", got)
	}
	if _, ok := m.Resolve(emptyEnv, goal(t, "wants(point(1, 3))"), pc.all[0]); ok {
		t.Error("mismatched ground compound must fail")
	}
}

// TestRepeatVarUnifies: head same(X, X) must unify its two goal
// arguments with each other.
func TestRepeatVarUnifies(t *testing.T) {
	db := load(t, `same(X, X).`)
	pc := Pred(db, term.Intern("same"), 2)
	g := goal(t, "same(a, B)").(*term.Compound)
	var m Machine
	env, ok := m.Resolve(emptyEnv, g, pc.all[0])
	if !ok {
		t.Fatal("head must match")
	}
	if got := env.Format(g.Args[1]); got != "a" {
		t.Errorf("B = %s, want a", got)
	}
	if _, ok := m.Resolve(emptyEnv, goal(t, "same(a, b)"), pc.all[0]); ok {
		t.Error("same(a, b) must fail")
	}
}

// TestForRecompilesOnAssert: code is kept per predicate under its stamp.
// An assert on f/2 makes the next lookup select the new clause through
// f/2's recompiled dispatch table — f/2 compiled exactly once — while
// every other predicate's code stays pointer-identical.
func TestForRecompilesOnAssert(t *testing.T) {
	db := load(t, `f(a, 1). g(x). h(X) :- g(X).`)
	For(db)
	preds := db.PredKeys()
	before := make(map[kb.PredKey]*PredCode)
	for _, k := range preds {
		before[k] = Pred(db, k.Fn, k.Arity)
	}
	j := obs.NewJournal(64)
	db.SetEventJournal(j)

	db.Assert(goal(t, "f(b, 2)"), nil)
	f := kb.PredKey{Fn: term.Intern("f"), Arity: 2}
	var cache Cache
	pc := cache.Pred(db, f.Fn, f.Arity)
	if pc == before[f] || len(pc.all) != 2 {
		t.Fatalf("f/2 after assert: same code %v, %d clauses; want recompiled with 2", pc == before[f], len(pc.all))
	}
	if got := pc.Select(emptyEnv, goal(t, "f(b, N)")); len(got) != 1 || got[0].c.Head.String() != "f(b,2)" {
		t.Fatalf("Select(f(b,N)) after assert = %d clauses, want the new f(b,2)", len(got))
	}
	For(db)
	for _, k := range preds {
		if k != f && Pred(db, k.Fn, k.Arity) != before[k] {
			t.Errorf("%s recompiled by an assert on f/2", k)
		}
	}
	if Pred(db, f.Fn, f.Arity) != pc {
		t.Error("f/2 recompiled twice for one assert")
	}
	var compiled []string
	for _, ev := range j.Events(0) {
		if ev.Kind == obs.KindVMRecompile {
			compiled = append(compiled, ev.Pred)
		}
	}
	if fmt.Sprint(compiled) != "[f/2]" {
		t.Errorf("vm_recompile events name %v, want [f/2]", compiled)
	}
}

// TestRecompileCompilesOnlyTheAssertedClause: the first lookup of edge/2
// after one assert compiles the new clause alone — every old clause keeps
// its compiled form, pointer-identical — and extends the dispatch table
// so the new clause is selected. Its vm_recompile event counts one clause
// compiled and the rest reused.
func TestRecompileCompilesOnlyTheAssertedClause(t *testing.T) {
	db := load(t, `edge(a, b). edge(b, c). edge(c, a). edge(X, X) :- loop(X). loop(d).`)
	edge := kb.PredKey{Fn: term.Intern("edge"), Arity: 2}
	before := Pred(db, edge.Fn, edge.Arity)
	j := obs.NewJournal(64)
	db.SetEventJournal(j)

	db.Assert(goal(t, "edge(a, d)"), nil)
	var cache Cache
	pc := cache.Pred(db, edge.Fn, edge.Arity)
	if len(pc.all) != 5 {
		t.Fatalf("edge/2 after assert has %d clauses, want 5", len(pc.all))
	}
	for i, cc := range before.all {
		if pc.all[i] != cc {
			t.Errorf("clause %d (%s) recompiled", i, cc.c.Head)
		}
	}
	if got := pc.Select(emptyEnv, goal(t, "edge(a, N)")); len(got) != 3 || got[2] != pc.all[4] {
		t.Fatalf("Select(edge(a,N)) after assert = %d clauses, want edge(a,b), edge(X,X) and the new edge(a,d)", len(got))
	}
	var events []obs.Event
	for _, ev := range j.Events(0) {
		if ev.Kind == obs.KindVMRecompile {
			events = append(events, ev)
		}
	}
	if len(events) != 1 || events[0].Pred != "edge/2" || events[0].Count != 1 || events[0].Detail != "4 reused" {
		t.Fatalf("vm_recompile events = %+v, want one for edge/2 with Count 1 and Detail \"4 reused\"", events)
	}
	// Reuse is by clause identity, not by position or text: the same
	// source loaded again shares no compiled clause.
	twin := load(t, `edge(a, b). edge(b, c). edge(c, a). edge(X, X) :- loop(X). edge(a, d).`)
	twinClauses, _, _, _ := twin.Code(edge.Fn, edge.Arity)
	if _, reused := compilePred(twinClauses, pc); reused != 0 {
		t.Errorf("compiling another database's edge/2 reused %d clauses, want 0", reused)
	}
}
