package kb

import (
	"fmt"
	"strings"
	"testing"

	"blog/internal/parse"
	"blog/internal/term"
)

const fig1 = `
gf(X,Z) :- f(X,Y), f(Y,Z).
gf(X,Z) :- f(X,Y), m(Y,Z).
f(curt,elain).   f(sam,larry).
f(dan,pat).      f(larry,den).
f(pat,john).     f(larry,doug).
m(elain,john).
m(marian,elain).
m(peg,den).
m(peg,doug).
`

const sec5 = `
a :- b, c, d.
b :- e.
b :- f.
c :- g.
d :- h.
e. f. g. h.
`

func load(t testing.TB, src string) *DB {
	t.Helper()
	db, _, err := LoadString(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return db
}

func TestLoadFig1(t *testing.T) {
	db := load(t, fig1)
	if db.Len() != 12 {
		t.Fatalf("Len = %d, want 12", db.Len())
	}
	s := db.ComputeStats()
	if s.Facts != 10 || s.Rules != 2 || s.Preds != 3 {
		t.Errorf("stats = %+v", s)
	}
	preds := db.Preds()
	want := []string{"f/2", "gf/2", "m/2"}
	for i, p := range want {
		if preds[i] != p {
			t.Errorf("preds = %v, want %v", preds, want)
			break
		}
	}
}

func TestClauseByID(t *testing.T) {
	db := load(t, fig1)
	c := db.Clause(0)
	if c == nil || c.Pred != "gf/2" {
		t.Errorf("Clause(0) = %v", c)
	}
	if db.Clause(Query) != nil {
		t.Error("Clause(Query) should be nil")
	}
	if db.Clause(999) != nil {
		t.Error("out-of-range ID should be nil")
	}
}

func TestClauseString(t *testing.T) {
	db := load(t, sec5)
	if got := db.Clause(0).String(); got != "a :- b, c, d." {
		t.Errorf("rule prints %q", got)
	}
	if got := db.Clause(5).String(); got != "e." {
		t.Errorf("fact prints %q", got)
	}
}

func TestCandidatesByPredicate(t *testing.T) {
	db := load(t, fig1)
	g, _ := parse.OneTerm("gf(A,B)")
	cands := db.Candidates(nil, g)
	if len(cands) != 2 {
		t.Fatalf("gf/2 candidates = %d, want 2", len(cands))
	}
	if cands[0].ID != 0 || cands[1].ID != 1 {
		t.Error("candidates must come in source order")
	}
}

func TestCandidatesFirstArgIndex(t *testing.T) {
	db := load(t, fig1)
	g, _ := parse.OneTerm("f(sam,Y)")
	cands := db.Candidates(nil, g)
	if len(cands) != 1 || cands[0].Head.String() != "f(sam,larry)" {
		t.Fatalf("f(sam,Y) candidates = %v", cands)
	}
	// Open first argument returns all f/2 clauses.
	g2, _ := parse.OneTerm("f(X,Y)")
	if got := len(db.Candidates(nil, g2)); got != 6 {
		t.Errorf("f(X,Y) candidates = %d, want 6", got)
	}
	// Unknown constant: no candidates.
	g3, _ := parse.OneTerm("f(nobody,Y)")
	if got := len(db.Candidates(nil, g3)); got != 0 {
		t.Errorf("f(nobody,Y) candidates = %d, want 0", got)
	}
}

func TestCandidatesIndexUsesEnv(t *testing.T) {
	db := load(t, fig1)
	x := term.NewVar("X")
	goal := term.NewCompound("f", x, term.NewVar("Y"))
	env := (*term.Env)(nil).Bind(x, term.NewAtom("larry"))
	cands := db.Candidates(env, goal)
	if len(cands) != 2 {
		t.Fatalf("f(larry,Y) under env: %d candidates, want 2", len(cands))
	}
}

func TestCandidatesMergesVarFirstClauses(t *testing.T) {
	db := load(t, `
p(a, 1).
p(X, 2).
p(a, 3).
p(b, 4).
`)
	g, _ := parse.OneTerm("p(a,N)")
	cands := db.Candidates(nil, g)
	if len(cands) != 3 {
		t.Fatalf("got %d candidates, want 3 (two keyed + one var-first)", len(cands))
	}
	// Source order must be preserved across the merge.
	if !(cands[0].ID < cands[1].ID && cands[1].ID < cands[2].ID) {
		t.Errorf("candidates out of order: %v %v %v", cands[0].ID, cands[1].ID, cands[2].ID)
	}
}

func TestCandidatesVarOnlyPredicate(t *testing.T) {
	db := load(t, "q(X) :- p(X).\np(a).")
	g, _ := parse.OneTerm("q(a)")
	if got := len(db.Candidates(nil, g)); got != 1 {
		t.Errorf("q(a) candidates = %d, want 1", got)
	}
}

func TestCandidatesNonCallable(t *testing.T) {
	db := load(t, "p(a).")
	if got := db.Candidates(nil, term.NewVar("X")); got != nil {
		t.Errorf("variable goal should have no candidates, got %v", got)
	}
	if got := db.Candidates(nil, term.Int(3)); got != nil {
		t.Errorf("integer goal should have no candidates, got %v", got)
	}
}

func TestCandidatesCompoundFirstArg(t *testing.T) {
	db := load(t, "p(s(a), one).\np(t(a), two).\np(s(b), three).")
	g, _ := parse.OneTerm("p(s(Z), W)")
	cands := db.Candidates(nil, g)
	if len(cands) != 2 {
		t.Errorf("p(s(_),_) candidates = %d, want 2 (indexed by functor)", len(cands))
	}
}

func TestArcsSec5(t *testing.T) {
	db := load(t, sec5)
	arcs := db.Arcs()
	// a:-b,c,d: b has 2 resolvers, c 1, d 1 = 4 arcs.
	// b:-e, b:-f, c:-g, d:-h: 1 each = 4 arcs. Total 8.
	if len(arcs) != 8 {
		t.Fatalf("got %d arcs, want 8", len(arcs))
	}
	SortArcs(arcs)
	first := arcs[0]
	if first.Caller != 0 || first.Pos != 0 {
		t.Errorf("first arc = %v", first)
	}
	// Every arc must be validated by actual unification.
	for _, a := range arcs {
		if !db.ResolvableBy(a.Caller, a.Pos, a.Callee) {
			t.Errorf("arc %v not resolvable", a)
		}
	}
}

func TestArcsForGoals(t *testing.T) {
	db := load(t, fig1)
	goals, _ := parse.Query("gf(sam,G)")
	arcs := db.ArcsForGoals(goals)
	if len(arcs) != 2 {
		t.Fatalf("query arcs = %d, want 2", len(arcs))
	}
	for _, a := range arcs {
		if a.Caller != Query || a.Pos != 0 {
			t.Errorf("arc = %v", a)
		}
	}
}

func TestResolvableByBounds(t *testing.T) {
	db := load(t, sec5)
	if db.ResolvableBy(Query, 0, 0) {
		t.Error("query caller has no stored body")
	}
	if db.ResolvableBy(0, 99, 1) {
		t.Error("out-of-range pos")
	}
	if db.ResolvableBy(0, 0, 999) {
		t.Error("out-of-range callee")
	}
}

func TestGraphText(t *testing.T) {
	db := load(t, fig1)
	g := db.GraphText()
	for _, want := range []string{
		"(curt) --f--> (elain)",
		"(peg) --m--> (doug)",
		"(X) --gf--> (Z)  :-  (X) --f--> (Y)  (Y) --f--> (Z)",
		"RULES", "FACTS",
	} {
		if !strings.Contains(g, want) {
			t.Errorf("GraphText missing %q\n%s", want, g)
		}
	}
}

func TestGraphDOT(t *testing.T) {
	db := load(t, fig1)
	dot := db.GraphDOT()
	for _, want := range []string{
		"digraph blog {",
		`"curt" -> "elain" [label="f"];`,
		`"peg" -> "doug" [label="m"];`,
		"}",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Non-binary facts appear as isolated nodes without crashing.
	db2 := load(t, "solo(a).\ntriple(a,b,c).")
	dot2 := db2.GraphDOT()
	if !strings.Contains(dot2, `"solo(a)"`) || !strings.Contains(dot2, `"triple(a,b,c)"`) {
		t.Errorf("non-binary facts missing:\n%s", dot2)
	}
}

func TestLinkedListText(t *testing.T) {
	db := load(t, sec5)
	txt := db.LinkedListText(func(a Arc) float64 { return float64(a.Callee) })
	for _, want := range []string{
		"block 0: a :- b, c, d.",
		"goal 0 b/0",
		"-> block 1",
		"-> block 2",
		"block 5: e.",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("LinkedListText missing %q\n%s", want, txt)
		}
	}
}

func TestAssertPanicsOnNonCallable(t *testing.T) {
	db := New()
	defer func() {
		if recover() == nil {
			t.Error("Assert with integer head should panic")
		}
	}()
	db.Assert(term.Int(1), nil)
}

func TestClauseActivation(t *testing.T) {
	db, _, err := LoadString("p(X,Y) :- q(X,Z), r(Z,Y).\nq(a,b).\n")
	if err != nil {
		t.Fatal(err)
	}
	rule := db.Clause(0)
	h1, b1 := rule.Activate()
	h2, b2 := rule.Activate()
	// Structure preserved, variables renamed apart across activations.
	if h1.String() != "p(X,Y)" || len(b1) != 2 {
		t.Fatalf("activation produced %s / %v", h1, b1)
	}
	x1 := h1.(*term.Compound).Args[0].(*term.Var)
	x2 := h2.(*term.Compound).Args[0].(*term.Var)
	if x1 == x2 {
		t.Error("two activations must not share variables")
	}
	// Shared variables map to the same fresh var within one activation.
	z1 := b1[0].(*term.Compound).Args[1].(*term.Var)
	z1b := b1[1].(*term.Compound).Args[0].(*term.Var)
	if z1 != z1b {
		t.Error("Z must be the same fresh variable in both body goals")
	}
	if x2 == z1 || b2[0].(*term.Compound).Args[1].(*term.Var) == z1 {
		t.Error("activations leaked variables into each other")
	}
}

func BenchmarkCandidatesIndexed(b *testing.B) {
	db := load(b, fig1)
	g, _ := parse.OneTerm("f(larry,Y)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := db.Candidates(nil, g); len(got) != 2 {
			b.Fatal("wrong candidates")
		}
	}
}

func TestTableDirectiveRejectsBuiltins(t *testing.T) {
	for _, src := range []string{
		":- table is/2.\nf(a).\n",
		":- table '\\\\+'/1.\nf(a).\n",
		":- table '='/2.\nf(a).\n",
	} {
		if _, _, err := LoadString(src); err == nil {
			t.Errorf("LoadString(%q) loaded; want builtin-tabling rejection", src)
		}
	}
	// Ordinary declarations still load.
	db, _, err := LoadString(":- table path/2.\npath(X,Y) :- edge(X,Y).\nedge(a,b).\n")
	if err != nil {
		t.Fatal(err)
	}
	if !db.HasTabled() {
		t.Fatal("HasTabled = false after a table directive")
	}
}

func TestTableDirectiveMinMode(t *testing.T) {
	db, _, err := LoadString(":- table shortest/3 min(3), path/2.\nshortest(X,Y,C) :- edge(X,Y,C).\npath(X,Y) :- edge(X,Y,_).\nedge(a,b,1).\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := db.TabledMin(term.Intern("shortest"), 3); got != 3 {
		t.Errorf("TabledMin(shortest/3) = %d, want 3", got)
	}
	if got := db.TabledMin(term.Intern("path"), 2); got != 0 {
		t.Errorf("TabledMin(path/2) = %d, want 0 (plain tabling)", got)
	}
	if got := db.TabledMin(term.Intern("edge"), 3); got != 0 {
		t.Errorf("TabledMin(edge/3) = %d, want 0 (not tabled)", got)
	}
	if !db.IsTabled(term.Intern("shortest"), 3) {
		t.Error("IsTabled(shortest/3) = false, want true")
	}
	want := []string{"path/2", "shortest/3 min(3)"}
	if got := db.TabledPreds(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("TabledPreds = %v, want %v", got, want)
	}

	// The cost position must name a real argument slot.
	for _, src := range []string{
		":- table shortest/3 min(4).\nf(a).\n",
		":- table flag/0 min(1).\nf(a).\n",
	} {
		if _, _, err := LoadString(src); err == nil {
			t.Errorf("LoadString(%q) loaded; want out-of-range min rejection", src)
		}
	}

	// Conflicting redeclarations must be rejected — last-wins would
	// silently flip the predicate between plain and cost-minimal
	// evaluation. Idempotent repeats stay legal.
	for _, src := range []string{
		":- table shortest/3 min(3).\n:- table shortest/3.\nf(a).\n",
		":- table shortest/3.\n:- table shortest/3 min(3).\nf(a).\n",
		":- table shortest/3 min(3), shortest/3 min(2).\nf(a).\n",
	} {
		if _, _, err := LoadString(src); err == nil {
			t.Errorf("LoadString(%q) loaded; want conflicting-mode rejection", src)
		}
	}
	if _, _, err := LoadString(":- table path/2.\n:- table path/2.\npath(a,b).\n"); err != nil {
		t.Errorf("idempotent redeclaration rejected: %v", err)
	}
}
