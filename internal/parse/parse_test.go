package parse

import (
	"math"
	"strings"
	"testing"

	"blog/internal/term"
)

// fig1 is the program of figure 1 of the paper, verbatim.
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

?- gf(sam,G).
`

func TestParseFig1(t *testing.T) {
	prog, err := Source(fig1)
	if err != nil {
		t.Fatalf("parse fig1: %v", err)
	}
	if len(prog.Clauses) != 12 {
		t.Fatalf("got %d clauses, want 12", len(prog.Clauses))
	}
	if len(prog.Queries) != 1 {
		t.Fatalf("got %d queries, want 1", len(prog.Queries))
	}
	r0 := prog.Clauses[0]
	if got := r0.Head.String(); got != "gf(X,Z)" {
		t.Errorf("rule 0 head = %s", got)
	}
	if len(r0.Body) != 2 || r0.Body[0].String() != "f(X,Y)" || r0.Body[1].String() != "f(Y,Z)" {
		t.Errorf("rule 0 body = %v", r0.Body)
	}
	if got := prog.Queries[0][0].String(); got != "gf(sam,G)" {
		t.Errorf("query = %s", got)
	}
	// Facts have empty bodies.
	for _, c := range prog.Clauses[2:] {
		if len(c.Body) != 0 {
			t.Errorf("fact %s has body %v", c.Head, c.Body)
		}
	}
}

func TestVariableScopePerClause(t *testing.T) {
	prog, err := Source("p(X,X).\nq(X).")
	if err != nil {
		t.Fatal(err)
	}
	p0 := prog.Clauses[0].Head.(*term.Compound)
	if p0.Args[0] != p0.Args[1] {
		t.Error("X within one clause must be the same variable")
	}
	q0 := prog.Clauses[1].Head.(*term.Compound)
	if q0.Args[0] == p0.Args[0] {
		t.Error("X in different clauses must be distinct variables")
	}
}

func TestVariableSharedHeadBody(t *testing.T) {
	prog, err := Source("p(X) :- q(X).")
	if err != nil {
		t.Fatal(err)
	}
	h := prog.Clauses[0].Head.(*term.Compound)
	b := prog.Clauses[0].Body[0].(*term.Compound)
	if h.Args[0] != b.Args[0] {
		t.Error("X must be shared between head and body")
	}
}

func TestAnonymousVarsDistinct(t *testing.T) {
	prog, err := Source("p(_,_).")
	if err != nil {
		t.Fatal(err)
	}
	c := prog.Clauses[0].Head.(*term.Compound)
	if c.Args[0] == c.Args[1] {
		t.Error("each _ must be a fresh variable")
	}
}

func TestParseIntegersAndNegatives(t *testing.T) {
	g, err := Query("p(42, -7)")
	if err != nil {
		t.Fatal(err)
	}
	c := g[0].(*term.Compound)
	if c.Args[0] != term.Int(42) || c.Args[1] != term.Int(-7) {
		t.Errorf("args = %v", c.Args)
	}
}

// TestParseIntegerRange: literals on both sides of the int64 boundary.
// One past it is a syntax error, never a wrapped value.
func TestParseIntegerRange(t *testing.T) {
	cases := []struct {
		src  string
		want int64
		ok   bool
	}{
		{"p(9223372036854775807).", math.MaxInt64, true},
		{"p(-9223372036854775808).", math.MinInt64, true},
		{"p(9223372036854775808).", 0, false},
		{"p(-9223372036854775809).", 0, false},
		{"p(18446744073709551617).", 0, false},
		{":- table q/18446744073709551618.", 0, false},
	}
	for _, c := range cases {
		prog, err := Source(c.src)
		if !c.ok {
			if err == nil {
				t.Errorf("Source(%q) = %+v, want an out-of-range error", c.src, prog)
			} else if !strings.Contains(err.Error(), "outside the 64-bit range") {
				t.Errorf("Source(%q) error = %v, want out of range", c.src, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Source(%q): %v", c.src, err)
			continue
		}
		if got := prog.Clauses[0].Head.(*term.Compound).Args[0]; got != term.Int(c.want) {
			t.Errorf("Source(%q) reads %v, want %d", c.src, got, c.want)
		}
	}
}

func TestParseLists(t *testing.T) {
	cases := []struct{ in, want string }{
		{"p([])", "p([])"},
		{"p([a,b,c])", "p([a,b,c])"},
		{"p([H|T])", "p([H|T])"},
		{"p([a,b|T])", "p([a,b|T])"},
		{"p([[a],[b,c]])", "p([[a],[b,c]])"},
	}
	for _, c := range cases {
		g, err := Query(c.in)
		if err != nil {
			t.Errorf("%s: %v", c.in, err)
			continue
		}
		if got := g[0].String(); got != c.want {
			t.Errorf("%s parsed as %s", c.in, got)
		}
	}
}

func TestParseArithmetic(t *testing.T) {
	g, err := Query("X is 1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	// * binds tighter than +.
	want := "is(X,+(1,*(2,3)))"
	if got := g[0].String(); got != want {
		t.Errorf("got %s, want %s", got, want)
	}
	g2, err := Query("X is (1 + 2) * 3")
	if err != nil {
		t.Fatal(err)
	}
	if got := g2[0].String(); got != "is(X,*(+(1,2),3))" {
		t.Errorf("parenthesized: got %s", got)
	}
}

func TestParseComparisons(t *testing.T) {
	for _, op := range []string{"=", "\\=", "<", ">", "=<", ">=", "=:=", "=\\="} {
		g, err := Query("X " + op + " Y")
		if err != nil {
			t.Errorf("op %s: %v", op, err)
			continue
		}
		name, arity, _ := term.Functor(g[0])
		if name != op || arity != 2 {
			t.Errorf("op %s parsed as %s/%d", op, name, arity)
		}
	}
}

func TestParseQueryMultiGoal(t *testing.T) {
	g, err := Query("?- f(sam,Y), f(Y,G).")
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 2 {
		t.Fatalf("got %d goals", len(g))
	}
	// Y must be shared between the goals.
	y1 := g[0].(*term.Compound).Args[1]
	y2 := g[1].(*term.Compound).Args[0]
	if y1 != y2 {
		t.Error("Y must be shared across query goals")
	}
}

func TestParseComments(t *testing.T) {
	src := `
% line comment
p(a). /* block
comment */ p(b). % trailing
`
	prog, err := Source(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Clauses) != 2 {
		t.Errorf("got %d clauses", len(prog.Clauses))
	}
}

func TestParseQuotedAtoms(t *testing.T) {
	g, err := Query("p('hello world', 'it''s', 'a\\nb')")
	if err != nil {
		t.Fatal(err)
	}
	c := g[0].(*term.Compound)
	if c.Args[0] != term.NewAtom("hello world") {
		t.Errorf("arg0 = %v", c.Args[0])
	}
	if c.Args[1] != term.NewAtom("it's") {
		t.Errorf("arg1 = %v", c.Args[1])
	}
	if c.Args[2] != term.NewAtom("a\nb") {
		t.Errorf("arg2 = %v", c.Args[2])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"p(a",     // unclosed paren
		"p(a)",    // missing period (Source requires it)
		"p(a)) .", // stray paren
		"'unterminated",
		"/* unclosed",
		"p(a,).",  // missing arg
		"3 :- p.", // non-callable head
		"X :- p.", // variable head
	}
	for _, src := range cases {
		if _, err := Source(src); err == nil {
			t.Errorf("Source(%q) should fail", src)
		}
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Source("p(a).\nq(b")
	if err == nil {
		t.Fatal("want error")
	}
	pe, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Line)
	}
	if !strings.Contains(err.Error(), "parse error") {
		t.Errorf("error text %q", err)
	}
}

func TestOneTerm(t *testing.T) {
	tm, err := OneTerm("f(X, g(Y))")
	if err != nil {
		t.Fatal(err)
	}
	if got := tm.String(); got != "f(X,g(Y))" {
		t.Errorf("got %s", got)
	}
	if _, err := OneTerm("f(X) extra"); err == nil {
		t.Error("trailing tokens should fail")
	}
}

func TestRoundTrip(t *testing.T) {
	// Terms print back to a form that reparses to an equal-shape term.
	inputs := []string{
		"f(a,b)", "f(X,g(X))", "[a,b,c]", "[H|T]", "p(1, -2, 'q r')",
		"is(X,+(1,2))",
	}
	for _, in := range inputs {
		t1, err := OneTerm(in)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		t2, err := OneTerm(t1.String())
		if err != nil {
			t.Fatalf("reparse %s: %v", t1, err)
		}
		if t1.String() != t2.String() {
			t.Errorf("round trip %s -> %s -> %s", in, t1, t2)
		}
	}
}

func TestSection5Example(t *testing.T) {
	// The A :- B,C,D example from section 5 of the paper.
	src := `
a :- b, c, d.
b :- e.
b :- f.
c :- g.
d :- h.
e. f. g. h.
`
	prog, err := Source(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Clauses) != 9 {
		t.Errorf("got %d clauses, want 9", len(prog.Clauses))
	}
	if len(prog.Clauses[0].Body) != 3 {
		t.Errorf("a/0 body len = %d", len(prog.Clauses[0].Body))
	}
}

func TestTableDirective(t *testing.T) {
	prog, err := Source(`
:- table path/2.
:- table even/1, odd/1.
path(X, Y) :- edge(X, Y).
edge(a, b).
`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TabledDecl{{Name: "path", Arity: 2, Line: 2}, {Name: "even", Arity: 1, Line: 3}, {Name: "odd", Arity: 1, Line: 3}}
	if len(prog.Tabled) != len(want) {
		t.Fatalf("got %d tabled decls, want %d: %v", len(prog.Tabled), len(want), prog.Tabled)
	}
	for i, d := range prog.Tabled {
		if d != want[i] {
			t.Errorf("decl %d = %+v, want %+v", i, d, want[i])
		}
	}
	if len(prog.Clauses) != 2 {
		t.Errorf("got %d clauses, want 2", len(prog.Clauses))
	}
}

func TestTableDirectiveMin(t *testing.T) {
	prog, err := Source(`
:- table shortest/3 min(3).
:- table path/2, best/4 min(2).
shortest(X, Y, C) :- edge(X, Y, C).
`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TabledDecl{
		{Name: "shortest", Arity: 3, Min: 3, Line: 2},
		{Name: "path", Arity: 2, Line: 3},
		{Name: "best", Arity: 4, Min: 2, Line: 3},
	}
	if len(prog.Tabled) != len(want) {
		t.Fatalf("got %d tabled decls, want %d: %v", len(prog.Tabled), len(want), prog.Tabled)
	}
	for i, d := range prog.Tabled {
		if d != want[i] {
			t.Errorf("decl %d = %+v, want %+v", i, d, want[i])
		}
	}
}

func TestTableDirectiveErrors(t *testing.T) {
	for _, src := range []string{
		":- tabulate path/2.",         // unknown directive
		":- table path.",              // missing arity
		":- table path/X.",            // non-integer arity
		":- table /2.",                // missing name
		":- table path/2",             // missing terminator
		":- table path/2 min.",        // min without position
		":- table path/2 min().",      // empty min
		":- table path/2 min(X).",     // non-integer position
		":- table path/2 min(0).",     // zero position
		":- table shortest/3 min(3)",  // missing terminator after mode
		":- table shortest/3 max(3).", // unknown mode
		":- table shortest/3 min(3",   // unclosed mode
	} {
		if _, err := Source(src); err == nil {
			t.Errorf("Source(%q) parsed, want error", src)
		}
	}
}

func BenchmarkParseFig1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Source(fig1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNestingCap: parentheses, brackets and argument lists nest at most
// maxNesting levels deep in Query, Source and OneTerm; one level more is
// a syntax error that names the cap.
func TestNestingCap(t *testing.T) {
	nested := func(open, close string, n int) string {
		return strings.Repeat(open, n) + "a" + strings.Repeat(close, n)
	}
	shapes := []struct{ name, open, close string }{
		{"arguments", "f(", ")"},
		{"parentheses", "(", ")"},
		{"lists", "[", "]"},
		{"list tails", "[a|", "]"},
	}
	for _, sh := range shapes {
		for _, n := range []int{maxNesting, maxNesting + 1} {
			// The outer p( is the first level.
			text := "p(" + nested(sh.open, sh.close, n-1) + ")"
			_, qerr := Query(text)
			_, serr := Source(text + ".\n")
			_, terr := OneTerm(text)
			for _, c := range []struct {
				entry string
				err   error
			}{{"Query", qerr}, {"Source", serr}, {"OneTerm", terr}} {
				if n <= maxNesting && c.err != nil {
					t.Errorf("%s %s: %d levels rejected: %v", c.entry, sh.name, n, c.err)
				}
				if n > maxNesting && (c.err == nil || !strings.Contains(c.err.Error(), "deeper than 10000")) {
					t.Errorf("%s %s: %d levels gave %v, want the nesting error", c.entry, sh.name, n, c.err)
				}
			}
		}
	}
	// Depth is nesting, not length: a long flat list and a long operator
	// chain stay accepted.
	if _, err := OneTerm("[" + strings.Repeat("a,", 3*maxNesting) + "a]"); err != nil {
		t.Errorf("flat list: %v", err)
	}
	if _, err := OneTerm(strings.Repeat("1+", 3*maxNesting) + "1"); err != nil {
		t.Errorf("operator chain: %v", err)
	}
}
