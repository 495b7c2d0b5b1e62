package engine

import (
	"testing"

	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/term"
	"blog/internal/weights"
)

// runBuiltinQuery answers a query exhaustively on the persistent-Env
// compiled path (see runBiDiff) and returns the formatted solutions.
func runBuiltinQuery(t *testing.T, src, q string) []string {
	t.Helper()
	out, err := runBiDiff(t, biDiffConfig{name: "env+vm"}, src, q)
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	return out
}

func TestBuiltinTrueFail(t *testing.T) {
	if got := runBuiltinQuery(t, "", "true"); len(got) != 1 || got[0] != "true" {
		t.Errorf("true: %v", got)
	}
	if got := runBuiltinQuery(t, "", "fail"); len(got) != 0 {
		t.Errorf("fail: %v", got)
	}
	if got := runBuiltinQuery(t, "", "false"); len(got) != 0 {
		t.Errorf("false: %v", got)
	}
}

func TestBuiltinUnify(t *testing.T) {
	got := runBuiltinQuery(t, "", "X = f(a,b)")
	if len(got) != 1 || got[0] != "X = f(a,b)" {
		t.Errorf("=: %v", got)
	}
	if got := runBuiltinQuery(t, "", "a = b"); len(got) != 0 {
		t.Errorf("a=b: %v", got)
	}
}

func TestBuiltinNotUnify(t *testing.T) {
	if got := runBuiltinQuery(t, "", "a \\= b"); len(got) != 1 {
		t.Errorf("a\\=b: %v", got)
	}
	if got := runBuiltinQuery(t, "", "a \\= a"); len(got) != 0 {
		t.Errorf("a\\=a: %v", got)
	}
	// X \= a fails because they can unify.
	if got := runBuiltinQuery(t, "", "X \\= a, X = b"); len(got) != 0 {
		t.Errorf("X\\=a: %v", got)
	}
}

func TestBuiltinStructuralEq(t *testing.T) {
	if got := runBuiltinQuery(t, "", "f(a) == f(a)"); len(got) != 1 {
		t.Errorf("==: %v", got)
	}
	if got := runBuiltinQuery(t, "", "X == Y"); len(got) != 0 {
		t.Errorf("distinct vars ==: %v", got)
	}
	if got := runBuiltinQuery(t, "", "f(a) \\== f(b)"); len(got) != 1 {
		t.Errorf("\\==: %v", got)
	}
}

func TestBuiltinIs(t *testing.T) {
	cases := []struct {
		q    string
		want string
	}{
		{"X is 2 + 3", "X = 5"},
		{"X is 2 * 3 + 1", "X = 7"},
		{"X is 7 // 2", "X = 3"},
		{"X is 7 mod 2", "X = 1"},
		{"X is -3 mod 5", "X = 2"}, // Prolog mod follows divisor sign
		{"X is abs(-4)", "X = 4"},
		{"X is min(3, 5)", "X = 3"},
		{"X is max(3, 5)", "X = 5"},
		{"X is 2 - 5", "X = -3"},
	}
	for _, c := range cases {
		got := runBuiltinQuery(t, "", c.q)
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("%s: got %v, want %s", c.q, got, c.want)
		}
	}
	// is fails when lhs does not unify with the value.
	if got := runBuiltinQuery(t, "", "4 is 2 + 1"); len(got) != 0 {
		t.Errorf("4 is 3: %v", got)
	}
	if got := runBuiltinQuery(t, "", "3 is 2 + 1"); len(got) != 1 {
		t.Errorf("3 is 3: %v", got)
	}
}

func TestBuiltinArithmeticComparisons(t *testing.T) {
	yes := []string{"1 < 2", "2 > 1", "2 =< 2", "2 >= 2", "3 =:= 3", "3 =\\= 4", "1 + 1 =:= 2"}
	for _, q := range yes {
		if got := runBuiltinQuery(t, "", q); len(got) != 1 {
			t.Errorf("%s should succeed: %v", q, got)
		}
	}
	no := []string{"2 < 1", "1 > 2", "3 =< 2", "1 >= 2", "3 =:= 4", "3 =\\= 3"}
	for _, q := range no {
		if got := runBuiltinQuery(t, "", q); len(got) != 0 {
			t.Errorf("%s should fail: %v", q, got)
		}
	}
}

func TestBuiltinTermOrder(t *testing.T) {
	if got := runBuiltinQuery(t, "", "a @< b"); len(got) != 1 {
		t.Error("a @< b should succeed")
	}
	if got := runBuiltinQuery(t, "", "b @< a"); len(got) != 0 {
		t.Error("b @< a should fail")
	}
	if got := runBuiltinQuery(t, "", "f(a) @> a"); len(got) != 1 {
		t.Error("compound @> atom")
	}
}

func TestBuiltinBetween(t *testing.T) {
	got := runBuiltinQuery(t, "", "between(1, 3, X)")
	want := []string{"X = 1", "X = 2", "X = 3"}
	if len(got) != 3 {
		t.Fatalf("between: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("between[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	// Check membership mode.
	if got := runBuiltinQuery(t, "", "between(1, 3, 2)"); len(got) != 1 {
		t.Error("between membership should succeed")
	}
	if got := runBuiltinQuery(t, "", "between(1, 3, 9)"); len(got) != 0 {
		t.Error("out-of-range membership should fail")
	}
	if got := runBuiltinQuery(t, "", "between(3, 1, X)"); len(got) != 0 {
		t.Error("empty range should fail")
	}
}

func TestBuiltinTypeChecks(t *testing.T) {
	yes := []string{"integer(3)", "atom(a)", "var(X)", "nonvar(f(Y))", "nonvar(3)"}
	for _, q := range yes {
		if got := runBuiltinQuery(t, "", q); len(got) != 1 {
			t.Errorf("%s should succeed", q)
		}
	}
	no := []string{"integer(a)", "atom(3)", "atom(f(a))", "var(a)", "nonvar(X)"}
	for _, q := range no {
		if got := runBuiltinQuery(t, "", q); len(got) != 0 {
			t.Errorf("%s should fail", q)
		}
	}
	// var(X) after binding should fail.
	if got := runBuiltinQuery(t, "", "X = a, var(X)"); len(got) != 0 {
		t.Error("var of bound variable should fail")
	}
}

func TestBuiltinCutIsNoop(t *testing.T) {
	// B-LOG has no cut; ! behaves as true and prunes nothing.
	src := "p(1) :- !.\np(2)."
	got := runBuiltinQuery(t, src, "p(X)")
	if len(got) != 2 {
		t.Errorf("cut must not prune in B-LOG, got %v", got)
	}
}

func TestBuiltinsMixedWithClauses(t *testing.T) {
	src := `
double(X, Y) :- Y is X * 2.
big(X) :- X > 10.
`
	if got := runBuiltinQuery(t, src, "double(21, Z)"); len(got) != 1 || got[0] != "Z = 42" {
		t.Errorf("double: %v", got)
	}
	if got := runBuiltinQuery(t, src, "big(11)"); len(got) != 1 {
		t.Errorf("big(11): %v", got)
	}
	if got := runBuiltinQuery(t, src, "big(9)"); len(got) != 0 {
		t.Errorf("big(9): %v", got)
	}
}

func TestEvalErrors(t *testing.T) {
	if _, err := Eval(nil, term.NewVar("X")); err != ErrUnboundArithmetic {
		t.Errorf("unbound eval: %v", err)
	}
	if _, err := Eval(nil, term.NewAtom("a")); err == nil {
		t.Error("atom eval should error")
	}
	div, _ := parse.OneTerm("//(1,0)")
	if _, err := Eval(nil, div); err == nil {
		t.Error("division by zero should error")
	}
	mod, _ := parse.OneTerm("mod(1,0)")
	if _, err := Eval(nil, mod); err == nil {
		t.Error("mod by zero should error")
	}
	unk, _ := parse.OneTerm("foo(1,2)")
	if _, err := Eval(nil, unk); err == nil {
		t.Error("unknown function should error")
	}
	unk1, _ := parse.OneTerm("foo(1)")
	if _, err := Eval(nil, unk1); err == nil {
		t.Error("unknown unary function should error")
	}
}

func TestEvalErrorPropagatesFromSearch(t *testing.T) {
	db := kb.New()
	exp := NewExpander(db, weights.NewUniform(weights.DefaultConfig()))
	gs, _ := parse.Query("X is Y + 1")
	root := exp.Root(gs)
	if _, err := exp.Expand(root); err == nil {
		t.Error("unbound arithmetic must surface as an error")
	}
}

func TestIsBuiltin(t *testing.T) {
	if !IsBuiltin("is", 2) || !IsBuiltin("between", 3) {
		t.Error("expected builtins missing")
	}
	if IsBuiltin("is", 3) || IsBuiltin("foo", 2) {
		t.Error("non-builtins reported")
	}
}
