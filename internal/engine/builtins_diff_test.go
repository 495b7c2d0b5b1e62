package engine

import (
	"fmt"
	"strings"
	"testing"

	"blog/internal/kb"
	"blog/internal/parse"
	"blog/internal/term"
	"blog/internal/weights"
	"blog/internal/workload"
)

// The builtin differential: every builtin in every mode must give the same
// answers, in the same order, and the same error on all three dispatch
// paths. On the trail path deterministic builtins bind in place on the
// store, on the two Env paths they extend a persistent environment; the
// table leans on what in-place execution can get wrong — a builtin that
// binds and then fails, \= trying a unification it must take back, the
// nondeterministic builtins re-entered on backtracking, and a run that
// dies of an arithmetic error with bindings still on the store.

type biDiffConfig struct {
	name        string
	trail, noVM bool
}

var biDiffConfigs = []biDiffConfig{
	{"trail+vm", true, false},
	{"env+vm", false, false},
	{"env+treewalk", false, true},
}

// partialBind makes a builtin bind X and then fail inside the first clause
// of p/1; the second clause must find X unbound again.
const partialBind = `
p(X) :- f(X, a) = f(1, b).
p(X) :- var(X), X = 2.
fn(N) :- functor(f(a), N, 2).
fn(N) :- var(N), N = ok.
len(X) :- length([a|X], 1), X = [b].
len(X) :- var(X), X = ok.
`

// biDiffCases is run top to bottom on each configuration, each trail run
// releasing its scratch to the pool the next one draws from — so the case
// after an error case runs on the store the error left behind.
var biDiffCases = []struct {
	src, query string
	want       string // answers joined by "; ", or "error: <substring>"
}{
	{"", "true", "true"},
	{"", "fail", ""},
	{"", "false", ""},
	{"", "X = 1, !", "X = 1"},

	{"", "X = f(a, Y), Y = b", "X = f(a,b), Y = b"},
	{"", "f(X, a) = f(1, b)", ""},
	{"", "f(X, Y) = f(Y, 1)", "X = 1, Y = 1"},
	{"", "X = f(X)", ""},
	{"", "f(X, Y) = f(Y, g(X))", ""},
	{partialBind, "p(X)", "X = 2"},
	{partialBind, "fn(N)", "N = ok"},
	{partialBind, "len(X)", "X = ok"},

	{"", "a \\= b", "true"},
	{"", "X \\= a", ""},
	{"", "X \\= f(X)", "X = _0"},
	{"", "f(X) \\= f(a)", ""},
	{"", "f(X, b) \\= f(a, c), var(X)", "X = _0"},
	{"", "f(X, b) \\= f(a, c), X = z", "X = z"},
	{"", "\\+(f(X, a) = f(1, b)), var(X)", "X = _0"},
	{"", "\\+(f(X, b) \\= f(a, c))", ""},

	{"", "f(X) == f(X)", "X = _0"},
	{"", "X == Y", ""},
	{"", "X = a, X == a", "X = a"},
	{"", "X \\== Y", "X = _0, Y = _1"},
	{"", "f(a) \\== f(a)", ""},

	{"", "X is 2 + 3 * 4", "X = 14"},
	{"", "X is 7 // 2, Y is -7 mod 3, Z is abs(-4) + min(1, 2) + max(1, 2) - 1", "X = 3, Y = 2, Z = 6"},
	{"", "5 is 2 + 3", "true"},
	{"", "6 is 2 + 3", ""},
	{"", "X is Y + 1", "error: unbound variable"},
	{"", "X is foo + 1", "error: atom foo"},
	{"", "X is 1 // 0", "error: division by zero"},
	{"", "X is 1 mod 0", "error: mod by zero"},
	{"", "X is foo(1, 2)", "error: unknown arithmetic function"},
	{"", "X is 9223372036854775806 + 1, Y is -9223372036854775807 - 1", "X = 9223372036854775807, Y = -9223372036854775808"},
	{"", "X is 9223372036854775807 + 1", "error: integer overflow in +/2"},
	{"", "X is -9223372036854775807 - 2", "error: integer overflow in -/2"},
	{"", "X is 3037000500 * 3037000500", "error: integer overflow in */2"},
	{"", "X is -9223372036854775808 // -1", "error: integer overflow in ///2"},
	{"", "X is -(-9223372036854775808)", "error: integer overflow in -/1"},
	{"", "X is abs(-9223372036854775808)", "error: integer overflow in abs/1"},

	{"", "1 + 1 =:= 2, 1 =\\= 2, 1 < 2, 2 > 1, 1 =< 1, 1 >= 1", "true"},
	{"", "1 =:= 2", ""},
	{"", "1 =\\= 1", ""},
	{"", "2 < 2", ""},
	{"", "2 > 2", ""},
	{"", "2 =< 1", ""},
	{"", "1 >= 2", ""},
	{"", "X < 1", "error: unbound variable"},
	{"", "1 < X", "error: unbound variable"},

	{"", "a @< b, b @> a, a @=< a, a @>= a, f(a) @> a, 1 @< a", "true"},
	{"", "b @< a", ""},
	{"", "a @> b", ""},
	{"", "b @=< a", ""},
	{"", "a @>= b", ""},

	{"", "between(1, 3, X)", "X = 1; X = 2; X = 3"},
	{"", "between(1, 3, 2)", "true"},
	{"", "between(1, 3, 5)", ""},
	{"", "between(1, 3, a)", ""},
	{"", "between(3, 1, X)", ""},
	{"", "between(1, 3, X), X > 1", "X = 2; X = 3"},
	{"", "between(1, 2, X), between(X, 2, Y)", "X = 1, Y = 1; X = 1, Y = 2; X = 2, Y = 2"},
	{"", "between(1, 3, X), f(X, a) = f(2, a)", "X = 2"},
	{"", "between(1, X, 2)", "error: unbound variable"},
	{"", "between(1, 2000000, X)", "error: builtin_term limit of 1000000 exceeded"},
	{"", "L is -4000000000000000000 - 4000000000000000000, between(L, 4000000000000000000, X)", "error: builtin_term limit of 1000000 exceeded"},

	{"", "integer(3), atom(a), atomic(a), atomic(3), compound(f(x)), var(X), nonvar(f(Y)), ground(f(a, 1))", "X = _0, Y = _1"},
	{"", "integer(a)", ""},
	{"", "atom(3)", ""},
	{"", "atom(f(a))", ""},
	{"", "atomic(f(a))", ""},
	{"", "atomic(X)", ""},
	{"", "compound(a)", ""},
	{"", "compound(X)", ""},
	{"", "X = a, var(X)", ""},
	{"", "nonvar(X)", ""},
	{"", "ground(f(X))", ""},

	{"", "functor(f(a, b), N, A)", "N = f, A = 2"},
	{"", "functor(a, N, A)", "N = a, A = 0"},
	{"", "functor(7, N, A)", "N = 7, A = 0"},
	{"", "functor(f(a), g, A)", ""},
	{"", "functor(f(a), N, 2)", ""},
	{"", "functor(T, foo, 2)", "T = foo(_0,_1)"},
	{"", "functor(T, foo, 0)", "T = foo"},
	{"", "functor(T, 7, 0)", "T = 7"},
	{"", "functor(T, 7, 1)", "error: integer name needs arity 0"},
	{"", "functor(T, foo, -1)", "error: negative arity"},
	{"", "functor(T, foo, a)", "error: not an integer"},
	{"", "functor(T, foo, 2000000000)", "error: builtin_term limit of 1000000 exceeded"},
	{"", "functor(T, N, 1)", "error: name must be atomic"},
	{"", "functor(T, f(x), 1)", "error: name must be atomic"},

	{"", "arg(1, f(a, b), X)", "X = a"},
	{"", "arg(2, f(a, Y), b)", "Y = b"},
	{"", "arg(3, f(a, b), X)", ""},
	{"", "arg(0, f(a, b), X)", ""},
	{"", "arg(1, a, X)", ""},
	{"", "arg(N, f(a, b), X)", "N = 1, X = a; N = 2, X = b"},
	{"", "arg(N, f(a, b, a), a)", "N = 1; N = 3"},
	{"", "arg(N, f(a, b), X), X == b", "N = 2, X = b"},
	{"", "arg(N, f(a, b), X), arg(M, g(X, c), c)", "N = 1, X = a, M = 2; N = 2, X = b, M = 2"},

	{"", "f(a, b) =.. L", "L = [f,a,b]"},
	{"", "a =.. L", "L = [a]"},
	{"", "7 =.. L", "L = [7]"},
	{"", "f(a) =.. [g|_]", ""},
	{"", "T =.. [f, a, X]", "T = f(a,_0), X = _0"},
	{"", "T =.. [a]", "T = a"},
	{"", "T =.. [7]", "T = 7"},
	{"", "T =.. [f(x)]", "error: atomic term"},
	{"", "T =.. [7, a]", "error: functor must be an atom"},
	{"", "T =.. L", "error: proper non-empty list"},
	{"", "T =.. []", "error: proper non-empty list"},

	{"", "length([a, b], N)", "N = 2"},
	{"", "length([], N)", "N = 0"},
	{"", "length([a, b], 3)", ""},
	{"", "length(L, 2)", "L = [_0,_1]"},
	{"", "length(L, 0)", "L = []"},
	{"", "length(L, -1)", ""},
	{"", "length(L, N)", "error: proper list or a bound length"},
	{"", "length([a|T], N)", "error: proper list or a bound length"},
	{"", "length(L, 2000000)", "error: builtin_term limit of 1000000 exceeded"},

	{"", "copy_term(f(X, Y, X), C)", "X = _0, Y = _1, C = f(_2,_3,_2)"},
	{"", "X = a, copy_term(f(X, Y), C)", "X = a, Y = _0, C = f(a,_1)"},
	{"", "copy_term(f(A, A), f(1, Z))", "A = _0, Z = 1"},
	{"", "copy_term(f(a), g(X))", ""},

	{"", "succ(3, X)", "X = 4"},
	{"", "succ(X, 4)", "X = 3"},
	{"", "succ(3, 5)", ""},
	{"", "succ(X, 0)", ""},
	{"", "succ(-1, X)", ""},
	{"", "succ(9223372036854775807, X)", ""},
	{"", "succ(X, Y)", "error: at least one bound integer"},

	// An arithmetic error mid-conjunction, with X = 1 and the activation of
	// p/2 live on the store when the run dies; the next case then draws the
	// same scratch from the pool.
	{"p(X, Y) :- X = 1, Y is foo + X.\np(2, 3).", "p(X, Y)", "error: atom foo"},
	{"p(X, Y) :- X = 1, Y is 1 + X.\np(2, 3).", "p(X, Y)", "X = 1, Y = 2; X = 2, Y = 3"},

	{workload.NQueens, "queens(4, Qs)", "Qs = [2,4,1,3]; Qs = [3,1,4,2]"},
}

// runBiDiff answers query exhaustively by depth-first search on one
// dispatch path, rendering each solution with unbound variables numbered
// in order of appearance.
func runBiDiff(t *testing.T, cfg biDiffConfig, src, query string) ([]string, error) {
	t.Helper()
	db := kb.New()
	if src != "" {
		var err error
		if db, _, err = kb.LoadString(src); err != nil {
			t.Fatalf("load: %v", err)
		}
	}
	goals, err := parse.Query(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	ws := weights.NewUniform(weights.DefaultConfig())
	var answers []string
	if cfg.trail {
		r := NewTrailRun(TrailConfig{DB: db, Weights: ws}, goals)
		defer r.Release()
		for {
			sol, ok, err := nextSolution(r)
			if !ok {
				return answers, err
			}
			answers = append(answers, canonAnswer(sol, r.QueryVars()))
		}
	}
	exp := NewExpander(db, ws)
	exp.NoVM = cfg.noVM
	var qvars []*term.Var
	for _, g := range goals {
		qvars = term.VarsUnder(nil, g, qvars)
	}
	stack := []*Node{exp.Root(goals)}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.IsSolution() {
			answers = append(answers, canonAnswer(nodeSolution(n, qvars), qvars))
			continue
		}
		cs, err := exp.Expand(n)
		if err != nil && err != ErrDepthLimit {
			return answers, err
		}
		for i := len(cs) - 1; i >= 0; i-- {
			stack = append(stack, cs[i])
		}
	}
	return answers, nil
}

// nextSolution advances r to its next solution and detaches it.
func nextSolution(r *TrailRun) (Solution, bool, error) {
	ok, err := r.Advance()
	if !ok {
		return Solution{}, false, err
	}
	return r.Answer().Solution(nil), true, nil
}

func canonAnswer(s Solution, qvars []*term.Var) string {
	if len(qvars) == 0 {
		return "true"
	}
	names := map[*term.Var]term.Term{}
	var rename func(t term.Term) term.Term
	rename = func(t term.Term) term.Term {
		switch t := t.(type) {
		case *term.Var:
			if _, ok := names[t]; !ok {
				names[t] = term.NewVar(fmt.Sprintf("_%d", len(names)))
			}
			return names[t]
		case *term.Compound:
			args := make([]term.Term, len(t.Args))
			for i, a := range t.Args {
				args[i] = rename(a)
			}
			return &term.Compound{Functor: t.Functor, Args: args}
		}
		return t
	}
	parts := make([]string, len(qvars))
	for i, v := range qvars {
		parts[i] = fmt.Sprintf("%s = %s", v, rename(s.Values[i]))
	}
	return strings.Join(parts, ", ")
}

func TestBuiltinDifferential(t *testing.T) {
	for _, cfg := range biDiffConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			for _, c := range biDiffCases {
				answers, err := runBiDiff(t, cfg, c.src, c.query)
				got := strings.Join(answers, "; ")
				if err != nil {
					got = "error: " + err.Error()
				}
				ok := got == c.want
				if err != nil && strings.HasPrefix(c.want, "error: ") {
					ok = len(answers) == 0 && strings.Contains(err.Error(), strings.TrimPrefix(c.want, "error: "))
				}
				if !ok {
					t.Errorf("%s\n got  %q\n want %q", c.query, got, c.want)
				}
			}
		})
	}
}

// TestBuiltinDifferentialCoversTable fails when a builtin is registered
// without a case above: every name/arity in the dispatch table must be
// called by some case's query or program.
func TestBuiltinDifferentialCoversTable(t *testing.T) {
	type key struct {
		fn    term.Sym
		arity int
	}
	called := map[key]bool{}
	var note func(g term.Term)
	note = func(g term.Term) {
		fn, arity, ok := term.PredOf(g)
		if !ok {
			return
		}
		called[key{fn, arity}] = true
		if fn == term.SymNeg && arity == 1 {
			note(g.(*term.Compound).Args[0])
		}
	}
	for _, c := range biDiffCases {
		goals, err := parse.Query(c.query)
		if err != nil {
			t.Fatalf("parse %q: %v", c.query, err)
		}
		for _, g := range goals {
			note(g)
		}
		if c.src == "" {
			continue
		}
		db, _, err := kb.LoadString(c.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, cl := range db.Clauses() {
			for _, g := range cl.Body {
				note(g)
			}
		}
	}
	for fn := range biTable {
		for arity, e := range biTable[fn] {
			if (e.det != nil || e.nondet != nil) && !called[key{term.Sym(fn), arity}] {
				t.Errorf("builtin %s/%d has no differential case", term.Sym(fn), arity)
			}
		}
	}
}

// TestBuiltinErrorThenPooledReuse pins the pooled-store half of the
// differential explicitly: a trail run that dies of a builtin error
// mid-conjunction is released with bindings still on its store, and the
// next run — on the very same scratch — must answer as if on a fresh one.
func TestBuiltinErrorThenPooledReuse(t *testing.T) {
	db, _, err := kb.LoadString("p(X, Y) :- X = 1, Y is foo + X.\nq(X, Y) :- X = 1, Y is 1 + X.\nq(2, 3).")
	if err != nil {
		t.Fatal(err)
	}
	ws := weights.NewUniform(weights.DefaultConfig())
	// sync.Pool may drop the scratch (it does so at random under -race), so
	// retry until a reuse is actually observed.
	for attempt := 0; attempt < 100; attempt++ {
		bad := NewTrailRun(TrailConfig{DB: db, Weights: ws}, goals(t, "p(X, Y)"))
		sh := bad.sh
		if ok, err := bad.Advance(); ok || err == nil {
			t.Fatalf("p(X, Y): ok=%v err=%v, want an arithmetic error", ok, err)
		}
		bad.Release()
		good := NewTrailRun(TrailConfig{DB: db, Weights: ws}, goals(t, "q(X, Y)"))
		reused := good.sh == sh
		var got []string
		for {
			sol, ok, err := nextSolution(good)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, canonAnswer(sol, good.QueryVars()))
		}
		good.Release()
		if want := "X = 1, Y = 2; X = 2, Y = 3"; strings.Join(got, "; ") != want {
			t.Fatalf("after an aborted run (scratch reused: %v): got %q, want %q", reused, got, want)
		}
		if reused {
			return
		}
	}
	t.Skip("the pool never handed the aborted run's scratch back")
}

// BenchmarkBuiltinDispatch prices one builtin call — bitmap probe, table
// load, evaluation — on both binding representations: in place on a
// store's distinguished Env (mark and undo included, since `is` and `=`
// bind) and as an extension of a persistent Env. The store lines must
// report 0 allocs/op; the Env lines allocate only the binding node.
func BenchmarkBuiltinDispatch(b *testing.B) {
	for _, c := range []struct{ name, goal string }{
		{"neq", "1 + 2 =\\= 4"},
		{"is", "X is 1 + 2"},
		{"unify", "X = f(a)"},
	} {
		gs, err := parse.Query(c.goal)
		if err != nil {
			b.Fatal(err)
		}
		goal := gs[0]
		fn, arity, _ := term.PredOf(goal)
		call := func(b *testing.B, env *term.Env) {
			if !isBuiltin(fn, arity) {
				b.Fatalf("%s is not a builtin", c.goal)
			}
			if _, ok, err := biTable[fn][arity].det(env, goal); !ok || err != nil {
				b.Fatalf("%s: ok=%v err=%v", c.goal, ok, err)
			}
		}
		b.Run(c.name+"/store", func(b *testing.B) {
			st := term.NewStore()
			call(b, st.Env()) // allocate the query variable's binding array
			st.Undo(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mark := st.Mark()
				call(b, st.Env())
				st.Undo(mark)
			}
		})
		b.Run(c.name+"/env", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				call(b, nil)
			}
		})
	}
}
