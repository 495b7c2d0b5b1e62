package unify

import (
	"testing"
	"testing/quick"

	"blog/internal/term"
)

func atom(s string) term.Term { return term.NewAtom(s) }
func num(i int64) term.Term   { return term.Int(i) }
func v(name string) *term.Var { return term.NewVar(name) }
func f(n string, a ...term.Term) term.Term {
	return term.NewCompound(n, a...)
}

func TestUnifyAtoms(t *testing.T) {
	if _, ok := Unify(nil, atom("a"), atom("a")); !ok {
		t.Error("a = a should unify")
	}
	if _, ok := Unify(nil, atom("a"), atom("b")); ok {
		t.Error("a = b should fail")
	}
}

func TestUnifyInts(t *testing.T) {
	if _, ok := Unify(nil, num(3), num(3)); !ok {
		t.Error("3 = 3 should unify")
	}
	if _, ok := Unify(nil, num(3), num(4)); ok {
		t.Error("3 = 4 should fail")
	}
	if _, ok := Unify(nil, num(3), atom("3")); ok {
		t.Error("3 = '3' should fail (int is not atom)")
	}
}

func TestUnifyVarBinding(t *testing.T) {
	x := v("X")
	e, ok := Unify(nil, x, atom("a"))
	if !ok {
		t.Fatal("X = a should unify")
	}
	if got := e.Resolve(x); got != atom("a") {
		t.Errorf("X resolved to %v", got)
	}
	// Symmetric direction.
	y := v("Y")
	e2, ok := Unify(nil, atom("b"), y)
	if !ok || e2.Resolve(y) != atom("b") {
		t.Error("b = Y should bind Y")
	}
}

func TestUnifyVarVar(t *testing.T) {
	x, y := v("X"), v("Y")
	e, ok := Unify(nil, x, y)
	if !ok {
		t.Fatal("X = Y should unify")
	}
	e, ok = Unify(e, x, atom("a"))
	if !ok {
		t.Fatal("X = a should unify after X=Y")
	}
	if got := e.Resolve(y); got != atom("a") {
		t.Errorf("Y should see a, got %v", got)
	}
}

func TestUnifyCompound(t *testing.T) {
	x, y := v("X"), v("Y")
	e, ok := Unify(nil, f("f", x, atom("b")), f("f", atom("a"), y))
	if !ok {
		t.Fatal("f(X,b) = f(a,Y) should unify")
	}
	if e.Resolve(x) != atom("a") || e.Resolve(y) != atom("b") {
		t.Errorf("X=%v Y=%v", e.Resolve(x), e.Resolve(y))
	}
}

func TestUnifyCompoundMismatch(t *testing.T) {
	if _, ok := Unify(nil, f("f", atom("a")), f("g", atom("a"))); ok {
		t.Error("different functors should fail")
	}
	if _, ok := Unify(nil, f("f", atom("a")), f("f", atom("a"), atom("b"))); ok {
		t.Error("different arities should fail")
	}
	if _, ok := Unify(nil, f("f", atom("a")), atom("f")); ok {
		t.Error("compound vs atom should fail")
	}
}

func TestUnifyFailureLeavesEnvUsable(t *testing.T) {
	x := v("X")
	e, _ := Unify(nil, x, atom("a"))
	e2, ok := Unify(e, f("p", x), f("p", atom("b")))
	if ok {
		t.Fatal("p(a) = p(b) should fail")
	}
	// The returned env must be the original, still resolving X to a.
	if e2.Resolve(x) != atom("a") {
		t.Error("failed unification corrupted the environment")
	}
}

func TestUnifyPartialBindingNotLeaked(t *testing.T) {
	x, y := v("X"), v("Y")
	// First arg binds X, second arg fails: X must stay unbound in returned env.
	e, ok := Unify(nil, f("f", x, atom("b")), f("f", atom("a"), atom("c")))
	if ok {
		t.Fatal("should fail on second arg")
	}
	if _, bound := e.Lookup(x); bound {
		t.Error("partial binding leaked after failure")
	}
	_ = y
}

func TestUnifySharedSubterm(t *testing.T) {
	x := v("X")
	// f(X, X) = f(a, Y) binds X=a and Y=a.
	y := v("Y")
	e, ok := Unify(nil, f("f", x, x), f("f", atom("a"), y))
	if !ok {
		t.Fatal("should unify")
	}
	if e.Resolve(y) != atom("a") {
		t.Errorf("Y = %v, want a", e.Resolve(y))
	}
	// f(X, X) = f(a, b) must fail.
	if _, ok := Unify(nil, f("f", x, x), f("f", atom("a"), atom("b"))); ok {
		t.Error("f(X,X) = f(a,b) should fail")
	}
}

func TestOccursCheck(t *testing.T) {
	x := v("X")
	if _, ok := Unify(nil, x, f("f", x)); ok {
		t.Error("X = f(X) should fail with occurs check")
	}
	// Occurs check through an intermediate binding.
	y := v("Y")
	e, _ := Unify(nil, y, f("g", x))
	if _, ok := Unify(e, x, f("f", y)); ok {
		t.Error("X = f(Y) with Y=g(X) should fail occurs check")
	}
}

func TestCanUnify(t *testing.T) {
	x := v("X")
	e, _ := Unify(nil, x, atom("a"))
	if !CanUnify(e, f("p", x), f("p", atom("a"))) {
		t.Error("p(a) should be unifiable with p(a)")
	}
	if CanUnify(e, f("p", x), f("p", atom("b"))) {
		t.Error("p(a) should not be unifiable with p(b)")
	}
}

// On a destructive store the trial unification writes real bindings; both
// outcomes must leave the store exactly as it was.
func TestCanUnifyOnStoreLeavesNoBinding(t *testing.T) {
	st := term.NewStore()
	env := st.Env()
	x, y := v("X"), v("Y")
	env.Bind(y, atom("kept"))
	mark := st.Mark()
	if !CanUnify(env, f("p", x, atom("b")), f("p", atom("a"), atom("b"))) {
		t.Error("p(X,b) should be unifiable with p(a,b)")
	}
	if CanUnify(env, f("p", x, atom("b")), f("p", atom("a"), atom("c"))) {
		t.Error("p(X,b) should not be unifiable with p(a,c)")
	}
	if env.Resolve(x) != term.Term(x) || st.Mark() != mark {
		t.Errorf("trial bindings survived: X = %v, trail %d (want %d)", env.Resolve(x), st.Mark(), mark)
	}
	if env.Resolve(y) != atom("kept") {
		t.Errorf("binding made before the trial was lost: Y = %v", env.Resolve(y))
	}
}

func TestMatchOneWay(t *testing.T) {
	x := v("X")
	// Pattern variable binds to database term.
	e, ok := Match(nil, f("f", atom("sam"), x), f("f", atom("sam"), atom("larry")))
	if !ok || e.Resolve(x) != atom("larry") {
		t.Fatalf("match failed: ok=%v X=%v", ok, e.Resolve(x))
	}
	// Database variable must NOT be bound by pattern constant: one-way only.
	dbv := v("D")
	if _, ok := Match(nil, f("f", atom("a")), f("f", dbv)); ok {
		t.Error("one-way match must not instantiate database variables")
	}
	if _, ok := Match(nil, atom("a"), atom("b")); ok {
		t.Error("a should not match b")
	}
	if _, ok := Match(nil, num(1), num(1)); !ok {
		t.Error("1 should match 1")
	}
	// A repeated pattern variable reaches a database variable; binding
	// it into its own term fails rather than closing a cycle.
	y, z := v("Y"), v("Z")
	if _, ok := Match(nil, f("f", z, z, z), f("f", y, f("g", y), f("g", y))); ok {
		t.Error("f(Z,Z,Z) must not match f(Y,g(Y),g(Y))")
	}
}

func TestUnifyDeepList(t *testing.T) {
	mk := func(tail term.Term) term.Term {
		l := tail
		for i := 99; i >= 0; i-- {
			l = term.Cons(num(int64(i)), l)
		}
		return l
	}
	x := v("Tail")
	e, ok := Unify(nil, mk(x), mk(term.EmptyList))
	if !ok {
		t.Fatal("long list unification failed")
	}
	if e.Resolve(x) != term.EmptyList {
		t.Error("tail should bind to []")
	}
}

// Property: unification is symmetric in success for var-free terms.
func TestPropertyUnifySymmetric(t *testing.T) {
	gen := func(a, b int8) (term.Term, term.Term) {
		mk := func(n int8) term.Term {
			switch n % 4 {
			case 0:
				return num(int64(n))
			case 1:
				return atom("a")
			case 2:
				return f("f", num(int64(n%3)))
			default:
				return f("g", atom("a"), num(int64(n%2)))
			}
		}
		return mk(a), mk(b)
	}
	prop := func(a, b int8) bool {
		ta, tb := gen(a, b)
		_, ok1 := Unify(nil, ta, tb)
		_, ok2 := Unify(nil, tb, ta)
		return ok1 == ok2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: after successful unification, both sides resolve deeply to
// equal terms.
func TestPropertyUnifyYieldsEqualTerms(t *testing.T) {
	prop := func(n int8, useVar bool) bool {
		x := v("X")
		var lhs term.Term = f("f", x, num(int64(n)))
		var rhs term.Term
		if useVar {
			rhs = f("f", num(int64(n)), num(int64(n)))
		} else {
			rhs = f("f", atom("c"), num(int64(n)))
		}
		e, ok := Unify(nil, lhs, rhs)
		if !ok {
			return true
		}
		return term.EqualUnder(e, lhs, rhs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: unification is reflexive — any term unifies with itself
// under any environment without adding bindings.
func TestPropertyUnifyReflexive(t *testing.T) {
	gen := func(n int8, s string) term.Term {
		base := []term.Term{atom("a"), num(int64(n)), v("V")}
		t1 := base[int(uint8(n))%len(base)]
		if n%2 == 0 {
			return f("w", t1, atom(s))
		}
		return t1
	}
	prop := func(n int8, s string) bool {
		tm := gen(n, s)
		e, ok := Unify(nil, tm, tm)
		return ok && e.Depth() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: unifying a fresh variable with any term always succeeds and
// the variable resolves to that term.
func TestPropertyVarUnifiesWithAnything(t *testing.T) {
	prop := func(n int8, s string) bool {
		var tm term.Term
		switch n % 3 {
		case 0:
			tm = num(int64(n))
		case 1:
			tm = atom(s)
		default:
			tm = f("g", num(int64(n)), atom(s))
		}
		x := v("X")
		e, ok := Unify(nil, x, tm)
		return ok && term.EqualUnder(e, x, tm)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Match is a restriction of Unify — whatever Match accepts,
// Unify accepts too (with at least the same bindings possible).
func TestPropertyMatchImpliesUnify(t *testing.T) {
	prop := func(a, b int8) bool {
		mk := func(n int8, withVar bool) term.Term {
			if withVar {
				return f("f", v("P"), num(int64(n)))
			}
			return f("f", atom("k"), num(int64(n)))
		}
		pat := mk(a, a%2 == 0)
		dat := mk(b, false)
		if _, ok := Match(nil, pat, dat); ok {
			if _, ok2 := Unify(nil, pat, dat); !ok2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnifyFlat(b *testing.B) {
	l := f("f", atom("a"), atom("b"), atom("c"), num(1), num(2))
	r := f("f", v("A"), v("B"), v("C"), v("D"), v("E"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := Unify(nil, l, r); !ok {
			b.Fatal("unify failed")
		}
	}
}

func BenchmarkUnifyList100(b *testing.B) {
	items := make([]term.Term, 100)
	for i := range items {
		items[i] = num(int64(i))
	}
	l := term.FromList(items)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := Unify(nil, l, term.FromList(items)); !ok {
			b.Fatal("unify failed")
		}
	}
}
