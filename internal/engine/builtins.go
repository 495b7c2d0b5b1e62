package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"blog/internal/term"
	"blog/internal/unify"
)

// builtin is the deterministic builtin ABI, shared by every dispatch path
// (the trail store, and the Env with VM or tree-walk): it evaluates goal under env and
// reports at most one solution, allocating nothing of its own. Bindings go
// through env.Bind, so the contract follows the environment. On a
// persistent Env the returned environment is the extension and env itself
// is untouched. On a trail store's distinguished Env the bindings are
// written in place and the same node comes back; on ok=false whatever was
// already bound (functor/3 unifies twice) stays bound, and undoing it is
// the caller's job — TrailRun fails the chain, and backtracking rewinds to
// the enclosing choice point's trail mark. A returned error aborts the
// whole search: it signals a program error such as an unbound arithmetic
// operand, not mere failure.
type builtin func(env *term.Env, goal term.Term) (*term.Env, bool, error)

// choices is the one form of every nondeterministic machine decision — a
// tabled call's answers, between/3's range, arg/3's argument positions: n
// alternatives, each applied by try in the builtin ABI and computed only
// when tried, so nothing is staged. TrailRun tries one per backtrack
// under a choice point's trail mark; Expander builds one child per
// alternative that applies.
type choices struct {
	n int
	x term.Term // what every alternative unifies
	// answers, for a tabled call: alternative i unifies x with answers[i].
	answers []term.Term
	// lo, for between/3 and arg/3: alternative i unifies x with lo+i, and
	// for arg/3 then y with args[i].
	lo   int64
	y    term.Term
	args []term.Term
}

// try applies alternative i to env, with the binding contract of the
// builtin ABI. A table's answers are shared by every consumer, so a
// non-ground one is renamed apart first: no store ever binds into it.
func (c *choices) try(env *term.Env, i int) (*term.Env, bool) {
	if c.answers != nil {
		a := c.answers[i]
		if !term.Ground(nil, a) {
			a = term.Refresh(a)
		}
		return unify.Unify(env, c.x, a)
	}
	env, ok := unify.Unify(env, c.x, term.Int(c.lo+int64(i)))
	if ok && c.args != nil {
		env, ok = unify.Unify(env, c.y, c.args[i])
	}
	return env, ok
}

// biEntry is one builtin: det for the deterministic ones, nondet for
// between/3 and arg/3, which report their alternatives.
type biEntry struct {
	det    builtin
	nondet func(env *term.Env, goal term.Term) (choices, error)
}

// biMaxArity is the largest builtin arity.
const biMaxArity = 3

// biTable is the dense dispatch table indexed by builtin Sym and arity,
// and biArities the arity bitmap over the same Syms. Builtins are interned
// at process init, before any program text, so their Syms are small and
// both stay a few dozen entries. Every dispatched goal probes the bitmap
// first: the overwhelmingly common miss costs one bounds check and one
// byte load, and only a hit touches the table — two indexed loads, no
// hashing.
var (
	biTable   [][biMaxArity + 1]biEntry
	biArities []uint8
)

// isBuiltin is the hot-path probe; on true, biTable[fn][arity] is valid.
func isBuiltin(fn term.Sym, arity int) bool {
	return int(fn) < len(biArities) && arity <= biMaxArity && biArities[fn]&(1<<arity) != 0
}

// IsBuiltin reports whether name/arity is an evaluable builtin.
func IsBuiltin(name string, arity int) bool {
	return isBuiltin(term.Intern(name), arity)
}

func init() {
	reg := func(name string, arity int, e biEntry) {
		s := term.Intern(name)
		for int(s) >= len(biTable) {
			biTable = append(biTable, [biMaxArity + 1]biEntry{})
			biArities = append(biArities, 0)
		}
		biTable[s][arity] = e
		biArities[s] |= 1 << arity
	}
	det := func(name string, arity int, fn builtin) { reg(name, arity, biEntry{det: fn}) }
	det("true", 0, biTrue)
	det("fail", 0, biFail)
	det("false", 0, biFail)
	det("!", 0, biTrue) // see biTrue
	det("=", 2, biUnify)
	det("\\=", 2, biNotUnify)
	det("==", 2, biStructEq)
	det("\\==", 2, biStructNeq)
	det("is", 2, biIs)
	det("=:=", 2, arithCompare(func(a, b int64) bool { return a == b }))
	det("=\\=", 2, arithCompare(func(a, b int64) bool { return a != b }))
	det("<", 2, arithCompare(func(a, b int64) bool { return a < b }))
	det(">", 2, arithCompare(func(a, b int64) bool { return a > b }))
	det("=<", 2, arithCompare(func(a, b int64) bool { return a <= b }))
	det(">=", 2, arithCompare(func(a, b int64) bool { return a >= b }))
	det("@<", 2, termCompare(func(c int) bool { return c < 0 }))
	det("@>", 2, termCompare(func(c int) bool { return c > 0 }))
	det("@=<", 2, termCompare(func(c int) bool { return c <= 0 }))
	det("@>=", 2, termCompare(func(c int) bool { return c >= 0 }))
	det("integer", 1, typeCheck(func(t term.Term) bool { _, ok := t.(term.Int); return ok }))
	det("atom", 1, typeCheck(func(t term.Term) bool { _, ok := t.(term.Atom); return ok }))
	det("atomic", 1, typeCheck(isAtomic))
	det("compound", 1, typeCheck(func(t term.Term) bool { _, ok := t.(*term.Compound); return ok }))
	det("var", 1, typeCheck(func(t term.Term) bool { _, ok := t.(*term.Var); return ok }))
	det("nonvar", 1, typeCheck(func(t term.Term) bool { _, ok := t.(*term.Var); return !ok }))
	det("ground", 1, biGround)
	det("functor", 3, biFunctor)
	det("=..", 2, biUniv)
	det("length", 2, biLength)
	det("copy_term", 2, biCopyTerm)
	det("succ", 2, biSucc)
	reg("between", 3, biEntry{nondet: biBetween})
	reg("arg", 3, biEntry{nondet: biArg})
	// Registration grew the table by doubling; it lives as long as the
	// process, so keep an exact-size copy and drop the slack.
	biTable = slices.Clone(biTable)
}

// biTrue also serves !/0. B-LOG deliberately has no cut: the paper offers
// "an alternative to Prolog's sequentially oriented depth-first search,
// without giving up completeness by incorporating control annotations"
// (section 8), and a pruning cut is meaningless when siblings expand in
// best-first order. Accepting it as a no-op lets standard benchmark
// programs load; their search spaces simply stay unpruned.
func biTrue(env *term.Env, _ term.Term) (*term.Env, bool, error) { return env, true, nil }

func biFail(env *term.Env, _ term.Term) (*term.Env, bool, error) { return env, false, nil }

func args2(goal term.Term) (term.Term, term.Term) {
	c := goal.(*term.Compound)
	return c.Args[0], c.Args[1]
}

// unifyDet is the tail of most binding builtins: one unification decides
// the outcome.
func unifyDet(env *term.Env, a, b term.Term) (*term.Env, bool, error) {
	e, ok := unify.Unify(env, a, b)
	return e, ok, nil
}

func biUnify(env *term.Env, goal term.Term) (*term.Env, bool, error) {
	a, b := args2(goal)
	return unifyDet(env, a, b)
}

func biNotUnify(env *term.Env, goal term.Term) (*term.Env, bool, error) {
	a, b := args2(goal)
	return env, !unify.CanUnify(env, a, b), nil
}

// structEq is the shared core of ==/2 and \==/2: structural equality with
// bindings applied on the fly, resolving each argument position exactly
// once and allocating no deep-resolved copies.
func structEq(env *term.Env, goal term.Term) bool {
	a, b := args2(goal)
	return term.EqualUnder(env, a, b)
}

func biStructEq(env *term.Env, goal term.Term) (*term.Env, bool, error) {
	return env, structEq(env, goal), nil
}

func biStructNeq(env *term.Env, goal term.Term) (*term.Env, bool, error) {
	return env, !structEq(env, goal), nil
}

func biIs(env *term.Env, goal term.Term) (*term.Env, bool, error) {
	lhs, rhs := args2(goal)
	v, err := Eval(env, rhs)
	if err != nil {
		return env, false, err
	}
	return unifyDet(env, lhs, term.Int(v))
}

func arithCompare(cmp func(a, b int64) bool) builtin {
	return func(env *term.Env, goal term.Term) (*term.Env, bool, error) {
		lhs, rhs := args2(goal)
		a, err := Eval(env, lhs)
		if err != nil {
			return env, false, err
		}
		b, err := Eval(env, rhs)
		if err != nil {
			return env, false, err
		}
		return env, cmp(a, b), nil
	}
}

func termCompare(ok func(c int) bool) builtin {
	return func(env *term.Env, goal term.Term) (*term.Env, bool, error) {
		a, b := args2(goal)
		return env, ok(term.CompareUnder(env, a, b)), nil
	}
}

// biBetween is between(L,H,X) with integer bounds: a range test for bound
// X, an enumeration X = L..H for free X — giving workload generators a
// compact way to express OR fan-out.
func biBetween(env *term.Env, goal term.Term) (choices, error) {
	c := goal.(*term.Compound)
	lo, err := Eval(env, c.Args[0])
	if err != nil {
		return choices{}, err
	}
	hi, err := Eval(env, c.Args[1])
	if err != nil {
		return choices{}, err
	}
	switch x := env.Resolve(c.Args[2]).(type) {
	case term.Int:
		if int64(x) >= lo && int64(x) <= hi {
			return choices{n: 1, x: x, lo: int64(x)}, nil
		}
	case *term.Var:
		if hi < lo {
			break
		}
		// hi >= lo, so the unsigned difference is the exact width even
		// where hi-lo overflows int64.
		if uint64(hi)-uint64(lo) > BuiltinTerm.Default() {
			return choices{}, LimitError{BuiltinTerm, BuiltinTerm.Default()}
		}
		return choices{n: int(hi-lo) + 1, x: x, lo: lo}, nil
	}
	return choices{}, nil
}

func typeCheck(pred func(t term.Term) bool) builtin {
	return func(env *term.Env, goal term.Term) (*term.Env, bool, error) {
		return env, pred(env.Resolve(goal.(*term.Compound).Args[0])), nil
	}
}

func isAtomic(t term.Term) bool {
	switch t.(type) {
	case term.Atom, term.Int:
		return true
	}
	return false
}

func biGround(env *term.Env, goal term.Term) (*term.Env, bool, error) {
	return env, term.Ground(env, goal.(*term.Compound).Args[0]), nil
}

// freshVars returns n distinct anonymous variables.
func freshVars(n term.Int) []term.Term {
	vs := make([]term.Term, n)
	for i := range vs {
		vs[i] = term.NewVar("_")
	}
	return vs
}

// biFunctor implements functor/3 in both modes: decomposing a bound term
// into name and arity, or constructing a most-general term from them.
func biFunctor(env *term.Env, goal term.Term) (*term.Env, bool, error) {
	c := goal.(*term.Compound)
	var name, arity term.Term
	switch t := env.Resolve(c.Args[0]).(type) {
	case *term.Var:
		// Construction mode: name and arity must be bound.
		name, arity = env.Resolve(c.Args[1]), env.Resolve(c.Args[2])
		n, ok := arity.(term.Int)
		switch {
		case !ok:
			return env, false, fmt.Errorf("engine: functor/3 arity %s is not an integer", arity)
		case !isAtomic(name):
			return env, false, fmt.Errorf("engine: functor/3 name must be atomic, got %s", name)
		case n < 0:
			return env, false, errors.New("engine: functor/3 negative arity")
		case uint64(n) > BuiltinTerm.Default():
			return env, false, LimitError{BuiltinTerm, BuiltinTerm.Default()}
		case n == 0:
			return unifyDet(env, t, name)
		}
		nm, ok := name.(term.Atom)
		if !ok {
			return env, false, errors.New("engine: functor/3 integer name needs arity 0")
		}
		return unifyDet(env, t, term.NewCompound(nm.Name(), freshVars(n)...))
	case *term.Compound:
		name, arity = term.AtomOf(t.Functor), term.Int(len(t.Args))
	default: // atom or int
		name, arity = t, term.Int(0)
	}
	// Decomposition: two unifications in sequence. When the second fails
	// on a store, the first one's bindings are the caller's to undo.
	e, ok := unify.Unify(env, c.Args[1], name)
	if !ok {
		return e, false, nil
	}
	return unifyDet(e, c.Args[2], arity)
}

// biArg implements arg/3: argument extraction with a bound index, or
// enumeration over all argument positions when the index is free.
func biArg(env *term.Env, goal term.Term) (choices, error) {
	c := goal.(*term.Compound)
	tc, ok := env.Resolve(c.Args[1]).(*term.Compound)
	if !ok {
		return choices{}, nil
	}
	idx := env.Resolve(c.Args[0])
	if n, ok := idx.(term.Int); ok {
		if n < 1 || int(n) > len(tc.Args) {
			return choices{}, nil
		}
		return choices{n: 1, x: idx, lo: int64(n), y: c.Args[2], args: tc.Args[n-1 : n]}, nil
	}
	return choices{n: len(tc.Args), x: idx, lo: 1, y: c.Args[2], args: tc.Args}, nil
}

// biUniv implements =../2 (univ) in both directions.
func biUniv(env *term.Env, goal term.Term) (*term.Env, bool, error) {
	c := goal.(*term.Compound)
	switch t := env.Resolve(c.Args[0]).(type) {
	case *term.Var:
		items, proper := listSlice(env, c.Args[1])
		if !proper || len(items) == 0 {
			return env, false, errors.New("engine: =../2 needs a proper non-empty list on the right")
		}
		head := env.Resolve(items[0])
		if len(items) == 1 {
			if !isAtomic(head) {
				return env, false, errors.New("engine: =../2 singleton list must hold an atomic term")
			}
			return unifyDet(env, t, head)
		}
		name, ok := head.(term.Atom)
		if !ok {
			return env, false, errors.New("engine: =../2 functor must be an atom")
		}
		return unifyDet(env, t, term.NewCompound(name.Name(), items[1:]...))
	case *term.Compound:
		items := make([]term.Term, 0, len(t.Args)+1)
		items = append(items, term.AtomOf(t.Functor))
		items = append(items, t.Args...)
		return unifyDet(env, c.Args[1], term.FromList(items))
	default: // atom or int
		return unifyDet(env, c.Args[1], term.FromList([]term.Term{t}))
	}
}

// listSlice walks a list term; proper is false when the tail is not [].
func listSlice(env *term.Env, t term.Term) (items []term.Term, proper bool) {
	for {
		t = env.Resolve(t)
		if t == term.EmptyList {
			return items, true
		}
		cell, ok := t.(*term.Compound)
		if !ok || cell.Functor != term.SymDot || len(cell.Args) != 2 {
			return items, false
		}
		items = append(items, cell.Args[0])
		t = cell.Args[1]
	}
}

// biLength implements length/2: measuring a bound list, or generating a
// list of fresh variables from a bound length. The doubly-unbound mode is
// rejected (it would enumerate forever under best-first search).
func biLength(env *term.Env, goal term.Term) (*term.Env, bool, error) {
	c := goal.(*term.Compound)
	items, proper := listSlice(env, c.Args[0])
	if proper {
		return unifyDet(env, c.Args[1], term.Int(int64(len(items))))
	}
	n, ok := env.Resolve(c.Args[1]).(term.Int)
	if !ok {
		return env, false, errors.New("engine: length/2 needs a proper list or a bound length")
	}
	if n < 0 {
		return env, false, nil
	}
	if uint64(n) > BuiltinTerm.Default() {
		return env, false, LimitError{BuiltinTerm, BuiltinTerm.Default()}
	}
	return unifyDet(env, c.Args[0], term.FromList(freshVars(n)))
}

// biCopyTerm implements copy_term/2: a fresh variant of the first
// argument, made in one Exporter pass, unifies with the second.
func biCopyTerm(env *term.Env, goal term.Term) (*term.Env, bool, error) {
	a, b := args2(goal)
	var x term.Exporter
	x.Reset(env)
	return unifyDet(env, b, x.Copy(a))
}

// biSucc implements succ/2 over naturals in both directions. The largest
// int64 has no successor here: the goal fails instead of wrapping.
func biSucc(env *term.Env, goal term.Term) (*term.Env, bool, error) {
	a, b := args2(goal)
	if n, ok := env.Resolve(a).(term.Int); ok {
		if n < 0 || n == math.MaxInt64 {
			return env, false, nil
		}
		return unifyDet(env, b, n+1)
	}
	if m, ok := env.Resolve(b).(term.Int); ok {
		if m < 1 {
			return env, false, nil
		}
		return unifyDet(env, a, m-1)
	}
	return env, false, errors.New("engine: succ/2 needs at least one bound integer")
}

// ErrUnboundArithmetic reports evaluation of an expression containing an
// unbound variable.
var ErrUnboundArithmetic = errors.New("engine: unbound variable in arithmetic expression")

// Pre-interned arithmetic function symbols, so Eval dispatches on integer
// compares instead of functor strings.
var (
	symAdd    = term.Intern("+")
	symSub    = term.Intern("-")
	symMul    = term.Intern("*")
	symIntDiv = term.Intern("//")
	symMod    = term.Intern("mod")
	symAbs    = term.Intern("abs")
	symMin    = term.Intern("min")
	symMax    = term.Intern("max")
)

// errOverflow reports an arithmetic result outside the 64-bit range: an
// error, never a wrapped value.
func errOverflow(t *term.Compound) error {
	return fmt.Errorf("engine: integer overflow in %s/%d", t.Functor, len(t.Args))
}

// Eval evaluates an arithmetic expression term to an integer.
// Supported: integers, + - * // mod abs min max, and unary minus.
func Eval(env *term.Env, t term.Term) (int64, error) {
	t = env.Resolve(t)
	switch t := t.(type) {
	case term.Int:
		return int64(t), nil
	case *term.Var:
		return 0, ErrUnboundArithmetic
	case term.Atom:
		return 0, fmt.Errorf("engine: atom %s is not an arithmetic expression", t)
	case *term.Compound:
		if len(t.Args) == 1 {
			a, err := Eval(env, t.Args[0])
			if err != nil {
				return 0, err
			}
			switch t.Functor {
			case symSub:
				if a == math.MinInt64 {
					return 0, errOverflow(t)
				}
				return -a, nil
			case symAbs:
				if a == math.MinInt64 {
					return 0, errOverflow(t)
				}
				if a < 0 {
					return -a, nil
				}
				return a, nil
			}
			return 0, fmt.Errorf("engine: unknown arithmetic function %s/1", t.Functor)
		}
		if len(t.Args) == 2 {
			a, err := Eval(env, t.Args[0])
			if err != nil {
				return 0, err
			}
			b, err := Eval(env, t.Args[1])
			if err != nil {
				return 0, err
			}
			switch t.Functor {
			case symAdd:
				if r := a + b; (r > a) == (b > 0) {
					return r, nil
				}
				return 0, errOverflow(t)
			case symSub:
				if r := a - b; (r < a) == (b > 0) {
					return r, nil
				}
				return 0, errOverflow(t)
			case symMul:
				r := a * b
				if a != 0 && (r/a != b || a == -1 && b == math.MinInt64) {
					return 0, errOverflow(t)
				}
				return r, nil
			case symIntDiv:
				if b == 0 {
					return 0, errors.New("engine: division by zero")
				}
				if a == math.MinInt64 && b == -1 {
					return 0, errOverflow(t)
				}
				return a / b, nil
			case symMod:
				if b == 0 {
					return 0, errors.New("engine: mod by zero")
				}
				m := a % b
				if (m < 0 && b > 0) || (m > 0 && b < 0) {
					m += b
				}
				return m, nil
			case symMin:
				if a < b {
					return a, nil
				}
				return b, nil
			case symMax:
				if a > b {
					return a, nil
				}
				return b, nil
			}
			return 0, fmt.Errorf("engine: unknown arithmetic function %s/2", t.Functor)
		}
	}
	return 0, fmt.Errorf("engine: cannot evaluate %s", t)
}
