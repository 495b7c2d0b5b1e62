// Package unify implements unification over the persistent binding
// environments of package term. It is the "match" step of section 2 of the
// B-LOG paper: a resolution step succeeds exactly when the current goal
// unifies with the head of a database clause.
//
// Because environments are persistent, Unify never mutates its input: on
// success it returns a new environment extending the old one, and on
// failure the original environment remains valid. This is what allows many
// OR-chains to share an environment prefix while the best-first scheduler
// expands them in an arbitrary order.
//
// Unification is sound: binding a variable always runs the occurs check,
// so no binding closes a cycle (ISO unify-with-occurs-check). X = f(X)
// fails, X \= f(X) succeeds, and every term reachable through an
// environment is finite, which is what lets every term walker recurse
// without revisit detection.
package unify

import "blog/internal/term"

// Unify attempts to unify a and b under env. It returns the extended
// environment and true on success, or the original environment and false
// on failure. Binding a variable to a term containing that variable
// fails rather than creating a cyclic term.
func Unify(env *term.Env, a, b term.Term) (*term.Env, bool) {
	a = env.Resolve(a)
	b = env.Resolve(b)
	if a == b {
		return env, true
	}
	switch at := a.(type) {
	case *term.Var:
		if occurs(env, at, b) {
			return env, false
		}
		return env.Bind(at, b), true
	case term.Atom:
		switch bt := b.(type) {
		case *term.Var:
			return env.Bind(bt, a), true
		case term.Atom:
			if at == bt {
				return env, true
			}
		}
		return env, false
	case term.Int:
		switch bt := b.(type) {
		case *term.Var:
			return env.Bind(bt, a), true
		case term.Int:
			if at == bt {
				return env, true
			}
		}
		return env, false
	case *term.Compound:
		switch bt := b.(type) {
		case *term.Var:
			if occurs(env, bt, a) {
				return env, false
			}
			return env.Bind(bt, a), true
		case *term.Compound:
			if at.Functor != bt.Functor || len(at.Args) != len(bt.Args) {
				return env, false
			}
			e := env
			ok := true
			for i := range at.Args {
				if e, ok = Unify(e, at.Args[i], bt.Args[i]); !ok {
					return env, false
				}
			}
			return e, true
		}
		return env, false
	}
	return env, false
}

// occurs reports whether v occurs in t under env.
func occurs(env *term.Env, v *term.Var, t term.Term) bool {
	t = env.Resolve(t)
	switch t := t.(type) {
	case *term.Var:
		return t == v
	case *term.Compound:
		for _, a := range t.Args {
			if occurs(env, v, a) {
				return true
			}
		}
	}
	return false
}

// CanUnify reports whether a and b unify under env without keeping the
// resulting bindings. It backs the \=/2 builtin, kb.ResolvableBy's arc
// check and the semantic paging disk's joins. On a destructive store's
// own environment the trial bindings are real writes, so they are taken
// back to an explicit trail mark; on a persistent environment the
// extension is simply dropped.
func CanUnify(env *term.Env, a, b term.Term) bool {
	st := env.InPlace()
	if st == nil {
		_, ok := Unify(env, a, b)
		return ok
	}
	mark := st.Mark()
	_, ok := Unify(env, a, b)
	st.Undo(mark)
	return ok
}

// Match performs one-way matching: it unifies pattern against t but only
// allows variables of the pattern (fresh, unbound in env) to be bound.
// It is used by the semantic-paging-disk mark operation, where the
// comparand graph may bind its own holes but must not instantiate the
// database. Returns the extended env and whether the match succeeded.
func Match(env *term.Env, pattern, t term.Term) (*term.Env, bool) {
	pattern = env.Resolve(pattern)
	t = env.Resolve(t)
	if pv, ok := pattern.(*term.Var); ok {
		if occurs(env, pv, t) {
			return env, false
		}
		return env.Bind(pv, t), true
	}
	switch pt := pattern.(type) {
	case term.Atom:
		if a, ok := t.(term.Atom); ok && a == pt {
			return env, true
		}
	case term.Int:
		if i, ok := t.(term.Int); ok && i == pt {
			return env, true
		}
	case *term.Compound:
		tc, ok := t.(*term.Compound)
		if !ok || tc.Functor != pt.Functor || len(tc.Args) != len(pt.Args) {
			return env, false
		}
		e := env
		for i := range pt.Args {
			if e, ok = Match(e, pt.Args[i], tc.Args[i]); !ok {
				return env, false
			}
		}
		return e, true
	}
	return env, false
}
