package unify

import (
	"testing"

	"blog/internal/term"
)

// fuzzDecoder turns fuzz bytes into terms over a small shared vocabulary:
// atoms a/b/c, small integers, four shared variables, and f/g compounds.
// Sharing the variable pool between the two decoded terms is what makes
// the fuzzer reach interesting unification cases (aliasing, repeated
// variables, var-to-compound bindings).
type fuzzDecoder struct {
	data []byte
	pos  int
	vars [4]*term.Var
}

func newFuzzDecoder(data []byte) *fuzzDecoder {
	d := &fuzzDecoder{data: data}
	for i := range d.vars {
		d.vars[i] = term.NewVar("V")
	}
	return d
}

func (d *fuzzDecoder) next() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *fuzzDecoder) term(depth int) term.Term {
	b := d.next()
	if depth >= 4 {
		// Cap nesting: leaves only.
		b %= 3
	}
	switch b % 5 {
	case 0:
		return term.Int(int64(b >> 4))
	case 1:
		return term.NewAtom(string(rune('a' + b%3)))
	case 2:
		return d.vars[b%4]
	case 3:
		n := int(b%3) + 1
		args := make([]term.Term, n)
		for i := range args {
			args[i] = d.term(depth + 1)
		}
		return term.NewCompound("f", args...)
	default:
		return term.Cons(d.term(depth+1), d.term(depth+1))
	}
}

// naiveUnify is an independent reference unifier over an explicit
// substitution map (the textbook algorithm), deliberately sharing no code
// with the engine's environment-based unifier. Like Unify it runs the
// occurs check, so sub stays acyclic and naiveApply always terminates.
func naiveUnify(sub map[*term.Var]term.Term, a, b term.Term) bool {
	a = naiveWalk(sub, a)
	b = naiveWalk(sub, b)
	if a == b {
		return true
	}
	if av, ok := a.(*term.Var); ok {
		return naiveBind(sub, av, b)
	}
	if bv, ok := b.(*term.Var); ok {
		return naiveBind(sub, bv, a)
	}
	switch at := a.(type) {
	case term.Atom:
		bt, ok := b.(term.Atom)
		return ok && at == bt
	case term.Int:
		bt, ok := b.(term.Int)
		return ok && at == bt
	case *term.Compound:
		bt, ok := b.(*term.Compound)
		if !ok || at.Functor != bt.Functor || len(at.Args) != len(bt.Args) {
			return false
		}
		for i := range at.Args {
			if !naiveUnify(sub, at.Args[i], bt.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// naiveBind extends sub with v -> t unless v occurs in t. The check is
// the textbook one and differs in method from the engine's: apply the
// substitution to t in full, then look for v among the variables of the
// result.
func naiveBind(sub map[*term.Var]term.Term, v *term.Var, t term.Term) bool {
	for _, w := range term.VarsUnder(nil, naiveApply(sub, t), nil) {
		if w == v {
			return false
		}
	}
	sub[v] = t
	return true
}

func naiveWalk(sub map[*term.Var]term.Term, t term.Term) term.Term {
	for {
		v, ok := t.(*term.Var)
		if !ok {
			return t
		}
		b, ok := sub[v]
		if !ok {
			return v
		}
		t = b
	}
}

// naiveApply deeply applies the substitution.
func naiveApply(sub map[*term.Var]term.Term, t term.Term) term.Term {
	t = naiveWalk(sub, t)
	c, ok := t.(*term.Compound)
	if !ok {
		return t
	}
	args := make([]term.Term, len(c.Args))
	for i, a := range c.Args {
		args[i] = naiveApply(sub, a)
	}
	return &term.Compound{Functor: c.Functor, Args: args}
}

// FuzzUnify decodes random term pairs and checks the engine's slot/frame
// environment unifier against the naive substitution unifier: both must
// agree on unifiability, and each success must be an actual unifier
// (after applying the bindings, the two terms are structurally equal).
// Both run the occurs check, so every binding is acyclic and the deep
// applications below terminate.
func FuzzUnify(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2})                            // V0 = V0
	f.Add([]byte{2, 7})                            // V0 = V3
	f.Add([]byte{3, 2, 3, 7})                      // f(V0) = f(V3)
	f.Add([]byte{4, 2, 1, 4, 3, 6, 0})             // list cells with vars
	f.Add([]byte{8, 2, 6, 0, 8, 1, 2, 9})          // nested compounds
	f.Add([]byte{13, 13, 2, 5, 0, 13, 2, 2, 5, 1}) // deep sharing
	f.Add([]byte{3, 3, 2, 3, 7, 3, 3, 7, 3, 2})    // f(f(V0),f(V3)) style
	f.Add([]byte{2, 3, 2})                         // V2 = f(V2): cyclic
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newFuzzDecoder(data)
		a := d.term(0)
		b := d.term(0)

		env, okEnv := Unify(nil, a, b)
		sub := make(map[*term.Var]term.Term)
		okNaive := naiveUnify(sub, a, b)

		if okEnv != okNaive {
			t.Fatalf("unifiability disagreement: env=%v naive=%v\na = %s\nb = %s",
				okEnv, okNaive, a, b)
		}
		if !okEnv {
			return
		}
		// Each unifier's own bindings must make the terms equal.
		if !term.EqualUnder(env, a, b) {
			t.Fatalf("env unifier is not a unifier:\na = %s -> %s\nb = %s -> %s", a, env.Format(a), b, env.Format(b))
		}
		if na, nb := naiveApply(sub, a), naiveApply(sub, b); !term.EqualUnder(nil, na, nb) {
			t.Fatalf("naive unifier is not a unifier:\na = %s -> %s\nb = %s -> %s", a, na, b, nb)
		}
	})
}
