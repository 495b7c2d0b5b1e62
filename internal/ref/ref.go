// Package ref is an independent reference semantics for the Datalog
// fragment: a naive bottom-up (fixpoint) evaluator that shares no code
// with the resolution engine. Because it computes the minimal Herbrand
// model directly, it provides an oracle the top-down engines are
// differentially tested against: every strategy, sequential or parallel,
// must return exactly the answer set the fixpoint licenses.
package ref

import (
	"errors"
	"fmt"

	"blog/internal/kb"
	"blog/internal/term"
	"blog/internal/unify"
)

// ErrNotDatalog reports a program outside the supported fragment:
// compound arguments, builtins in bodies, or non-callable goals.
var ErrNotDatalog = errors.New("ref: program is not in the Datalog fragment")

// Model is the computed minimal Herbrand model: ground facts grouped by
// predicate indicator.
type Model struct {
	// facts maps pred indicator -> rendered-atom -> ground term.
	facts map[string]map[string]term.Term
	// Iterations is the number of fixpoint rounds used.
	Iterations int
	// Derived counts facts added beyond the base facts.
	Derived int
}

// datalogCheck validates one atom of the fragment.
func datalogCheck(t term.Term) error {
	switch t := t.(type) {
	case term.Atom:
		return nil
	case *term.Compound:
		if t.Functor == term.SymDot && len(t.Args) == 2 {
			return fmt.Errorf("%w: list argument %s", ErrNotDatalog, t)
		}
		for _, a := range t.Args {
			switch a.(type) {
			case term.Atom, term.Int, *term.Var:
			default:
				return fmt.Errorf("%w: compound argument %s", ErrNotDatalog, a)
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: goal %s", ErrNotDatalog, t)
	}
}

// Eval computes the fixpoint of db's clauses. The program must be in the
// Datalog fragment: flat predicates over atoms/integers/variables, no
// builtins, and range-restricted rules (every head variable occurs in
// the body) — violations return an error.
func Eval(db *kb.DB) (*Model, error) {
	m := &Model{facts: make(map[string]map[string]term.Term)}
	var rules []*kb.Clause
	for _, c := range db.Clauses() {
		if err := datalogCheck(c.Head); err != nil {
			return nil, err
		}
		if c.IsFact() {
			if !term.Ground(nil, c.Head) {
				return nil, fmt.Errorf("%w: non-ground fact %s", ErrNotDatalog, c.Head)
			}
			m.add(c.Head)
			continue
		}
		headVars := term.VarsUnder(nil, c.Head, nil)
		var bodyVars []*term.Var
		for _, g := range c.Body {
			if err := datalogCheck(g); err != nil {
				return nil, err
			}
			if name, arity, ok := term.Functor(g); ok {
				if isBuiltinName(name, arity) {
					return nil, fmt.Errorf("%w: builtin %s/%d in body", ErrNotDatalog, name, arity)
				}
			}
			bodyVars = term.VarsUnder(nil, g, bodyVars)
		}
		for _, hv := range headVars {
			found := false
			for _, bv := range bodyVars {
				if hv == bv {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("%w: head variable %s not range-restricted in %s", ErrNotDatalog, hv, c)
			}
		}
		rules = append(rules, c)
	}

	// Naive fixpoint: re-derive until no new facts appear. Fine for the
	// differential-test sizes this package exists for.
	for changed := true; changed; {
		changed = false
		m.Iterations++
		for _, r := range rules {
			head, body := r.Activate()
			for _, env := range m.joinAll(nil, body) {
				d := term.Detacher{Env: env}
				ground := d.Detach(head)
				if !term.Ground(nil, ground) {
					return nil, fmt.Errorf("ref: derived non-ground fact %s", ground)
				}
				if m.add(ground) {
					m.Derived++
					changed = true
				}
			}
		}
		if m.Iterations > 10_000 {
			return nil, errors.New("ref: fixpoint did not converge in 10000 rounds")
		}
	}
	return m, nil
}

// isBuiltinName lists body predicates the fragment rejects. It mirrors
// the engine's builtin table by name only, deliberately not importing the
// engine (the oracle must stay independent).
func isBuiltinName(name string, arity int) bool {
	switch name {
	case "true", "fail", "false", "!", "=", "\\=", "==", "\\==", "is",
		"=:=", "=\\=", "<", ">", "=<", ">=", "@<", "@>", "@=<", "@>=",
		"between", "integer", "atom", "atomic", "compound", "var",
		"nonvar", "ground", "functor", "arg", "=..", "length",
		"copy_term", "succ", "\\+":
		return true
	}
	_ = arity
	return false
}

// add inserts a ground atom; reports whether it was new.
func (m *Model) add(t term.Term) bool {
	pred, ok := term.Indicator(t)
	if !ok {
		return false
	}
	set := m.facts[pred]
	if set == nil {
		set = make(map[string]term.Term)
		m.facts[pred] = set
	}
	key := t.String()
	if _, dup := set[key]; dup {
		return false
	}
	set[key] = t
	return true
}

// Size returns the model's fact count.
func (m *Model) Size() int {
	n := 0
	for _, set := range m.facts {
		n += len(set)
	}
	return n
}

// Holds reports whether a ground atom is in the model.
func (m *Model) Holds(t term.Term) bool {
	pred, ok := term.Indicator(t)
	if !ok {
		return false
	}
	_, yes := m.facts[pred][t.String()]
	return yes
}

// joinAll extends env through every body goal in order, returning all
// satisfying environments.
func (m *Model) joinAll(env *term.Env, goals []term.Term) []*term.Env {
	if len(goals) == 0 {
		return []*term.Env{env}
	}
	goal := goals[0]
	pred, ok := term.Indicator(env.Resolve(goal))
	if !ok {
		return nil
	}
	var out []*term.Env
	for _, fact := range m.facts[pred] {
		if e, ok := unify.Unify(env, goal, fact); ok {
			out = append(out, m.joinAll(e, goals[1:])...)
		}
	}
	return out
}

// Answers evaluates a conjunctive query against the model, returning the
// distinct bindings of the query variables rendered as strings (the
// format the differential tests compare on).
func (m *Model) Answers(goals []term.Term) []string {
	var qvars []*term.Var
	for _, g := range goals {
		qvars = term.VarsUnder(nil, g, qvars)
	}
	seen := make(map[string]bool)
	var out []string
	for _, env := range m.joinAll(nil, goals) {
		s := ""
		for i, v := range qvars {
			if i > 0 {
				s += ", "
			}
			s += v.String() + " = " + env.Format(v)
		}
		if s == "" {
			s = "true"
		}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
