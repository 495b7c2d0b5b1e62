// Package term defines the term representation of the B-LOG logic
// programming system: atoms, integers, logic variables and compound terms,
// together with persistent (structure-shared) binding environments.
//
// The representation is compiled for cheap resolution, mirroring the
// hardware operations section 6 of the paper argues for:
//
//   - Functor and atom names are interned to integer Syms in a
//     process-wide symbol table (sym.go), so unification, clause indexing
//     and builtin dispatch compare integers, never strings.
//   - Clauses compile once, in internal/vm, into head code and body
//     skeletons over numbered slots; "renaming apart" a clause there is
//     register capture plus at most one activation frame. Outside the VM
//     (the tree-walking oracle, a trail run's root goals) a term is
//     renamed apart by copying it (Refresh, RefreshAll).
//   - A term leaves a run one way, through Detacher, which copies what
//     the run's pools recycle at backtrack (FramePool, CompoundPool) and
//     shares the rest; Exporter copies a chain for another worker's
//     store, and copy_term/2 is one Exporter pass.
//   - Variables carry their activation Frame, letting binding environments
//     snapshot per-frame binding arrays instead of copying one flat map
//     (env.go).
//
// B-LOG performs a best-first search of the OR-tree, which means many
// resolvents ("chains" in the paper's terminology) are alive at once. A
// destructive binding trail, as used by depth-first Prolog implementations,
// cannot represent that: undoing bindings for one chain would corrupt its
// siblings. Instead every chain carries an immutable Env; extending an Env
// allocates a small node and shares the entire suffix with the parent chain.
// This is exactly the environment-copying pressure that section 6 of the
// paper motivates its multi-write memory with.
package term

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Term is the interface implemented by all term representations.
// The concrete types are Atom, Int, *Var and *Compound.
type Term interface {
	// String renders the term without consulting any environment.
	// Use (*Env).Format to render with bindings applied.
	String() string
	isTerm()
}

// Atom is a constant symbol such as `sam` or `[]`, represented by its
// interned Sym. Atoms are comparable with == (one integer compare) and
// usable as map keys.
type Atom struct{ sym Sym }

// NewAtom interns name and returns the atom for it.
func NewAtom(name string) Atom { return Atom{Intern(name)} }

// AtomOf wraps an already-interned Sym as an atom.
func AtomOf(s Sym) Atom { return Atom{s} }

// Sym returns the atom's interned symbol.
func (a Atom) Sym() Sym { return a.sym }

// Name returns the atom's text without quoting.
func (a Atom) Name() string { return a.sym.Name() }

// Int is an integer constant.
type Int int64

// Var is a logic variable. Identity is by pointer; Name is only for
// printing. ID is a process-unique serial used for stable ordering and
// for printing anonymous renamed variables (for example `_G42`).
// Every Var belongs to an activation Frame (see env.go); variables created
// singly via NewVar get a one-slot frame of their own.
type Var struct {
	Name  string
	ID    uint64
	frame *Frame
	idx   int32
}

// Compound is a functor applied to one or more arguments, such as
// `f(sam, Y)` or `.(H, T)` (a list cell). The functor is interned.
type Compound struct {
	Functor Sym
	// pooled marks compounds minted by a CompoundPool (store.go), which
	// are recycled on backtrack, or carved from a Cells slab (slab.go),
	// whose chunk a kept compound would pin: Detacher always copies them
	// on the way out.
	// The flag packs into Functor's alignment padding — no size cost.
	pooled bool
	Args   []Term
}

// FunctorName returns the functor's text.
func (c *Compound) FunctorName() string { return c.Functor.Name() }

func (Atom) isTerm()      {}
func (Int) isTerm()       {}
func (*Var) isTerm()      {}
func (*Compound) isTerm() {}

// String implements Term. An atom that needs no quotes returns its
// interned name without allocating.
func (a Atom) String() string {
	if name := a.Name(); bareAtom(name) {
		return name
	}
	return string(Append(nil, a, nil))
}

// String implements Term.
func (i Int) String() string { return strconv.FormatInt(int64(i), 10) }

// String implements Term. A named variable returns its name without
// allocating.
func (v *Var) String() string {
	if v.named() {
		return v.Name
	}
	return string(Append(nil, v, nil))
}

// named reports whether v prints as its source name rather than _G<ID>.
func (v *Var) named() bool { return v.Name != "" && v.Name != "_" }

// String implements Term.
func (c *Compound) String() string {
	var buf [64]byte
	return string(Append(buf[:0], c, nil))
}

// Indicator returns the predicate indicator (functor/arity) of a callable
// term, for example "f/2" for f(sam,Y) or "true/0" for the atom true.
// It returns "", false for variables and integers, which are not callable.
func Indicator(t Term) (string, bool) {
	switch t := t.(type) {
	case Atom:
		return t.Name() + "/0", true
	case *Compound:
		return t.FunctorName() + "/" + strconv.Itoa(len(t.Args)), true
	default:
		return "", false
	}
}

// PredOf returns the interned functor symbol and arity of a callable term.
// It is the allocation-free form of Indicator used by clause indexing and
// builtin dispatch.
func PredOf(t Term) (fn Sym, arity int, ok bool) {
	switch t := t.(type) {
	case Atom:
		return t.sym, 0, true
	case *Compound:
		return t.Functor, len(t.Args), true
	default:
		return 0, 0, false
	}
}

// Functor returns the functor name and arity of a callable term.
func Functor(t Term) (name string, arity int, ok bool) {
	switch t := t.(type) {
	case Atom:
		return t.Name(), 0, true
	case *Compound:
		return t.FunctorName(), len(t.Args), true
	default:
		return "", 0, false
	}
}

// NewCompound builds a compound term, interning the functor. As a
// convenience, a zero-argument call yields an Atom so that callers never
// construct empty compounds.
func NewCompound(functor string, args ...Term) Term {
	if len(args) == 0 {
		return NewAtom(functor)
	}
	return &Compound{Functor: Intern(functor), Args: args}
}

// EmptyList is the atom `[]` terminating proper lists.
var EmptyList = Atom{SymNil}

// Cons builds a list cell `.(head, tail)` in one allocation.
func Cons(head, tail Term) Term {
	c := MakeCompound(SymDot, 2)
	c.Args[0], c.Args[1] = head, tail
	return c
}

// FromList builds a proper list term from a slice.
func FromList(items []Term) Term {
	t := Term(EmptyList)
	for i := len(items) - 1; i >= 0; i-- {
		t = Cons(items[i], t)
	}
	return t
}

// Append appends the text of t to dst and returns the extended slice.
// Bindings from env are applied at every variable the walk reaches; env
// is nil for a term that stands on its own, such as a detached solution.
// The text reads back through the parser as the same term: a name that is
// neither plain nor symbolic is quoted (a functor also when it is one of
// the solo atoms [] and !, which read back bare only as atoms), list cells
// print as [a,b|T], and an unbound variable prints as its name or
// _G<serial>. It is the one Prolog text renderer of the system, and it
// allocates nothing beyond dst's growth.
func Append(dst []byte, t Term, env *Env) []byte {
	p := printer{env: env}
	return p.append(dst, t)
}

// AppendAnswer is Append for a query's answer, where a source name is the
// query's alone: an unbound variable prints by its name when it is one of
// own — the terms the query's variables stand for in the run — and as
// _G<serial> otherwise. Clause variables and copy_term/2 copies then never
// pass for a query variable or for each other, and one variable prints the
// same wherever it occurs.
func AppendAnswer(dst []byte, t Term, env *Env, own []Term) []byte {
	p := printer{env: env, own: own, answer: true}
	return p.append(dst, t)
}

// printer is one rendering: the bindings it reads through and, for an
// answer, the variables that print by name.
type printer struct {
	env    *Env
	own    []Term
	answer bool
}

func (p *printer) append(dst []byte, t Term) []byte {
	switch t := p.env.Resolve(t).(type) {
	case Atom:
		name := t.Name()
		if bareAtom(name) {
			return append(dst, name...)
		}
		return appendQuoted(dst, name)
	case Int:
		return strconv.AppendInt(dst, int64(t), 10)
	case *Var:
		if t.named() && p.byName(t) {
			return append(dst, t.Name...)
		}
		return strconv.AppendUint(append(dst, "_G"...), t.ID, 10)
	case *Compound:
		if t.Functor == SymDot && len(t.Args) == 2 {
			return p.appendList(dst, t)
		}
		if name := t.FunctorName(); bareName(name) {
			dst = append(dst, name...)
		} else {
			dst = appendQuoted(dst, name)
		}
		dst = append(dst, '(')
		for i, a := range t.Args {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = p.append(dst, a)
		}
		return append(dst, ')')
	}
	return dst
}

// byName reports whether the named variable v prints by its name.
func (p *printer) byName(v *Var) bool {
	if !p.answer {
		return true
	}
	for _, o := range p.own {
		if o == Term(v) {
			return true
		}
	}
	return false
}

// appendList appends a list cell chain in [a,b|T] notation.
func (p *printer) appendList(dst []byte, c *Compound) []byte {
	dst = append(dst, '[')
	for {
		dst = p.append(dst, c.Args[0])
		tail := p.env.Resolve(c.Args[1])
		next, ok := tail.(*Compound)
		if !ok || next.Functor != SymDot || len(next.Args) != 2 {
			if tail != Term(EmptyList) {
				dst = append(dst, '|')
				dst = p.append(dst, tail)
			}
			return append(dst, ']')
		}
		dst = append(dst, ',')
		c = next
	}
}

// bareAtom reports whether an atom named s reads back unquoted: a plain
// or symbolic name, or one of the solo atoms [] and !.
func bareAtom(s string) bool { return s == "[]" || s == "!" || bareName(s) }

// bareName reports whether s reads back unquoted in both atom and functor
// position: a plain name (a lowercase letter, then letters, digits and
// underscores) or a symbolic one. Symbolic names the lexer does not read
// as one atom token are excluded: "." ends a clause, ":-" and "?-" lex as
// the neck and query markers, and "/*" opens a block comment.
func bareName(s string) bool {
	if s == "" {
		return false
	}
	if s[0] >= 'a' && s[0] <= 'z' {
		for i := 1; i < len(s); i++ {
			c := s[i]
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(s); i++ {
		if strings.IndexByte(symbolChars, s[i]) < 0 {
			return false
		}
	}
	return s != "." && s != ":-" && s != "?-" && !strings.Contains(s, "/*")
}

// symbolChars are the characters of symbolic atoms, as the parser's
// lexer reads them.
const symbolChars = "+-*/\\^<>=~:.?@#&"

// appendQuoted appends s as a quoted atom, escaping backslashes and
// quotes.
func appendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '\'')
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\\' || c == '\'' {
			dst = append(dst, '\\', c)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, '\'')
}

// EndsSymbolic reports whether the rendered text ends in a symbolic-atom
// character, in which case a following "." would lex as part of the same
// token; clause writers insert a space before the terminator then.
func EndsSymbolic(s string) bool {
	if s == "" {
		return false
	}
	return strings.IndexByte(symbolChars, s[len(s)-1]) >= 0
}

// VarsUnder appends the distinct variables remaining free in t after
// resolving bindings in env, in first-occurrence order. A nil env reads t
// as written.
func VarsUnder(env *Env, t Term, dst []*Var) []*Var {
	t = env.Resolve(t)
	switch t := t.(type) {
	case *Var:
		for _, v := range dst {
			if v == t {
				return dst
			}
		}
		return append(dst, t)
	case *Compound:
		for _, a := range t.Args {
			dst = VarsUnder(env, a, dst)
		}
	}
	return dst
}

// EqualUnder reports structural equality of a and b with bindings from env
// applied on the fly: CompareUnder's walk, which orders two terms as equal
// exactly when they are identical (variables by process-unique serial,
// atoms by interned name). It backs ==/2 and \==/2. A nil env compares the
// terms as written.
func EqualUnder(env *Env, a, b Term) bool { return CompareUnder(env, a, b) == 0 }

// Compare imposes the standard order of terms: Var < Int < Atom < Compound,
// with compounds ordered by arity, then functor, then arguments.
// Atoms and functors order by their interned text, not their Sym serials.
func Compare(a, b Term) int { return CompareUnder(nil, a, b) }

// CompareUnder is Compare with bindings from env applied on the fly; each
// argument position is resolved exactly once. It backs the @</2 family.
func CompareUnder(env *Env, a, b Term) int {
	a, b = env.Resolve(a), env.Resolve(b)
	ra, rb := orderRank(a), orderRank(b)
	if ra != rb {
		return ra - rb
	}
	switch a := a.(type) {
	case *Var:
		bv := b.(*Var)
		switch {
		case a.ID < bv.ID:
			return -1
		case a.ID > bv.ID:
			return 1
		}
		return 0
	case Int:
		bi := b.(Int)
		switch {
		case a < bi:
			return -1
		case a > bi:
			return 1
		}
		return 0
	case Atom:
		if ba := b.(Atom); a != ba {
			return strings.Compare(a.Name(), ba.Name())
		}
		return 0
	case *Compound:
		bc := b.(*Compound)
		if d := len(a.Args) - len(bc.Args); d != 0 {
			return d
		}
		if a.Functor != bc.Functor {
			if d := strings.Compare(a.Functor.Name(), bc.Functor.Name()); d != 0 {
				return d
			}
		}
		for i := range a.Args {
			if d := CompareUnder(env, a.Args[i], bc.Args[i]); d != 0 {
				return d
			}
		}
		return 0
	}
	return 0
}

func orderRank(t Term) int {
	switch t.(type) {
	case *Var:
		return 0
	case Int:
		return 1
	case Atom:
		return 2
	default:
		return 3
	}
}

// SortVars sorts variables by their serial IDs, giving a deterministic
// presentation order for solution printing.
func SortVars(vs []*Var) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].ID < vs[j].ID })
}

// Ground reports whether t contains no unbound variables under env.
func Ground(env *Env, t Term) bool {
	t = env.Resolve(t)
	switch t := t.(type) {
	case *Var:
		return false
	case *Compound:
		for _, a := range t.Args {
			if !Ground(env, a) {
				return false
			}
		}
	}
	return true
}

var _ = fmt.Stringer(Atom{}) // Atom satisfies fmt.Stringer.
