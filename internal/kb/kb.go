// Package kb implements the B-LOG database: a clause store indexed by
// predicate, plus the weighted-pointer structure of figure 4 of the paper.
//
// Section 5 stores the database "as a linked list data structure, with
// blocks representing each Horn clause (rule or fact), and pointers to
// blocks representing other rules or facts in the database that can resolve
// the rule", with a weight kept just below each named pointer — an inverted
// file per rule. Here a block is a Clause, and a pointer is an Arc: the
// static coordinate (caller clause, body position, callee clause). Arcs are
// what weights attach to; because they are static program coordinates, a
// weight learned by one query is visible to every later query that travels
// the same pointer, which is requirement 1 of section 4.
//
// Clauses are stored as parsed, and kb compiles nothing. internal/vm
// compiles a predicate's clauses into its code and first-argument
// dispatch, and attaches that code here (SetCode); it is the only
// compiled form of a clause. The predicate index keys on interned symbols
// (term.Sym), not formatted strings.
package kb

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"blog/internal/parse"
	"blog/internal/term"
	"blog/internal/unify"
)

// ClauseID identifies a clause by its load order. The pseudo-clause ID
// Query (-1) stands for the query the user typed, which is the root of the
// search tree and the caller of its goals.
type ClauseID int

// Query is the caller ID used for arcs leaving the root query node.
const Query ClauseID = -1

// Arc is a weighted pointer of the figure-4 structure: the decision to
// resolve the Pos-th body goal of clause Caller using clause Callee.
// Pos is 0-based; for a query, Caller is kb.Query and Pos indexes the
// query's goals.
type Arc struct {
	Caller ClauseID
	Pos    int
	Callee ClauseID
}

// String renders an arc as caller.pos->callee for diagnostics.
func (a Arc) String() string {
	return fmt.Sprintf("%d.%d->%d", a.Caller, a.Pos, a.Callee)
}

// Clause is one stored Horn clause (a block in the paper's linked list),
// immutable once asserted. Head and Body are the terms as parsed: the VM
// compiles them, and the tree-walking oracle renames them apart with
// Activate.
type Clause struct {
	ID   ClauseID
	Head term.Term
	Body []term.Term
	// Pred is the predicate indicator of the head, e.g. "f/2".
	Pred string
	// Line is the source line, when parsed from text.
	Line int
}

// IsFact reports whether the clause has an empty body.
func (c *Clause) IsFact() bool { return len(c.Body) == 0 }

// Activate renames the clause apart for one resolution step: head and
// body are copied together with fresh variables (term.RefreshAll), so a
// variable shared between them stays shared.
func (c *Clause) Activate() (head term.Term, body []term.Term) {
	ts, _ := term.RefreshAll(append([]term.Term{c.Head}, c.Body...))
	return ts[0], ts[1:]
}

// String renders the clause in source syntax. A space precedes the final
// period when the text would otherwise end in a symbolic character (the
// terminator would merge into the preceding token on reparse).
func (c *Clause) String() string {
	var text string
	if c.IsFact() {
		text = c.Head.String()
	} else {
		parts := make([]string, len(c.Body))
		for i, g := range c.Body {
			parts[i] = g.String()
		}
		text = c.Head.String() + " :- " + strings.Join(parts, ", ")
	}
	if term.EndsSymbolic(text) {
		return text + " ."
	}
	return text + "."
}

// PredKey identifies a predicate by interned functor symbol and arity —
// the allocation-free analogue of the "f/2" indicator string.
type PredKey struct {
	Fn    term.Sym
	Arity int
}

// String renders the indicator, e.g. "f/2".
func (k PredKey) String() string { return k.Fn.Name() + "/" + strconv.Itoa(k.Arity) }

// ParsePredKey parses a "name/arity" indicator, as produced by
// term.Indicator or PredKey.String.
func ParsePredKey(ind string) (PredKey, bool) {
	i := strings.LastIndexByte(ind, '/')
	if i <= 0 {
		return PredKey{}, false
	}
	arity, err := strconv.Atoi(ind[i+1:])
	if err != nil || arity < 0 {
		return PredKey{}, false
	}
	return PredKey{term.Intern(ind[:i]), arity}, true
}

// ArgKey is the first-argument key: the shape of a constant (atom,
// integer, or compound principal functor) as a comparable struct, so
// comparing keys never formats strings. Candidates compares them, and
// internal/vm's switch-on-term tables key on them.
type ArgKey struct {
	kind byte // 'a' atom, 'i' integer, 'c' compound
	sym  term.Sym
	num  int64 // integer value, or compound arity
}

// pred is one predicate's share of the clause store.
type pred struct {
	// clauses lists the predicate's clauses in source order.
	clauses []*Clause
	// stamp is the generation of the last assert that changed the
	// predicate.
	stamp uint64
	// code is the last compiled form (internal/vm) attached by SetCode,
	// held opaquely so kb does not import its compiler; it is current only
	// while codeStamp, the stamp it was compiled at, equals stamp.
	code      any
	codeStamp uint64
}

// DB is the clause database. It is safe for concurrent use: queries read
// the clause store under mu's read lock while Assert mutates it under the
// write lock, so clauses may land while searches are in flight. Individual
// clauses are immutable once asserted, so a slice snapshot taken under the
// lock stays valid after it is released.
//
// Every predicate carries a stamp: the generation of the last assert that
// changed it, or 0 if it never had a clause. The caches built from clauses
// (compiled code, answer tables) record the stamps they were built from
// and are fresh exactly while those stamps still match, so an assert
// notifies nobody. A predicate's clauses and its stamp are always read in
// one critical section, which is what makes a recorded stamp describe the
// clauses actually used. The tabled set is the one load-time-only
// structure: `:- table` directives are rejected by Assert, so it is never
// written concurrently with reads.
type DB struct {
	// mu guards the clause store (clauses, preds).
	mu      sync.RWMutex
	clauses []*Clause
	preds   map[PredKey]*pred
	// tabled marks predicates declared `:- table name/arity` for answer
	// memoization (consumed by internal/table through IsTabled). The value
	// is the 1-based cost-argument position of a `min(N)` answer-subsumption
	// declaration, or 0 for plain variant tabling.
	tabled map[PredKey]int

	// gen counts clause assertions: the one clock predicate stamps are
	// read from. It moves under mu's write lock, so a reader that sees the
	// generation unchanged across a lookup saw no assert in between.
	gen atomic.Uint64
	// journal holds the engine event journal (*obs.Journal) as an opaque
	// value: kb sits below obs, and only internal/vm reads it back to
	// stamp recompile events.
	journal atomic.Value
}

// Generation returns the clause-assertion generation. It changes exactly
// when Assert (or load) adds a clause.
func (db *DB) Generation() uint64 { return db.gen.Load() }

// Stamp returns the predicate's stamp: the generation of the last assert
// that changed it, or 0 if it has no clauses.
func (db *DB) Stamp(fn term.Sym, arity int) uint64 {
	_, stamp, _, _ := db.Code(fn, arity)
	return stamp
}

// Code returns, read together, a predicate's clauses in source order, its
// stamp, the compiled form last attached (nil when none is), and whether
// that form was compiled at the current stamp.
func (db *DB) Code(fn term.Sym, arity int) (clauses []*Clause, stamp uint64, code any, current bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if p := db.preds[PredKey{fn, arity}]; p != nil {
		return p.clauses, p.stamp, p.code, p.codeStamp == p.stamp
	}
	return nil, 0, nil, false
}

// SetCode attaches a compiled form built from the predicate's clauses at
// stamp and returns the form now attached: code itself, or the one another
// caller attached first for the same stamp. When the predicate has moved
// past stamp, nothing is attached and code comes back unchanged.
func (db *DB) SetCode(fn term.Sym, arity int, stamp uint64, code any) any {
	db.mu.Lock()
	defer db.mu.Unlock()
	p := db.preds[PredKey{fn, arity}]
	if p == nil || p.stamp != stamp {
		return code
	}
	if p.codeStamp != stamp {
		p.code, p.codeStamp = code, stamp
	}
	return p.code
}

// EventJournal returns the attached engine event journal (a *obs.Journal
// stored opaquely), or nil.
func (db *DB) EventJournal() any { return db.journal.Load() }

// SetEventJournal attaches the engine event journal. The value must be
// non-nil (atomic.Value rejects nil stores).
func (db *DB) SetEventJournal(j any) { db.journal.Store(j) }

// New returns an empty database.
func New() *DB {
	return &DB{preds: make(map[PredKey]*pred), tabled: make(map[PredKey]int)}
}

// LoadString parses src and asserts all its clauses. Directive queries in
// the source are returned for the caller to run. `:- table name/arity`
// directives mark their predicates for tabled evaluation.
func LoadString(src string) (*DB, [][]term.Term, error) {
	prog, err := parse.Source(src)
	if err != nil {
		return nil, nil, err
	}
	db := New()
	for _, c := range prog.Clauses {
		db.assert(c.Head, c.Body, c.Line)
	}
	declared := make(map[string]parse.TabledDecl)
	for _, d := range prog.Tabled {
		if reservedForTabling(d.Name) {
			return nil, nil, fmt.Errorf("kb: line %d: cannot table %s/%d: %q is an evaluable builtin, which the engine dispatches before tabling", d.Line, d.Name, d.Arity, d.Name)
		}
		// Idempotent redeclaration is fine; a conflicting mode is not —
		// last-wins would silently flip a predicate between plain and
		// cost-minimal evaluation.
		ind := d.Name + "/" + strconv.Itoa(d.Arity)
		if prev, ok := declared[ind]; ok && prev.Min != d.Min {
			return nil, nil, fmt.Errorf("kb: line %d: conflicting table directives for %s: min(%d) on line %d vs min(%d) here (0 = plain tabling)", d.Line, ind, prev.Min, prev.Line, d.Min)
		}
		declared[ind] = d
		if d.Min == 0 {
			db.MarkTabled(d.Name, d.Arity)
			continue
		}
		if err := db.MarkTabledMin(d.Name, d.Arity, d.Min); err != nil {
			return nil, nil, fmt.Errorf("kb: line %d: %w", d.Line, err)
		}
	}
	return db, prog.Queries, nil
}

// reservedForTabling lists predicate names a `:- table` directive must
// reject: the engine resolves negation and the evaluable builtins before
// consulting the answer tables, so a declaration naming one would load as
// a silent no-op. The list mirrors the engine's builtin table by name
// (like internal/ref's copy, kb deliberately does not import the engine).
func reservedForTabling(name string) bool {
	switch name {
	case "true", "fail", "false", "!", "=", "\\=", "==", "\\==", "is",
		"=:=", "=\\=", "<", ">", "=<", ">=", "@<", "@>", "@=<", "@>=",
		"between", "integer", "atom", "atomic", "compound", "var",
		"nonvar", "ground", "functor", "arg", "=..", "length",
		"copy_term", "succ", "\\+":
		return true
	}
	return false
}

// MarkTabled declares a predicate tabled, as the `:- table name/arity`
// directive does. Marking is a load-time operation; after loading the
// tabled set, like the clause store, is read-only.
func (db *DB) MarkTabled(name string, arity int) {
	db.tabled[PredKey{term.Intern(name), arity}] = 0
}

// MarkTabledMin declares a predicate tabled with answer subsumption, as
// the `:- table name/arity min(pos)` directive does: pos (1-based) is the
// cost argument, and the answer table keeps only the least-cost answer per
// binding of the remaining arguments. pos must name a real argument slot.
func (db *DB) MarkTabledMin(name string, arity, pos int) error {
	if pos < 1 || pos > arity {
		return fmt.Errorf("cannot table %s/%d min(%d): the cost position must name an argument (1..%d)", name, arity, pos, arity)
	}
	db.tabled[PredKey{term.Intern(name), arity}] = pos
	return nil
}

// IsTabled reports whether the predicate was declared tabled.
func (db *DB) IsTabled(fn term.Sym, arity int) bool {
	_, ok := db.tabled[PredKey{fn, arity}]
	return ok
}

// TabledMin returns the 1-based cost-argument position of a predicate
// declared `:- table name/arity min(pos)`, or 0 for plain variant tabling
// (and for predicates not tabled at all).
func (db *DB) TabledMin(fn term.Sym, arity int) int {
	return db.tabled[PredKey{fn, arity}]
}

// HasTabled reports whether any predicate is declared tabled, so callers
// can skip the tabling hook entirely for programs that declare none.
func (db *DB) HasTabled() bool { return len(db.tabled) > 0 }

// TabledPreds returns the sorted indicators of the tabled predicates.
// Subsumption-tabled predicates carry their declared mode, e.g.
// "shortest/3 min(3)".
func (db *DB) TabledPreds() []string {
	out := make([]string, 0, len(db.tabled))
	for k, min := range db.tabled {
		ind := k.String()
		if min > 0 {
			ind += " min(" + strconv.Itoa(min) + ")"
		}
		out = append(out, ind)
	}
	sort.Strings(out)
	return out
}

// Assert appends a clause to the database and returns it.
func (db *DB) Assert(head term.Term, body []term.Term) *Clause {
	return db.assert(head, body, 0)
}

func (db *DB) assert(head term.Term, body []term.Term, line int) *Clause {
	ind, ok := term.Indicator(head)
	if !ok {
		panic(fmt.Sprintf("kb: clause head %s is not callable", head))
	}
	fn, arity, _ := term.PredOf(head)
	c := &Clause{Head: head, Body: body, Pred: ind, Line: line}
	db.mu.Lock()
	defer db.mu.Unlock()
	c.ID = ClauseID(len(db.clauses))
	db.clauses = append(db.clauses, c)
	p := db.preds[PredKey{fn, arity}]
	if p == nil {
		p = &pred{}
		db.preds[PredKey{fn, arity}] = p
	}
	p.clauses = append(p.clauses, c)
	p.stamp = db.gen.Add(1)
	return c
}

// Fingerprint hashes a predicate's clause list (each clause's source
// rendering, in load order) to a 64-bit value, and returns it with the
// stamp of the clauses it hashed. Equal fingerprints mean the predicate's
// definition is textually unchanged — what a persisted table snapshot
// validates against at load, so one changed predicate re-derives its
// downstream tables instead of discarding the whole snapshot.
func (db *DB) Fingerprint(fn term.Sym, arity int) (fp, stamp uint64) {
	clauses, stamp, _, _ := db.Code(fn, arity)
	h := fnv.New64a()
	for _, c := range clauses {
		io.WriteString(h, c.String())
		h.Write([]byte{0})
	}
	return h.Sum64(), stamp
}

// KeyOf computes the index key of a constant term; variables (and any
// other unindexable term) report false.
func KeyOf(arg term.Term) (ArgKey, bool) {
	switch a := arg.(type) {
	case term.Atom:
		return ArgKey{kind: 'a', sym: a.Sym()}, true
	case term.Int:
		return ArgKey{kind: 'i', num: int64(a)}, true
	case *term.Compound:
		return ArgKey{kind: 'c', sym: a.Functor, num: int64(len(a.Args))}, true
	default: // variable: not keyed
		return ArgKey{}, false
	}
}

// Len returns the number of clauses.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.clauses)
}

// Clause returns the clause with the given ID, or nil for kb.Query or an
// out-of-range ID.
func (db *DB) Clause(id ClauseID) *Clause {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.clauseLocked(id)
}

func (db *DB) clauseLocked(id ClauseID) *Clause {
	if id < 0 || int(id) >= len(db.clauses) {
		return nil
	}
	return db.clauses[id]
}

// Clauses returns all clauses in load order. The returned slice is a
// point-in-time snapshot (clauses asserted later extend the store, never
// this view); callers must not modify it.
func (db *DB) Clauses() []*Clause {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.clauses
}

// PredKeys returns the predicates that have clauses, in no order.
func (db *DB) PredKeys() []PredKey {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]PredKey, 0, len(db.preds))
	for k := range db.preds {
		out = append(out, k)
	}
	return out
}

// Preds returns the sorted list of predicate indicators present.
func (db *DB) Preds() []string {
	keys := db.PredKeys()
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	sort.Strings(out)
	return out
}

// ClausesFor returns the clauses for a predicate indicator ("name/arity",
// as produced by term.Indicator or Preds) in source order.
func (db *DB) ClausesFor(ind string) []*Clause {
	k, ok := ParsePredKey(ind)
	if !ok {
		return nil
	}
	clauses, _, _, _ := db.Code(k.Fn, k.Arity)
	return clauses
}

// Candidates returns, in source order, the clauses whose heads may unify
// with the goal as resolved under env: the predicate's clauses less those
// whose head first argument is a different constant. The result is a
// superset of the truly unifiable clauses (unification still decides). It
// may be the predicate's own clause list, so callers must not modify it.
func (db *DB) Candidates(env *term.Env, goal term.Term) []*Clause {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.candidatesLocked(env, goal)
}

// candidatesLocked is Candidates' body; the caller holds mu (read or
// write). Split out so whole-database walks (Arcs, LinkedListText) probe
// under one lock acquisition instead of recursively read-locking, which
// could deadlock against a waiting writer.
func (db *DB) candidatesLocked(env *term.Env, goal term.Term) []*Clause {
	goal = env.Resolve(goal)
	fn, arity, ok := term.PredOf(goal)
	if !ok {
		return nil
	}
	p := db.preds[PredKey{fn, arity}]
	if p == nil {
		return nil
	}
	gc, ok := goal.(*term.Compound)
	if !ok || len(gc.Args) == 0 {
		return p.clauses
	}
	ak, keyed := KeyOf(env.Resolve(gc.Args[0]))
	if !keyed {
		return p.clauses
	}
	// out stays nil until the first clause is left out, so a scan that
	// filters nothing returns the predicate's own list.
	var out []*Clause
	for i, c := range p.clauses {
		if hk, hkeyed := KeyOf(c.Head.(*term.Compound).Args[0]); hkeyed && hk != ak {
			if out == nil {
				out = append(make([]*Clause, 0, len(p.clauses)-1), p.clauses[:i]...)
			}
			continue
		}
		if out != nil {
			out = append(out, c)
		}
	}
	if out == nil {
		return p.clauses
	}
	return out
}

// Arcs enumerates every static arc of the database: for each clause body
// position (and optionally a query's goals via ArcsForGoals), the clauses
// that can resolve the goal at that position. This materializes the
// figure-4 pointer structure.
func (db *DB) Arcs() []Arc {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Arc
	for _, c := range db.clauses {
		for pos, g := range c.Body {
			for _, callee := range db.candidatesLocked(nil, g) {
				out = append(out, Arc{Caller: c.ID, Pos: pos, Callee: callee.ID})
			}
		}
	}
	return out
}

// ArcsForGoals enumerates the arcs leaving a query with the given goals.
func (db *DB) ArcsForGoals(goals []term.Term) []Arc {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Arc
	for pos, g := range goals {
		for _, callee := range db.candidatesLocked(nil, g) {
			out = append(out, Arc{Caller: Query, Pos: pos, Callee: callee.ID})
		}
	}
	return out
}

// ResolvableBy reports whether clause callee's head can unify with the
// goal at body position pos of clause caller (renamed apart). It validates
// arcs produced by Arcs. Unification runs the occurs check, so an arc
// whose only unifier is cyclic is rejected.
func (db *DB) ResolvableBy(caller ClauseID, pos int, callee ClauseID) bool {
	db.mu.RLock()
	c := db.clauseLocked(caller)
	k := db.clauseLocked(callee)
	db.mu.RUnlock()
	if c == nil || k == nil || pos < 0 || pos >= len(c.Body) {
		return false
	}
	_, body := c.Activate()
	head, _ := k.Activate()
	return unify.CanUnify(nil, body[pos], head)
}
