// Package vm is the register-based bytecode engine for the sequential
// resolution core, and the only compiled form of a clause: internal/kb
// stores clauses as parsed, and the tree-walking oracle in
// internal/engine renames them apart by copying. It carries out what the
// paper's section 6 motivates: clause activation as a constant-time
// machine operation rather than a structure walk.
//
// At load time every clause is compiled once into a flat instruction
// sequence over the interned-Sym term core, and every predicate's clause
// set into a switch-on-term first-argument dispatch table. At run time
// the engine (internal/engine's trail-store machine and Expander) executes
// head unification and body instantiation on the Machine instead of
// copying the clause.
//
// # Instruction set
//
// A clause head compiles to one instruction per argument position, in
// depth-first preorder; unification of nested compounds reuses the same
// opcodes at unify level, consuming arguments from a cursor stack:
//
//	opcode    operands          meaning
//	--------  ----------------  ------------------------------------------
//	opConst   pool index        goal argument must unify with the shared
//	                            ground constant (atom, integer, or ground
//	                            compound); an unbound argument is bound
//	opVarF    slot              first occurrence of a clause variable:
//	                            capture the goal argument into regs[slot]
//	                            (no fresh variable, no binding)
//	opVarR    slot              repeat occurrence: full unify of the goal
//	                            argument against regs[slot]
//	opStruct  functor, arity,   goal argument must be a compound with this
//	          skeleton, skip    principal functor (read mode: descend into
//	                            its arguments) or an unbound variable
//	                            (write mode: instantiate the whole
//	                            sub-skeleton at once, bind the variable,
//	                            and skip the subtree's instructions)
//
// Preorder flattening makes every compound subtree a contiguous
// instruction range, which is what lets write mode skip it with a single
// pc increment. Ground subterms never become instructions: they live in
// a per-clause constant pool shared by every activation.
//
// The register capture of opVarF is the main win over the tree-walking
// engine: a chain rule like p(X) :- q(X) activates with zero allocations
// and zero environment extensions — the caller's argument flows through
// the register file straight into the body goal. Fresh variables are
// minted lazily, one frame per activation, only when a clause variable
// is never captured from the goal.
//
// # Dispatch
//
// Each predicate compiles to a PredCode: the full clause list in source
// order plus, when any clause head has a constant first argument, a
// switch-on-term table mapping each first-argument constant to its
// premerged candidate bucket (the keyed clauses for that constant merged
// with the variable-first clauses, in clause-ID order). A goal with a
// bound first argument jumps straight to its bucket — replacing the
// tree-walker's per-goal scan of the clause list (kb.Candidates) — while
// a goal with an unbound first argument takes the full list.
//
// # Fallback rules
//
// Builtins, negation-as-failure and tabled calls dispatch before clause
// resolution, so the VM never sees them. The trail-store machine
// (sequential DFS, OR-parallel workers, table generators and the nested
// proof of every \+ goal) resolves program clauses on the VM only: a
// predicate with no clauses has no code, and its goals fail. The
// tree-walking engine lives once, in engine.Expander on the
// persistent-Env frontier, and runs in two cases: recorded runs, whose
// figure rendering wants the walker's labeling, and NoVM runs
// (search.Options.NoVM, the one oracle switch), the differential oracle.
//
// Compiled code is kept per predicate on the kb.DB, tagged with the
// predicate's stamp (the generation of the last assert that changed it).
// An assert on p/n makes the next lookup of p/n compile the asserted
// clause and append it to its dispatch bucket (or rebuild the dispatch,
// for a variable first argument), so learned or merged clauses reach
// the compiled path immediately while every other clause and predicate
// keeps its code. Engines look code up through a Cache, whose slots are
// valid for one database generation.
package vm

import (
	"maps"
	"slices"
	"strconv"

	"blog/internal/kb"
	"blog/internal/obs"
	"blog/internal/term"
)

type op uint8

const (
	opConst op = iota
	opVarF
	opVarR
	opStruct
)

// instr is one head-unification instruction. Fields are overloaded by
// opcode: idx is the constant-pool index (opConst), the variable slot
// (opVarF/opVarR), or the write-mode skeleton index (opStruct).
type instr struct {
	op   op
	idx  int32
	fn   term.Sym // opStruct: principal functor
	n    int32    // opStruct: arity
	skip int32    // opStruct: subtree instruction count (write-mode skip)
}

// snode is the compiled skeleton used for write-mode instantiation and
// body-goal construction: variables are numbered slots that resolve
// through the machine's register file before minting fresh variables,
// and ground subterms are shared by every activation.
type snode struct {
	kind   uint8
	slot   int32
	fn     term.Sym
	ground term.Term
	args   []snode
}

const (
	sGround uint8 = iota
	sSlot
	sStruct
)

// CClause is one compiled clause: flat head code, constant pool,
// write-mode skeletons, and body-goal skeletons over one slot numbering.
type CClause struct {
	c      *kb.Clause
	code   []instr
	pool   []term.Term
	skels  []snode
	body   []snode
	names  []string // slot print names, for lazy frame minting
	nslots int
}

// Clause returns the underlying database clause.
func (cc *CClause) Clause() *kb.Clause { return cc.c }

// PredCode is one predicate's compiled clause set plus its
// switch-on-term dispatch table.
type PredCode struct {
	// all holds every compiled clause in source (clause-ID) order.
	all []*CClause
	// buckets maps each first-argument constant seen in a clause head to
	// its premerged candidate list (keyed clauses for that constant plus
	// the variable-first clauses, in clause-ID order). nil when no
	// clause head has a constant first argument.
	buckets map[kb.ArgKey][]*CClause
	// varOnly is the bucket a bound first argument with no matching
	// constant key falls through to: only variable-first heads can match.
	varOnly []*CClause
}

// Select returns the candidate clauses for a goal, in clause-ID order:
// the premerged bucket for a bound first argument, or the full list.
func (pc *PredCode) Select(env *term.Env, goal term.Term) []*CClause {
	if pc.buckets == nil {
		return pc.all
	}
	gc, ok := goal.(*term.Compound)
	if !ok {
		return pc.all
	}
	k, keyed := kb.KeyOf(env.Resolve(gc.Args[0]))
	if !keyed {
		return pc.all
	}
	if cs, ok := pc.buckets[k]; ok {
		return cs
	}
	return pc.varOnly
}

// Pred returns the compiled code for a predicate's current clauses, or
// nil when it has none. Code is kept per predicate on the database, tagged
// with the stamp it was compiled from: the first call after an assert on
// the predicate compiles its new clauses alone and appends keyed ones to
// their buckets (other changes rebuild the dispatch), and every other
// clause's and predicate's code comes back pointer-identical. Safe for
// concurrent use; concurrent compiles of one predicate settle on one
// PredCode.
func Pred(db *kb.DB, fn term.Sym, arity int) *PredCode {
	clauses, stamp, code, current := db.Code(fn, arity)
	last, _ := code.(*PredCode)
	if current {
		return last
	}
	if len(clauses) == 0 {
		return nil
	}
	mine, reused := compilePred(clauses, last)
	pc := db.SetCode(fn, arity, stamp, mine).(*PredCode)
	if j, ok := db.EventJournal().(*obs.Journal); ok && pc == mine {
		j.Emit(obs.Event{
			Kind:       obs.KindVMRecompile,
			Pred:       kb.PredKey{Fn: fn, Arity: arity}.String(),
			Generation: stamp,
			Count:      int64(len(clauses) - reused),
			Detail:     strconv.Itoa(reused) + " reused",
		})
	}
	return pc
}

// For brings every predicate's compiled code up to date: it compiles the
// predicates asserted into since their last compile and leaves the rest.
func For(db *kb.DB) {
	for _, k := range db.PredKeys() {
		Pred(db, k.Fn, k.Arity)
	}
}

// Compile compiles every predicate of db from scratch, without touching
// the code kept on the database.
func Compile(db *kb.DB) map[kb.PredKey]*PredCode {
	out := make(map[kb.PredKey]*PredCode)
	for _, k := range db.PredKeys() {
		clauses, _, _, _ := db.Code(k.Fn, k.Arity)
		out[k], _ = compilePred(clauses, nil)
	}
	return out
}

// cacheSize is the Cache slot count; a power of two so the index mask is
// one AND. Sized to hold a few hundred predicates.
const cacheSize = 256

// Cache is an engine's direct-mapped predicate-code cache in front of
// Pred. The lookup runs once per dispatched goal, which makes it one of
// the hottest loads in the machine: a slot is valid only for the database
// generation it was filled at, so a hit costs one atomic load of the
// generation. After an assert every predicate refills on its next use, one
// at a time, and Pred recompiles only the predicates the assert changed.
// Negative results (no clauses) are cached too. A Cache belongs to one
// goroutine at a time.
type Cache struct {
	db    *kb.DB
	slots [cacheSize]cacheSlot
}

type cacheSlot struct {
	fn    term.Sym
	arity int32
	gen   uint64
	pc    *PredCode
}

// Pred returns db's compiled code for a predicate, or nil when it has no
// clauses. A cache moved to another database starts empty.
func (c *Cache) Pred(db *kb.DB, fn term.Sym, arity int) *PredCode {
	if c.db != db {
		*c = Cache{db: db}
	}
	// The generation is read before the code: a slot filled at gen holds
	// code at least as new as every assert up to gen.
	gen := db.Generation()
	s := &c.slots[(uint32(fn)*31+uint32(arity))&(cacheSize-1)]
	if s.gen == gen && s.fn == fn && s.arity == int32(arity) {
		return s.pc
	}
	pc := Pred(db, fn, arity)
	*s = cacheSlot{fn: fn, arity: int32(arity), gen: gen, pc: pc}
	return pc
}

// compilePred compiles one predicate's clauses and builds its dispatch
// table. A clause that last (the predicate's previous code, or nil) holds
// at the same position keeps its compiled form; reused counts those.
func compilePred(clauses []*kb.Clause, last *PredCode) (pc *PredCode, reused int) {
	pc = &PredCode{all: make([]*CClause, len(clauses))}
	for i, c := range clauses {
		if last != nil && i < len(last.all) && last.all[i].c == c {
			pc.all[i] = last.all[i]
			reused++
			continue
		}
		pc.all[i] = compileClause(c)
	}
	if last == nil || reused != len(last.all) || !extendDispatch(pc, last) {
		buildDispatch(pc)
	}
	return pc, reused
}

// extendDispatch gives pc, which is last plus appended clauses, last's
// dispatch with each appended clause at the end of its key's bucket (a new
// key's starts from varOnly), as buildDispatch would order it. Appends go
// to clipped copies, so last is never written. It reports false, leaving
// pc alone, when last has no buckets or an appended head is not keyed.
func extendDispatch(pc, last *PredCode) bool {
	if last.buckets == nil {
		return false
	}
	buckets := maps.Clone(last.buckets)
	for _, cc := range pc.all[len(last.all):] {
		k, keyed := kb.KeyOf(cc.c.Head.(*term.Compound).Args[0])
		if !keyed {
			return false
		}
		bucket, ok := buckets[k]
		if !ok {
			bucket = last.varOnly
		}
		buckets[k] = append(slices.Clip(bucket), cc)
	}
	pc.buckets, pc.varOnly = buckets, last.varOnly
	return true
}

// buildDispatch fills the switch-on-term table: one premerged bucket per
// distinct first-argument constant, in clause-ID order.
func buildDispatch(pc *PredCode) {
	keys := make([]kb.ArgKey, 0, 4)
	seen := make(map[kb.ArgKey]bool, 4)
	anyKeyed := false
	for _, cc := range pc.all {
		hc, ok := cc.c.Head.(*term.Compound)
		if !ok || len(hc.Args) == 0 {
			return // arity 0: nothing to switch on
		}
		if k, keyed := kb.KeyOf(hc.Args[0]); keyed {
			anyKeyed = true
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		} else {
			pc.varOnly = append(pc.varOnly, cc)
		}
	}
	if !anyKeyed {
		pc.varOnly = nil // every clause is variable-first: full list only
		return
	}
	pc.buckets = make(map[kb.ArgKey][]*CClause, len(keys))
	for _, k := range keys {
		bucket := make([]*CClause, 0, len(pc.varOnly)+1)
		for _, cc := range pc.all {
			hk, keyed := kb.KeyOf(cc.c.Head.(*term.Compound).Args[0])
			if !keyed || hk == k {
				bucket = append(bucket, cc)
			}
		}
		pc.buckets[k] = bucket
	}
}

// compiler carries the per-clause state of one compilation: slot
// numbering shared by head and body, the growing code, pool, and
// skeleton list.
type compiler struct {
	vars  []*term.Var
	names []string
	cc    *CClause
}

func (cp *compiler) slotOf(v *term.Var) int32 {
	for i, w := range cp.vars {
		if w == v {
			return int32(i)
		}
	}
	cp.vars = append(cp.vars, v)
	cp.names = append(cp.names, v.Name)
	return int32(len(cp.vars) - 1)
}

func isGround(t term.Term) bool {
	switch t := t.(type) {
	case *term.Var:
		return false
	case *term.Compound:
		for _, a := range t.Args {
			if !isGround(a) {
				return false
			}
		}
	}
	return true
}

// emit appends the instruction(s) matching one head argument, in
// depth-first preorder.
func (cp *compiler) emit(t term.Term, seen []bool) []bool {
	cc := cp.cc
	switch t := t.(type) {
	case *term.Var:
		slot := cp.slotOf(t)
		for int(slot) >= len(seen) {
			seen = append(seen, false)
		}
		if seen[slot] {
			cc.code = append(cc.code, instr{op: opVarR, idx: slot})
		} else {
			seen[slot] = true
			cc.code = append(cc.code, instr{op: opVarF, idx: slot})
		}
	case *term.Compound:
		if isGround(t) {
			cc.pool = append(cc.pool, t)
			cc.code = append(cc.code, instr{op: opConst, idx: int32(len(cc.pool) - 1)})
			return seen
		}
		skelIdx := int32(len(cc.skels))
		cc.skels = append(cc.skels, snode{}) // reserve; filled below
		at := len(cc.code)
		cc.code = append(cc.code, instr{op: opStruct, idx: skelIdx, fn: t.Functor, n: int32(len(t.Args))})
		for _, a := range t.Args {
			seen = cp.emit(a, seen)
		}
		cc.code[at].skip = int32(len(cc.code) - at - 1)
		cc.skels[skelIdx] = cp.skel(t)
	default: // atom or integer
		cc.pool = append(cc.pool, t)
		cc.code = append(cc.code, instr{op: opConst, idx: int32(len(cc.pool) - 1)})
	}
	return seen
}

// skel compiles a term into the write-mode/body skeleton form, under the
// clause's shared slot numbering.
func (cp *compiler) skel(t term.Term) snode {
	switch t := t.(type) {
	case *term.Var:
		return snode{kind: sSlot, slot: cp.slotOf(t)}
	case *term.Compound:
		if isGround(t) {
			return snode{kind: sGround, ground: t}
		}
		args := make([]snode, len(t.Args))
		for i, a := range t.Args {
			args[i] = cp.skel(a)
		}
		return snode{kind: sStruct, fn: t.Functor, args: args}
	default:
		return snode{kind: sGround, ground: t}
	}
}

// compileClause compiles one clause: head code in argument order, then
// body-goal skeletons under the same slot numbering.
func compileClause(c *kb.Clause) *CClause {
	cc := &CClause{c: c}
	cp := &compiler{cc: cc}
	var seen []bool
	if hc, ok := c.Head.(*term.Compound); ok {
		for _, a := range hc.Args {
			seen = cp.emit(a, seen)
		}
	}
	cc.body = make([]snode, len(c.Body))
	for i, g := range c.Body {
		cc.body[i] = cp.skel(g)
	}
	cc.names = cp.names
	cc.nslots = len(cp.names)
	return cc
}
