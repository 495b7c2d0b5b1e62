// Package vm is the register-based bytecode engine for the sequential
// resolution core: the compiled counterpart of the skeleton walker in
// internal/kb and internal/engine, finishing the compilation journey the
// paper's section 6 motivates (clause activation as a constant-time
// machine operation rather than a structure walk).
//
// At load time every clause is compiled once into a flat instruction
// sequence over the interned-Sym term core, and every predicate's clause
// set into a switch-on-term first-argument dispatch table. At run time
// the engine's sequential expansion path (internal/engine.Expand, reused
// per-goroutine by the parallel workers) executes head unification and
// body instantiation on the Machine instead of walking skeleton trees.
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
// tree-walker's per-goal index probe and merge allocation — while a goal
// with an unbound first argument takes the full list.
//
// # Fallback rules
//
// The tree-walking engine stays intact as the differential oracle, and
// resolution falls back to it for everything the VM does not model:
// builtins, negation-as-failure, tabled predicate calls (their
// generators run compiled underneath), tree-recorded runs (figure
// rendering wants the walker's labeling), Expander.NoVM (the
// blog.Compiled(false) option), and the
// BLOG_COMPILED=off environment variable, which disables the VM
// process-wide so CI can prove the oracle path green.
//
// Programs are cached on the kb.DB under a generation counter:
// asserting a clause bumps the generation and the next dispatch
// recompiles, so learned or merged clauses become visible to the
// compiled path immediately.
package vm

import (
	"os"

	"blog/internal/kb"
	"blog/internal/obs"
	"blog/internal/term"
)

// Enabled gates the VM process-wide; BLOG_COMPILED=off forces every
// query onto the tree-walking oracle engine.
var Enabled = os.Getenv("BLOG_COMPILED") != "off"

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
// body-goal construction: like term.Skeleton, but slots resolve through
// the machine's register file before minting fresh variables.
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

// argKey is the switch-on-term dispatch key: the shape of a bound first
// argument (mirrors the kb first-argument index, over interned symbols).
type argKey struct {
	kind byte // 'a' atom, 'i' integer, 'c' compound
	sym  term.Sym
	num  int64
}

func keyOf(arg term.Term) (argKey, bool) {
	switch a := arg.(type) {
	case term.Atom:
		return argKey{kind: 'a', sym: a.Sym()}, true
	case term.Int:
		return argKey{kind: 'i', num: int64(a)}, true
	case *term.Compound:
		return argKey{kind: 'c', sym: a.Functor, num: int64(len(a.Args))}, true
	default:
		return argKey{}, false
	}
}

// PredCode is one predicate's compiled clause set plus its
// switch-on-term dispatch table.
type PredCode struct {
	// all holds every compiled clause in source (clause-ID) order.
	all []*CClause
	// buckets maps each first-argument constant seen in a clause head to
	// its premerged candidate list (keyed clauses for that constant plus
	// the variable-first clauses, in clause-ID order). nil when no
	// clause head has a constant first argument.
	buckets map[argKey][]*CClause
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
	k, keyed := keyOf(env.Resolve(gc.Args[0]))
	if !keyed {
		return pc.all
	}
	if cs, ok := pc.buckets[k]; ok {
		return cs
	}
	return pc.varOnly
}

// predKey packs functor and arity into one word, so the per-goal Pred
// probe takes the runtime's integer-key fast path instead of hashing a
// struct.
type predKey uint64

func makePredKey(fn term.Sym, arity int) predKey {
	return predKey(uint64(uint32(fn))<<32 | uint64(uint32(arity)))
}

// Program is a compiled database: one PredCode per predicate, pinned to
// the kb generation it was compiled from.
type Program struct {
	gen   uint64
	preds map[predKey]*PredCode
}

// Gen returns the database generation this program was compiled from.
func (p *Program) Gen() uint64 { return p.gen }

// Pred returns the compiled code for a predicate, or nil when the
// database has no clauses for it.
func (p *Program) Pred(fn term.Sym, arity int) *PredCode {
	return p.preds[makePredKey(fn, arity)]
}

// For returns the compiled program for db, compiling (and caching on the
// database) when none exists or the database generation moved — which is
// how asserted clauses become visible to the compiled path. Safe for
// concurrent readers; compilation itself follows the kb contract that
// clause loading is single-threaded.
func For(db *kb.DB) *Program {
	if p, ok := db.CompiledCache().(*Program); ok && p.gen == db.Generation() {
		return p
	}
	p := Compile(db)
	db.SetCompiledCache(p)
	if j, ok := db.EventJournal().(*obs.Journal); ok {
		j.Emit(obs.Event{
			Kind:       obs.KindVMRecompile,
			Generation: p.gen,
			Count:      int64(len(p.preds)),
		})
	}
	return p
}

// Compile compiles every clause of db and builds the per-predicate
// dispatch tables.
func Compile(db *kb.DB) *Program {
	p := &Program{gen: db.Generation(), preds: make(map[predKey]*PredCode)}
	for _, c := range db.Clauses() {
		fn, arity, ok := term.PredOf(c.Head)
		if !ok {
			continue
		}
		key := makePredKey(fn, arity)
		pc := p.preds[key]
		if pc == nil {
			pc = &PredCode{}
			p.preds[key] = pc
		}
		pc.all = append(pc.all, compileClause(c))
	}
	for _, pc := range p.preds {
		buildDispatch(pc)
	}
	return p
}

// buildDispatch fills the switch-on-term table: one premerged bucket per
// distinct first-argument constant, in clause-ID order.
func buildDispatch(pc *PredCode) {
	keys := make([]argKey, 0, 4)
	seen := make(map[argKey]bool, 4)
	anyKeyed := false
	for _, cc := range pc.all {
		hc, ok := cc.c.Head.(*term.Compound)
		if !ok || len(hc.Args) == 0 {
			return // arity 0: nothing to switch on
		}
		if k, keyed := keyOf(hc.Args[0]); keyed {
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
	pc.buckets = make(map[argKey][]*CClause, len(keys))
	for _, k := range keys {
		bucket := make([]*CClause, 0, len(pc.varOnly)+1)
		for _, cc := range pc.all {
			hk, keyed := keyOf(cc.c.Head.(*term.Compound).Args[0])
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
