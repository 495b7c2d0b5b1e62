// Package engine implements the resolution core shared by every B-LOG
// search strategy: OR-tree nodes (the paper's "chains"), node expansion by
// clause resolution, and the evaluable builtins.
//
// AND-conjunction is handled sequentially inside each node, exactly as the
// paper's section 3 model prescribes ("we consider AND-trees now only in a
// sequential way, in very much the same way Prolog does"): a node carries
// the whole remaining goal list and one expansion step resolves only its
// first goal. Every fan-out under a node is therefore an OR-alternative,
// and each root-to-leaf chain is either a solution or a failure.
package engine

import (
	"context"
	"errors"

	"blog/internal/kb"
	"blog/internal/obs"
	"blog/internal/term"
	"blog/internal/unify"
	"blog/internal/vm"
	"blog/internal/weights"
)

// GoalEntry is a pending goal plus the static coordinate it came from,
// which names the arcs (weighted pointers) leaving it.
type GoalEntry struct {
	Goal   term.Term
	Caller kb.ClauseID // clause whose body produced this goal; kb.Query for query goals
	Pos    int         // body position within Caller
}

// GoalStack is a persistent (immutable) list of pending goals. Sibling
// OR-branches share tails, so pushing a clause body allocates only as many
// nodes as the body has goals.
type GoalStack struct {
	entry GoalEntry
	tail  *GoalStack
	size  int
}

// PushGoals prepends entries (in order) onto s and returns the new stack.
func PushGoals(s *GoalStack, entries []GoalEntry) *GoalStack {
	for i := len(entries) - 1; i >= 0; i-- {
		sz := 1
		if s != nil {
			sz = s.size + 1
		}
		s = &GoalStack{entry: entries[i], tail: s, size: sz}
	}
	return s
}

// link chains the goal entries laid out in block onto s, block[0] on
// top, and returns the new stack: a body or a chain's goals as one
// allocation, each node still a distinct struct of the persistent list.
func link(block []GoalStack, s *GoalStack) *GoalStack {
	for i := len(block) - 1; i >= 0; i-- {
		block[i].tail, block[i].size = s, s.Len()+1
		s = &block[i]
	}
	return s
}

// Top returns the first pending goal; ok is false for the empty stack.
func (s *GoalStack) Top() (GoalEntry, bool) {
	if s == nil {
		return GoalEntry{}, false
	}
	return s.entry, true
}

// Pop returns the stack without its first goal.
func (s *GoalStack) Pop() *GoalStack {
	if s == nil {
		return nil
	}
	return s.tail
}

// Len returns the number of pending goals.
func (s *GoalStack) Len() int {
	if s == nil {
		return 0
	}
	return s.size
}

// ArcList is a persistent list of the arcs chosen along a chain, stored
// leaf-first so extension is O(1); Slice reverses into root-first order
// for the weight update rules.
type ArcList struct {
	arc    kb.Arc
	parent *ArcList
	size   int
}

// Extend appends an arc at the leaf end.
func (l *ArcList) Extend(a kb.Arc) *ArcList {
	sz := 1
	if l != nil {
		sz = l.size + 1
	}
	return &ArcList{arc: a, parent: l, size: sz}
}

// Len returns the chain length in arcs.
func (l *ArcList) Len() int {
	if l == nil {
		return 0
	}
	return l.size
}

// Slice materializes the chain root-first.
func (l *ArcList) Slice() []kb.Arc {
	out := make([]kb.Arc, l.Len())
	for i, c := l.Len()-1, l; c != nil; i, c = i-1, c.parent {
		out[i] = c.arc
	}
	return out
}

// Last returns the leaf-most arc of the chain.
func (l *ArcList) Last() (kb.Arc, bool) {
	if l == nil {
		return kb.Arc{}, false
	}
	return l.arc, true
}

// Node is one OR-tree node: a resolvent with its environment, the chain of
// decisions that produced it, and the branch-and-bound bound B(n).
type Node struct {
	Goals *GoalStack
	Env   *term.Env
	Chain *ArcList
	Bound float64
	Depth int // arcs from the root
	// Seq is a creation serial used by strategies as a tiebreaker: LIFO
	// order for depth-first, FIFO for breadth-first/best-first.
	Seq uint64
	// Parent links the search tree for figure-3 style rendering; nil
	// unless the expander records trees.
	Parent *Node
	// Label describes the decision that created this node (the matched
	// clause or builtin), used only for rendering.
	Label string
}

// IsSolution reports whether the node has no pending goals.
func (n *Node) IsSolution() bool { return n.Goals.Len() == 0 }

// Tabler resolves calls to tabled predicates by answer-clause resolution:
// instead of expanding a tabled goal against program clauses, the engine
// asks the Tabler for the environments that unify the goal with each
// memoized answer. internal/table implements it; the interface lives here
// so the engine never imports the table subsystem. Implementations must be
// safe for concurrent use (parallel workers share one Tabler per query).
type Tabler interface {
	// IsTabled reports whether the predicate is under tabled evaluation.
	IsTabled(fn term.Sym, arity int) bool
	// Resolve returns one extended environment per table answer that
	// unifies with goal (resolved under env), computing the table to
	// completion first if needed. ctx bounds that computation.
	Resolve(ctx context.Context, env *term.Env, goal term.Term) ([]*term.Env, error)
}

// NegationTabler is implemented by Tablers that need a restricted view
// inside negation-as-failure sub-searches. Negation over a tabled goal is
// only sound against a final answer set; a Tabler in the middle of
// producing a recursive component returns a view that enforces that
// (rejecting non-stratified programs) instead of silently consuming a
// growing table.
type NegationTabler interface {
	Tabler
	// ForNegation returns the Tabler to use inside a \+ sub-search.
	ForNegation() Tabler
}

// Expander expands OR-tree nodes against a database and weight store.
// It carries counters and the bytecode machine's scratch space, so each
// goroutine must own its Expander.
type Expander struct {
	DB *kb.DB
	// Weights supplies arc weights for child bounds.
	Weights weights.Store
	// OccursCheck enables sound unification.
	OccursCheck bool
	// MaxDepth bounds chain length in arcs; longer chains fail. Zero
	// means the weight store's A constant.
	MaxDepth int
	// RecordTree links children to parents and fills Label for rendering.
	RecordTree bool
	// Tabler, when non-nil, intercepts calls to tabled predicates and
	// resolves them against memoized answers instead of program clauses.
	Tabler Tabler
	// Ctx cancels work inside a single Expand call (today: the nested
	// negation-as-failure search, which may run up to negationBudget
	// expansions, and tabled answer production). The per-node loops of the
	// search drivers check the context themselves between Expand calls;
	// nil means no cancellation.
	Ctx context.Context
	// NoVM forces the tree-walking resolution path (the differential
	// oracle), as the blog.Compiled(false) option does.
	NoVM bool
	// VMDispatched counts goals resolved on the compiled bytecode path.
	VMDispatched uint64
	// Prof, when non-nil, accumulates per-predicate profile counters with
	// interval attribution: each Expand charges the time since the previous
	// Expand to the previously expanded predicate. Callers that pause
	// between Expand calls (pull iterators) flush via ProfFlush so idle
	// time is not attributed.
	Prof *obs.Profiler

	seq   uint64
	prog  *vm.Program
	mach  vm.Machine
	meter *obs.Meter
}

// NewExpander returns an expander with MaxDepth defaulted from the store.
func NewExpander(db *kb.DB, ws weights.Store) *Expander {
	return &Expander{DB: db, Weights: ws, MaxDepth: ws.Config().A}
}

// Root builds the root node for a query's goals.
func (e *Expander) Root(goals []term.Term) *Node {
	entries := make([]GoalEntry, len(goals))
	for i, g := range goals {
		entries[i] = GoalEntry{Goal: g, Caller: kb.Query, Pos: i}
	}
	e.seq++
	return &Node{Goals: PushGoals(nil, entries), Seq: e.seq, Label: "?-"}
}

// ErrDepthLimit marks chains cut off by MaxDepth. They are treated as
// failures for the weight rules, matching the A*N infinity coding: a chain
// of A arcs has bound at least A times... any single known solution.
var ErrDepthLimit = errors.New("engine: chain exceeded maximum depth")

// Expand resolves the first goal of n and returns its children. A nil,
// nil return means the node failed (no matching clause, failed builtin, or
// depth limit). Solutions must be detected by the caller via IsSolution
// before calling Expand.
func (e *Expander) Expand(n *Node) ([]*Node, error) {
	entry, ok := n.Goals.Top()
	if !ok {
		return nil, errors.New("engine: Expand called on solution node")
	}
	maxDepth := e.MaxDepth
	if maxDepth <= 0 {
		maxDepth = e.Weights.Config().A
	}
	if n.Depth >= maxDepth {
		return nil, ErrDepthLimit
	}
	goal := n.Env.Resolve(entry.Goal)

	if fn, arity, ok := term.PredOf(goal); ok {
		if e.Prof != nil {
			if e.meter == nil {
				e.meter = obs.NewMeter(e.Prof)
			}
			e.meter.Note(fn, arity, 0, 0)
		}
		if fn == term.SymNeg && arity == 1 {
			return e.expandNegation(n, goal)
		}
		if isBuiltin(fn, arity) {
			return e.expandBuiltin(n, goal, &biTable[fn][arity])
		}
		if e.Tabler != nil && e.Tabler.IsTabled(fn, arity) {
			return e.expandTabled(n, goal)
		}
		// Compiled path: everything the VM models was filtered out above;
		// tree recording keeps the walker so figure labels are unchanged.
		if !e.NoVM && !e.RecordTree && vm.Enabled {
			if pc := e.program().Pred(fn, arity); pc != nil {
				return e.expandCompiled(n, entry, goal, pc)
			}
		}
	}

	cands := e.DB.Candidates(n.Env, goal)
	children := make([]*Node, 0, len(cands))
	for _, c := range cands {
		// Two-phase activation of the compiled clause: instantiate the
		// head (slot lookups over a fresh frame, ground subterms shared —
		// no map-backed deep rename), and build the body only if the head
		// actually unifies.
		head, frame := c.HeadForUnify()
		env, ok := e.unify(n.Env, goal, head)
		if !ok {
			continue
		}
		bodyEntries := make([]GoalEntry, len(c.Body))
		if len(bodyEntries) > 0 {
			frame = c.EnsureFrame(frame)
			for i := range bodyEntries {
				bodyEntries[i] = GoalEntry{Goal: c.InstantiateGoal(i, frame), Caller: c.ID, Pos: i}
			}
		}
		arc := kb.Arc{Caller: entry.Caller, Pos: entry.Pos, Callee: c.ID}
		e.seq++
		child := &Node{
			Goals: PushGoals(n.Goals.Pop(), bodyEntries),
			Env:   env,
			Chain: n.Chain.Extend(arc),
			Bound: n.Bound + e.arcWeight(n, arc),
			Depth: n.Depth + 1,
			Seq:   e.seq,
		}
		if e.RecordTree {
			child.Parent = n
			child.Label = e.matchLabel(env, goal, c)
		}
		children = append(children, child)
	}
	return children, nil
}

// ProfFlush charges the profiler's pending attribution interval and
// clears it. Search drivers call it at solution yields and terminal
// states so time spent outside the engine is not charged to a predicate.
func (e *Expander) ProfFlush() {
	e.meter.Flush(0, 0)
}

// program returns the compiled program for the database, recompiling
// when the database generation moved (a clause was asserted since).
// Lazy attachment here, rather than in a constructor, covers every
// Expander construction site, including struct literals.
func (e *Expander) program() *vm.Program {
	if e.prog == nil || e.prog.Gen() != e.DB.Generation() {
		e.prog = vm.For(e.DB)
	}
	return e.prog
}

// expandCompiled is Expand's clause-resolution loop on the bytecode
// machine: switch-on-term candidate selection, head unification on the
// register machine, and body goals built from the registers. Candidate
// order is clause-ID order, identical to the tree-walking path, so the
// two engines produce the same children in the same order.
func (e *Expander) expandCompiled(n *Node, entry GoalEntry, goal term.Term, pc *vm.PredCode) ([]*Node, error) {
	e.VMDispatched++
	if c := e.meter.Current(); c != nil {
		c.VMDispatches.Add(1)
	}
	cands := pc.Select(n.Env, goal)
	children := make([]*Node, 0, len(cands))
	for _, cc := range cands {
		env, ok := e.mach.Resolve(n.Env, goal, cc, e.OccursCheck)
		if !ok {
			continue
		}
		c := cc.Clause()
		arc := kb.Arc{Caller: entry.Caller, Pos: entry.Pos, Callee: c.ID}
		e.seq++
		children = append(children, &Node{
			Goals: e.pushBody(n.Goals.Pop(), c),
			Env:   env,
			Chain: n.Chain.Extend(arc),
			Bound: n.Bound + e.arcWeight(n, arc),
			Depth: n.Depth + 1,
			Seq:   e.seq,
		})
	}
	return children, nil
}

// pushBody prepends the instantiated body of a just-resolved compiled
// clause onto tail. It is PushGoals specialized to the machine's body
// skeletons: the stack nodes for the whole body come from one block, so
// a clause with k body goals costs one allocation instead of k+1. Each
// node is a distinct addressable struct, so the persistent-list sharing
// contract is unchanged.
func (e *Expander) pushBody(tail *GoalStack, c *kb.Clause) *GoalStack {
	if len(c.Body) == 0 {
		return tail
	}
	block := make([]GoalStack, len(c.Body))
	for i := range block {
		block[i].entry = GoalEntry{Goal: e.mach.BodyGoal(i), Caller: c.ID, Pos: i}
	}
	return link(block, tail)
}

func (e *Expander) unify(env *term.Env, a, b term.Term) (*term.Env, bool) {
	if e.OccursCheck {
		return unify.UnifyOC(env, a, b)
	}
	return unify.Unify(env, a, b)
}

// arcWeight computes the bound increment for taking arc from node n,
// consulting the conditional (context-sensitive) store when the weight
// store provides one — the "conditional information" extension sketched
// at the end of section 5 of the paper.
func (e *Expander) arcWeight(n *Node, arc kb.Arc) float64 {
	if cs, ok := e.Weights.(weights.ContextualStore); ok {
		if prev, has := n.Chain.Last(); has {
			return cs.WeightIn(prev, arc)
		}
		return cs.WeightIn(weights.RootContext, arc)
	}
	return e.Weights.Weight(arc)
}

// negationBudget bounds the nested search a \+ goal may perform.
const negationBudget = 100_000

// ErrNegationBudget reports a \+ subgoal whose proof attempt exceeded
// negationBudget expansions.
var ErrNegationBudget = errors.New("engine: negation subgoal exceeded expansion budget")

// expandNegation implements negation as failure: \+(G) succeeds exactly
// when a nested depth-first search over the same database finds no proof
// of G. The nested search adds no arcs (negation is a machine decision,
// not a database pointer) and uses the remaining depth budget. As in
// standard Prolog, \+ over a goal with unbound variables means "no
// instance is provable" (it never binds them).
func (e *Expander) expandNegation(n *Node, goal term.Term) ([]*Node, error) {
	inner := goal.(*term.Compound).Args[0]
	sub := &Expander{
		DB:          e.DB,
		Weights:     e.Weights,
		OccursCheck: e.OccursCheck,
		MaxDepth:    e.MaxDepth,
		Tabler:      e.Tabler,
		Ctx:         e.Ctx,
		NoVM:        e.NoVM,
	}
	if nt, ok := e.Tabler.(NegationTabler); ok {
		sub.Tabler = nt.ForNegation()
	}
	defer func() { e.VMDispatched += sub.VMDispatched }()
	stack := []*Node{{
		Goals: PushGoals(nil, []GoalEntry{{Goal: inner, Caller: kb.Query, Pos: 0}}),
		Env:   n.Env,
	}}
	var steps int
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur.IsSolution() {
			return nil, nil // proof found: \+ fails the chain
		}
		if steps++; steps > negationBudget {
			return nil, ErrNegationBudget
		}
		if e.Ctx != nil && steps%256 == 0 {
			if err := e.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		children, err := sub.Expand(cur)
		if err != nil && err != ErrDepthLimit {
			return nil, err
		}
		stack = append(stack, children...)
	}
	// No proof of the inner goal: \+ succeeds like a zero-weight builtin.
	return []*Node{e.stepChild(n, n.Env, goal)}, nil
}

// stepChild builds the child of a machine decision — a builtin, \+ or a
// tabled answer — under env: the goal is consumed, and since no database
// pointer was followed the child adds no arc, no weight and no depth.
func (e *Expander) stepChild(n *Node, env *term.Env, goal term.Term) *Node {
	e.seq++
	child := &Node{
		Goals: n.Goals.Pop(),
		Env:   env,
		Chain: n.Chain,
		Bound: n.Bound,
		Depth: n.Depth,
		Seq:   e.seq,
	}
	if e.RecordTree {
		child.Parent = n
		child.Label = env.Format(goal)
	}
	return child
}

// matchLabel renders the head of the matched clause under the child env,
// which is how figure 3 labels the top half of each node.
func (e *Expander) matchLabel(env *term.Env, goal term.Term, c *kb.Clause) string {
	return env.Format(goal)
}

// expandTabled resolves a tabled goal against its answer table: one child
// per memoized answer that unifies. Like a builtin, answer consumption is
// a machine decision, not a database pointer — it adds no arc, no weight
// and no depth; the sub-derivation the answer stands for was accounted
// when the table was produced. Termination on left-recursive programs
// follows: recursive calls consume finite answer sets instead of opening
// ever-deeper program-clause resolvents.
func (e *Expander) expandTabled(n *Node, goal term.Term) ([]*Node, error) {
	ctx := e.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	envs, err := e.Tabler.Resolve(ctx, n.Env, goal)
	// Table production charges its own time inside the generator runs
	// (which share the profiler); restarting the interval clock here keeps
	// that wall time from also being charged to the consumer's predicate.
	e.meter.Skip()
	if err != nil {
		return nil, err
	}
	return e.stepChildren(n, envs, goal), nil
}

// stepChildren is stepChild over staged alternatives, one child each.
func (e *Expander) stepChildren(n *Node, envs []*term.Env, goal term.Term) []*Node {
	children := make([]*Node, len(envs))
	for i, env := range envs {
		children[i] = e.stepChild(n, env, goal)
	}
	return children
}

// expandBuiltin evaluates a builtin goal. Builtins are decisions of the
// machine, not of the database, so they add no arc and zero weight; a
// failing builtin fails the whole chain, exactly like an unmatched goal.
// n.Env is persistent here, so a deterministic builtin hands back the
// extended environment and the node's own is untouched.
func (e *Expander) expandBuiltin(n *Node, goal term.Term, bi *biEntry) ([]*Node, error) {
	if bi.det == nil {
		envs, err := bi.alts(n.Env, goal)
		if err != nil {
			return nil, err
		}
		return e.stepChildren(n, envs, goal), nil
	}
	env, ok, err := bi.det(n.Env, goal)
	if err != nil || !ok {
		return nil, err
	}
	return []*Node{e.stepChild(n, env, goal)}, nil
}

// Solution extracts the bindings of the given query variables from a
// solution node, deeply resolved.
type Solution struct {
	// Bindings maps query variable names to their value terms.
	Bindings map[string]term.Term
	// Bound is the chain bound at the solution leaf.
	Bound float64
	// Chain is the root-first arc chain (the paper's decision sequence).
	Chain []kb.Arc
	// Depth is the chain length in arcs.
	Depth int
}

// Extract builds a Solution for query vars from a solution node.
func Extract(n *Node, queryVars []*term.Var) Solution {
	b := make(map[string]term.Term, len(queryVars))
	for _, v := range queryVars {
		b[v.String()] = n.Env.ResolveDeep(v)
	}
	return Solution{Bindings: b, Bound: n.Bound, Chain: n.Chain.Slice(), Depth: n.Depth}
}

// Format renders a solution as `X = v, Y = w` in variable order.
func (s Solution) Format(queryVars []*term.Var) string {
	return string(s.AppendText(nil, VarNames(queryVars)))
}

// AppendText appends the solution as `X = v, Y = w` to dst, naming the
// query variables by names (their print names, in query order), or
// `true` when the query has none. It is the one layout of a solution's
// text; term.Append renders every value.
func (s Solution) AppendText(dst []byte, names []string) []byte {
	if len(names) == 0 {
		return append(dst, "true"...)
	}
	for i, name := range names {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, name...)
		dst = append(dst, " = "...)
		dst = term.Append(dst, s.Bindings[name], nil)
	}
	return dst
}

// VarNames returns the print names of the query variables, the keys of a
// Solution's Bindings, in query order.
func VarNames(queryVars []*term.Var) []string {
	names := make([]string, len(queryVars))
	for i, v := range queryVars {
		names[i] = v.String()
	}
	return names
}
